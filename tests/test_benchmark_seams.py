"""The rwpf names that the benchmark's tracer (perfbench/tracing.py) wraps.

A traced benchmark run swaps these module attributes for timing wrappers;
if one of them changes shape, the run fails. This test runs one small
filter step and one small paired benchmark under the tracer.
"""

import sys
from pathlib import Path

from rwpf import bench, bridge, lowdisc, proposal, psi, smc
from rwpf.config import BenchConfig
from rwpf.models import builtin

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracing import Tracer, instrumented  # noqa: E402

PATCHED = (bridge, bridge.LazyBridge, lowdisc, proposal, psi, smc)


def _attributes():
    return {(owner.__name__, name): value
            for owner in PATCHED for name, value in vars(owner).items()}


def test_traced_step_and_bench_count_the_seams_and_restore_them():
    before = _attributes()
    tracer = Tracer()
    bcfg = BenchConfig(x_a=0.0, x_b=0.0, a=0.0, b=1.0, inner_points_grid=(4,),
                       replications=2, modes=("mc", "rqmc-times-values"))
    with instrumented(tracer, builtin("sine"), replication_ids=True) as model:
        smc.step(smc.init_cloud(16, 0.0, 1), model, (1.0, 0.3, 0.5), (0.0, 1.0),
                 psi.PsiConfig(mode="rqmc-times-values", inner_points=4))
        bench.run_bench(model, bcfg, 5)
    assert tracer.calls["proposal.propose"] == 1          # one call per filter step
    assert tracer.calls["psi.estimate"] == 4              # 2 replications x 2 modes
    assert tracer.calls["models.big_a"] >= 2
    assert type(tracer.counts["proposal.rejections"]) is int
    after = _attributes()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []


def test_owen_bench_randomizes_once_per_point_set_estimate():
    # perfbench's smoke test reads lowdisc.randomize.calls on psi-owen
    tracer = Tracer()
    bcfg = BenchConfig(x_a=0.0, x_b=3.0, a=0.0, b=1.0, inner_points_grid=(8,),
                       replications=12, modes=("rqmc-times", "rqmc-times-values"),
                       randomization="owen-scramble")
    with instrumented(tracer, builtin("sine"), replication_ids=True) as model:
        bench.run_bench(model, bcfg, 5)
    c = tracer.counts
    point_set_estimates = c["psi.estimates"] - c["psi.kappa_zero"] - c["psi.fallback"]
    assert point_set_estimates > 0
    assert tracer.calls["lowdisc.randomize"] == point_set_estimates
    assert tracer.calls["rngs.fresh_seed"] == point_set_estimates
