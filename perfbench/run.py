"""rwpf benchmark: three single-threaded closed-loop workloads, one caller.

Run from the repository root:

    python3 perfbench/run.py --workload filter-mc --seed 1 --seconds 20 --trace 0

Workloads (WORKLOADS holds the exact settings):

* ``filter-mc``: ``smc.step`` folded over a simulated sine dataset, psi
  mode ``mc`` with M=1, N=1024. Per-particle Python work (proposal,
  ``big_a``, bridge construction and sampling, smc) dominates and
  ``lowdisc`` is never called, so it is the bypass workload for
  point-set changes.
* ``filter-rqmc``: the same fold with ``rqmc-times-values``, M=16,
  digital shift, N=256: point-set generation and randomization,
  uniform-driven bridge sampling with snapshot/restore, ``invnorm``.
* ``psi-owen``: ``bench.run_bench`` as ``rwpf psi-bench`` calls it, on
  the criterion-3 endpoints (sine, x_a=0, x_b=pi on [0, 1]), modes
  ``mc``, ``rqmc-times`` and ``rqmc-times-values`` at M=64 with
  ``owen-scramble``. No filter work; nested scrambling and memoized
  shared skeletons instead.

A filter run repeats passes until ``--seconds`` have passed; each pass
filters its own simulated dataset from a fresh ``init_cloud``. A psi-owen
run makes one ``run_bench`` call of ``REPLICATIONS_PER_S * --seconds``
replications. Each pass or call has its own master seed derived from
``--seed``, which also seeds its dataset, so one seed always gives the
same inputs.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the
untraced loop for half the time, then one traced unit of work (one
filter pass, or one run_bench call of the --trace 0 size) with spans from
``perfbench/tracing.py``, and prints the per-layer metrics. Results,
provenance and spans go to ``.perfbench_out/`` under the working
directory. The last line of stdout is the JSON result; the exit code is
0 only if every correctness check passed.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# single-threaded: no BLAS/OpenMP worker pools
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURE = ROOT / "tests" / "fixtures" / "psi_sine_0_pi_0_1.json"
BANDS = HERE / "bands.json"
OUT_DIR = Path(".perfbench_out")

SETUP_RUNS = 7           # set-ups per run: this process plus fresh subprocesses
TARGET_SE = 1e-3         # s_to_se: seconds of estimator work to reach this SE
MEAN_TOL_SE = 4.0        # psi means must lie this many combined SE from the oracle
SEED_STRIDE = 1_000_000  # pass or call i runs on master seed seed * SEED_STRIDE + i
# psi-owen makes one run_bench call of this many replications per second of
# --seconds: about what a 2-vCPU x86_64 VM runs in that time (108 to 175
# replications/s), so 2,400 at 20 s. The bootstrap then allocates
# 1000 x 2,400 arrays, as a real psi-bench call of that size does.
REPLICATIONS_PER_S = 120
MIN_REPLICATIONS = 100
# A psi-owen step is a block of this many consecutive paired replications
# (30 estimates, about 90 ms). One replication takes 0 to 20 ms as kappa
# varies, and the 90th percentile of so wide a spread moved 30% between
# runs when the host slowed for a few minutes; a block, like a filter
# step, sums many estimates.
REPLICATIONS_PER_STEP = 10


@dataclasses.dataclass(frozen=True)
class FilterSpec:
    name: str
    mode: str
    inner_points: int
    particles: int
    randomization: str = "digital-shift"
    steps: int = 100
    spacing: float = 1.0
    noise_sd: float = 1.0
    x0: float = 0.0


@dataclasses.dataclass(frozen=True)
class PsiSpec:
    name: str
    modes: tuple[str, ...]
    inner_points: int
    randomization: str


WORKLOADS = {
    "filter-mc": FilterSpec("filter-mc", "mc", 1, 1024),
    "filter-rqmc": FilterSpec("filter-rqmc", "rqmc-times-values", 16, 256),
    "psi-owen": PsiSpec("psi-owen", ("mc", "rqmc-times", "rqmc-times-values"),
                        64, "owen-scramble"),
}

# (name, unit, better); BENCHMARK.json lists the same metrics
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("step_ms_p90", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]
_SPANS = ["lowdisc.generate_base", "lowdisc.randomize", "bridge.value_at",
          "bridge.value_at_with_uniform", "bridge.restore", "stats.invnorm",
          "models.phi_scalar", "models.big_a", "proposal.propose",
          "psi.estimate", "smc.resample"]
PER_LAYER = (
    [(f"{s}.calls", "count", "lower") for s in _SPANS]
    + [(f"{s}.self_pct", "%", "lower") for s in _SPANS]
    + [
        ("smc.step.self_pct", "%", "lower"),
        ("bench.run_bench.self_pct", "%", "lower"),
        ("rngs.particle_streams.self_pct", "%", "lower"),
        ("rngs.fresh_seed.calls", "count", "lower"),
        ("lowdisc.base_reuse_frac", "frac", "lower"),
        ("bridge.inserts", "count", "lower"),
        ("bridge.collisions", "count", "lower"),
        ("proposal.rejections", "count", "lower"),
        ("psi.kappa_mean", "count", "lower"),
        ("psi.kappa_max", "count", "lower"),
        ("psi.kappa_zero_frac", "frac", "higher"),
        ("psi.fallback_frac", "frac", "lower"),
        ("psi.queries_per_estimate", "count", "lower"),
        ("smc.resampled_frac", "frac", "lower"),
        ("smc.ess_frac_p50", "frac", "higher"),
        ("trace.spans", "count", "lower"),
        ("trace.untraced_psi_estimates_per_s", "1/s", "higher"),
        ("trace.traced_psi_estimates_per_s", "1/s", "higher"),
    ]
)


def _import_rwpf() -> None:
    if not (SRC / "rwpf" / "__init__.py").is_file():
        raise FileNotFoundError(f"rwpf sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import rwpf  # noqa: F401


def _load_json(path: Path) -> dict:
    with open(path) as f:
        return json.load(f)


def psi_replications(seconds: float) -> int:
    """Replications of the one run_bench call a psi-owen run makes."""
    return max(MIN_REPLICATIONS, round(REPLICATIONS_PER_S * seconds))


# ---------------------------------------------------------------- set-up

@dataclasses.dataclass
class FilterContext:
    spec: FilterSpec
    seed: int
    cfg: object                 # RunConfig of pass 0; pass i re-seeds it
    model: object
    fcfg: object
    observations: list          # dataset of pass 0
    reference_loglik: float     # zero-drift Kalman log-likelihood of that dataset
    band: tuple[float, float]   # allowed range of a pass's loglik - reference
    cloud: object               # initial cloud of pass 0
    next_unit: int = 0


@dataclasses.dataclass
class PsiContext:
    spec: PsiSpec
    seed: int
    model: object
    bcfg: object
    oracle: dict
    next_unit: int = 0


def setup(spec, seed: int, band: tuple[float, float] | None = None):
    """Everything before the first timed operation.

    Filter workloads check each pass's log-likelihood against `band`,
    by default the one pinned in bands.json.
    """
    _import_rwpf()
    from rwpf import config, lowdisc, psi, smc

    if isinstance(spec, PsiSpec):
        fx = _load_json(FIXTURE)
        cfg = config.parse_config({
            "model": {"name": fx["model"]}, "x0": 0.0, "observation_times": [1.0],
            "noise_sd": 1.0, "seed": seed,
            "bench": {"x_a": fx["x_a"], "x_b": fx["x_b"], "a": fx["a"], "b": fx["b"],
                      "inner_points_grid": [spec.inner_points],
                      "replications": MIN_REPLICATIONS, "modes": list(spec.modes),
                      "randomization": spec.randomization},
        })
        model = cfg.build_model()
        for mode in spec.modes:  # the validation rwpf psi-bench does up front
            psi.PsiConfig(mode=mode, inner_points=spec.inner_points,
                          rqmc_kappa_cap=cfg.bench.kappa_cap,
                          randomization=spec.randomization)
        lowdisc.generate_base(lowdisc.MAX_DIMENSION, spec.inner_points)
        return PsiContext(spec, seed, model, cfg.bench, fx)

    cfg = config.parse_config({
        "model": {"name": "sine"}, "x0": spec.x0,
        "observation_times": {"count": spec.steps, "spacing": spec.spacing},
        "noise_sd": spec.noise_sd, "seed": seed * SEED_STRIDE,
        "particles": spec.particles,
        "psi": {"mode": spec.mode, "inner_points": spec.inner_points,
                "randomization": spec.randomization},
    })
    model = cfg.build_model()
    fcfg = smc.FilterConfig(
        n_particles=cfg.n_particles, x0=cfg.x0, noise_sd=cfg.noise_sd,
        psi=cfg.psi_cfg, proposal=cfg.proposal, resampling=cfg.resampling,
        ess_threshold=cfg.ess_threshold, master_seed=cfg.seed,
    )
    observations, reference = pass_dataset(cfg, cfg.seed)
    if band is None:
        pinned = _load_json(BANDS)[spec.name]
        band = (pinned["lo"], pinned["hi"])
    if spec.mode != psi.MODE_MC:
        lowdisc.generate_base(lowdisc.MAX_DIMENSION, spec.inner_points)
    cloud = smc.init_cloud(fcfg.n_particles, fcfg.x0, fcfg.master_seed)
    return FilterContext(spec, seed, cfg, model, fcfg, observations, reference, band, cloud)


def pass_dataset(cfg, seed: int) -> tuple[list, float]:
    """A pass's (time, observation) pairs, simulated on `seed`, and their
    zero-drift Kalman log-likelihood."""
    from rwpf import oracles
    from rwpf.simulate import simulate

    ds = simulate(dataclasses.replace(cfg, seed=seed))
    gaps = [b - a for a, b in zip((0.0, *ds.times), ds.times)]
    reference = oracles.kalman_filter(ds.x0, gaps, ds.observations,
                                      ds.noise_sd).log_likelihood
    return list(zip(ds.times, ds.observations)), reference


def _setup_seconds_in_fresh_process(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


# ------------------------------------------------------------ workloads

@dataclasses.dataclass
class Tally:
    """What a loop did: work, latencies and correctness failures."""
    ops: int = 0            # psi estimates; one per particle-step in a filter
    attempted: int = 0      # filter steps, or psi estimates
    failed: int = 0
    seconds: float = 0.0    # filter: pass wall time; psi-owen: run_bench time
    units: int = 0          # filter passes, or run_bench calls
    step_s: list = dataclasses.field(default_factory=list)
    problems: list = dataclasses.field(default_factory=list)
    reports: list = dataclasses.field(default_factory=list)
    residuals: list = dataclasses.field(default_factory=list)   # complete passes
    complete_steps: int = 0
    values: dict = dataclasses.field(default_factory=dict)     # psi mode -> values
    est_s: dict = dataclasses.field(default_factory=dict)      # psi mode -> seconds

    def fail(self, n: int, why: str) -> None:
        self.failed += n
        if len(self.problems) < 20:
            self.problems.append(why)


def _step_problem(report, n: int) -> str | None:
    if not 1.0 - 1e-9 <= report.ess <= n * (1.0 + 1e-9):
        return f"ess {report.ess} outside [1, {n}]"
    if not math.isfinite(report.log_likelihood_increment):
        return f"log-likelihood increment {report.log_likelihood_increment}"
    if not math.isfinite(report.posterior_var):
        return f"posterior variance {report.posterior_var}"
    return None


def filter_loop(ctx: FilterContext, tally: Tally, seconds: float, units: int = 0,
                model=None, step=None, tracer=None) -> None:
    """Passes until `seconds` have passed (cutting the last pass short
    unless it is the first), or exactly `units` passes.

    Pass i filters the dataset simulated on master seed + i; simulating it
    and its Kalman reference stays outside `tally.seconds`, while the
    pass's init_cloud and steps are inside.
    """
    from rwpf import smc
    from rwpf.errors import RwpfError

    model = model or ctx.model
    step = step or smc.step
    fcfg = ctx.fcfg
    n = fcfg.n_particles
    lo, hi = ctx.band
    clock = time.perf_counter
    started = clock()
    done = 0
    while done < units if units else (done == 0 or clock() - started < seconds):
        index = ctx.next_unit
        ctx.next_unit += 1
        done += 1
        if index == 0:
            observations, reference = ctx.observations, ctx.reference_loglik
            pass_started = clock()
            cloud = ctx.cloud
        else:
            observations, reference = pass_dataset(ctx.cfg, fcfg.master_seed + index)
            pass_started = clock()
            cloud = smc.init_cloud(n, fcfg.x0, fcfg.master_seed + index)
        a, total, passed = 0.0, 0.0, 0
        for t, y in observations:
            tally.attempted += 1
            if tracer is not None:
                tracer.op += 1
            t0 = clock()
            try:
                cloud, report = step(cloud, model, (t, y, fcfg.noise_sd), (a, t), fcfg.psi,
                                     proposal_mode=fcfg.proposal,
                                     ess_threshold=fcfg.ess_threshold,
                                     resample_scheme=fcfg.resampling)
            except RwpfError as exc:
                tally.fail(1, f"pass {index} t={t}: {type(exc).__name__}: {exc}")
                break
            tally.step_s.append(clock() - t0)
            tally.ops += n
            tally.reports.append(report)
            problem = _step_problem(report, n)
            if problem:
                tally.fail(1, f"pass {index} t={t}: {problem}")
            else:
                passed += 1
            total += report.log_likelihood_increment
            a = t
            if not units and done > 1 and clock() - started >= seconds:
                break   # out of time: a cut pass skips only the log-likelihood checks
        else:
            residual = total - reference
            tally.residuals.append(residual)
            tally.complete_steps += len(observations)
            if not lo <= residual <= hi:
                tally.fail(passed, f"pass {index}: loglik - reference = {residual:.3f} "
                                   f"outside the pinned band [{lo:.3f}, {hi:.3f}]")
        tally.seconds += clock() - pass_started
        tally.units += 1


def psi_loop(ctx: PsiContext, tally: Tally, replications: int,
             model=None, run_bench=None, timed: bool = True) -> None:
    """One run_bench call of `replications` paired replications.

    With `timed`, one clock pair around each psi.estimate_with_kappa call
    gives seconds per estimate per mode.
    """
    from rwpf import bench, psi
    from rwpf.errors import RwpfError

    model = model or ctx.model
    run_bench = run_bench or bench.run_bench
    spec = ctx.spec
    bcfg = dataclasses.replace(ctx.bcfg, replications=replications)
    clock = time.perf_counter
    for mode in spec.modes:
        tally.values.setdefault(mode, [])
        tally.est_s.setdefault(mode, [])
    estimate = psi.estimate_with_kappa

    def timed_estimate(model, bridge, cfg, rng, kappa):
        t0 = clock()
        est = estimate(model, bridge, cfg, rng, kappa)
        tally.est_s[cfg.mode].append(clock() - t0)
        return est

    if timed:
        psi.estimate_with_kappa = timed_estimate
    index = ctx.next_unit
    ctx.next_unit += 1
    n = replications * len(spec.modes)
    tally.attempted += n
    try:
        t0 = clock()
        result = run_bench(model, bcfg, ctx.seed * SEED_STRIDE + index)
        tally.seconds += clock() - t0
    except RwpfError as exc:
        tally.fail(n, f"call {index}: {type(exc).__name__}: {exc}")
        return
    finally:
        psi.estimate_with_kappa = estimate
    tally.ops += len(result.rows)
    tally.units += 1
    for row in result.rows:
        if math.isfinite(row.value) and row.value >= 0.0:
            tally.values[row.mode].append(row.value)
        else:
            tally.fail(1, f"call {index} rep {row.rep} {row.mode}: psi estimate {row.value}")


def check_psi_means(ctx: PsiContext, tally: Tally) -> dict:
    """Each mode's mean within MEAN_TOL_SE combined SE of the pinned oracle."""
    out = {}
    for mode, values in tally.values.items():
        n = len(values)
        mean = statistics.fmean(values)
        var = statistics.variance(values)
        se = math.hypot(math.sqrt(var / n), ctx.oracle["se"])
        z = (mean - ctx.oracle["value"]) / se
        m4 = statistics.fmean((v - mean) ** 4 for v in values)
        out[mode] = {"n": n, "mean": mean, "variance": var, "z": z,
                     "kurtosis": m4 / var ** 2}
        if abs(z) >= MEAN_TOL_SE:
            tally.fail(n, f"{mode}: mean {mean:.5f} is {z:+.2f} combined SE from "
                          f"the oracle {ctx.oracle['value']:.5f}")
    return out


def check_loglik_mean(tally: Tally, pinned: dict) -> dict:
    """The mean residual over the run's complete passes against the pinned
    mean, within width_sd * sd * sqrt(1 / passes + 1 / calibration seeds):
    each pass has its own dataset, so the check tightens with the pass count
    and the pinned mean's own error stays inside the tolerance."""
    residuals = tally.residuals
    first, last = pinned["seeds"]
    tol = pinned["width_sd"] * pinned["sd"] * math.sqrt(
        1.0 / len(residuals) + 1.0 / (last - first + 1))
    mean = statistics.fmean(residuals)
    if abs(mean - pinned["mean"]) > tol:
        tally.fail(tally.complete_steps,
                   f"mean loglik - reference {mean:.3f} over {len(residuals)} passes "
                   f"is more than {tol:.3f} from the pinned mean {pinned['mean']:.3f}")
    return {"passes": len(residuals), "mean": mean, "pinned_mean": pinned["mean"],
            "tolerance": tol}


# -------------------------------------------------------------- metrics

def _deciles_ms(seconds: list) -> list:
    return [q * 1e3 for q in statistics.quantiles(seconds, n=10, method="inclusive")]


def _replication_seconds(tally: Tally, modes) -> list:
    """A replication's latency: its estimates, one per mode, in call order."""
    per_mode = [tally.est_s[m] for m in modes]
    return [sum(col) for col in zip(*per_mode)]


def _block_seconds(replication_s: list) -> list:
    """Latencies of consecutive blocks of REPLICATIONS_PER_STEP replications."""
    k = REPLICATIONS_PER_STEP
    return [sum(replication_s[i:i + k]) for i in range(0, len(replication_s) - k + 1, k)]


def end_to_end(ctx, tally: Tally, setup_samples: list) -> tuple[dict, dict]:
    """(metrics for the result line, further figures for the record)."""
    if isinstance(ctx, PsiContext):
        replication_s = _replication_seconds(tally, ctx.spec.modes)
        latency = _block_seconds(replication_s)
        details = {"psi_estimates_per_s": (tally.ops / tally.seconds, "1/s"),
                   "replications": (len(replication_s), "count")}
        for mode in ctx.spec.modes:
            per_est = statistics.fmean(tally.est_s[mode])
            var = statistics.variance(tally.values[mode])
            details[f"s_to_se.{mode}"] = (var * per_est / TARGET_SE ** 2, "s")
            details[f"us_per_estimate.{mode}"] = (per_est * 1e6, "us")
            details[f"variance.{mode}"] = (var, "1")
    else:
        latency = tally.step_s
        details = {"particle_steps_per_s": (tally.ops / tally.seconds, "1/s"),
                   "passes": (tally.units, "count")}
    deciles = _deciles_ms(latency)
    details["step_ms_p10"] = (deciles[0], "ms")
    details["step_ms_p50"] = (deciles[4], "ms")
    details["step_samples"] = (len(latency), "count")
    details["error_rate"] = (tally.failed / tally.attempted, "frac")
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "step_ms_p90": deciles[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, details


def per_layer(tracer, traced: Tally, untraced: Tally, n_particles: int) -> dict:
    pct = 100.0 / traced.seconds
    c = tracer.counts
    n_est = c["psi.estimates"]
    n_base = tracer.calls["lowdisc.generate_base"]
    out = {}
    for s in _SPANS:
        out[f"{s}.calls"] = tracer.calls[s]
    for s in _SPANS:
        out[f"{s}.self_pct"] = tracer.self_s[s] * pct
    ess = [r.ess / n_particles for r in traced.reports]
    out.update({
        "smc.step.self_pct": tracer.self_s["smc.step"] * pct,
        "bench.run_bench.self_pct": tracer.self_s["bench.run_bench"] * pct,
        "rngs.particle_streams.self_pct": tracer.self_s["rngs.particle_streams"] * pct,
        "rngs.fresh_seed.calls": tracer.calls["rngs.fresh_seed"],
        "lowdisc.base_reuse_frac":
            1.0 - len(tracer.base_keys) / n_base if n_base else 0.0,
        "bridge.inserts": c["bridge.inserts"],
        "bridge.collisions": c["bridge.collisions"],
        "proposal.rejections": c["proposal.rejections"],
        "psi.kappa_mean": c["psi.kappa_sum"] / n_est if n_est else 0.0,
        "psi.kappa_max": tracer.kappa_max,
        "psi.kappa_zero_frac": c["psi.kappa_zero"] / n_est if n_est else 0.0,
        "psi.fallback_frac": c["psi.fallback"] / n_est if n_est else 0.0,
        "psi.queries_per_estimate": c["bridge.inserts"] / n_est if n_est else 0.0,
        "smc.resampled_frac":
            sum(r.resampled for r in traced.reports) / len(ess) if ess else 0.0,
        "smc.ess_frac_p50": statistics.median(ess) if ess else 0.0,
        "trace.spans": sum(tracer.calls.values()),
        "trace.untraced_psi_estimates_per_s": untraced.ops / untraced.seconds,
        "trace.traced_psi_estimates_per_s": traced.ops / traced.seconds,
    })
    return {name: out[name] for name, _, _ in PER_LAYER}


# ----------------------------------------------------------- provenance

def git_commit() -> str | None:
    """HEAD of the tree holding this file, or None outside a git checkout."""
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def provenance(spec, seed: int) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "rwpf").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".txt"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "workload": dataclasses.asdict(spec),
    }


# ------------------------------------------------------------------ run

def run(workload: str, seed: int, seconds: float, trace: bool,
        setup_runs: int = SETUP_RUNS) -> dict:
    """One benchmark run; returns the record written to .perfbench_out."""
    spec = WORKLOADS[workload]
    ctx = setup(spec, seed)
    setup_samples = [time.perf_counter() - _T0]
    is_psi = isinstance(spec, PsiSpec)
    record = {"workload": workload, "provenance": provenance(spec, seed)}
    if is_psi:
        record["provenance"]["replications_per_call"] = psi_replications(seconds)

    def loop(tally: Tally, seconds: float) -> None:
        if is_psi:
            psi_loop(ctx, tally, psi_replications(seconds))
        else:
            filter_loop(ctx, tally, seconds)

    untraced = Tally()
    if not trace:
        for _ in range(setup_runs - 1):
            setup_samples.append(_setup_seconds_in_fresh_process(workload, seed))
        loop(untraced, seconds)
        tallies = [untraced]
    else:
        from rwpf import bench, smc
        from tracing import Tracer, instrumented

        loop(untraced, seconds / 2.0)
        tracer = Tracer()
        traced = Tally()
        with instrumented(tracer, ctx.model, replication_ids=is_psi) as model:
            if is_psi:
                psi_loop(ctx, traced, psi_replications(seconds), model=model, timed=False,
                         run_bench=tracer.wrap("bench.run_bench", bench.run_bench))
            else:
                filter_loop(ctx, traced, 0.0, units=1, model=model, tracer=tracer,
                            step=tracer.wrap("smc.step", smc.step))
        tallies = [untraced, traced]
        record["spans"] = {
            "fields": ["id", "parent", "name", "start_s", "end_s", "op"],
            "rows": tracer.spans, "dropped": tracer.dropped,
        }

    checks = {}
    merged = Tally()
    if is_psi:
        for t in tallies:
            for mode, values in t.values.items():
                merged.values.setdefault(mode, []).extend(values)
        checks["psi_means"] = check_psi_means(ctx, merged)
    else:
        for t in tallies:
            merged.residuals.extend(t.residuals)
            merged.complete_steps += t.complete_steps
        checks["loglik_residuals"] = merged.residuals
        checks["loglik_band"] = list(ctx.band)
        checks["loglik_mean"] = check_loglik_mean(merged, _load_json(BANDS)[spec.name])
    tallies.append(merged)
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    problems = [p for t in tallies for p in t.problems]

    if trace:
        n = 1 if is_psi else ctx.fcfg.n_particles
        metrics = per_layer(tracer, traced, untraced, n)
        units = {name: unit for name, unit, _ in PER_LAYER}
        details = {}
    else:
        metrics, details = end_to_end(ctx, untraced, setup_samples)
        units = {name: unit for name, unit, _ in END_TO_END}
    record.update({
        "correct": failed == 0 and not problems, "attempted": attempted,
        "failed": failed, "problems": problems, "checks": checks,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "details": {k: {"value": v, "unit": u} for k, (v, u) in details.items()},
        "setup_samples_s": setup_samples,
    })
    return record


def _print_report(record: dict, trace: bool) -> None:
    prov = record["provenance"]
    print(f"workload {record['workload']}  seed {prov['seed']}  trace {int(trace)}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, m in record["metrics"].items():
        print(f"  {name:<40} {m['value']:>16.6g} {m['unit']}")
    for name, m in record["details"].items():
        print(f"  {name:<40} {m['value']:>16.6g} {m['unit']}")
    print(f"  correct {record['correct']}  attempted {record['attempted']}  "
          f"failed {record['failed']}")
    for p in record["problems"]:
        print(f"  check failed: {p}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="rwpf benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="only time the set-up; used to repeat it in fresh processes")
    args = p.parse_args(argv)

    if args.setup_only:
        setup(WORKLOADS[args.workload], args.seed)
        print(json.dumps({"setup_s": time.perf_counter() - _T0}))
        return 0

    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out, "w") as f:
        json.dump(record, f)
    _print_report(record, bool(args.trace))
    print(f"  record {out}")
    print(json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"], "metrics": record["metrics"],
    }))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
