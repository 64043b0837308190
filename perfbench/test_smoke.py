"""Smoke test of the benchmark at a tiny size (one pass or call each).

    python3 -m pytest -q perfbench/test_smoke.py
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _cli(workload: str, trace: int, cwd: Path, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _metric_lines(stdout: str) -> dict:
    """name -> unit, from the human-readable report lines."""
    out = {}
    for line in stdout.splitlines()[:-1]:
        parts = line.split()
        if len(parts) == 3:
            out[parts[0]] = parts[2]
    return out


def test_metric_lists_match_benchmark_json():
    def listed(key):
        return [(m["name"], m["unit"], m["better"]) for m in BENCHMARK[key]]
    assert listed("end_to_end") == run.END_TO_END
    assert listed("per_layer") == run.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_every_end_to_end_metric_prints_with_its_unit(workload, tmp_path):
    proc = _cli(workload, 0, tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = _metric_lines(proc.stdout)
    for name, unit, _ in run.END_TO_END:
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
        assert printed[name] == unit
    named_for = ("psi_estimates_per_s", "s_to_se.mc", "s_to_se.rqmc-times",
                 "s_to_se.rqmc-times-values") \
        if workload == "psi-owen" else ("particle_steps_per_s",)
    for name in named_for + ("error_rate",):
        assert name in printed


def test_traced_run_prints_every_per_layer_metric_and_writes_spans(tmp_path):
    proc = _cli("psi-owen", 1, tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    assert list(result["metrics"]) == [name for name, _, _ in run.PER_LAYER]
    printed = _metric_lines(proc.stdout)
    for name, unit, _ in run.PER_LAYER:
        assert printed[name] == unit
    assert result["metrics"]["lowdisc.randomize.calls"]["value"] > 0
    assert result["metrics"]["proposal.propose.calls"]["value"] == 0
    record = json.loads((tmp_path / ".perfbench_out" / "psi-owen-seed3-trace1.json")
                        .read_text())
    spans = record["spans"]["rows"]
    assert spans and {"psi.estimate", "bench.run_bench"} <= {s[2] for s in spans}
    assert all(start <= end for _, _, _, start, end, _ in spans)


def _doubled(fn):
    def doubled(*args, **kwargs):
        est = fn(*args, **kwargs)
        return dataclasses.replace(est, value=2.0 * est.value)
    return doubled


@pytest.mark.parametrize("workload,estimator", [
    ("psi-owen", "estimate_with_kappa"),   # fails the psi-means check
    ("filter-mc", "estimate"),             # fails the log-likelihood band
])
def test_doubled_psi_values_are_rejected(workload, estimator, monkeypatch):
    run._import_rwpf()
    from rwpf import psi

    monkeypatch.setattr(psi, estimator, _doubled(getattr(psi, estimator)))
    record = run.run(workload, 3, 0.0, trace=False, setup_runs=1)
    assert not record["correct"]
    assert record["failed"] > 0 and record["problems"]


def test_a_bias_inside_the_per_pass_band_fails_the_mean_check():
    # 9 nats above the pinned mean is inside one pass's band (6 sd = 18),
    # but not inside the band of a mean over 10 passes
    pinned = {"mean": 10.0, "sd": 3.0, "width_sd": 6.0, "seeds": [1, 60]}
    for passes, correct in ((1, True), (10, False)):
        tally = run.Tally(residuals=[19.0] * passes, complete_steps=100 * passes)
        run.check_loglik_mean(tally, pinned)
        assert (tally.failed == 0) == correct, passes


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = _cli("filter-mc", 0, tmp_path, tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
