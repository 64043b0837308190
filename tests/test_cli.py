import csv
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from qmc_oracle import projection_quality, shift_from_floats
from rwpf import cli, lowdisc, oracles, smc
from rwpf.errors import DegeneracyError


def _run(*args):
    return subprocess.run([sys.executable, "-m", "rwpf", *args],
                          capture_output=True, text=True)


def _write_config(path, extra=None, **top):
    raw = {
        "model": {"name": "zero"},
        "x0": 0.0,
        "observation_times": [1.0, 2.0, 3.0],
        "noise_sd": 1.0,
        "particles": 64,
        "seed": 12345,
    }
    raw.update(top)
    if extra:
        raw.update(extra)
    path.write_text(json.dumps(raw))
    return path


def _summary_without_walltime(path):
    with open(path) as f:
        data = json.load(f)
    data.pop("wall_time_seconds")
    return data


def test_simulate_and_filter_roundtrip(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json")
    out1 = tmp_path / "o1"
    r = _run("simulate", "--config", str(cfg), "--out", str(out1))
    assert r.returncode == 0, r.stderr
    ds_path = out1 / "dataset.json"
    assert ds_path.exists()

    r = _run("filter", "--config", str(cfg), "--data", str(ds_path),
             "--out", str(out1))
    assert r.returncode == 0, r.stderr
    with open(out1 / "steps.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 3
    assert set(rows[0]) == {"step", "time", "ess", "loglik_inc", "resampled",
                            "mean_kappa", "post_mean", "post_var"}
    summary = _summary_without_walltime(out1 / "summary.json")
    assert summary["n_steps"] == 3
    assert math.isfinite(summary["total_log_likelihood"])
    assert summary["config"]["seed"] == 12345


def test_filter_reproducible_byte_for_byte(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json")
    outs = []
    for name, threads in [("a", "1"), ("b", "8")]:
        out = tmp_path / name
        assert _run("simulate", "--config", str(cfg), "--out", str(out)).returncode == 0
        assert _run("filter", "--config", str(cfg), "--data",
                    str(out / "dataset.json"), "--out", str(out),
                    "--threads", threads).returncode == 0
        outs.append(out)
    a, b = outs
    assert (a / "dataset.json").read_bytes() == (b / "dataset.json").read_bytes()
    assert (a / "steps.csv").read_bytes() == (b / "steps.csv").read_bytes()
    assert _summary_without_walltime(a / "summary.json") == \
        _summary_without_walltime(b / "summary.json")


def test_filter_dataset_hash_mismatch_exits_2(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    _run("simulate", "--config", str(cfg), "--out", str(out))
    other = _write_config(tmp_path / "cfg2.json", seed=999)
    r = _run("filter", "--config", str(other), "--data",
             str(out / "dataset.json"), "--out", str(out))
    assert r.returncode == 2
    assert "mismatch" in r.stderr


def _edited(ds, **lists):
    return {**ds, **{key: edit(ds[key]) for key, edit in lists.items()}}


_DATASET_EDITS = {
    "not-an-object": lambda ds: [],
    "reversed-times": lambda ds: _edited(ds, times=lambda v: v[::-1]),
    "dropped-observation": lambda ds: _edited(ds, observations=lambda v: v[:-1]),
    "nan-observation": lambda ds: _edited(ds, observations=lambda v: [math.nan, *v[1:]]),
    # consistent in itself, but not the config's observation times
    "last-step-dropped": lambda ds: _edited(ds, **dict.fromkeys(
        ("times", "latent", "observations"), lambda v: v[:-1])),
}


@pytest.mark.parametrize("command", ["filter", "kalman", "grid-filter"])
@pytest.mark.parametrize("edit", list(_DATASET_EDITS))
def test_bad_dataset_exits_2(tmp_path, command, edit):
    # the dataset hash binds the config, not the file, so a hand-edited
    # file that keeps its hash is checked on load
    cfg = _write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    _run("simulate", "--config", str(cfg), "--out", str(out))
    path = out / "dataset.json"
    path.write_text(json.dumps(_DATASET_EDITS[edit](json.loads(path.read_text()))))
    if command == "filter":
        r = _run("filter", "--config", str(cfg), "--data", str(path), "--out", str(out))
    else:
        oracle = {"kind": command, "dataset": str(path)}
        if command == "grid-filter":
            oracle["grid"] = {"lo": -8.0, "hi": 8.0, "n_cells": 256}
        cfg = _write_config(tmp_path / "oracle.json", extra={"oracle": oracle})
        r = _run("oracle", "--config", str(cfg), "--out", str(out))
    if command != "filter" and edit == "last-step-dropped":
        assert r.returncode == 0, r.stderr   # only filter binds the config's times
    else:
        assert r.returncode == 2, r.stderr
        assert r.stderr.startswith("config error:") and "Traceback" not in r.stderr


def test_seed_override_changes_outputs(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json")
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    _run("simulate", "--config", str(cfg), "--out", str(out1))
    _run("simulate", "--config", str(cfg), "--out", str(out2), "--seed", "777")
    d1 = json.loads((out1 / "dataset.json").read_text())
    d2 = json.loads((out2 / "dataset.json").read_text())
    assert d1["observations"] != d2["observations"]
    assert d2["seed"] == 777


def test_bad_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    r = _run("simulate", "--config", str(bad), "--out", str(tmp_path / "o"))
    assert r.returncode == 2
    missing = _write_config(tmp_path / "missing.json")
    raw = json.loads(missing.read_text())
    del raw["seed"]
    missing.write_text(json.dumps(raw))
    r = _run("simulate", "--config", str(missing), "--out", str(tmp_path / "o"))
    assert r.returncode == 2
    assert "seed" in r.stderr
    # json writes and reads NaN and Infinity; the config refuses them
    for field, value in [("x0", math.nan), ("observation_times", [1.0, math.inf])]:
        nonfinite = _write_config(tmp_path / "nonfinite.json", **{field: value})
        r = _run("simulate", "--config", str(nonfinite), "--out", str(tmp_path / "o"))
        assert r.returncode == 2, r.stderr
        assert r.stderr.startswith(f"config error: {field}")


def test_degeneracy_maps_to_exit_3(tmp_path, monkeypatch):
    cfg = _write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    assert _run("simulate", "--config", str(cfg), "--out", str(out)).returncode == 0

    def boom(model, obs, fcfg):
        raise DegeneracyError("all weights zero", step_index=1)

    monkeypatch.setattr(smc, "run_filter", boom)
    code = cli.main(["filter", "--config", str(cfg), "--data",
                     str(out / "dataset.json"), "--out", str(out / "f")])
    assert code == 3


def test_psi_bench_smoke_and_reproducibility(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", extra={
        "model": {"name": "sine"},
        "bench": {"x_a": 0.0, "x_b": 0.0, "a": 0.0, "b": 1.0,
                  "inner_points_grid": [4, 8], "replications": 200,
                  "modes": ["mc", "rqmc-times-values"]},
    })
    out1, out2 = tmp_path / "b1", tmp_path / "b2"
    for out, threads in [(out1, "1"), (out2, "8")]:
        r = _run("psi-bench", "--config", str(cfg), "--out", str(out),
                 "--threads", threads)
        assert r.returncode == 0, r.stderr
    assert (out1 / "psi_bench.csv").read_bytes() == (out2 / "psi_bench.csv").read_bytes()
    assert _summary_without_walltime(out1 / "summary.json") == \
        _summary_without_walltime(out2 / "summary.json")

    # CSV is loss-free: re-read values equal the summary-level means
    with open(out1 / "psi_bench.csv") as f:
        rows = list(csv.DictReader(f))
    vals = [float(r["value"]) for r in rows
            if r["mode"] == "mc" and r["M"] == "4"]
    summary = json.loads((out1 / "summary.json").read_text())
    stat = next(s for s in summary["stats"]
                if s["mode"] == "mc" and s["inner_points"] == 4)
    assert np.mean(vals) == stat["mean"]  # exact, not approximate


def test_psi_bench_tanh_degenerate_ratio(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", extra={
        "model": {"name": "tanh"},
        "bench": {"x_a": 0.0, "x_b": 0.0, "a": 0.0, "b": 1.0,
                  "inner_points_grid": [8], "replications": 100,
                  "modes": ["mc", "rqmc-times-values"]},
    })
    out = tmp_path / "out"
    r = _run("psi-bench", "--config", str(cfg), "--out", str(out))
    assert r.returncode == 0, r.stderr
    summary = json.loads((out / "summary.json").read_text())
    for s in summary["stats"]:
        assert s["variance"] == 0.0
        assert s["mean"] == math.exp(-0.5)
    ratio = summary["variance_ratios"][0]
    assert ratio["degenerate"] is True
    assert ratio["ratio"] is None  # NaN flagged, not serialized as a number


def test_psi_bench_skeleton_dump(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", extra={
        "model": {"name": "sine"},
        "bench": {"x_a": 0.0, "x_b": 0.0, "a": 0.0, "b": 1.0,
                  "inner_points_grid": [4], "replications": 20,
                  "modes": ["mc"]},
    })
    out = tmp_path / "out"
    r = _run("psi-bench", "--config", str(cfg), "--out", str(out),
             "--dump-skeletons")
    assert r.returncode == 0, r.stderr
    with open(out / "skeletons.csv") as f:
        rows = list(csv.DictReader(f))
    assert rows and set(rows[0]) == {"mode", "M", "time", "value"}
    times = [float(r["time"]) for r in rows]
    assert times[0] == 0.0 and times[-1] == 1.0  # endpoints always present
    assert times == sorted(times)


def test_psi_bench_bad_bench_section_exits_2(tmp_path):
    for field, value in [("randomization", "none"), ("kappa_cap", 0)]:
        cfg = _write_config(tmp_path / "cfg.json", extra={
            "model": {"name": "sine"},
            "bench": {"x_a": 0.0, "x_b": 0.0, "a": 0.0, "b": 1.0,
                      "inner_points_grid": [4], "replications": 20, field: value},
        })
        r = _run("psi-bench", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert r.returncode == 2, r.stderr
        assert r.stderr.startswith("config error: bench: ")
        assert "Traceback" not in r.stderr


@pytest.mark.parametrize("command,extra", [
    ("psi-bench", {"bench": {"x_a": 0.0, "x_b": 0.0, "a": 0.0, "b": 1.0,
                             "inner_points_grid": [4], "replications": 20,
                             "modes": [["mc"]]}}),
    ("simulate", {"model": {"name": "scaled-sine", "theta": True}}),
    ("filter", {"psi": {"mode": "rqmc-times-values", "inner_points": 2**31 + 1}}),
    ("psi-bench", {"bench": {"x_a": 0.0, "x_b": 0.0, "a": 0.0, "b": 1.0,
                             "inner_points_grid": [2**31 + 1], "replications": 20,
                             "modes": ["rqmc-times"]}}),
])
def test_bad_field_types_and_point_cap_exit_2(tmp_path, command, extra):
    args = []
    if command == "filter":  # on a dataset that this config's dataset hash binds
        good = _write_config(tmp_path / "good.json", model={"name": "sine"})
        assert _run("simulate", "--config", str(good), "--out", str(tmp_path)).returncode == 0
        args = ["--data", str(tmp_path / "dataset.json")]
    cfg = _write_config(tmp_path / "cfg.json", model={"name": "sine"}, extra=extra)
    r = _run(command, "--config", str(cfg), "--out", str(tmp_path / "o"), *args)
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("config error: ")
    assert "Traceback" not in r.stderr


def test_import_loads_no_scipy_stats():
    # scipy.stats is for the tests only; the test process has it loaded
    # already, so a fresh interpreter does the import
    r = subprocess.run([sys.executable, "-c",
                        "import sys, rwpf, rwpf.cli; "
                        "print([m for m in sys.modules if m.startswith('scipy.stats')])"],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


def test_long_gap_overflow_exits_3(tmp_path):
    # a gap of 1e19 puts the kappa rate past numpy's Poisson range
    cfg = _write_config(tmp_path / "cfg.json", extra={
        "model": {"name": "sine"},
        "bench": {"x_a": 0.0, "x_b": 0.0, "a": 0.0, "b": 1e19,
                  "inner_points_grid": [4], "replications": 2},
    })
    r = _run("psi-bench", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert r.returncode == 3, r.stderr
    assert r.stderr.startswith("numeric error: ") and "gap of b-a=1e+19" in r.stderr
    # sine over a 1500-unit gap: e^{-L(b-a)} = e^{750} overflows
    out = tmp_path / "out"
    for mode in ("mc", "rqmc-times-values"):
        cfg = _write_config(tmp_path / "cfg.json", model={"name": "sine"},
                            observation_times=[1500.0], particles=16,
                            euler_steps_per_unit=100,
                            psi={"mode": mode, "inner_points": 4})
        if mode == "mc":
            assert _run("simulate", "--config", str(cfg), "--out", str(out)).returncode == 0
        r = _run("filter", "--config", str(cfg), "--data", str(out / "dataset.json"),
                 "--out", str(out))
        assert r.returncode == 3, r.stderr
        assert r.stderr.startswith("numeric error: ")
        assert "gap of b-a=1500" in r.stderr
        assert "Traceback" not in r.stderr


def test_tanh_far_below_origin_simulates_and_filters(tmp_path):
    # the tanh tilted draw computes exp(-2 x), which overflows below x = -354.9
    cfg = _write_config(tmp_path / "cfg.json", model={"name": "tanh"}, x0=-400.0)
    out = tmp_path / "out"
    r = _run("simulate", "--config", str(cfg), "--out", str(out))
    assert r.returncode == 0, r.stderr
    latent = json.loads((out / "dataset.json").read_text())["latent"]
    assert len(latent) == 3 and all(math.isfinite(x) for x in latent)
    cfg = _write_config(tmp_path / "cfg.json", model={"name": "tanh"}, x0=-400.0,
                        proposal="tilted")
    r = _run("filter", "--config", str(cfg), "--data", str(out / "dataset.json"),
             "--out", str(out))
    assert r.returncode == 0, r.stderr


@pytest.mark.parametrize("t", [0.0, -1.0])
def test_transition_histogram_needs_positive_t(tmp_path, t):
    cfg = _write_config(tmp_path / "cfg.json", extra={"oracle": {
        "kind": "transition-histogram", "x_a": 0.0, "t": t,
        "grid": {"lo": -4.0, "hi": 4.0, "n_cells": 64}}})
    r = _run("oracle", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert r.returncode == 2
    assert r.stderr == "config error: oracle: t must be > 0\n", r.stderr


def test_psi_bench_requires_section(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json")
    r = _run("psi-bench", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert r.returncode == 2
    assert "bench" in r.stderr


def test_qmc_dump_matches_generator_and_roundtrips(tmp_path):
    out = tmp_path / "q1"
    r = _run("qmc-dump", "--dimension", "1", "--count", "4",
             "--scheme", "none", "--out", str(out))
    assert r.returncode == 0, r.stderr
    with open(out / "points.csv") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["point_index", "c0"]
    vals = [float(r[1]) for r in rows[1:]]
    assert vals == [0.0, 0.5, 0.25, 0.75]

    out2 = tmp_path / "q2"
    _run("qmc-dump", "--dimension", "1", "--count", "4",
         "--scheme", "none", "--out", str(out2))
    assert (out / "points.csv").read_bytes() == (out2 / "points.csv").read_bytes()

    out3 = tmp_path / "q3"
    r = _run("qmc-dump", "--dimension", "2", "--count", "256",
             "--scheme", "digital-shift", "--seed", "7", "--out", str(out3))
    assert r.returncode == 0, r.stderr
    with open(out3 / "points.csv") as f:
        rows = list(csv.reader(f))
    pts = np.array([[float(c) for c in row[1:]] for row in rows[1:]])
    direct = lowdisc.randomize(lowdisc.generate_base(2, 256), "digital-shift", 7)
    assert np.array_equal(pts, direct.points)  # full round-trip precision
    reread = lowdisc.PointSet(2, 256, pts, "digital-shift", 7,
                              shift_from_floats(pts))
    report = projection_quality(reread)
    assert report.max_stat <= report.threshold_999


def test_qmc_dump_dimension_error(tmp_path):
    r = _run("qmc-dump", "--dimension", "65", "--count", "4",
             "--scheme", "none", "--out", str(tmp_path / "o"))
    assert r.returncode == 2


def test_oracle_psi_bruteforce(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", extra={
        "model": {"name": "tanh"},
        "oracle": {"kind": "psi-bruteforce", "x_a": 0.0, "x_b": 0.0,
                   "a": 0.0, "b": 1.0, "n_steps": 200, "n_paths": 2000},
    })
    out = tmp_path / "out"
    r = _run("oracle", "--config", str(cfg), "--out", str(out))
    assert r.returncode == 0, r.stderr
    res = json.loads((out / "oracle.json").read_text())
    assert res["value"] == pytest.approx(math.exp(-0.5), rel=1e-9)
    assert res["se"] < 1e-12
    assert res["settings"]["kind"] == "psi-bruteforce"


def test_oracle_kalman_matches_library(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    _run("simulate", "--config", str(cfg), "--out", str(out))
    cfg2 = _write_config(tmp_path / "cfg2.json", extra={
        "oracle": {"kind": "kalman", "dataset": str(out / "dataset.json")},
    })
    r = _run("oracle", "--config", str(cfg2), "--out", str(out))
    assert r.returncode == 0, r.stderr
    res = json.loads((out / "oracle.json").read_text())
    ds = json.loads((out / "dataset.json").read_text())
    ref = oracles.kalman_filter(0.0, [1.0, 1.0, 1.0], ds["observations"], 1.0)
    assert res["value"] == ref.log_likelihood


def test_oracle_unknown_kind(tmp_path):
    good = {"kind": "psi-bruteforce", "x_a": 0.0, "x_b": 0.0, "a": 0.0, "b": 1.0,
            "n_steps": 200, "n_paths": 2000}
    for oracle in ({"kind": "tarot"}, {**good, "x_a": None}, {**good, "x_a": True},
                   {**good, "n_pathz": 2000}, {**good, "a": 1.0, "b": 0.5}):
        cfg = _write_config(tmp_path / "cfg.json", extra={"oracle": oracle})
        r = _run("oracle", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert r.returncode == 2
        assert r.stderr.startswith("config error: oracle"), r.stderr


def test_unsupported_dimension_exits_2(tmp_path):
    # a 40-unit gap draws kappa near 45; with the default kappa cap 64,
    # rqmc-times-values asks for a point set of dimension 2 * kappa > 64
    cfg = _write_config(tmp_path / "cfg.json", model={"name": "sine"},
                        observation_times=[40.0], particles=16,
                        psi={"mode": "rqmc-times-values", "inner_points": 4})
    out = tmp_path / "out"
    assert _run("simulate", "--config", str(cfg), "--out", str(out)).returncode == 0
    r = _run("filter", "--config", str(cfg), "--data", str(out / "dataset.json"),
             "--out", str(out))
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("config error: ")
    assert "lower rqmc_kappa_cap" in r.stderr
    assert "Traceback" not in r.stderr
