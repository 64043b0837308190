"""Run perfbench in two checkouts, alternating, and write one before/after record.

Usage:

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR \
        --workloads filter-mc filter-rqmc psi-owen --seeds 1-10 --seconds 20 \
        --out BENCH_<n>.json

For each workload and seed, ``perfbench/run.py`` runs once in each
checkout, on that checkout's own source: a pair. The parent runs first on
odd pairs and the change first on even ones, so a drift of the host over
time falls on both sides. Each run's last stdout line is its JSON result.

The record holds the machine (nproc, CPU model), the Python, numpy and
scipy versions, both checkouts' commits and source digests, the seeds,
and per workload and metric the parent and change median and quartiles
and the number of pairs the change won (by the metric's ``better`` in
the change's BENCHMARK.json). Every run is listed with its metrics and
exit code; a run that exited non-zero is also listed under ``failed``.
The exit code is 1 if any run failed.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """'1-10' or '1,4,9' (or a mix) as a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def checkout(root: Path) -> dict:
    """The checkout's commit, whether its tree differs from it, and the
    digest perfbench's provenance gives its src/rwpf."""
    def git(*args):
        try:
            return subprocess.run(["git", "-C", str(root), *args], capture_output=True,
                                  text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return None

    digest = hashlib.sha256()
    src = root / "src"
    for path in sorted((src / "rwpf").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".txt"):
            digest.update(path.relative_to(src).as_posix().encode())
            digest.update(path.read_bytes())
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"commit": git("rev-parse", "HEAD"),
            "modified": None if status is None else bool(status),
            "source_sha256": digest.hexdigest()}


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
    except (IndexError, ValueError, KeyError, TypeError):
        metrics = {}
    out = {"exit": proc.returncode, "metrics": metrics}
    if proc.returncode != 0:
        out["stderr_tail"] = proc.stderr[-2000:]
    return out


def summary(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def compare(runs: list[dict], better: dict) -> dict:
    """Per metric: both sides' summaries and the change's pair wins."""
    by_seed = {}
    for r in runs:
        by_seed.setdefault(r["seed"], {})[r["side"]] = r["metrics"]
    pairs = [p for p in by_seed.values() if len(p) == 2]
    names = sorted({name for p in pairs for name in p["parent"]} &
                   {name for p in pairs for name in p["change"]})
    out = {}
    for name in names:
        both = [(p["parent"][name], p["change"][name]) for p in pairs
                if name in p["parent"] and name in p["change"]]
        sign = -1.0 if better.get(name, "lower") == "lower" else 1.0
        out[name] = {
            "better": better.get(name, "lower"),
            "parent": summary([a for a, _ in both]),
            "change": summary([b for _, b in both]),
            "change_wins": sum(sign * (b - a) > 0 for a, b in both),
            "pairs": len(both),
        }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent_dir", type=Path)
    p.add_argument("change_dir", type=Path)
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 1-10 or 1,3,5")
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)

    dirs = {"parent": args.parent_dir.resolve(), "change": args.change_dir.resolve()}
    bench = json.loads((dirs["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"]
              for m in bench.get("end_to_end", []) + bench.get("per_layer", [])}
    shown = [m["name"] for m in bench.get("end_to_end", [])]   # in the progress lines
    import numpy
    import scipy

    record = {
        "schema": "rwpf-bench-pairs-v1",
        "machine": {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
                    "arch": platform.machine()},
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "checkouts": {side: checkout(dirs[side]) for side in SIDES},
        "seeds": args.seeds, "seconds": args.seconds, "trace": args.trace,
        "workloads": {}, "runs": [], "failed": [],
    }
    for workload in args.workloads:
        runs = []
        for k, seed in enumerate(args.seeds, start=1):
            order = SIDES if k % 2 == 1 else SIDES[::-1]
            for side in order:
                r = {"workload": workload, "seed": seed, "side": side,
                     **run_once(dirs[side], workload, seed, args.seconds, args.trace)}
                runs.append(r)
                print(f"{workload} seed {seed} {side}: exit {r['exit']} "
                      + " ".join(f"{n}={r['metrics'][n]:.4g}" for n in shown
                                 if n in r["metrics"]), file=sys.stderr, flush=True)
                if r["exit"] != 0:
                    record["failed"].append({"workload": workload, "seed": seed,
                                             "side": side, "exit": r["exit"]})
        record["runs"].extend(runs)
        record["workloads"][workload] = compare(runs, better)
        args.out.write_text(json.dumps(record, indent=1) + "\n")   # progress so far
    return 1 if record["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
