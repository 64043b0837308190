"""Run a fixed set of rwpf CLI configs and print the sha256 of every output.

Usage: python3 scripts/cli_digest.py OUTDIR

Each run uses the package in this checkout's ``src/``, runs in OUTDIR
(so every path an output embeds is relative and the same in any OUTDIR)
and writes to OUTDIR/<run>/. One line is printed per output file,
``<sha256>  <run>/<file>``, in run order. A ``summary.json`` is hashed
without its ``wall_time_seconds``, the one field that differs between
reruns. Two checkouts compare with one diff:

    python3 scripts/cli_digest.py /tmp/old > old.txt    # in one checkout
    python3 scripts/cli_digest.py /tmp/new > new.txt    # in the other
    diff old.txt new.txt

The exit code is 1 if a run fails; its stderr is printed.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SINE = {"model": {"name": "sine"}, "x0": 0.0,
        "observation_times": {"count": 20, "spacing": 0.5},
        "noise_sd": 0.5, "particles": 256, "seed": 20240501}
# wider gaps: kappa is often above a cap of 1
SINE_WIDE = {**SINE, "observation_times": {"count": 20, "spacing": 2.0}}
TANH = {**SINE, "model": {"name": "tanh"}}
ZERO = {**SINE, "model": {"name": "zero"}}
BENCH = {"x_a": 0.0, "x_b": 3.141592653589793, "a": 0.0, "b": 1.0,
         "inner_points_grid": [4, 16], "replications": 200,
         "modes": ["mc", "rqmc-times", "rqmc-times-values"]}
FAR = {"a": 1e15, "b": 1e15 + 1}

# (run, subcommand and flags, config or None); a filter reads the dataset
# of the simulate run of its model
RUNS = [
    ("simulate-sine", ["simulate"], SINE),
    ("simulate-tanh", ["simulate"], TANH),
    ("simulate-zero", ["simulate"], ZERO),
    ("simulate-sine-wide", ["simulate"], SINE_WIDE),
    ("filter-mc", ["filter", "--data", "simulate-sine/dataset.json"], SINE),
    ("filter-rqmc-shift", ["filter", "--data", "simulate-sine/dataset.json"],
     {**SINE, "psi": {"mode": "rqmc-times-values", "inner_points": 16,
                      "randomization": "digital-shift"}}),
    # point sets build the shared path
    ("filter-rqmc-times", ["filter", "--data", "simulate-sine/dataset.json"],
     {**SINE, "psi": {"mode": "rqmc-times", "inner_points": 16,
                      "randomization": "digital-shift"}}),
    # per-point and mc-fallback rows in one step
    ("filter-rqmc-cap1", ["filter", "--data", "simulate-sine-wide/dataset.json"],
     {**SINE_WIDE, "psi": {"mode": "rqmc-times-values", "inner_points": 16,
                           "kappa_cap": 1}}),
    ("filter-tanh-tilted-owen", ["filter", "--data", "simulate-tanh/dataset.json"],
     {**TANH, "proposal": "tilted",
      "psi": {"mode": "rqmc-times-values", "inner_points": 16,
              "randomization": "owen-scramble"}}),
    ("filter-zero-tilted", ["filter", "--data", "simulate-zero/dataset.json"],
     {**ZERO, "proposal": "tilted"}),
    ("psi-bench-shift", ["psi-bench", "--dump-skeletons"],
     {**SINE, "bench": {**BENCH, "randomization": "digital-shift"}}),
    ("psi-bench-owen", ["psi-bench"],
     {**SINE, "bench": {**BENCH, "randomization": "owen-scramble"}}),
    # the point-set values alone: no mc or rqmc-times draws on their streams
    ("psi-bench-rqv-shift", ["psi-bench"],
     {**SINE, "bench": {**BENCH, "modes": ["rqmc-times-values"],
                        "randomization": "digital-shift"}}),
    ("psi-bench-rqv-owen", ["psi-bench"],
     {**SINE, "bench": {**BENCH, "modes": ["rqmc-times-values"],
                        "randomization": "owen-scramble"}}),
    ("qmc-dump-none", ["qmc-dump", "--dimension", "8", "--count", "100"], None),
    ("qmc-dump-shift", ["qmc-dump", "--dimension", "8", "--count", "100",
                        "--scheme", "digital-shift", "--seed", "7"], None),
    ("qmc-dump-owen", ["qmc-dump", "--dimension", "8", "--count", "100",
                       "--scheme", "owen-scramble", "--seed", "7"], None),
    ("oracle-kalman", ["oracle"],
     {**SINE, "oracle": {"kind": "kalman", "dataset": "simulate-sine/dataset.json"}}),
    # far from 0 the doubles of [a, b] are 1/8 apart: real draws repeat times
    ("psi-bench-far", ["psi-bench"],
     {**SINE, "bench": {**BENCH, **FAR, "randomization": "digital-shift"}}),
    ("oracle-bruteforce-far", ["oracle"],
     {**SINE, "oracle": {"kind": "psi-bruteforce", "x_a": 0.0, "x_b": 3.141592653589793,
                         **FAR, "n_steps": 200, "n_paths": 2000}}),
]


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "summary.json":
        summary = json.loads(data)
        summary.pop("wall_time_seconds", None)
        data = json.dumps(summary, indent=2, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    root = Path(argv[0]).resolve()
    (root / "configs").mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for run, args, config in RUNS:
        cmd = [sys.executable, "-m", "rwpf", *args, "--out", run]
        if config is not None:
            config_path = Path("configs") / f"{run}.json"
            (root / config_path).write_text(json.dumps(config, indent=2) + "\n")
            cmd += ["--config", str(config_path)]
        done = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
        if done.returncode != 0:
            print(f"{run}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            return 1
        for path in sorted((root / run).iterdir()):
            print(f"{_digest(path)}  {run}/{path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
