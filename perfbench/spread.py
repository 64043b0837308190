"""Run-to-run spread of the end-to-end metrics, recorded in spread.json.

Runs the benchmark RUNS times on every workload, each time with
another seed, and records per metric the median and the quartile spread
(q3 - q1) / median as `statistics.quantiles(values, n=4)` gives them,
next to the metric's bound from BENCHMARK.json, and the same for the
printed figures BENCHMARK.json does not gate. For psi-owen it also
records how many replications a run makes, and the relative sampling
error of a variance estimated from that many, sqrt((kurtosis - 1) / R),
which the s_to_se figures inherit. From the repository root:

    python3 perfbench/spread.py --first-seed 101
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
UNGATED = ("psi_estimates_per_s", "particle_steps_per_s", "step_ms_p", "s_to_se.")


def _quartile_spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--first-seed", type=int, default=101)
    p.add_argument("--out", default=str(HERE / "spread.json"))
    args = p.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + RUNS))
    report = {"run_seconds": bench["run_seconds"], "seeds": seeds, "workloads": {}}
    for name in names:
        results, records = [], []
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=180,
            )
            result = json.loads(proc.stdout.splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                raise SystemExit(f"{name} seed {seed} failed:\n{proc.stdout}{proc.stderr}")
            results.append(result)
            out = ROOT / ".perfbench_out" / f"{name}-seed{seed}-trace0.json"
            records.append(json.loads(out.read_text()))
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        entry = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in results]
            entry[metric] = {**_quartile_spread(values), "bound": bound, "values": values}
        if name == "psi-owen":
            reps = [rec["details"]["replications"]["value"] for rec in records]
            entry["replications_per_run"] = {"min": min(reps), "max": max(reps)}
            kurt = max(m["kurtosis"] for rec in records
                       for m in rec["checks"]["psi_means"].values())
            entry["variance_kurtosis_max"] = kurt
            entry["variance_relative_error"] = ((kurt - 1.0) / min(reps)) ** 0.5
        # printed figures that BENCHMARK.json does not gate
        for metric in records[0]["details"]:
            if metric.startswith(UNGATED):
                values = [rec["details"][metric]["value"] for rec in records]
                entry[metric] = {**_quartile_spread(values), "values": values}
        report["workloads"][name] = entry
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    for name, entry in report["workloads"].items():
        for metric, e in entry.items():
            if isinstance(e, dict) and "spread" in e:
                flag = "" if "bound" not in e or e["spread"] < e["bound"] / 3 else "  WIDE"
                print(f"{name:12s} {metric:28s} median {e['median']:14.6g} "
                      f"spread {e['spread']:.4f}{flag}")


if __name__ == "__main__":
    main()
