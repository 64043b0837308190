"""Pin the filter log-likelihood bands in perfbench/bands.json.

For each filter workload, pass 0 of a benchmark run on each of SEEDS
seeds (taken from 900001 upward, apart from the seeds benchmark runs use)
gives the residual "total log-likelihood minus the zero-drift Kalman
log-likelihood of the same data". The band is their mean plus or minus
WIDTH_SD standard deviations. Rerun it only when the filter's law
changes on purpose, and say so with the change:

    python3 perfbench/calibrate.py
"""

import json
import statistics

import run

FIRST_SEED = 900_001
SEEDS = 60
WIDTH_SD = 6.0


def main() -> None:
    bands = {}
    for name, spec in run.WORKLOADS.items():
        if not isinstance(spec, run.FilterSpec):
            continue
        residuals = []
        for seed in range(FIRST_SEED, FIRST_SEED + SEEDS):
            ctx = run.setup(spec, seed, band=(float("-inf"), float("inf")))
            tally = run.Tally()
            run.filter_loop(ctx, tally, 0.0, units=1)
            if tally.failed:
                raise SystemExit(f"{name} seed {seed}: {tally.problems}")
            residuals.append(tally.residuals[0])
            print(f"{name} seed {seed}: residual {residuals[-1]:.4f}", flush=True)
        mean = statistics.fmean(residuals)
        sd = statistics.stdev(residuals)
        bands[name] = {
            "lo": mean - WIDTH_SD * sd, "hi": mean + WIDTH_SD * sd,
            "mean": mean, "sd": sd, "min": min(residuals), "max": max(residuals),
            "width_sd": WIDTH_SD, "seeds": [FIRST_SEED, FIRST_SEED + SEEDS - 1],
        }
    bands["pinned_at_commit"] = run.git_commit()
    with open(run.BANDS, "w") as f:
        json.dump(bands, f, indent=2, sort_keys=True)
        f.write("\n")
    print(json.dumps(bands, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
