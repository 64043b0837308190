"""Command-line entry point.

Subcommands: simulate | filter | psi-bench | oracle | qmc-dump. All
experiment commands read a JSON config and write JSON/CSV outputs into
--out; every output embeds the resolved config and its hash, and
everything except the wall-time field is reproduced byte-identically
from (config, seed). --threads is accepted and ignored: every run is
single-threaded.

Exit codes: 0 success, 2 config error (including a point-set dimension
above the supported one, which the kappa cap controls), 3 numeric or
degeneracy error.
"""

import argparse
import csv
import json
import math
import sys
import time
from pathlib import Path

from . import bench, lowdisc, oracles, smc
from .config import ConfigError, RunConfig, load_config, oracle_settings
from .errors import NumericError, RwpfError, UnsupportedDimensionError
from .rngs import NS_ORACLE, stream
from .simulate import Dataset, simulate


def _jsonable(obj):
    """Recursively make an object JSON-safe; non-finite floats become null."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    return obj


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        json.dump(_jsonable(obj), f, indent=2, sort_keys=True)
        f.write("\n")
    print(path)


def _write_csv(path: Path, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for row in rows:
            w.writerow([_cell(v) for v in row])
    print(path)


def _cell(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _load_dataset(path: str) -> Dataset:
    """The dataset at ``path``, checked: its hash binds the config, not the
    file's contents, so equal-length times, latent states and observations,
    valid observation times and finite observations are checked here."""
    try:
        with open(path) as f:
            raw = json.load(f)
        if not isinstance(raw, dict) or raw.get("schema") != "rwpf-dataset-v1":
            raise ConfigError(f"{path}: not an rwpf dataset file")
        ds = Dataset.from_dict(raw)
        if not len(ds.times) == len(ds.latent) == len(ds.observations):
            raise ValueError("times, latent and observations differ in length")
        if not all(map(math.isfinite, ds.times + ds.observations)):
            raise ValueError("times and observations must be finite")
        smc.check_observation_times(ds.times)
        return ds
    except OSError as exc:
        raise ConfigError(f"cannot read dataset {path}: {exc}") from None
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"dataset {path} is malformed: {exc}") from None


def _cmd_simulate(args) -> None:
    cfg = load_config(args.config, args.seed)
    ds = simulate(cfg)
    _write_json(Path(args.out) / "dataset.json", ds.to_dict())


def _cmd_filter(args) -> None:
    cfg = load_config(args.config, args.seed)
    ds = _load_dataset(args.data)
    if ds.config_hash != cfg.dataset_hash():
        raise ConfigError(
            "dataset/config mismatch: the dataset was generated from a config "
            f"hashing to {ds.config_hash[:12]}..., this config hashes to "
            f"{cfg.dataset_hash()[:12]}..."
        )
    if ds.times != cfg.observation_times:
        raise ConfigError(f"dataset {args.data}: times differ from the config's "
                          "observation_times")
    model = cfg.build_model()
    if cfg.noise_sd <= 0:
        raise ConfigError("noise_sd: filtering requires strictly positive noise")
    fcfg = smc.FilterConfig(
        n_particles=cfg.n_particles, x0=cfg.x0, noise_sd=cfg.noise_sd,
        psi=cfg.psi_cfg, proposal=cfg.proposal, resampling=cfg.resampling,
        ess_threshold=cfg.ess_threshold, master_seed=cfg.seed,
    )
    started = time.perf_counter()
    reports, total = smc.run_filter(model, list(zip(ds.times, ds.observations)), fcfg)
    elapsed = time.perf_counter() - started

    out = Path(args.out)
    _write_csv(
        out / "steps.csv",
        ["step", "time", "ess", "loglik_inc", "resampled",
         "mean_kappa", "post_mean", "post_var"],
        [(k, r.time, r.ess, r.log_likelihood_increment, r.resampled,
          r.mean_kappa, r.posterior_mean, r.posterior_var)
         for k, r in enumerate(reports)],
    )
    _write_json(out / "summary.json", {
        "command": "filter",
        "config": cfg.resolved(),
        "config_hash": cfg.config_hash(),
        "dataset_hash": ds.config_hash,
        "n_steps": len(reports),
        "total_log_likelihood": total,
        "wall_time_seconds": elapsed,
    })


def _cmd_psi_bench(args) -> None:
    cfg = load_config(args.config, args.seed)
    if cfg.bench is None:
        raise ConfigError("bench: config section required for psi-bench")
    model = cfg.build_model()
    started = time.perf_counter()
    result = bench.run_bench(model, cfg.bench, cfg.seed)
    elapsed = time.perf_counter() - started

    out = Path(args.out)
    _write_csv(
        out / "psi_bench.csv",
        ["mode", "M", "rep", "kappa", "value", "n_queries"],
        [(r.mode, r.inner_points, r.rep, r.kappa, r.value, r.n_bridge_queries)
         for r in result.rows],
    )
    _write_json(out / "summary.json", {
        "command": "psi-bench",
        "config": cfg.resolved(),
        "config_hash": cfg.config_hash(),
        "stats": [vars(s) for s in result.stats],
        "variance_ratios": [vars(r) for r in result.ratios],
        "kappa_hist": result.kappa_hist,
        "wall_time_seconds": elapsed,
    })
    if args.dump_skeletons:
        _write_csv(
            out / "skeletons.csv",
            ["mode", "M", "time", "value"],
            [(mode, m, t, v)
             for (mode, m), skel in sorted(result.last_skeletons.items())
             for t, v in skel],
        )


def _run_oracle(cfg: RunConfig) -> dict:
    params = oracle_settings(cfg.oracle)
    kind = params["kind"]
    rng = stream(cfg.seed, NS_ORACLE)
    try:
        if kind == "psi-bruteforce":
            mean, se = oracles.psi_bruteforce(
                cfg.build_model(), params["x_a"], params["x_b"], params["a"],
                params["b"], params["n_steps"], params["n_paths"], rng,
            )
            return {"value": mean, "se": se}
        if kind == "transition-histogram":
            density, edges = oracles.euler_transition_histogram(
                cfg.build_model(), params["x_a"], params["t"], params["n_steps"],
                params["n_paths"], params["grid"], rng,
            )
            return {"value": None, "se": None,
                    "density": density.tolist(), "edges": edges.tolist()}
        ds = _load_dataset(params["dataset"])
        if kind == "kalman":
            gaps = [b - a for a, b in zip((0.0, *ds.times), ds.times)]
            res = oracles.kalman_filter(ds.x0, gaps, ds.observations, ds.noise_sd)
            return {"value": res.log_likelihood, "se": 0.0,
                    "means": res.means.tolist(), "variances": res.variances.tolist()}
        res = oracles.grid_filter(cfg.build_model(), list(zip(ds.times, ds.observations)),
                                  params["grid"], ds.x0, ds.noise_sd)
        return {"value": res.log_likelihood, "se": 0.0,
                "means": res.posterior_means.tolist(),
                "variances": res.posterior_vars.tolist()}
    except ValueError as exc:
        raise ConfigError(f"oracle: {exc}") from None


def _cmd_oracle(args) -> None:
    cfg = load_config(args.config, args.seed)
    if cfg.oracle is None:
        raise ConfigError("oracle: config section required for the oracle command")
    result = _run_oracle(cfg)
    _write_json(Path(args.out) / "oracle.json", {
        "command": "oracle",
        "config": cfg.resolved(),
        "config_hash": cfg.config_hash(),
        "settings": cfg.oracle,
        **result,
    })


def _cmd_qmc_dump(args) -> None:
    try:
        ps = lowdisc.generate_base(args.dimension, args.count)
        if args.scheme != lowdisc.SCHEME_NONE:
            if args.seed is None:
                raise ConfigError("--seed is required for randomized point sets")
            ps = lowdisc.randomize(ps, args.scheme, args.seed)
    except (ValueError, RwpfError) as exc:
        raise ConfigError(str(exc)) from None
    header = ["point_index"] + [f"c{j}" for j in range(ps.dimension)]
    rows = [(i, *(float(x) for x in ps.points[i])) for i in range(ps.count)]
    _write_csv(Path(args.out) / "points.csv", header, rows)


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rwpf",
        description="Random-weight particle filtering for scalar diffusions",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, threads=False, data=False):
        sp.add_argument("--config", required=True, help="JSON config path")
        sp.add_argument("--out", required=True, help="output directory")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
        if data:
            sp.add_argument("--data", required=True, help="dataset.json path")
        if threads:
            sp.add_argument("--threads", type=int, default=1,
                            help="accepted and ignored; runs are single-threaded")

    common(sub.add_parser("simulate", help="generate a latent path + observations"))
    common(sub.add_parser("filter", help="run the particle filter on a dataset"),
           threads=True, data=True)
    pb = sub.add_parser("psi-bench", help="paired variance benchmark of the "
                                          "weight estimators")
    common(pb, threads=True)
    pb.add_argument("--dump-skeletons", action="store_true",
                    help="also write the final replication's bridge skeletons")
    common(sub.add_parser("oracle", help="run a reference computation"))

    qd = sub.add_parser("qmc-dump", help="emit a low-discrepancy point set as CSV")
    qd.add_argument("--dimension", type=int, required=True)
    qd.add_argument("--count", type=int, required=True)
    qd.add_argument("--scheme", default=lowdisc.SCHEME_NONE,
                    choices=[lowdisc.SCHEME_NONE, lowdisc.SCHEME_DIGITAL_SHIFT,
                             lowdisc.SCHEME_OWEN])
    qd.add_argument("--seed", type=int, default=None)
    qd.add_argument("--out", required=True)
    return p


_COMMANDS = {
    "simulate": _cmd_simulate,
    "filter": _cmd_filter,
    "psi-bench": _cmd_psi_bench,
    "oracle": _cmd_oracle,
    "qmc-dump": _cmd_qmc_dump,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _COMMANDS[args.command](args)
    except (ConfigError, UnsupportedDimensionError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
