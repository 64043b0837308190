"""Paired variance benchmark for the weight estimators.

For each inner-point count M, every replication draws one kappa and
offers it, with a fresh two-point bridge over the same endpoints, to
every benchmarked mode (fresh randomization per point-set estimate).
Pairing on kappa removes the dominant shared variance source from the
mode comparison, isolating the inner-expectation variance the point-set
route is supposed to reduce.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import psi
from .bridge import LazyBridge
from .config import BenchConfig
from .models import DriftModel, validate_model
from .rngs import NS_PSI_BENCH, stream

_BOOT_BLOCK = 25   # bootstrap resamples drawn and reduced at a time


@dataclass
class BenchRow:
    mode: str
    inner_points: int
    rep: int
    kappa: int
    value: float
    n_bridge_queries: int


@dataclass
class ModeStats:
    mode: str
    inner_points: int
    n: int
    mean: float
    variance: float
    se: float
    mean_bridge_queries: float


@dataclass
class VarianceRatio:
    inner_points: int
    rqmc_mode: str
    ratio: float                    # var(mc) / var(rqmc_mode)
    bootstrap_lower_95: float       # one-sided lower confidence bound
    degenerate: bool                # both variances zero (deterministic estimator)


@dataclass
class BenchResult:
    rows: list[BenchRow]
    stats: list[ModeStats]
    ratios: list[VarianceRatio]
    kappa_hist: dict[int, int]
    # final replication's bridge skeleton per (mode, M), for debugging
    last_skeletons: dict[tuple[str, int], list[tuple[float, float]]]


def _psi_cfg(mode: str, m: int, bcfg: BenchConfig) -> psi.PsiConfig:
    return psi.PsiConfig(mode=mode, inner_points=m,
                         rqmc_kappa_cap=bcfg.kappa_cap,
                         randomization=bcfg.randomization)


def _mean_var(v: np.ndarray) -> tuple[float, float]:
    # exact (value, 0) for a deterministic estimator, not summation dust
    if np.all(v == v[0]):
        return float(v[0]), 0.0
    return float(v.mean()), float(v.var(ddof=1))


def _bootstrap_ratio_lower(mc_vals: np.ndarray, rq_vals: np.ndarray,
                           rng, n_boot: int = 1000) -> float:
    """5th percentile of var(mc)/var(rq) over ``n_boot`` paired resamples,
    drawn _BOOT_BLOCK rows at a time: the rows' draws follow each other on
    ``rng`` as one (n_boot, n) draw's would, without its n_boot x n arrays."""
    n = len(mc_vals)
    ratios = np.empty(n_boot)
    for start in range(0, n_boot, _BOOT_BLOCK):
        idx = rng.integers(0, n, size=(min(_BOOT_BLOCK, n_boot - start), n))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios[start:start + len(idx)] = (mc_vals[idx].var(axis=1, ddof=1)
                                              / rq_vals[idx].var(axis=1, ddof=1))
    ratios = ratios[np.isfinite(ratios)]
    if len(ratios) == 0:
        return math.nan
    return float(np.percentile(ratios, 5.0))


def run_bench(model: DriftModel, bcfg: BenchConfig, master_seed: int) -> BenchResult:
    validate_model(model)
    lo, hi = model.phi_bounds
    rows: list[BenchRow] = []
    stats: list[ModeStats] = []
    ratios: list[VarianceRatio] = []
    kappa_hist: dict[int, int] = {}
    last_skeletons: dict[tuple[str, int], list[tuple[float, float]]] = {}
    boot_rng = stream(master_seed, NS_PSI_BENCH, 9999)

    for mi, m in enumerate(bcfg.inner_points_grid):
        kappa_rng = stream(master_seed, NS_PSI_BENCH, mi, 0)
        mode_rngs = {mode: stream(master_seed, NS_PSI_BENCH, mi, 1 + k)
                     for k, mode in enumerate(bcfg.modes)}
        cfgs = {mode: _psi_cfg(mode, m, bcfg) for mode in bcfg.modes}
        values = {mode: np.empty(bcfg.replications) for mode in bcfg.modes}
        queries = {mode: np.empty(bcfg.replications, dtype=np.int64) for mode in bcfg.modes}

        for rep in range(bcfg.replications):
            kappa = psi.sample_kappa((lo, hi), bcfg.a, bcfg.b, kappa_rng)
            kappa_hist[kappa] = kappa_hist.get(kappa, 0) + 1
            for mode in bcfg.modes:
                bridge = LazyBridge(bcfg.a, bcfg.x_a, bcfg.b, bcfg.x_b)
                est = psi.estimate_with_kappa(model, bridge, cfgs[mode],
                                              mode_rngs[mode], kappa)
                values[mode][rep] = est.value
                queries[mode][rep] = est.n_bridge_queries
                rows.append(BenchRow(mode, m, rep, kappa, est.value,
                                     est.n_bridge_queries))
                if rep == bcfg.replications - 1:
                    last_skeletons[(mode, m)] = bridge.skeleton()

        for mode in bcfg.modes:
            v = values[mode]
            mean, var = _mean_var(v)
            stats.append(ModeStats(
                mode=mode, inner_points=m, n=len(v), mean=mean,
                variance=var, se=math.sqrt(var / len(v)),
                mean_bridge_queries=float(np.mean(queries[mode])),
            ))

        if psi.MODE_MC in bcfg.modes:
            mc_vals = values[psi.MODE_MC]
            var_mc = _mean_var(mc_vals)[1]
            for mode in bcfg.modes:
                if mode == psi.MODE_MC:
                    continue
                var_rq = _mean_var(values[mode])[1]
                degenerate = var_mc == 0.0 and var_rq == 0.0
                ratio = math.nan if degenerate else (
                    math.inf if var_rq == 0.0 else var_mc / var_rq)
                lower = math.nan if degenerate else _bootstrap_ratio_lower(
                    mc_vals, values[mode], boot_rng)
                ratios.append(VarianceRatio(m, mode, ratio, lower, degenerate))

    return BenchResult(rows, stats, ratios, dict(sorted(kappa_hist.items())),
                       last_skeletons)
