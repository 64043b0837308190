"""Unbiased estimators of the bridge weight functional.

The target is the expectation, over a Brownian bridge W pinned at the
proposal's endpoints, of exp{-integral of phi(W_t) dt}. With phi bounded
in [L, U] it admits the unbiased product representation: draw
kappa ~ Poisson((U-L)(b-a)) and kappa uniform times on [a, b], then

    e^{-L(b-a)} * prod_i (U - phi(W_{xi_i})) / (U - L)

has the right mean. The estimate averages M such products; the three
modes differ only in where each product gets its times and bridge
uniforms:

* ``mc``: fresh i.i.d. uniform times per product; bridge values are
  pseudo-random and memoized on one shared lazy skeleton.
* ``rqmc-times``: a randomized low-discrepancy point set of dimension
  kappa supplies the M time vectors; bridge values as in ``mc``.
* ``rqmc-times-values``: dimension 2*kappa; each point carries both its
  times and the uniforms that drive the bridge values through the
  inverse CDF. The skeleton is rolled back between points, so points are
  conditionally independent given the endpoints and each randomized
  point being uniform makes the average unbiased.

There are two entry points: ``estimate`` draws kappa itself, and
``estimate_with_kappa`` takes one drawn by the caller (the paired
benchmark offers the same kappa to every mode). kappa is always
pseudo-random, never taken from the point set. Above the configured
kappa cap the point-set modes fall back to plain MC (tagged
``mc-fallback``), reflecting that the point-set route only pays off when
kappa is small.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import lowdisc
from .bridge import _TINY, LazyBridge
from .errors import NumericError, UnsupportedDimensionError
from .models import DriftModel
from .rngs import fresh_seed

MODE_MC = "mc"
MODE_RQMC_TIMES = "rqmc-times"
MODE_RQMC_TIMES_VALUES = "rqmc-times-values"
MODE_MC_FALLBACK = "mc-fallback"

MODES = (MODE_MC, MODE_RQMC_TIMES, MODE_RQMC_TIMES_VALUES)


@dataclass(frozen=True)
class PsiConfig:
    mode: str = MODE_MC
    inner_points: int = 1          # M
    rqmc_kappa_cap: int = 64
    randomization: str = lowdisc.SCHEME_DIGITAL_SHIFT

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown psi mode {self.mode!r}; known: {MODES}")
        if self.inner_points < 1:
            raise ValueError("inner_points must be >= 1")
        if self.rqmc_kappa_cap < 1:
            raise ValueError("rqmc_kappa_cap must be >= 1")
        if self.mode != MODE_MC and self.rqmc_kappa_cap > lowdisc.MAX_DIMENSION:
            raise ValueError(
                f"rqmc_kappa_cap > {lowdisc.MAX_DIMENSION} unsupported in mode {self.mode}"
            )
        if self.mode != MODE_MC and self.randomization not in (
            lowdisc.SCHEME_DIGITAL_SHIFT, lowdisc.SCHEME_OWEN
        ):
            raise ValueError(f"invalid randomization {self.randomization!r}")


@dataclass
class PsiEstimate:
    value: float
    kappa: int
    mode: str
    n_bridge_queries: int
    n_time_collisions: int = 0


def sample_kappa(rate_interval: tuple[float, float], a: float, b: float, rng) -> int:
    """Poisson((U - L) * (b - a)) draw; zero surely when U == L."""
    lo, hi = rate_interval
    if hi < lo:
        raise ValueError(f"need U >= L, got ({lo}, {hi})")
    if b <= a:
        raise ValueError(f"need b > a, got ({a}, {b})")
    rate = (hi - lo) * (b - a)
    if rate == 0.0:
        return 0
    return int(rng.poisson(rate))


def _estimate(model: DriftModel, bridge: LazyBridge, cfg: PsiConfig, rng,
              kappa: int) -> PsiEstimate:
    """The estimator body behind both entry points."""
    lo, hi = model.phi_bounds
    a, b = bridge.a, bridge.b
    span = b - a
    base = math.exp(-lo * span)
    mode = cfg.mode
    if kappa == 0:
        return PsiEstimate(base, 0, mode, 0)
    if mode != MODE_MC and kappa > cfg.rqmc_kappa_cap:
        mode = MODE_MC_FALLBACK

    points = None
    if mode in (MODE_RQMC_TIMES, MODE_RQMC_TIMES_VALUES):
        dim = kappa if mode == MODE_RQMC_TIMES else 2 * kappa
        if dim > lowdisc.MAX_DIMENSION:
            raise UnsupportedDimensionError(
                f"mode {mode} needs dimension {dim} for kappa={kappa}, "
                f"above the supported {lowdisc.MAX_DIMENSION}; lower rqmc_kappa_cap"
            )
        points = lowdisc.randomize(
            lowdisc.generate_base(dim, cfg.inner_points),
            cfg.randomization, fresh_seed(rng),
        ).points

    inv = 1.0 / (hi - lo)
    phi_s = model.phi_scalar
    before = bridge.total_inserted
    collisions = 0
    acc = 0.0
    if mode == MODE_RQMC_TIMES_VALUES:
        snap = bridge.snapshot()
        for m in range(cfg.inner_points):
            row = points[m]
            pairs = sorted(
                (float(row[i]), float(row[kappa + i])) for i in range(kappa)
            )
            prod = 1.0
            for u_time, u_val in pairs:
                t = a + span * u_time
                while bridge.contains(t):
                    # fresh-time contract: nudge the uniform up by one ulp
                    u_time = np.nextafter(u_time, 2.0)
                    t = a + span * u_time
                    collisions += 1
                if t > b:
                    raise NumericError("time collision walked past the interval end")
                w = bridge.value_at_with_uniform(t, u_val if u_val > 0.0 else _TINY)
                prod *= (hi - phi_s(w)) * inv
            acc += prod
            bridge.restore(snap)
    else:
        # mc and rqmc-times: one skeleton shared across the M products
        value_at = bridge.value_at
        for m in range(cfg.inner_points):
            times = rng.uniform(a, b, kappa) if points is None else a + span * points[m]
            prod = 1.0
            for t in times:
                prod *= (hi - phi_s(value_at(float(t), rng))) * inv
            acc += prod
    value = base * (acc / cfg.inner_points)
    if not math.isfinite(value):
        raise NumericError(f"psi estimate is not finite: {value!r}")
    return PsiEstimate(value, kappa, mode, bridge.total_inserted - before, collisions)


def estimate(model: DriftModel, bridge: LazyBridge, cfg: PsiConfig,
             rng) -> PsiEstimate:
    """Estimate with kappa drawn from ``rng`` by ``sample_kappa``."""
    kappa = sample_kappa(model.phi_bounds, bridge.a, bridge.b, rng)
    return _estimate(model, bridge, cfg, rng, kappa)


def estimate_with_kappa(model: DriftModel, bridge: LazyBridge, cfg: PsiConfig,
                        rng, kappa: int) -> PsiEstimate:
    """Estimate conditional on an externally drawn kappa.

    This is what paired benchmarking uses to offer the same kappa to
    every mode; kappa must come from sample_kappa for the estimates to
    stay unbiased.
    """
    if kappa < 0:
        raise ValueError("kappa must be >= 0")
    return _estimate(model, bridge, cfg, rng, kappa)
