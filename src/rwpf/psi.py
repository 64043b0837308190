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
  inverse CDF. Every point starts from the two-point skeleton, so points
  are conditionally independent given the endpoints and each randomized
  point being uniform makes the average unbiased. With its (time, value)
  pairs sorted by time, a point's bridge is a left-to-right conditional
  Gaussian recursion (neighbours: the previous time and b), which one
  array kernel evaluates for many bridges, points and times at once. A
  time that is already in the skeleton (a, b or the previous time) is
  nudged up by one ulp of its uniform until it is fresh; each nudge is
  counted as a time collision.

There are three entry points: ``estimate`` draws kappa itself,
``estimate_with_kappa`` takes one drawn by the caller (the paired
benchmark offers the same kappa to every mode), and ``estimate_cloud``
does ``estimate``'s work for a whole particle cloud, making the same
draws on each particle's stream; in ``rqmc-times-values`` it groups the
particles by kappa and runs one kernel call per group. kappa is always
pseudo-random, never taken from the point set. Above the configured
kappa cap the point-set modes fall back to plain MC (tagged
``mc-fallback``), reflecting that the point-set route only pays off when
kappa is small.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from . import lowdisc
from .bridge import _TINY, LazyBridge
from .errors import ContractViolationError, NumericError, UnsupportedDimensionError
from .models import DriftModel, phi
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


def _point_sets(mode: str, kappa: int, cfg: PsiConfig, rngs) -> np.ndarray:
    """One freshly randomized point set per stream, stacked as (len(rngs), M, d).

    Each stream gives one ``fresh_seed`` draw; the base net of dimension
    d (kappa, or 2 * kappa with values) is shared.
    """
    dim = kappa if mode == MODE_RQMC_TIMES else 2 * kappa
    if dim > lowdisc.MAX_DIMENSION:
        raise UnsupportedDimensionError(
            f"mode {mode} needs dimension {dim} for kappa={kappa}, "
            f"above the supported {lowdisc.MAX_DIMENSION}; lower rqmc_kappa_cap"
        )
    base = lowdisc.generate_base(dim, cfg.inner_points)
    return np.stack([
        lowdisc.randomize(base, cfg.randomization, fresh_seed(rng)).points
        for rng in rngs
    ])


def _steps(times: np.ndarray, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Bridge recursion coefficients for sorted times of shape (..., kappa).

    With s the previous time (a for the first), the conditional law of
    W_t given W_s and W_b has mean W_s + frac * (W_b - W_s) and variance
    var = (t - s)(b - t)/(b - s); returns (frac, var). var > 0 only where
    the time is fresh: above its predecessor and below b. (A fresh time
    whose var underflows to 0 just takes the nudge loop, which leaves it
    as it is.)
    """
    s = np.empty_like(times)
    s[..., 0] = a
    s[..., 1:] = times[..., :-1]
    d = times - s
    q = b - s
    return d / q, d * (b - times) / q


def _times_values(model: DriftModel, a: float, b: float, x_a: np.ndarray,
                  x_b: np.ndarray, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rqmc-times-values estimate for G bridges at one kappa.

    ``points`` is (G, M, 2 * kappa): per point, kappa time uniforms then
    kappa value uniforms. Returns the G estimates and their time-collision
    counts. Every point starts from the two-point skeleton, so after
    sorting its (time, value) pairs its bridge is a left-to-right
    conditional Gaussian recursion: each time's neighbours are the
    previous time and b.
    """
    lo, hi = model.phi_bounds
    span = b - a
    g, m, dim = points.shape
    kappa = dim // 2
    order = np.lexsort((points[..., kappa:], points[..., :kappa]), axis=-1)
    order += np.arange(0, g * m * dim, dim).reshape(g, m, 1)
    flat = points.reshape(-1)
    u_time, u_val = flat[order], flat[order + kappa]
    times = a + span * u_time
    frac, var = _steps(times, a, b)
    odd = ~(var > 0.0).all(axis=-1)
    collisions = np.zeros(g, dtype=np.int64)
    if odd.any():
        for gi, mi in zip(*np.nonzero(odd)):
            prev = a
            for i in range(kappa):
                u, t = u_time[gi, mi, i], times[gi, mi, i]
                # fresh-time contract: nudge the uniform up by one ulp while
                # t is already in the skeleton, i.e. at or below the
                # previous time, or at b
                while t <= prev or t == b:
                    u = np.nextafter(u, 2.0)
                    t = a + span * u
                    collisions[gi] += 1
                if t > b:
                    raise NumericError("time collision walked past the interval end")
                times[gi, mi, i] = prev = t
        frac, var = _steps(times, a, b)
    noise = np.sqrt(var) * ndtri(np.maximum(u_val, _TINY))
    x_b = x_b[:, None]
    w_s = x_a[:, None]
    w = np.empty_like(times)
    for i in range(kappa):
        w_s = w[..., i] = w_s + frac[..., i] * (x_b - w_s) + noise[..., i]
    prods = ((hi - phi(model, w)) * (1.0 / (hi - lo))).prod(axis=-1)
    values = math.exp(-lo * span) * (prods.sum(axis=-1) / m)
    finite = np.isfinite(values)
    if not finite.all():
        raise NumericError(f"psi estimate is not finite: {float(values[~finite][0])!r}")
    return values, collisions


def _estimate(model: DriftModel, bridge: LazyBridge, cfg: PsiConfig, rng,
              kappa: int) -> PsiEstimate:
    """The estimator body behind the entry points; rqmc-times-values runs
    through the kernel on a batch of one."""
    lo, hi = model.phi_bounds
    a, b = bridge.a, bridge.b
    span = b - a
    base = math.exp(-lo * span)
    mode = cfg.mode
    if kappa == 0:
        return PsiEstimate(base, 0, mode, 0)
    if mode != MODE_MC and kappa > cfg.rqmc_kappa_cap:
        mode = MODE_MC_FALLBACK

    if mode == MODE_RQMC_TIMES_VALUES:
        if len(bridge) > 2:
            raise ContractViolationError(
                f"mode {mode} needs a two-point skeleton, got {len(bridge)} points"
            )
        values, collisions = _times_values(
            model, a, b, np.array([bridge.x_a]), np.array([bridge.x_b]),
            _point_sets(mode, kappa, cfg, [rng]),
        )
        return PsiEstimate(float(values[0]), kappa, mode,
                           cfg.inner_points * kappa, int(collisions[0]))

    # mc and rqmc-times: one skeleton shared across the M products
    points = _point_sets(mode, kappa, cfg, [rng])[0] if mode == MODE_RQMC_TIMES else None
    inv = 1.0 / (hi - lo)
    phi_s = model.phi_scalar
    value_at = bridge.value_at
    before = bridge.total_inserted
    acc = 0.0
    for m in range(cfg.inner_points):
        times = rng.uniform(a, b, kappa) if points is None else a + span * points[m]
        prod = 1.0
        for t in times:
            prod *= (hi - phi_s(value_at(float(t), rng))) * inv
        acc += prod
    value = base * (acc / cfg.inner_points)
    if not math.isfinite(value):
        raise NumericError(f"psi estimate is not finite: {value!r}")
    return PsiEstimate(value, kappa, mode, bridge.total_inserted - before)


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


def estimate_cloud(model: DriftModel, a: float, b: float, x_a, x_b,
                   cfg: PsiConfig, rngs) -> list[PsiEstimate]:
    """One estimate per particle: bridge i runs from (a, x_a[i]) to
    (b, x_b[i]) and draws from ``rngs[i]``.

    Each stream sees the draws ``estimate`` would make on it, in the same
    order. ``mc`` and ``rqmc-times`` call ``estimate`` per particle. In
    ``rqmc-times-values`` the particles are grouped by kappa and each
    group runs through one array kernel; kappa 0 and kappa above the cap
    go through the scalar body.
    """
    def bridge(i):
        return LazyBridge(a, float(x_a[i]), b, float(x_b[i]))

    if cfg.mode != MODE_RQMC_TIMES_VALUES:
        return [estimate(model, bridge(i), cfg, rng) for i, rng in enumerate(rngs)]

    out: list[PsiEstimate | None] = [None] * len(rngs)
    groups: dict[int, list[int]] = {}
    for i, rng in enumerate(rngs):
        kappa = sample_kappa(model.phi_bounds, a, b, rng)
        if 0 < kappa <= cfg.rqmc_kappa_cap:
            groups.setdefault(kappa, []).append(i)
        else:
            out[i] = _estimate(model, bridge(i), cfg, rng, kappa)
    # groups in order of first appearance, so a dimension error names the
    # kappa a per-particle loop would have stopped at
    x_a = np.asarray(x_a, dtype=np.float64)
    x_b = np.asarray(x_b, dtype=np.float64)
    for kappa, idx in groups.items():
        points = _point_sets(cfg.mode, kappa, cfg, [rngs[i] for i in idx])
        values, collisions = _times_values(model, a, b, x_a[idx], x_b[idx], points)
        for i, value, n_coll in zip(idx, values.tolist(), collisions.tolist()):
            out[i] = PsiEstimate(value, kappa, cfg.mode, cfg.inner_points * kappa, n_coll)
    return out
