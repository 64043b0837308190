"""Unbiased estimators of the bridge weight functional.

The target is the expectation, over a Brownian bridge W pinned at the
proposal's endpoints, of exp{-integral of phi(W_t) dt}. With phi bounded
in [L, U] it admits the unbiased product representation: draw
kappa ~ Poisson((U-L)(b-a)) and kappa uniform times on [a, b], then

    e^{-L(b-a)} * prod_i (U - phi(W_{xi_i})) / (U - L)

has the right mean. The estimate averages M such products. The three
modes differ only in where each product gets its time uniforms and its
bridge uniforms, and in whether the M products share one path:

* ``mc``: M * kappa pseudo-random time uniforms, then M * kappa value
  uniforms; one shared path per bridge.
* ``rqmc-times``: a randomized low-discrepancy point set of dimension
  kappa supplies the M time vectors, then M * kappa pseudo-random value
  uniforms; one shared path per bridge.
* ``rqmc-times-values``: dimension 2*kappa; each point carries both its
  times and its value uniforms, and has its own path from the two-point
  skeleton, so points are conditionally independent given the endpoints
  and each randomized point being uniform makes the average unbiased. A
  time already on the point's path (a, b or the previous time) is nudged
  up by one ulp of its uniform until it is fresh; each nudge is counted
  as a time collision.

Each path is sampled left to right over its sorted (time, value uniform)
pairs by one array kernel, many bridges at one kappa at a time. On a
shared path a repeated time, or one equal to a or b, takes the value
already known, as a lazily refined skeleton would.

There are three entry points. ``estimate`` draws kappa itself and
``estimate_with_kappa`` takes one drawn by the caller (the paired
benchmark offers the same kappa to every mode); both run the kernel on a
batch of one, return scalar fields and write the fresh points of the
shared path into the caller's ``LazyBridge``. ``estimate_cloud`` does
``estimate``'s work for a whole particle cloud on one stream: the N
kappas are one Poisson draw, and each kappa group takes its uniforms,
or all its randomized point sets, as one array draw; it returns one
estimate whose fields are arrays over the cloud. kappa is always
pseudo-random, never taken from the point set. Above the configured kappa cap the point-set modes fall
back to plain MC (tagged ``mc-fallback``), reflecting that the point-set
route only pays off when kappa is small.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from . import lowdisc
from .bridge import _TINY, LazyBridge
from .errors import ContractViolationError, NumericError, UnsupportedDimensionError
from .models import PHI_TOL, DriftModel, phi
# not called here; kept as psi.fresh_seed, the name perfbench's tracer wraps
from .rngs import fresh_seed  # noqa: F401

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
        if self.mode != MODE_MC and self.inner_points > lowdisc.MAX_COUNT:
            raise ValueError(
                f"inner_points > {lowdisc.MAX_COUNT} unsupported in mode {self.mode}"
            )
        if self.mode != MODE_MC and self.randomization not in (
            lowdisc.SCHEME_DIGITAL_SHIFT, lowdisc.SCHEME_OWEN
        ):
            raise ValueError(f"invalid randomization {self.randomization!r}")


@dataclass
class PsiEstimate:
    """Scalars for one bridge; length-N arrays for a cloud (``estimate_cloud``)."""
    value: float
    kappa: int
    mode: str
    n_bridge_queries: int
    n_time_collisions: int = 0


def sample_kappa(rate_interval: tuple[float, float], a: float, b: float, rng, shape=None):
    """Poisson((U - L) * (b - a)): an int, or an array of ``shape``; 0 when U == L."""
    lo, hi = rate_interval
    if hi < lo:
        raise ValueError(f"need U >= L, got ({lo}, {hi})")
    if b <= a:
        raise ValueError(f"need b > a, got ({a}, {b})")
    rate = (hi - lo) * (b - a)
    if rate == 0.0:
        return 0 if shape is None else np.zeros(shape, np.int64)
    try:
        kappa = rng.poisson(rate, shape)
    except ValueError:   # numpy refuses a rate near 2^63 or above
        raise NumericError(
            f"kappa rate (U-L)(b-a)={rate} is too large to sample on a gap of b-a={b - a}"
        ) from None
    return int(kappa) if shape is None else kappa


def _point_sets(mode: str, kappa: int, cfg: PsiConfig, rng, g: int) -> np.ndarray:
    """g freshly randomized copies of the shared base net of dimension d
    (kappa, or 2 * kappa with values), stacked as (g, M, d), from one
    ``lowdisc.randomize`` draw on ``rng``."""
    dim = kappa if mode == MODE_RQMC_TIMES else 2 * kappa
    if dim > lowdisc.MAX_DIMENSION:
        raise UnsupportedDimensionError(
            f"mode {mode} needs dimension {dim} for kappa={kappa}, "
            f"above the supported {lowdisc.MAX_DIMENSION}; lower rqmc_kappa_cap"
        )
    base = lowdisc.generate_base(dim, cfg.inner_points)
    return lowdisc.randomize(base, cfg.randomization, rng, g).points


def _uniforms(mode: str, kappa: int, cfg: PsiConfig, rng, g: int
              ) -> tuple[np.ndarray, np.ndarray]:
    """Time and value uniforms, each (g, M * kappa) with point m's kappa
    entries at [m * kappa, (m + 1) * kappa)."""
    n = cfg.inner_points * kappa
    if mode == MODE_RQMC_TIMES_VALUES:
        points = _point_sets(mode, kappa, cfg, rng, g)
        return points[..., :kappa].reshape(g, n), points[..., kappa:].reshape(g, n)
    if mode == MODE_RQMC_TIMES:
        return _point_sets(mode, kappa, cfg, rng, g).reshape(g, n), rng.random((g, n))
    draws = rng.random((g, 2 * n))
    return draws[:, :n], draws[:, n:]


def _group(model: DriftModel, a: float, b: float, x_a: np.ndarray, x_b: np.ndarray,
           cfg: PsiConfig, rng, kappa: int):
    """The estimator body: estimates for the bridges from (a, x_a[i]) to
    (b, x_b[i]) at one kappa, all drawing from ``rng``.

    Returns the mode run, the values, bridge queries and time collisions
    as arrays over the bridges, and, when kappa > 0, the paths as arrays
    of times, values and fresh-time flags, one row per path sorted by
    time: g rows of M * kappa when each bridge has one shared path,
    g * M rows of kappa when each point has its own.

    Each path is sampled over its sorted times t_1 <= ... <= t_n with the
    closed form of the left-to-right conditional recursion,

        x_b - W_i = (b - t_i) * [(x_b - x_a)/(b - a)
                    - sum_{j <= i} Z_j sqrt((t_j - t_{j-1}) / ((b - t_{j-1})(b - t_j)))]

    with t_0 = a and Z_j = ndtri(u_j); the term is zero where t_j repeats
    or equals b, so those times take the value already on the path.
    """
    lo, hi = model.phi_bounds
    span = b - a
    try:
        base = math.exp(-lo * span)
    except OverflowError:
        raise NumericError(
            f"weight factor e^(-L(b-a)) overflows for model {model.name!r} "
            f"on a gap of b-a={span} (L={lo})"
        ) from None
    mode, g, m = cfg.mode, len(x_a), cfg.inner_points
    if kappa == 0:
        zeros = np.zeros(g, dtype=np.int64)
        return mode, np.full(g, base), zeros, zeros, None
    if mode != MODE_MC and kappa > cfg.rqmc_kappa_cap:
        mode = MODE_MC_FALLBACK

    u_time, u_val = _uniforms(mode, kappa, cfg, rng, g)
    shared = mode != MODE_RQMC_TIMES_VALUES
    width = m * kappa if shared else kappa     # times per path
    order = np.lexsort((u_val.reshape(-1, width), u_time.reshape(-1, width)), axis=-1)
    order += np.arange(0, u_time.size, width).reshape(-1, 1)   # flat indices
    u_time = u_time.reshape(-1)[order]
    times = np.minimum(a + span * u_time, b)   # u near 1 can round past b
    nudges = np.zeros(len(times), dtype=np.int64)
    while True:
        step = np.empty_like(times)
        step[:, 0] = times[:, 0] - a
        step[:, 1:] = times[:, 1:] - times[:, :-1]
        rem = b - times                            # b - t_{j-1} = rem + step
        fresh = (step > 0.0) & (rem > 0.0)
        if shared or fresh.all():
            break
        # a time already on its point's path moves up by one ulp of its
        # uniform; times only move up, so moving every stuck one at once
        # ends where moving them left to right does, after as many nudges
        u_time = np.where(fresh, u_time, np.nextafter(u_time, 2.0))
        times = a + span * u_time
        if (times > b).any():
            raise NumericError("time collision walked past the interval end")
        nudges += (~fresh).sum(axis=1)
    z = ndtri(np.maximum(u_val.reshape(-1)[order], _TINY))
    # zero where the time is not fresh, so it keeps the value on the path
    coef = np.sqrt(step / np.where(fresh, (rem + step) * rem, np.inf))
    w_a, w_b = (np.repeat(x, len(times) // g)[:, None] for x in (x_a, x_b))
    w = w_b - rem * ((w_b - w_a) / span - np.cumsum(coef * z, axis=-1))

    gap = hi - phi(model, w)
    over = gap < -PHI_TOL
    if over.any():
        raise NumericError(
            f"model {model.name!r}: phi(w) exceeds its upper bound U={hi} "
            f"at w={float(w[over][0])!r}; declared phi bounds are violated"
        )
    factors = np.empty(gap.size)                # back to each point's slots
    factors[order] = np.maximum(gap, 0.0) * (1.0 / (hi - lo))
    values = base * (factors.reshape(g, m, kappa).prod(axis=-1).sum(axis=-1) / m)
    finite = np.isfinite(values)
    if not finite.all():
        raise NumericError(f"psi estimate is not finite: {float(values[~finite][0])!r}")
    return (mode, values, fresh.reshape(g, -1).sum(axis=1),
            nudges.reshape(g, -1).sum(axis=1), (times, w, fresh))


def _estimate(model: DriftModel, bridge: LazyBridge, cfg: PsiConfig, rng,
              kappa: int) -> PsiEstimate:
    """The body on a batch of one; the shared path's fresh points are
    inserted into ``bridge``."""
    if len(bridge) > 2:
        raise ContractViolationError(
            f"psi needs a two-point skeleton, got {len(bridge)} points"
        )
    mode, *fields, path = _group(model, bridge.a, bridge.b, np.array([bridge.x_a]),
                                 np.array([bridge.x_b]), cfg, rng, kappa)
    if kappa and mode != MODE_RQMC_TIMES_VALUES:
        times, w, fresh = path
        bridge.insert_path(times[0, fresh[0]].tolist(), w[0, fresh[0]].tolist())
    [value], [queries], [collisions] = (x.tolist() for x in fields)
    return PsiEstimate(value, kappa, mode, queries, collisions)


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
                   cfg: PsiConfig, rng) -> PsiEstimate:
    """Estimates for a cloud: bridge i runs from (a, x_a[i]) to (b, x_b[i]);
    every field is an array over the bridges.

    Draws from ``rng`` in this order: every kappa as one array, then one
    body call per distinct kappa, in order of first appearance, so a
    dimension error names the kappa of the first particle whose point set
    is too large.
    """
    x_a, x_b = np.asarray(x_a, dtype=np.float64), np.asarray(x_b, dtype=np.float64)
    n = len(x_a)
    kappa = sample_kappa(model.phi_bounds, a, b, rng, n)
    out = PsiEstimate(np.empty(n), kappa, np.full(n, cfg.mode, dtype=object),
                      np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64))
    for k in dict.fromkeys(kappa.tolist()):
        idx = np.flatnonzero(kappa == k)
        (out.mode[idx], out.value[idx], out.n_bridge_queries[idx],
         out.n_time_collisions[idx], _) = _group(
            model, a, b, x_a[idx], x_b[idx], cfg, rng, k)
    return out
