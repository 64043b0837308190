"""Unbiased estimators of the bridge weight functional.

The target is the expectation, over a Brownian bridge W pinned at the
proposal's endpoints, of exp{-integral of phi(W_t) dt}. With phi bounded
in [L, U] it admits the unbiased product representation: draw
kappa ~ Poisson((U-L)(b-a)) and kappa uniform times on [a, b], then

    e^{-L(b-a)} * prod_i (U - phi(W_{xi_i})) / (U - L)

has the right mean. The estimate averages M such products. The three
modes differ only in where each product gets its time uniforms and its
bridge values' standard normals, and in whether the M products share one
path:

* ``mc``: M * kappa pseudo-random time uniforms, then M * kappa
  pseudo-random standard normals; one shared path per bridge.
* ``rqmc-times``: a randomized low-discrepancy point set of dimension
  kappa supplies the M time vectors, then M * kappa pseudo-random
  standard normals; one shared path per bridge.
* ``rqmc-times-values``: dimension 2*kappa; each point carries both its
  times and its value uniforms, which the inverse normal CDF
  (``scipy.special.ndtri``) turns into normals. Each point has its own
  path from the two-point skeleton, so points are conditionally
  independent given the endpoints and each randomized point being
  uniform makes the average unbiased.

Only ``rqmc-times-values`` needs the inverse normal CDF, so
``scipy.special`` is imported when a ``PsiConfig`` of that mode is
validated, and never by a process that runs only the other modes.

Each path is sampled left to right over its sorted (time, value draw)
pairs. On every path, shared or per point, a repeated time, or one equal
to a or b, takes the value already known, as a lazily refined skeleton
would; given the floating-point times that is the exact bridge law. Such
a time is counted as a time collision and not as a bridge query.

One array kernel weights every bridge of a call in one pass. Each
distinct nonzero kappa is a group that draws its uniforms and normals,
or all its randomized point sets, as arrays, in order of first
appearance. The groups' sorted paths lie one after another in one flat
array of slots, and the elementwise body (times, ``ndtri`` on the
point-set value slots, the recursion's coefficients, ``phi`` and the
bound check) runs once over all of them. Only the draws, the row sort,
the row cumulative sum and each point's product run per group, on
rectangular views, so a bridge's estimate does not depend on which other
bridges share the call.

There are three entry points. ``estimate`` draws kappa itself and
``estimate_with_kappa`` takes one drawn by the caller (the paired
benchmark offers the same kappa to every mode); both run the kernel on a
batch of one, return scalar fields and write the fresh points of the
shared path into the caller's ``LazyBridge``. ``estimate_cloud`` does
``estimate``'s work for a whole particle cloud on one stream: the N
kappas are one Poisson draw, then one kernel pass; it returns one
estimate whose fields are arrays over the cloud. kappa is always
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
from .errors import ContractViolationError, NumericError, UnsupportedDimensionError
from .models import PHI_TOL, DriftModel, phi
# not called here; kept as psi.fresh_seed, the name perfbench's tracer wraps
from .rngs import fresh_seed  # noqa: F401

MODE_MC = "mc"
MODE_RQMC_TIMES = "rqmc-times"
MODE_RQMC_TIMES_VALUES = "rqmc-times-values"
MODE_MC_FALLBACK = "mc-fallback"

MODES = (MODE_MC, MODE_RQMC_TIMES, MODE_RQMC_TIMES_VALUES)
# an estimate's mode array; wide enough for every mode name
_MODE_DTYPE = f"<U{max(len(name) for name in (*MODES, MODE_MC_FALLBACK))}"

ndtri = None   # scipy.special.ndtri, once a rqmc-times-values PsiConfig is validated


def _inverse_normal():
    """``scipy.special.ndtri``, imported on first use: only the value
    uniforms of rqmc-times-values need it, and the import costs a process
    about 0.25 s and 25 MB."""
    global ndtri
    if ndtri is None:
        from scipy.special import ndtri
    return ndtri


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
        if self.mode == MODE_RQMC_TIMES_VALUES:
            _inverse_normal()   # at set-up, not in the first estimate


@dataclass
class PsiEstimate:
    """Scalars for one bridge; length-N arrays for a cloud (``estimate_cloud``).
    Of a bridge's M * kappa times, ``n_bridge_queries`` are fresh on their
    path and ``n_time_collisions`` took the value already known there."""
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


def _draws(mode: str, kappa: int, cfg: PsiConfig, rng, g: int
           ) -> tuple[np.ndarray, np.ndarray]:
    """Time uniforms and value draws, each (g, M * kappa) with point m's
    kappa entries at [m * kappa, (m + 1) * kappa). The value draws are the
    point sets' uniforms in rqmc-times-values and standard normals from
    ``rng`` otherwise, drawn after the times."""
    n = cfg.inner_points * kappa
    if mode == MODE_RQMC_TIMES_VALUES:
        points = _point_sets(mode, kappa, cfg, rng, g)
        return points[..., :kappa].reshape(g, n), points[..., kappa:].reshape(g, n)
    u_time = (_point_sets(mode, kappa, cfg, rng, g).reshape(g, n)
              if mode == MODE_RQMC_TIMES else rng.random((g, n)))
    return u_time, rng.standard_normal((g, n))


def _at_base(kappa: np.ndarray, base: float, mode: str) -> PsiEstimate:
    """Estimates for bridges without times: each is e^{-L(b-a)}, with no queries."""
    n = len(kappa)
    return PsiEstimate(np.full(n, base), kappa, np.full(n, mode, dtype=_MODE_DTYPE),
                       np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64))


def _kernel(model: DriftModel, a: float, b: float, x_a: np.ndarray, x_b: np.ndarray,
            kappa: np.ndarray, cfg: PsiConfig, rng):
    """The estimator body: estimates for the bridges from (a, x_a[i]) to
    (b, x_b[i]) with kappa[i] times each, all drawing from ``rng``.

    A kappa group's paths are rows of one width: g rows of M * kappa when
    each bridge has one shared path, g * M rows of kappa when each point
    has its own. The sorted rows of all groups, group after group, are the
    slots of one flat array.

    Returns a PsiEstimate whose fields are arrays over the bridges and,
    when some kappa is nonzero, the paths as flat slot arrays of times,
    values and fresh-time flags.

    Each path is sampled over its sorted times t_1 <= ... <= t_n with the
    closed form of the left-to-right conditional recursion,

        x_b - W_i = (b - t_i) * [(x_b - x_a)/(b - a)
                    - sum_{j <= i} Z_j sqrt((t_j - t_{j-1}) / ((b - t_{j-1})(b - t_j)))]

    with t_0 = a and Z_j the j-th standard normal: drawn as one in the
    shared-path modes, ndtri(u_j) of the point's value uniform in
    rqmc-times-values. The term is zero where t_j equals a, b or t_{j-1},
    so on every path, shared or per point, those times take the value
    already on it.
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
    n, m = len(kappa), cfg.inner_points
    kappas = kappa if n == 1 else np.flatnonzero(np.bincount(kappa))   # distinct
    whole = len(kappas) == 1          # one kappa for every bridge: nothing to gather
    if not whole:                     # in order of first appearance
        members = kappa == kappas[:, None]
        arrival = np.argsort(members.argmax(axis=1))
        kappas, members = kappas[arrival], members[arrival]
    groups, parts, size, n_per_point = [], [], 0, 0
    for j, k in enumerate(kappas.tolist()):
        if k == 0:
            continue
        idx = slice(None) if whole else np.flatnonzero(members[j])
        g = n if whole else len(idx)
        mode = cfg.mode
        if mode != MODE_MC and k > cfg.rqmc_kappa_cap:
            mode = MODE_MC_FALLBACK
        per_point = mode == MODE_RQMC_TIMES_VALUES
        n_per_point += per_point
        width = k if per_point else m * k     # times per path
        u_time, draw = (x.reshape(-1, width) for x in _draws(mode, k, cfg, rng, g))
        starts = np.arange(size, size + u_time.size, width)
        if width == 1:                        # a one-time row is sorted
            order = starts
        else:
            order = np.lexsort((draw, u_time), axis=-1)
            order += starts[:, None]          # flat slot indices
        groups.append((size, size + u_time.size, g, k, width, mode, idx))
        parts.append((u_time.reshape(-1), draw.reshape(-1), order.reshape(-1), starts,
                      starts[::m] if per_point else starts))   # each bridge's first slot
        size += u_time.size
    if not groups:
        return _at_base(kappa, base, cfg.mode), None

    # each field as one array in group order; one group's are not copied
    u_time, draw, order, row_starts, first = (
        parts[0] if len(parts) == 1 else [np.concatenate(p) for p in zip(*parts)])
    times = np.minimum(a + span * u_time[order], b)   # u near 1 can round past b
    if n_per_point == len(groups):
        per_point_slots = True
    elif n_per_point == 0:
        per_point_slots = None
    else:                                      # per-point rows beside mc-fallback rows
        per_point_slots = np.repeat(
            [mode == MODE_RQMC_TIMES_VALUES for *_, mode, _ in groups],
            [end - start for start, end, *_ in groups])
    prev = np.empty_like(times)
    prev[1:] = times[:-1]
    prev[row_starts] = a
    step = times - prev
    rem = b - times                            # b - t_{j-1} = rem + step
    fresh = (step > 0.0) & (rem > 0.0)
    z = draw[order]
    if per_point_slots is True:                # the point sets' value uniforms
        z = _inverse_normal()(np.maximum(z, _TINY))
    elif per_point_slots is not None:
        z[per_point_slots] = _inverse_normal()(np.maximum(z[per_point_slots], _TINY))
    # zero where the time is not fresh, so it keeps the value on the path
    coef = np.sqrt(step / np.where(fresh, (rem + step) * rem, np.inf))
    walk = coef * z
    for start, end, _, _, width, _, _ in groups:
        if width > 1:
            rows = walk[start:end].reshape(-1, width)
            rows.cumsum(axis=-1, out=rows)
    if whole:
        _, _, _, k, _, mode, perm = groups[0]
        slots = m * k
    else:
        perm = np.concatenate([idx for *_, idx in groups])
        slots = m * kappa[perm]
    w_a, w_b = x_a[perm].repeat(slots), x_b[perm].repeat(slots)
    w = w_b - rem * ((w_b - w_a) / span - walk)

    gap = hi - phi(model, w)
    if gap.min() < -PHI_TOL:
        over = gap < -PHI_TOL
        raise NumericError(
            f"model {model.name!r}: phi(w) exceeds its upper bound U={hi} "
            f"at w={float(w[over][0])!r}; declared phi bounds are violated"
        )
    factors = np.empty(size)                   # back to each point's slots
    factors[order] = np.maximum(gap, 0.0) * (1.0 / (hi - lo))
    sums = [factors[start:end].reshape(g, m, k).prod(axis=-1).sum(axis=-1)
            for start, end, g, k, _, _, _ in groups]
    values = base * ((sums[0] if len(sums) == 1 else np.concatenate(sums)) / m)
    finite = np.isfinite(values)
    if not finite.all():
        raise NumericError(f"psi estimate is not finite: {float(values[~finite][0])!r}")
    queries = np.add.reduceat(fresh, first, dtype=np.int64)
    path = (times, w, fresh)
    if whole:
        return PsiEstimate(values, kappa, np.full(n, mode, dtype=_MODE_DTYPE),
                           queries, m * kappa - queries), path
    est = _at_base(kappa, base, cfg.mode)
    est.value[perm], est.n_bridge_queries[perm] = values, queries
    est.n_time_collisions = m * kappa - est.n_bridge_queries
    for _, _, _, _, _, mode, idx in groups:
        if mode == MODE_MC_FALLBACK:
            est.mode[idx] = mode
    return est, path


def _estimate(model: DriftModel, bridge: LazyBridge, cfg: PsiConfig, rng,
              kappa: int) -> PsiEstimate:
    """The kernel on a batch of one; the shared path's fresh points are
    inserted into ``bridge``."""
    if len(bridge) > 2:
        raise ContractViolationError(
            f"psi needs a two-point skeleton, got {len(bridge)} points"
        )
    est, path = _kernel(model, bridge.a, bridge.b, np.array([bridge.x_a]),
                        np.array([bridge.x_b]), np.array([kappa]), cfg, rng)
    [value], [mode], [queries], [collisions] = (x.tolist() for x in (
        est.value, est.mode, est.n_bridge_queries, est.n_time_collisions))
    if path is not None and mode != MODE_RQMC_TIMES_VALUES:
        times, w, fresh = path
        bridge.insert_path(times[fresh].tolist(), w[fresh].tolist())
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

    Draws from ``rng`` in this order: every kappa as one array, then each
    distinct nonzero kappa's uniforms or point sets as one array, in order
    of first appearance, so a dimension error names the kappa of the first
    particle whose point set is too large. One kernel pass then weights
    the whole cloud.
    """
    x_a, x_b = np.asarray(x_a, dtype=np.float64), np.asarray(x_b, dtype=np.float64)
    kappa = sample_kappa(model.phi_bounds, a, b, rng, len(x_a))
    return _kernel(model, a, b, x_a, x_b, kappa, cfg, rng)[0]
