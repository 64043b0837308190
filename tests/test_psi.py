import dataclasses
import json
import math
import pathlib

import numpy as np
import pytest

from rwpf import lowdisc, psi
from rwpf.bridge import _TINY, LazyBridge
from rwpf.errors import ContractViolationError, NumericError, UnsupportedDimensionError
from rwpf.models import builtin
from rwpf.rngs import stream

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

ALL_CONFIGS = [
    psi.PsiConfig(mode="mc", inner_points=1),
    psi.PsiConfig(mode="mc", inner_points=16),
    psi.PsiConfig(mode="rqmc-times", inner_points=16),
    psi.PsiConfig(mode="rqmc-times-values", inner_points=16),
]


def _unstacked(cloud):
    """An ``estimate_cloud`` result as one scalar PsiEstimate per particle."""
    fields = (getattr(cloud, f.name).tolist() for f in dataclasses.fields(psi.PsiEstimate))
    return [psi.PsiEstimate(*row) for row in zip(*fields)]


def _fixture(name):
    with open(FIXTURES / f"{name}.json") as f:
        fx = json.load(f)
    # trust the pin only if its two independent runs agree
    r1, r2 = fx["runs"]
    comb = math.hypot(r1["se"], r2["se"])
    assert abs(r1["value"] - r2["value"]) <= 3 * comb
    return fx


def test_sample_kappa_degenerate_and_tiny():
    rng = stream(1, 1)
    for _ in range(50):
        assert psi.sample_kappa((0.5, 0.5), 0.0, 1.0, rng) == 0
    assert psi.sample_kappa((0.0, 1e-12), 0.0, 1.0, rng) == 0
    with pytest.raises(ValueError):
        psi.sample_kappa((1.0, 0.5), 0.0, 1.0, rng)
    with pytest.raises(ValueError):
        psi.sample_kappa((0.0, 1.0), 1.0, 1.0, rng)


def test_sample_kappa_mean():
    # sine bounds over a unit interval: rate (U-L)(b-a) = 1.125
    rng = stream(2, 1)
    n = 100_000
    draws = [psi.sample_kappa((-0.5, 0.625), 0.0, 1.0, rng) for _ in range(n)]
    assert abs(np.mean(draws) - 1.125) < 3 * math.sqrt(1.125 / n)


@pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=lambda c: f"{c.mode}-M{c.inner_points}")
def test_degenerate_bounds_bit_exact(cfg):
    rng = stream(3, 1)
    tanh = builtin("tanh")
    zero = builtin("zero")
    for _ in range(20):
        est = psi.estimate(tanh, LazyBridge(0.0, 0.4, 1.0, -0.2), cfg, rng)
        assert est.value == math.exp(-0.5)
        assert est.kappa == 0 and est.n_bridge_queries == 0
        est0 = psi.estimate(zero, LazyBridge(0.0, 0.0, 1.0, 1.0), cfg, rng)
        assert est0.value == 1.0
    # non-unit interval
    est = psi.estimate(tanh, LazyBridge(0.0, 0.0, 2.5, 0.0), cfg, rng)
    assert est.value == math.exp(-0.5 * 2.5)


@pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=lambda c: f"{c.mode}-M{c.inner_points}")
def test_unbiased_against_bruteforce_fixture(cfg):
    fx = _fixture("psi_sine_0_0_1")
    sine = builtin("sine")
    rng = stream(4, hash(cfg.mode) % 1000, cfg.inner_points)
    n = 20_000
    vals = np.empty(n)
    for i in range(n):
        vals[i] = psi.estimate(sine, LazyBridge(0.0, 0.0, 1.0, 0.0), cfg, rng).value
    se = math.hypot(vals.std(ddof=1) / math.sqrt(n), fx["se"])
    assert abs(vals.mean() - fx["value"]) < 4 * se


def test_value_range_and_cost_bound():
    sine = builtin("sine")
    upper = math.exp(0.5)  # e^{-L(b-a)} with L = -0.5
    for cfg in ALL_CONFIGS:
        rng = stream(5, 1)
        for _ in range(2000):
            br = LazyBridge(0.0, 0.0, 1.0, 0.0)
            est = psi.estimate(sine, br, cfg, rng)
            assert 0.0 <= est.value <= upper + 1e-12
            assert est.n_bridge_queries <= cfg.inner_points * est.kappa


def test_rqmc_times_memoization_reduces_queries():
    # duplicate times across points are memoized, so with kappa = 1 and the
    # same coordinate appearing twice the query count can drop below M*kappa
    sine = builtin("sine")
    cfg = psi.PsiConfig(mode="rqmc-times", inner_points=64)
    rng = stream(6, 1)
    total, bound = 0, 0
    for _ in range(200):
        br = LazyBridge(0.0, 0.0, 1.0, 0.0)
        est = psi.estimate(sine, br, cfg, rng)
        total += est.n_bridge_queries
        bound += cfg.inner_points * est.kappa
    assert total <= bound


def test_fallback_matches_mc_seed_for_seed():
    sine = builtin("sine")
    cfg_rq = psi.PsiConfig(mode="rqmc-times-values", inner_points=8, rqmc_kappa_cap=1)
    cfg_mc = psi.PsiConfig(mode="mc", inner_points=8)
    n_fallback = 0
    for seed in range(200):
        r1 = stream(seed, 7)
        r2 = stream(seed, 7)
        est_rq = psi.estimate(sine, LazyBridge(0.0, 0.0, 1.0, 0.0), cfg_rq, r1)
        est_mc = psi.estimate(sine, LazyBridge(0.0, 0.0, 1.0, 0.0), cfg_mc, r2)
        assert est_rq.kappa == est_mc.kappa
        if est_rq.kappa > 1:
            n_fallback += 1
            assert est_rq.mode == "mc-fallback"
            assert est_rq.value == est_mc.value  # bit-identical code path
    assert n_fallback > 20


def test_times_values_dimension_cap():
    sine = builtin("sine")
    cfg = psi.PsiConfig(mode="rqmc-times-values", inner_points=4, rqmc_kappa_cap=64)
    with pytest.raises(UnsupportedDimensionError):
        psi.estimate_with_kappa(sine, LazyBridge(0.0, 0.0, 1.0, 0.0), cfg,
                                stream(8, 1), 40)
    # kappa = 32 -> dimension 64 is still fine
    est = psi.estimate_with_kappa(sine, LazyBridge(0.0, 0.0, 1.0, 0.0), cfg,
                                  stream(8, 2), 32)
    assert est.kappa == 32


def test_times_values_collision_perturbation(monkeypatch):
    # force duplicate coordinates so the one-ulp perturbation path runs
    sine = builtin("sine")
    _fixed_points(monkeypatch, np.full((2, 4), 0.4375))
    cfg = psi.PsiConfig(mode="rqmc-times-values", inner_points=2)
    est = psi.estimate_with_kappa(sine, LazyBridge(0.0, 0.0, 1.0, 0.0), cfg,
                                  stream(9, 1), 2)
    assert est.n_time_collisions >= 2  # each point queries 0.4375 twice
    assert est.n_bridge_queries == 4
    assert math.isfinite(est.value)


def test_rollback_leaves_entry_skeleton():
    sine = builtin("sine")
    cfg = psi.PsiConfig(mode="rqmc-times-values", inner_points=8)
    br = LazyBridge(0.0, 0.0, 1.0, 0.0)
    est = psi.estimate_with_kappa(sine, br, cfg, stream(10, 1), 3)
    assert len(br) == 2  # every point's insertions rolled back
    assert est.n_bridge_queries == 8 * 3


def test_shared_skeleton_growth_in_mc_mode():
    sine = builtin("sine")
    cfg = psi.PsiConfig(mode="mc", inner_points=8)
    br = LazyBridge(0.0, 0.0, 1.0, 0.0)
    est = psi.estimate_with_kappa(sine, br, cfg, stream(11, 1), 2)
    assert len(br) == 2 + est.n_bridge_queries
    assert est.n_bridge_queries == 16


def test_psi_config_validation():
    with pytest.raises(ValueError):
        psi.PsiConfig(mode="qmc")
    with pytest.raises(ValueError):
        psi.PsiConfig(inner_points=0)
    with pytest.raises(ValueError):
        psi.PsiConfig(mode="rqmc-times", rqmc_kappa_cap=65)
    with pytest.raises(ValueError):
        psi.PsiConfig(mode="rqmc-times", randomization="none")
    psi.PsiConfig(mode="mc", rqmc_kappa_cap=1000)  # cap unused in mc mode


def test_nan_from_model_is_numeric_failure():
    from rwpf.errors import NumericError
    from rwpf.models import DriftModel
    # the estimators evaluate phi on arrays through alpha and alpha'
    broken = DriftModel(
        name="nan-model",
        alpha=lambda u: np.sin(u) * math.nan, alpha_prime=np.cos,
        big_a=lambda u: 1.0 - np.cos(u),
        phi_bounds=(-0.5, 0.625),
        phi_scalar=lambda u: 0.0,
    )
    cfg = psi.PsiConfig(mode="mc", inner_points=2)
    with pytest.raises(NumericError, match="not finite"):
        psi.estimate_with_kappa(broken, LazyBridge(0.0, 0.0, 1.0, 0.0), cfg,
                                stream(14, 1), 2)


def test_mode_dispatch_guards():
    sine = builtin("sine")
    rng = stream(13, 1)
    with pytest.raises(ValueError):
        psi.estimate_with_kappa(sine, LazyBridge(0, 0, 1, 0),
                                psi.PsiConfig(mode="mc"), rng, -1)


def _drawn_points(cfg, dim, rng):
    """The randomized point set an estimate on a batch of one draws from
    ``rng``: one set of ``lowdisc.randomize`` on that stream."""
    base = lowdisc.generate_base(dim, cfg.inner_points)
    return lowdisc.randomize(base, cfg.randomization, rng, 1).points[0]


def _reference_times_values(model, bridge, cfg, points, kappa):
    """rqmc-times-values on the LazyBridge over the (M, 2 * kappa) points:
    sorted (time, value) pairs, value_at_with_uniform, the one-ulp nudge of
    a time already in the skeleton, and a rollback after every point.
    Returns (value, n_time_collisions, n_bridge_queries)."""
    lo, hi = model.phi_bounds
    a, b = bridge.a, bridge.b
    span = b - a
    snap = bridge.snapshot()
    before = bridge.total_inserted
    acc, collisions = 0.0, 0
    for row in points:
        prod = 1.0
        for u_time, u_val in sorted(zip(row[:kappa].tolist(), row[kappa:].tolist())):
            t = a + span * u_time
            while t in {s for s, _ in bridge.skeleton()}:
                u_time = np.nextafter(u_time, 2.0)
                t = a + span * u_time
                collisions += 1
            if t > b:
                raise NumericError("time collision walked past the interval end")
            w = bridge.value_at_with_uniform(t, max(u_val, _TINY))
            prod *= (hi - model.phi_scalar(w)) / (hi - lo)
        acc += prod
        bridge.restore(snap)
    value = math.exp(-lo * span) * (acc / cfg.inner_points)
    return value, collisions, bridge.total_inserted - before


def _close(model, value, ref_value, span):
    # cancellation in U - phi(w) costs relative precision on near-zero
    # products, so the absolute scale is the estimate's upper bound e^{-L(b-a)}
    scale = math.exp(-model.phi_bounds[0] * span)
    return math.isclose(value, ref_value, rel_tol=1e-12, abs_tol=1e-12 * scale)


def _assert_matches_reference(model, est, ref, kappa, span):
    value, collisions, queries = ref
    assert est.kappa == kappa and est.mode == "rqmc-times-values"
    assert est.n_bridge_queries == queries
    assert est.n_time_collisions == collisions
    assert _close(model, est.value, value, span)


@pytest.mark.parametrize("scheme", ["digital-shift", "owen-scramble"])
@pytest.mark.parametrize("model", [builtin("sine"), builtin("scaled-sine", theta=1.7)],
                         ids=["sine", "scaled-sine-1.7"])
def test_times_values_kernel_matches_bridge_reference(model, scheme):
    for kappa in range(1, 9):
        for m in (1, 16, 64):
            cfg = psi.PsiConfig(mode="rqmc-times-values", inner_points=m,
                                randomization=scheme)
            for rep in range(3):
                x_a, x_b = 0.4 * rep - 0.3, 1.1 - 0.7 * rep
                r1, r2 = stream(15, kappa, m, rep), stream(15, kappa, m, rep)
                est = psi.estimate_with_kappa(model, LazyBridge(0.5, x_a, 2.0, x_b),
                                              cfg, r1, kappa)
                ref = _reference_times_values(model, LazyBridge(0.5, x_a, 2.0, x_b), cfg,
                                              _drawn_points(cfg, 2 * kappa, r2), kappa)
                _assert_matches_reference(model, est, ref, kappa, 1.5)
                assert r1.random() == r2.random()  # same draws from the stream


def _fixed_points(monkeypatch, rows):
    """Make every randomized point set of the rows' shape (M, d) those rows,
    after the draws that randomize it; returns the rows as an array."""
    pts = np.array(rows, dtype=np.float64)
    point_sets = psi._point_sets

    def fixed(mode, kappa, cfg, rng, g):
        sets = point_sets(mode, kappa, cfg, rng, g)
        return np.broadcast_to(pts, sets.shape) if sets.shape[1:] == pts.shape else sets

    monkeypatch.setattr(psi, "_point_sets", fixed)
    return pts


@pytest.mark.parametrize("a,b,rows", [
    # a triple duplicate: the third time first lands on the first, then on
    # the second, before it is fresh
    (0.0, 1.0, [[0.4375, 0.4375, 0.4375, 0.1, 0.9, 0.5],
                [0.25, 0.75, 0.25, 0.0, 0.3, 0.6]]),
    # a zero time coordinate collides with a; a zero value uniform
    (0.0, 1.0, [[0.0, 0.5, 0.0, 0.0, 0.2, 0.8],
                [0.0, 0.0, 0.9, 0.4, 0.5, 0.6]]),
    # far from 0 one ulp of the uniform rarely moves t: many nudges each
    (40.0, 41.0, [[0.25, 0.25, 0.25, 0.7, 0.2, 0.4],
                  [0.5, 0.125, 0.5, 0.3, 0.3, 0.3]]),
])
def test_times_values_forced_collisions_match_reference(monkeypatch, a, b, rows):
    pts = _fixed_points(monkeypatch, rows)
    for model in (builtin("sine"), builtin("scaled-sine", theta=1.7)):
        cfg = psi.PsiConfig(mode="rqmc-times-values", inner_points=2)
        est = psi.estimate_with_kappa(model, LazyBridge(a, 0.2, b, -0.4), cfg,
                                      stream(16, 1), 3)
        ref = _reference_times_values(model, LazyBridge(a, 0.2, b, -0.4), cfg, pts, 3)
        assert ref[1] >= 2
        _assert_matches_reference(model, est, ref, 3, b - a)
        # the same points for a cloud of bridges through estimate_cloud
        n = 64
        x_a, x_b = np.linspace(-2.0, 2.0, n), np.cos(np.arange(n))
        cloud = _unstacked(psi.estimate_cloud(model, a, b, x_a, x_b, cfg,
                                              stream(17, 1)))
        hit = [i for i, e in enumerate(cloud) if e.kappa == 3]  # the rows' kappa
        assert len(hit) >= 2
        for i in hit:
            ref = _reference_times_values(model, LazyBridge(a, x_a[i], b, x_b[i]),
                                          cfg, pts, 3)
            assert cloud[i].n_time_collisions == ref[1] >= 2
            assert _close(model, cloud[i].value, ref[0], b - a)


def test_times_values_collision_past_the_end_is_numeric_failure(monkeypatch):
    top = np.nextafter(1.0, 0.0)  # largest uniform below 1: t lands just below b
    pts = _fixed_points(monkeypatch, [[top, top, 0.5, 0.5]])
    cfg = psi.PsiConfig(mode="rqmc-times-values", inner_points=1)
    for estimate, draws in ((psi.estimate_with_kappa, stream(18, 1)),
                            (_reference_times_values, pts)):
        with pytest.raises(NumericError, match="walked past"):
            estimate(builtin("sine"), LazyBridge(0.0, 0.0, 1.0, 0.0), cfg, draws, 2)


def test_times_values_needs_a_two_point_skeleton():
    sine = builtin("sine")
    br = LazyBridge(0.0, 0.0, 1.0, 0.0)
    br.value_at(0.5, stream(19, 0))
    for mode in psi.MODES:
        cfg = psi.PsiConfig(mode=mode, inner_points=4)
        with pytest.raises(ContractViolationError, match="two-point"):
            psi.estimate_with_kappa(sine, br, cfg, stream(19, 1), 2)
        with pytest.raises(ContractViolationError, match="two-point"):
            psi.estimate(sine, br, cfg, stream(19, 1))


class _Draws:
    """A stream stand-in that hands out fixed uniforms in order."""

    def __init__(self, uniforms):
        self.uniforms = list(uniforms)

    def random(self, shape):
        n = int(np.prod(shape))
        out, self.uniforms = self.uniforms[:n], self.uniforms[n:]
        return np.reshape(out, shape)

    def integers(self, lo, hi, size, dtype):  # shifts; the fixed point sets ignore them
        return np.zeros(size, dtype)


def _reference_shared(model, bridge, cfg, kappa, u_time, u_val):
    """mc / rqmc-times on the LazyBridge: the (time, value uniform) pairs in
    sorted order, value_at_with_uniform at a fresh time, the value already
    on the path at a repeated time or at a or b. Point m's times are
    u_time[m * kappa:(m + 1) * kappa]. The path stays in ``bridge``."""
    lo, hi = model.phi_bounds
    a, b = bridge.a, bridge.b
    span = b - a
    for ut, uv in sorted(zip(u_time, u_val)):
        t = min(a + span * ut, b)
        if t not in dict(bridge.skeleton()):
            bridge.value_at_with_uniform(t, max(uv, _TINY))
    path = dict(bridge.skeleton())
    acc = 0.0
    for m in range(cfg.inner_points):
        prod = 1.0
        for ut in u_time[m * kappa:(m + 1) * kappa]:
            prod *= (hi - model.phi_scalar(path[min(a + span * ut, b)])) / (hi - lo)
        acc += prod
    return math.exp(-lo * span) * (acc / cfg.inner_points)


def _shared_uniforms(cfg, kappa, rng):
    """The uniforms mc and rqmc-times draw from ``rng`` for one estimate."""
    n = cfg.inner_points * kappa
    if cfg.mode == "mc":
        draws = rng.random(2 * n).tolist()
        return draws[:n], draws[n:]
    times = _drawn_points(cfg, kappa, rng)
    return times.reshape(-1).tolist(), rng.random(n).tolist()


def _assert_shared_matches_reference(model, cfg, kappa, a, b, x_a, x_b, rng, ref_uniforms):
    br, ref_br = LazyBridge(a, x_a, b, x_b), LazyBridge(a, x_a, b, x_b)
    est = psi.estimate_with_kappa(model, br, cfg, rng, kappa)
    ref = _reference_shared(model, ref_br, cfg, kappa, *ref_uniforms)
    assert (est.kappa, est.mode, est.n_time_collisions) == (kappa, cfg.mode, 0)
    assert est.n_bridge_queries == ref_br.total_inserted == br.total_inserted
    assert [t for t, _ in br.skeleton()] == [t for t, _ in ref_br.skeleton()]
    for (_, w), (_, ref_w) in zip(br.skeleton(), ref_br.skeleton()):
        assert math.isclose(w, ref_w, rel_tol=1e-12, abs_tol=1e-12)
    assert _close(model, est.value, ref, b - a)
    return est


@pytest.mark.parametrize("cfg", [
    psi.PsiConfig(mode="mc", inner_points=1),
    psi.PsiConfig(mode="mc", inner_points=16),
    psi.PsiConfig(mode="rqmc-times", inner_points=16),
    psi.PsiConfig(mode="rqmc-times", inner_points=64, randomization="owen-scramble"),
], ids=lambda c: f"{c.mode}-M{c.inner_points}-{c.randomization}")
@pytest.mark.parametrize("model", [builtin("sine"), builtin("scaled-sine", theta=1.7)],
                         ids=["sine", "scaled-sine-1.7"])
def test_shared_path_kernel_matches_bridge_reference(model, cfg):
    for kappa in range(1, 7):
        for rep in range(3):
            r1, r2 = stream(21, kappa, rep), stream(21, kappa, rep)
            _assert_shared_matches_reference(model, cfg, kappa, 0.5, 2.0,
                                             0.4 * rep - 0.3, 1.1 - 0.7 * rep, r1,
                                             _shared_uniforms(cfg, kappa, r2))
            assert r1.random() == r2.random()  # same draws from the stream


@pytest.mark.parametrize("mode", ["mc", "rqmc-times"])
def test_shared_path_forced_duplicates_and_endpoints(monkeypatch, mode):
    # on [40, 41] a uniform 0 gives t == a and 1 - 2**-53 gives t == b
    top = 1.0 - 2.0**-53
    u_time = [0.25, 0.0, 0.25, top, 0.7, 0.25, 0.0, top]
    u_val = [0.9, 0.3, 0.1, 0.5, 0.0, 0.6, 0.2, 0.8]
    _fixed_points(monkeypatch, np.reshape(u_time, (4, 2)))
    cfg = psi.PsiConfig(mode=mode, inner_points=4)
    draws = u_time + u_val if mode == "mc" else u_val
    sine = builtin("sine")
    est = _assert_shared_matches_reference(sine, cfg, 2, 40.0, 41.0, 0.2, -0.4,
                                           _Draws(draws), (u_time, u_val))
    assert est.n_bridge_queries == 2  # 0.25 and 0.7; the rest are known


def test_phi_above_upper_bound_is_numeric_failure():
    # both factors are usually negative, so their product is positive:
    # only a check on each factor catches the understated U
    understated = dataclasses.replace(builtin("sine"), phi_bounds=(-0.5, -0.4))
    for mode in psi.MODES:
        cfg = psi.PsiConfig(mode=mode, inner_points=4)
        for rep in range(5):
            with pytest.raises(NumericError, match="'sine'.*exceeds its upper bound.*w="):
                psi.estimate_with_kappa(understated, LazyBridge(0.0, 0.0, 1.0, 0.0),
                                        cfg, stream(22, rep), 2)


def test_long_gap_overflow_is_numeric_failure():
    # e^{-L(b-a)} = e^{750} overflows a double
    sine = builtin("sine")
    for mode in psi.MODES:
        cfg = psi.PsiConfig(mode=mode, inner_points=4)
        with pytest.raises(NumericError, match="gap of b-a=1500"):
            psi.estimate(sine, LazyBridge(0.0, 0.0, 1500.0, 0.0), cfg, stream(23, 0))
        with pytest.raises(NumericError, match="gap of b-a=1500"):
            psi.estimate_cloud(sine, 0.0, 1500.0, [0.0, 1.0], [0.0, -1.0], cfg,
                               stream(23, 1))
    # a rate past numpy's Poisson range fails typed, naming the gap
    with pytest.raises(NumericError, match="gap of b-a=1e"):
        psi.sample_kappa(sine.phi_bounds, 0.0, 1e19, stream(23, 3))


class _Replay:
    """A stream stand-in that hands one bridge its share of a kappa group's
    draws, in the order an estimate on a batch of one asks for them: its
    point set (through ``_point_sets``), then its value uniforms."""

    def __init__(self, points, values):
        self.points, self.values = points, values

    def random(self, shape):
        return np.reshape(self.values, shape)


@pytest.mark.parametrize("mode", psi.MODES)
@pytest.mark.parametrize("scheme", ["digital-shift", "owen-scramble"])
def test_estimate_cloud_matches_per_particle_estimates(monkeypatch, mode, scheme):
    # kappa cap 2 on a 2-unit gap: many particles fall back to mc
    sine = builtin("sine")
    cfg = psi.PsiConfig(mode=mode, inner_points=16, rqmc_kappa_cap=2,
                        randomization=scheme)
    n = 64
    x_a = np.linspace(-2.0, 2.0, n)
    x_b = np.cos(np.arange(n))
    cloud_rng, twin = stream(20, 0), stream(20, 0)
    cloud = _unstacked(psi.estimate_cloud(sine, 1.0, 3.0, x_a, x_b, cfg, cloud_rng))
    # the reference on a twin stream: the kappas as one array, then one
    # estimate_with_kappa per particle, kappa group by kappa group; a group
    # that draws each bridge's uniforms or point set as one row of an array
    # draw matches a loop on the twin draw for draw, and an rqmc-times group
    # draws its point sets before its value uniforms, so the reference draws
    # them the same way and hands each bridge its share
    point_sets = psi._point_sets
    monkeypatch.setattr(psi, "_point_sets", lambda mode, kappa, cfg, rng, g: (
        rng.points[None] if isinstance(rng, _Replay) else
        point_sets(mode, kappa, cfg, rng, g)))
    kappa = psi.sample_kappa(sine.phi_bounds, 1.0, 3.0, twin, n)
    ests = [None] * n
    for k in dict.fromkeys(kappa.tolist()):
        idx = np.flatnonzero(kappa == k).tolist()
        rngs = [twin] * len(idx)
        if mode == "rqmc-times" and 0 < k <= cfg.rqmc_kappa_cap:
            sets = lowdisc.randomize(lowdisc.generate_base(k, cfg.inner_points), scheme,
                                     twin, len(idx)).points
            values = twin.random((len(idx), cfg.inner_points * k))
            rngs = [_Replay(p, v) for p, v in zip(sets, values)]
        for i, rng in zip(idx, rngs):
            ests[i] = psi.estimate_with_kappa(sine, LazyBridge(1.0, x_a[i], 3.0, x_b[i]),
                                              cfg, rng, k)
    # batches of one and of many run the same kernel: equal values too
    assert cloud == ests
    assert cloud_rng.random() == twin.random()
    if mode != "mc":
        assert 0 < sum(e.mode == "mc-fallback" for e in cloud) < n
