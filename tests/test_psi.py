import collections
import dataclasses
import json
import math
import pathlib

import numpy as np
import pytest
from cloud_replay import per_particle_estimates

from rwpf import lowdisc, psi
from rwpf.bridge import _TINY, LazyBridge
from rwpf.errors import ContractViolationError, NumericError, UnsupportedDimensionError
from rwpf.models import builtin
from rwpf.rngs import stream
from rwpf.stats import invnorm

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


def _split(points, kappa):
    """rqmc-times-values points, rows of (time, value) uniforms (M, 2 * kappa),
    as the lists (time uniforms, value uniforms) that ``_reference`` takes."""
    points = np.asarray(points)
    return points[:, :kappa].reshape(-1).tolist(), points[:, kappa:].reshape(-1).tolist()


def _drawn(cfg, kappa, rng):
    """The time uniforms and value draws an estimate on a batch of one
    draws from ``rng``: standard normals on a shared path, the point set's
    value uniforms in rqmc-times-values. Point m's are the entries
    [m * kappa, (m + 1) * kappa) of each list."""
    n = cfg.inner_points * kappa
    if cfg.mode == "mc":
        return rng.random(n).tolist(), rng.standard_normal(n).tolist()
    dim = kappa if cfg.mode == "rqmc-times" else 2 * kappa
    points = lowdisc.randomize(lowdisc.generate_base(dim, cfg.inner_points),
                               cfg.randomization, rng, 1).points[0]
    if cfg.mode == "rqmc-times":
        return points.reshape(-1).tolist(), rng.standard_normal(n).tolist()
    return _split(points, kappa)


def _reference(model, bridge, cfg, kappa, u_time, draws):
    """psi on the LazyBridge from one bridge's draws: point m's time
    uniforms are u_time[m * kappa:(m + 1) * kappa], each paired with its
    value draw in ``draws``. Each path takes its (time uniform, draw) pairs
    in sorted order. A fresh time gets the draw's value: the draw is a
    standard normal, or in rqmc-times-values a uniform through
    ``value_at_with_uniform``. A repeated time, or one equal to a or b,
    takes the value already on the path. In rqmc-times-values each point's
    path starts from the two-point skeleton; otherwise the one shared path
    stays in ``bridge``. Returns (value, n_bridge_queries, n_time_collisions)."""
    lo, hi = model.phi_bounds
    a, b = bridge.a, bridge.b
    span = b - a
    m = cfg.inner_points
    per_point = cfg.mode == "rqmc-times-values"
    snap, before = bridge.snapshot(), bridge.total_inserted
    acc = 0.0
    for on_path in ([[p] for p in range(m)] if per_point else [range(m)]):
        slots = [i for p in on_path for i in range(p * kappa, (p + 1) * kappa)]
        for ut, d in sorted((u_time[i], draws[i]) for i in slots):
            t = min(a + span * ut, b)
            if t not in dict(bridge.skeleton()):
                if per_point:
                    bridge.value_at_with_uniform(t, max(d, _TINY))
                else:
                    bridge._value_at_with_normal(t, d)
        path = dict(bridge.skeleton())
        for p in on_path:
            prod = 1.0
            for ut in u_time[p * kappa:(p + 1) * kappa]:
                prod *= (hi - model.phi_scalar(path[min(a + span * ut, b)])) / (hi - lo)
            acc += prod
        if per_point:
            bridge.restore(snap)
    queries = bridge.total_inserted - before
    return math.exp(-lo * span) * (acc / m), queries, m * kappa - queries


def _close(model, value, ref_value, span):
    # cancellation in U - phi(w) costs relative precision on near-zero
    # products, so the absolute scale is the estimate's upper bound e^{-L(b-a)}
    scale = math.exp(-model.phi_bounds[0] * span)
    return math.isclose(value, ref_value, rel_tol=1e-12, abs_tol=1e-12 * scale)


def _assert_matches_reference(model, cfg, kappa, a, b, x_a, x_b, rng, draws):
    """An estimate on a batch of one from ``rng`` against ``_reference`` on
    ``draws``, the same draws; returns the estimate."""
    br, ref_br = LazyBridge(a, x_a, b, x_b), LazyBridge(a, x_a, b, x_b)
    est = psi.estimate_with_kappa(model, br, cfg, rng, kappa)
    value, queries, collisions = _reference(model, ref_br, cfg, kappa, *draws)
    assert (est.kappa, est.mode) == (kappa, cfg.mode)
    assert (est.n_bridge_queries, est.n_time_collisions) == (queries, collisions)
    assert [t for t, _ in br.skeleton()] == [t for t, _ in ref_br.skeleton()]
    for (_, w), (_, ref_w) in zip(br.skeleton(), ref_br.skeleton()):
        assert math.isclose(w, ref_w, rel_tol=1e-12, abs_tol=1e-12)
    assert _close(model, est.value, value, b - a)
    return est


@pytest.mark.parametrize("scheme", ["digital-shift", "owen-scramble"])
@pytest.mark.parametrize("model", [builtin("sine"), builtin("scaled-sine", theta=1.7)],
                         ids=["sine", "scaled-sine-1.7"])
def test_times_values_kernel_matches_bridge_reference(model, scheme):
    for kappa in range(1, 9):
        for m in (1, 16, 64):
            cfg = psi.PsiConfig(mode="rqmc-times-values", inner_points=m,
                                randomization=scheme)
            for rep in range(3):
                r1, r2 = stream(15, kappa, m, rep), stream(15, kappa, m, rep)
                _assert_matches_reference(model, cfg, kappa, 0.5, 2.0, 0.4 * rep - 0.3,
                                          1.1 - 0.7 * rep, r1, _drawn(cfg, kappa, r2))
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


_TOP = float(np.nextafter(1.0, 0.0))  # the largest uniform below 1


@pytest.mark.parametrize("a,b,rows", [
    # a triple duplicate: the second and third take the first one's value
    (0.0, 1.0, [[0.4375, 0.4375, 0.4375, 0.1, 0.9, 0.5],
                [0.25, 0.75, 0.25, 0.0, 0.3, 0.6]]),
    # a zero time coordinate lands on a; a zero value uniform
    (0.0, 1.0, [[0.0, 0.5, 0.0, 0.0, 0.2, 0.8],
                [0.0, 0.0, 0.9, 0.4, 0.5, 0.6]]),
    # the same duplicates far from 0
    (40.0, 41.0, [[0.25, 0.25, 0.25, 0.7, 0.2, 0.4],
                  [0.5, 0.125, 0.5, 0.3, 0.3, 0.3]]),
    # each point's two times are one
    (0.0, 1.0, [[0.4375] * 4] * 2),
    # a time just below b, twice
    (0.0, 1.0, [[_TOP, _TOP, 0.5, 0.5]]),
])
def test_times_values_forced_collisions_match_reference(monkeypatch, a, b, rows):
    pts = _fixed_points(monkeypatch, rows)
    m, kappa = pts.shape[0], pts.shape[1] // 2
    cfg = psi.PsiConfig(mode="rqmc-times-values", inner_points=m)
    for model in (builtin("sine"), builtin("scaled-sine", theta=1.7)):
        est = _assert_matches_reference(model, cfg, kappa, a, b, 0.2, -0.4, stream(16, 1),
                                        _split(pts, kappa))
        assert est.n_time_collisions > 0
        # the same points for a cloud of bridges through estimate_cloud
        n = 64
        x_a, x_b = np.linspace(-2.0, 2.0, n), np.cos(np.arange(n))
        cloud = _unstacked(psi.estimate_cloud(model, a, b, x_a, x_b, cfg,
                                              stream(17, 1)))
        hit = [i for i, e in enumerate(cloud) if e.kappa == kappa]  # the rows' kappa
        assert len(hit) >= 2
        for i in hit:
            value, queries, collisions = _reference(
                model, LazyBridge(a, x_a[i], b, x_b[i]), cfg, kappa, *_split(pts, kappa))
            assert (cloud[i].n_bridge_queries, cloud[i].n_time_collisions) == (
                queries, collisions)
            assert _close(model, cloud[i].value, value, b - a)


def test_times_values_zero_time_uniform_far_from_zero_returns(monkeypatch):
    # on [40, 41] a time uniform 0 lands on a, so the path takes x_a there
    _fixed_points(monkeypatch, [[0.0, 0.5]])
    cfg = psi.PsiConfig(mode="rqmc-times-values", inner_points=1)
    sine = builtin("sine")
    est = _assert_matches_reference(sine, cfg, 1, 40.0, 41.0, 0.2, -0.4, stream(26, 1),
                                    ([0.0], [0.5]))
    assert (est.n_bridge_queries, est.n_time_collisions) == (0, 1)
    lo, hi = sine.phi_bounds
    assert _close(sine, est.value, math.exp(-lo) * (hi - sine.phi_scalar(0.2)) / (hi - lo), 1.0)


@pytest.mark.parametrize("cfg", [
    psi.PsiConfig(mode="mc", inner_points=16),
    psi.PsiConfig(mode="rqmc-times", inner_points=16),
    psi.PsiConfig(mode="rqmc-times-values", inner_points=16),
    psi.PsiConfig(mode="rqmc-times-values", inner_points=16, randomization="owen-scramble"),
], ids=["mc", "rqmc-times", "rqmc-times-values-shift", "rqmc-times-values-owen"])
def test_far_gap_kernel_matches_bridge_reference(cfg):
    # the doubles of [1e15, 1e15 + 1] are 1/8 apart, so times repeat and
    # land on a and b, and a path holds at most the 7 interior ones
    sine = builtin("sine")
    paths = cfg.inner_points if cfg.mode == "rqmc-times-values" else 1
    collisions = 0
    for kappa in range(1, 7):
        r1, r2 = stream(27, kappa), stream(27, kappa)
        est = _assert_matches_reference(sine, cfg, kappa, 1e15, 1e15 + 1, 0.2, -0.4, r1,
                                        _drawn(cfg, kappa, r2))
        assert est.n_bridge_queries <= 7 * paths
        collisions += est.n_time_collisions
    assert collisions > 0


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
    """A stream stand-in that hands out fixed uniforms and fixed normals."""

    def __init__(self, uniforms, normals):
        self.uniforms, self.normals = list(uniforms), list(normals)

    def random(self, shape):
        return np.reshape(self.uniforms, shape)

    def standard_normal(self, shape):
        return np.reshape(self.normals, shape)

    def integers(self, lo, hi, size, dtype):  # shifts; the fixed point sets ignore them
        return np.zeros(size, dtype)


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
            _assert_matches_reference(model, cfg, kappa, 0.5, 2.0, 0.4 * rep - 0.3,
                                      1.1 - 0.7 * rep, r1, _drawn(cfg, kappa, r2))
            assert r1.random() == r2.random()  # same draws from the stream


@pytest.mark.parametrize("mode", ["mc", "rqmc-times"])
def test_shared_path_forced_duplicates_and_endpoints(monkeypatch, mode):
    # on [40, 41] a uniform 0 gives t == a and 1 - 2**-53 gives t == b
    top = 1.0 - 2.0**-53
    u_time = [0.25, 0.0, 0.25, top, 0.7, 0.25, 0.0, top]
    normals = [invnorm(max(u, _TINY)) for u in (0.9, 0.3, 0.1, 0.5, 0.0, 0.6, 0.2, 0.8)]
    _fixed_points(monkeypatch, np.reshape(u_time, (4, 2)))
    cfg = psi.PsiConfig(mode=mode, inner_points=4)
    sine = builtin("sine")
    est = _assert_matches_reference(sine, cfg, 2, 40.0, 41.0, 0.2, -0.4,
                                    _Draws(u_time, normals), (u_time, normals))
    # 0.25 and 0.7 are fresh; the rest take known values
    assert (est.n_bridge_queries, est.n_time_collisions) == (2, 6)


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


@pytest.mark.parametrize("mode", psi.MODES)
@pytest.mark.parametrize("scheme", ["digital-shift", "owen-scramble"])
def test_estimate_cloud_matches_per_particle_estimates(mode, scheme):
    # kappa cap 2 on a 2-unit gap: many particles fall back to mc
    sine = builtin("sine")
    cfg = psi.PsiConfig(mode=mode, inner_points=16, rqmc_kappa_cap=2,
                        randomization=scheme)
    n = 64
    x_a = np.linspace(-2.0, 2.0, n)
    x_b = np.cos(np.arange(n))
    cloud_rng, twin = stream(20, 0), stream(20, 0)
    cloud = _unstacked(psi.estimate_cloud(sine, 1.0, 3.0, x_a, x_b, cfg, cloud_rng))
    # the reference on a twin stream: one estimate_with_kappa per particle,
    # handed its share of its kappa group's draws
    ests = per_particle_estimates(sine, 1.0, 3.0, x_a, x_b, cfg, twin)
    # batches of one and of many run the same kernel: equal values too
    assert cloud == ests
    assert cloud_rng.random() == twin.random()
    if mode != "mc":
        assert 0 < sum(e.mode == "mc-fallback" for e in cloud) < n


def test_cloud_repeats_stay_in_their_kappa_group(monkeypatch):
    # one cloud holds kappa 0, per-point groups (kappa 3, whose forced rows
    # repeat times) and mc-fallback groups above the cap of 3, whose shared
    # paths each repeat a time; each particle equals its own estimate on a
    # batch of one, and each per-point one equals the reference
    pts = _fixed_points(monkeypatch, [[0.4375, 0.4375, 0.4375, 0.1, 0.9, 0.5],
                                      [0.25, 0.75, 0.25, 0.0, 0.3, 0.6]])
    draws = psi._draws

    def repeated(mode, kappa, cfg, rng, g):
        u_time, values = draws(mode, kappa, cfg, rng, g)
        if mode == psi.MODE_MC_FALLBACK:
            u_time = u_time.copy()
            u_time[:, 1] = u_time[:, 0]
        return u_time, values

    monkeypatch.setattr(psi, "_draws", repeated)
    sine = builtin("sine")
    cfg = psi.PsiConfig(mode="rqmc-times-values", inner_points=2, rqmc_kappa_cap=3)
    a, b, n = 0.0, 3.0, 128
    x_a, x_b = np.linspace(-2.0, 2.0, n), np.cos(np.arange(n))
    cloud_rng, twin = stream(24, 0), stream(24, 0)
    cloud = _unstacked(psi.estimate_cloud(sine, a, b, x_a, x_b, cfg, cloud_rng))
    assert cloud == per_particle_estimates(sine, a, b, x_a, x_b, cfg, twin)
    assert cloud_rng.random() == twin.random()
    kappas = {e.kappa for e in cloud}
    assert {0, 1, 2, 3} <= kappas and max(kappas) > 3
    for i, e in enumerate(cloud):
        if e.kappa == 3:
            value, queries, collisions = _reference(
                sine, LazyBridge(a, x_a[i], b, x_b[i]), cfg, 3, *_split(pts, 3))
            assert e.mode == "rqmc-times-values" and _close(sine, e.value, value, b - a)
            assert (e.n_bridge_queries, e.n_time_collisions) == (queries, collisions) == (3, 3)
        elif e.kappa > 3:
            assert e.mode == "mc-fallback" and e.n_time_collisions >= 1  # the repeat is known
            assert e.n_bridge_queries + e.n_time_collisions == cfg.inner_points * e.kappa


def test_estimate_cloud_is_one_kernel_pass(monkeypatch):
    # however many kappa groups a cloud has, phi runs once over all of
    # their slots, and so does ndtri over the point-set value slots of
    # rqmc-times-values; the other modes draw normals and never call it
    calls = collections.Counter()

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(psi, "ndtri", counted("ndtri", psi._inverse_normal()))
    sine = builtin("sine")
    model = dataclasses.replace(sine, alpha=counted("alpha", sine.alpha))
    n = 64
    x_a, x_b = np.linspace(-2.0, 2.0, n), np.cos(np.arange(n))
    for mode in psi.MODES:
        cfg = psi.PsiConfig(mode=mode, inner_points=4, rqmc_kappa_cap=2)
        calls.clear()
        est = psi.estimate_cloud(model, 0.0, 2.0, x_a, x_b, cfg, stream(25, 0))
        assert len(set(est.kappa.tolist()) - {0}) >= 3
        inverse = {"ndtri": 1} if mode == "rqmc-times-values" else {}
        assert calls == {**inverse, "alpha": 1}, mode
