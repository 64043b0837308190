import gc
import hashlib
import warnings
import weakref
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmc_oracle import (oracle_directions, oracle_owen_scramble, oracle_point,
                        projection_quality, shift_from_floats)
from rwpf import lowdisc
from rwpf.errors import UnsupportedDimensionError

KS_CRIT_999 = 1.94947  # asymptotic two-sided Kolmogorov critical value at alpha=0.001


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 8, 32, 64])
def test_base_matches_independent_expansion(dim):
    ps = lowdisc.generate_base(dim, 16)
    directions = oracle_directions(dim)
    for i in range(16):
        assert ps.points[i, dim - 1] == oracle_point(i, directions)


def test_base_matches_scipy_sobol_as_set():
    from scipy.stats import qmc
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for d, m in [(1, 64), (2, 64), (8, 128), (64, 32)]:
            mine = lowdisc.generate_base(d, m).points
            ref = qmc.Sobol(d=d, scramble=False).random(m)
            assert set(map(tuple, mine)) == set(map(tuple, ref))


def test_first_points_convention():
    assert lowdisc.generate_base(1, 1).points.tolist() == [[0.0]]
    assert lowdisc.generate_base(1, 3).points.tolist() == [[0.0], [0.5], [0.25]]


def _net_boxes_ok(points: np.ndarray) -> bool:
    """(0, m, 2)-net check: every elementary dyadic box of volume 1/M holds
    exactly one point, for every box shape."""
    m_total = len(points)
    m = m_total.bit_length() - 1
    assert 2**m == m_total
    for k1 in range(m + 1):
        k2 = m - k1
        cells = ((points[:, 0] * 2**k1).astype(int) * 2**k2
                 + (points[:, 1] * 2**k2).astype(int))
        if not np.array_equal(np.sort(cells), np.arange(m_total)):
            return False
    return True


@pytest.mark.parametrize("count", [4, 16, 64])
def test_net_property_base_and_shifted(count):
    base = lowdisc.generate_base(2, count)
    assert _net_boxes_ok(base.points)
    for seed in (0, 1, 7, 12345):
        shifted = lowdisc.randomize(base, "digital-shift", seed)
        assert _net_boxes_ok(shifted.points)


def test_dimension_and_count_errors():
    with pytest.raises(UnsupportedDimensionError):
        lowdisc.generate_base(65, 8)
    with pytest.raises(UnsupportedDimensionError):
        lowdisc.generate_base(0, 8)
    with pytest.raises(ValueError):
        lowdisc.generate_base(2, 0)


@pytest.mark.parametrize("scheme", ["digital-shift", "owen-scramble"])
def test_randomize_deterministic(scheme):
    base = lowdisc.generate_base(3, 32)
    a = lowdisc.randomize(base, scheme, 99)
    b = lowdisc.randomize(base, scheme, 99)
    assert np.array_equal(a.ipoints, b.ipoints)
    assert np.array_equal(a.points, b.points)
    c = lowdisc.randomize(base, scheme, 100)
    assert not np.array_equal(a.ipoints, c.ipoints)
    assert a.randomization == scheme and a.seed == 99


@pytest.mark.parametrize("scheme,digest", [
    ("digital-shift", "955e28aa694e82209e0b1185abbc770dc248b5b5e7f493394eb8617900b82b87"),
    ("owen-scramble", "92fc8e919bf6e5f8a4ce44122f0bdb8f9f3fd75d704ba0261d18f7f4b884b13b"),
])
def test_memoized_base_is_read_only_and_randomizes_unchanged(scheme, digest):
    base = lowdisc.generate_base(5, 32)
    assert lowdisc.generate_base(5, 32) is base
    for arr in (base.points, base.ipoints):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 1
    assert np.all(base.points[0] == 0.0)
    # digest of the randomized integer and float points (digital shift pinned
    # before the base set was memoized, Owen when it moved to raw words)
    ps = lowdisc.randomize(base, scheme, 11)
    assert ps.points.flags.writeable and ps.ipoints.flags.writeable
    assert hashlib.sha256(ps.ipoints.tobytes() + ps.points.tobytes()).hexdigest() == digest
    fresh = lowdisc.randomize(lowdisc.generate_base.__wrapped__(5, 32), scheme, 11)
    assert np.array_equal(fresh.ipoints, ps.ipoints)
    assert np.array_equal(fresh.points, ps.points)


def test_tables_above_the_byte_budget_are_not_kept(monkeypatch):
    # a 1 MB base and its 0.5 MB layout: the layout alone fits the budget,
    # with the base that its key holds it does not
    monkeypatch.setattr(lowdisc, "_MEMO_BYTES", 600_000)
    monkeypatch.setattr(lowdisc, "_memo", OrderedDict())
    base = lowdisc.generate_base(64, 1000)
    assert lowdisc.generate_base(64, 1000) is not base
    depth, top, rank = lowdisc._scramble_layout(base)
    held = [weakref.ref(a) for a in (base, base.ipoints, top, rank)]
    lowdisc.randomize(base, "owen-scramble", 3)
    del base, top, rank
    gc.collect()
    assert [ref() for ref in held] == [None] * len(held)
    nodes = lowdisc._heap_nodes(depth)        # 40 kB at depth 10
    assert lowdisc._heap_nodes(depth) is nodes
    monkeypatch.setattr(lowdisc, "_MEMO_BYTES", 10_000)
    monkeypatch.setattr(lowdisc, "_memo", OrderedDict())
    assert lowdisc._heap_nodes(depth) is not nodes
    assert not lowdisc._memo
    small = lowdisc.generate_base(2, 8)
    assert lowdisc.generate_base(2, 8) is small
    # the least recently used go first once the kept tables pass the budget
    bases = [lowdisc.generate_base(2, m) for m in (100, 101, 102, 103)]  # 3.2 kB each
    assert lowdisc.generate_base(2, 103) is bases[3]
    assert lowdisc.generate_base(2, 100) is not bases[0]
    assert sum(size for _, size in lowdisc._memo.values()) <= 10_000


def _stream(seed):
    """The generator ``randomize`` draws from for ``seed``."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


@pytest.mark.parametrize("dim", [1, 2, 3, 8, 33, 64])
def test_owen_scramble_matches_level_loop_oracle(dim):
    # counts 1 (depth 0, no heap word), 64 (one heap word), 65 and 128 (two)
    for count in (1, 2, 3, 5, 8, 33, 64, 65, 100, 128, 1000):
        base = lowdisc.generate_base(dim, count)
        for seed in (11, 2**62 + 7):
            expected_rng = _stream(seed)
            expected = oracle_owen_scramble(base.ipoints, expected_rng)
            ps = lowdisc.randomize(base, "owen-scramble", seed)
            assert np.array_equal(ps.ipoints, expected), (count, seed)
            rng = _stream(seed)
            lowdisc.randomize(base, "owen-scramble", rng)
            # the stream is left where the loop leaves it, buffered half-word too
            assert rng.bit_generator.state == expected_rng.bit_generator.state
            assert rng.integers(0, 2**63) == expected_rng.integers(0, 2**63)


@pytest.mark.parametrize("scheme", ["digital-shift", "owen-scramble"])
def test_sets_from_one_draw_equal_single_set_draws(scheme):
    for dim, count in [(1, 1), (3, 64), (7, 65), (64, 100)]:
        base = lowdisc.generate_base(dim, count)
        rng, twin = _stream(5), _stream(5)
        many = lowdisc.randomize(base, scheme, rng, 4)
        ones = [lowdisc.randomize(base, scheme, twin) for _ in range(4)]
        assert many.points.shape == (4, count, dim) and many.seed is None
        assert np.array_equal(many.ipoints, np.array([ps.ipoints for ps in ones]))
        assert np.array_equal(many.points, np.array([ps.points for ps in ones]))
        assert rng.bit_generator.state == twin.bit_generator.state


def test_owen_scramble_in_blocks_of_rows_takes_the_same_draw(monkeypatch):
    base = lowdisc.generate_base(6, 100)
    whole = lowdisc.randomize(base, "owen-scramble", _stream(8), 3)
    monkeypatch.setattr(lowdisc, "_BLOCK_WORDS", 1)     # one row per block
    rng = _stream(8)
    rows = lowdisc.randomize(base, "owen-scramble", rng, 3)
    assert np.array_equal(rows.ipoints, whole.ipoints)
    twin = _stream(8)
    twin.bit_generator.random_raw(3 * 6 * (2 + 100))   # 2 heap words, 100 point words
    assert rng.bit_generator.state == twin.bit_generator.state


def test_scramble_layout_holds_for_every_coordinate():
    # column j of a base does not depend on its dimension, so the 64-dim
    # bases cover every dimension
    for count in [*range(1, 301), 512, 1024, 4096]:
        base = lowdisc.generate_base.__wrapped__(lowdisc.MAX_DIMENSION, count)
        depth, top, rank = lowdisc._scramble_layout.__wrapped__(base)
        assert depth == (count - 1).bit_length()
        assert top.shape == rank.shape == (lowdisc.MAX_DIMENSION, count)
    # the layout is the grouping np.unique gives at every one of the 53 levels
    for count in (5, 100, 1000):
        base = lowdisc.generate_base.__wrapped__(lowdisc.MAX_DIMENSION, count)
        depth, top, rank = lowdisc._scramble_layout.__wrapped__(base)
        for j in range(lowdisc.MAX_DIMENSION):
            for level in range(lowdisc.N_BITS):
                prefixes = base.ipoints[:, j] >> np.uint64(lowdisc.N_BITS - level)
                _, inverse = np.unique(prefixes, return_inverse=True)
                node = top[j] >> (depth - level) if level < depth else rank[j]
                assert np.array_equal(inverse, node), (count, j, level)


def test_owen_scramble_refuses_a_base_that_breaks_the_layout():
    base = lowdisc.generate_base(2, 8)
    by_hand = lowdisc.PointSet(2, 8, base.points.copy(), "none", None,
                               base.ipoints.copy())
    assert np.array_equal(lowdisc.randomize(by_hand, "owen-scramble", 3).ipoints,
                          lowdisc.randomize(base, "owen-scramble", 3).ipoints)
    by_hand.ipoints[1] = by_hand.ipoints[0]     # repeated point: not its old tree
    with pytest.raises(ValueError, match="share"):
        lowdisc.randomize(by_hand, "owen-scramble", 3)
    # distinct points whose 2-bit prefixes leave node 11 empty
    pts = np.array([[0.0], [0.125], [0.25], [0.375], [0.5]])
    gappy = lowdisc.PointSet(1, 5, pts, "none", None, shift_from_floats(pts))
    with pytest.raises(ValueError, match="empty node"):
        lowdisc.randomize(gappy, "owen-scramble", 3)


def test_randomize_rejects_randomized_input_and_bad_scheme():
    base = lowdisc.generate_base(2, 8)
    shifted = lowdisc.randomize(base, "digital-shift", 1)
    with pytest.raises(ValueError):
        lowdisc.randomize(shifted, "digital-shift", 2)
    with pytest.raises(ValueError):
        lowdisc.randomize(base, "latin", 2)
    with pytest.raises(ValueError, match="64-bit"):     # its raw words have 32 bits
        lowdisc.randomize(base, "owen-scramble", np.random.Generator(np.random.MT19937(2)))


def test_digital_shift_identity_and_half():
    base = lowdisc.generate_base(1, 1)
    same = lowdisc.apply_digital_shift(base, np.zeros(1, dtype=np.uint64))
    assert same.points.tolist() == [[0.0]]
    half = lowdisc.apply_digital_shift(base, shift_from_floats([0.5]))
    assert half.points.tolist() == [[0.5]]


def test_shift_preserves_count_dimension():
    base = lowdisc.generate_base(5, 17)
    out = lowdisc.randomize(base, "digital-shift", 3)
    assert (out.dimension, out.count) == (5, 17)
    assert out.points.shape == (17, 5)


@pytest.mark.parametrize("scheme", ["digital-shift", "owen-scramble"])
def test_marginal_uniformity_ks(scheme):
    # fixed point index / coordinate over randomization seeds
    from scipy.stats import kstest
    base = lowdisc.generate_base(2, 8)
    n_seeds = 2000
    vals = np.empty((n_seeds, 2))
    for seed in range(n_seeds):
        ps = lowdisc.randomize(base, scheme, seed)
        vals[seed, 0] = ps.points[0, 0]   # the origin point
        vals[seed, 1] = ps.points[3, 1]
    for col in range(2):
        stat = kstest(vals[:, col], "uniform").statistic
        assert stat < KS_CRIT_999 / np.sqrt(n_seeds)


def test_first_point_mean_over_seeds():
    base = lowdisc.generate_base(1, 1)
    n = 10_000
    vals = [lowdisc.randomize(base, "digital-shift", s).points[0, 0]
            for s in range(n)]
    assert abs(np.mean(vals) - 0.5) < 3.0 / np.sqrt(12.0 * n)


def test_randomized_average_unbiased_for_integrals():
    # f(u) = u and f(u) = u^2 against 1/2 and 1/3, over randomization seeds
    base = lowdisc.generate_base(1, 8)
    n = 10_000
    means_u = np.empty(n)
    means_u2 = np.empty(n)
    for s in range(n):
        pts = lowdisc.randomize(base, "digital-shift", s).points[:, 0]
        means_u[s] = pts.mean()
        means_u2[s] = (pts**2).mean()
    for sample, target in [(means_u, 0.5), (means_u2, 1.0 / 3.0)]:
        se = sample.std(ddof=1) / np.sqrt(n)
        assert abs(sample.mean() - target) < 4 * se


def test_projection_quality_net_vs_iid():
    base = lowdisc.generate_base(2, 256)
    report = projection_quality(base)
    assert not report.insufficient_points
    assert report.max_stat <= report.threshold_999
    # digital shift preserves the (0,2)-net cell counts exactly
    shifted = lowdisc.randomize(base, "digital-shift", 5)
    assert projection_quality(shifted).max_stat == 0.0

    rng = np.random.default_rng(11)
    wins = 0
    for s in range(100):
        net = lowdisc.randomize(base, "digital-shift", s)
        iid_pts = rng.random((256, 2))
        iid = lowdisc.PointSet(2, 256, iid_pts, "none", None,
                               shift_from_floats(iid_pts))
        net_stat = projection_quality(net).max_stat
        iid_stat = projection_quality(iid).max_stat
        wins += net_stat <= iid_stat
    assert wins >= 90


def test_projection_quality_insufficient_points():
    report = projection_quality(lowdisc.generate_base(2, 1))
    assert report.insufficient_points
    assert report.pair_stats == {}


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 8), st.integers(1, 128), st.integers(0, 2**31))
def test_points_in_unit_cube_and_reproducible(dim, count, seed):
    a = lowdisc.randomize(lowdisc.generate_base(dim, count), "digital-shift", seed)
    b = lowdisc.randomize(lowdisc.generate_base(dim, count), "digital-shift", seed)
    assert a.points.shape == (count, dim)
    assert np.all(a.points >= 0.0) and np.all(a.points < 1.0)
    assert np.array_equal(a.points, b.points)
