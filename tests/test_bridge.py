import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwpf.bridge import LazyBridge
from rwpf.errors import ContractViolationError
from rwpf.rngs import stream


def test_construction_and_endpoints():
    br = LazyBridge(0.0, 0.0, 1.0, 0.0)
    assert br.skeleton() == [(0.0, 0.0), (1.0, 0.0)]
    br2 = LazyBridge(0.0, 1.0, 2.0, 3.0)
    assert br2.skeleton() == [(0.0, 1.0), (2.0, 3.0)]
    with pytest.raises(ValueError):
        LazyBridge(1.0, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        LazyBridge(0.0, math.inf, 1.0, 0.0)


def test_endpoint_query_leaves_rng_untouched():
    br = LazyBridge(0.0, 1.5, 2.0, -0.5)
    rng = stream(1, 2)
    state = copy.deepcopy(rng.bit_generator.state)
    assert br.value_at(0.0, rng) == 1.5
    assert br.value_at(2.0, rng) == -0.5
    assert rng.bit_generator.state == state


def test_memoization_and_skeleton_size():
    br = LazyBridge(0.0, 0.0, 1.0, 0.0)
    rng = stream(3, 4)
    v1 = br.value_at(0.25, rng)
    v2 = br.value_at(0.25, rng)
    assert v1 == v2
    br.value_at(0.7, rng)
    br.value_at(0.7, rng)
    assert len(br) == 2 + 2
    assert br.total_inserted == 2


def test_out_of_range_query():
    br = LazyBridge(0.0, 0.0, 1.0, 0.0)
    rng = stream(5, 6)
    with pytest.raises(ValueError):
        br.value_at(-0.1, rng)
    with pytest.raises(ValueError):
        br.value_at(1.1, rng)


def test_value_at_consumes_exactly_one_uniform():
    br = LazyBridge(0.0, 0.0, 1.0, 0.0)
    rng_a = stream(7, 8)
    rng_b = stream(7, 8)
    br.value_at(0.5, rng_a)
    rng_b.random()
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


def test_uniform_driven_midpoint():
    br = LazyBridge(0.0, 0.0, 1.0, 0.0)
    # u = 0.5 -> the conditional mean exactly
    assert br.value_at_with_uniform(0.5, 0.5) == 0.0
    br2 = LazyBridge(0.0, 0.0, 1.0, 0.0)
    # Phi(1) ~= 0.8413447, midpoint sd = 0.5
    assert br2.value_at_with_uniform(0.5, 0.8413447) == pytest.approx(0.5, abs=3e-7)
    br3 = LazyBridge(0.0, 1.0, 1.0, 3.0)
    assert br3.value_at_with_uniform(0.25, 0.5) == pytest.approx(1.5, rel=1e-12)


def test_uniform_driven_rejects_known_times_and_bad_u():
    br = LazyBridge(0.0, 0.0, 1.0, 0.0)
    br.value_at_with_uniform(0.5, 0.3)
    with pytest.raises(ContractViolationError):
        br.value_at_with_uniform(0.5, 0.3)
    with pytest.raises(ContractViolationError):
        br.value_at_with_uniform(0.0, 0.3)  # endpoint is already present
    with pytest.raises(ValueError):
        br.value_at_with_uniform(0.25, 0.0)
    with pytest.raises(ValueError):
        br.value_at_with_uniform(0.25, 1.0)


def test_uniform_tail_values_unclipped():
    br = LazyBridge(0.0, 0.0, 1.0, 0.0)
    assert br.value_at_with_uniform(0.5, 1e-300) < -15


def test_midpoint_law():
    n = 100_000
    rng = stream(11, 0)
    vals = np.empty(n)
    for i in range(n):
        vals[i] = LazyBridge(0.0, 0.0, 1.0, 0.0).value_at(0.5, rng)
    se_mean = math.sqrt(0.25 / n)
    assert abs(vals.mean()) < 4 * se_mean
    var = vals.var(ddof=1)
    se_var = 0.25 * math.sqrt(2.0 / (n - 1))
    assert abs(var - 0.25) < 4 * se_var


def test_two_time_covariance_both_orders():
    # bridge on [0,1] pinned at 0: Cov(W_s, W_t) = s (1 - t) for s <= t
    n = 100_000
    target = 0.3 * (1 - 0.6)
    for order, key in [((0.3, 0.6), 21), ((0.6, 0.3), 22)]:
        rng = stream(key, 0)
        xs = np.empty((n, 2))
        for i in range(n):
            br = LazyBridge(0.0, 0.0, 1.0, 0.0)
            a = br.value_at(order[0], rng)
            b = br.value_at(order[1], rng)
            xs[i] = (a, b) if order == (0.3, 0.6) else (b, a)
        prod = (xs[:, 0] - xs[:, 0].mean()) * (xs[:, 1] - xs[:, 1].mean())
        cov = prod.mean()
        se = prod.std(ddof=1) / math.sqrt(n)
        assert abs(cov - target) < 4 * se
        # marginal variances: s(1-s)
        for col, s in ((0, 0.3), (1, 0.6)):
            v = xs[:, col].var(ddof=1)
            sv = v * math.sqrt(2.0 / (n - 1))
            assert abs(v - s * (1 - s)) < 4 * sv


def test_snapshot_restore():
    br = LazyBridge(0.0, 0.0, 1.0, 0.0)
    rng = stream(31, 0)
    br.value_at(0.2, rng)
    snap = br.snapshot()
    br.value_at(0.4, rng)
    br.value_at(0.6, rng)
    assert len(br) == 5
    inserted = br.total_inserted
    br.restore(snap)
    assert len(br) == 3
    assert br.total_inserted == inserted  # counter is cumulative
    assert br.value_at(0.2, rng) == dict(br.skeleton())[0.2]


def test_insert_path_fills_a_two_point_skeleton_only():
    br = LazyBridge(0.0, 0.5, 1.0, -0.5)
    br.insert_path([0.25, 0.75], [1.0, 2.0])
    assert br.skeleton() == [(0.0, 0.5), (0.25, 1.0), (0.75, 2.0), (1.0, -0.5)]
    assert br.total_inserted == 2
    with pytest.raises(ContractViolationError, match="two-point"):
        br.insert_path([0.5], [0.0])
    assert len(br) == 4 and br.total_inserted == 2


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0.01, 0.99), min_size=1, max_size=8, unique=True),
       st.integers(0, 2**30))
def test_insertion_variance_nonnegative_and_size(times, seed):
    br = LazyBridge(0.0, 0.3, 1.0, -0.7)
    rng = stream(seed, 1)
    for t in times:
        br.value_at(t, rng)
    sk = br.skeleton()
    ts = [t for t, _ in sk]
    assert ts == sorted(ts)
    assert len(sk) == len(set(times)) + 2
    assert all(math.isfinite(v) for _, v in sk)
