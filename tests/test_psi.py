import json
import math
import pathlib

import numpy as np
import pytest

from rwpf import lowdisc, psi
from rwpf.bridge import LazyBridge
from rwpf.errors import UnsupportedDimensionError
from rwpf.models import builtin
from rwpf.rngs import stream

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

ALL_CONFIGS = [
    psi.PsiConfig(mode="mc", inner_points=1),
    psi.PsiConfig(mode="mc", inner_points=16),
    psi.PsiConfig(mode="rqmc-times", inner_points=16),
    psi.PsiConfig(mode="rqmc-times-values", inner_points=16),
]


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
    dup = np.full((2, 4), 0.4375)

    def fake_randomize(base, scheme, seed):
        return lowdisc.PointSet(base.dimension, base.count, dup[:, :base.dimension],
                                scheme, seed, lowdisc.shift_from_floats(dup))

    monkeypatch.setattr(psi.lowdisc, "randomize", fake_randomize)
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
    broken = DriftModel(
        name="nan-model",
        alpha=np.sin, alpha_prime=np.cos,
        big_a=lambda u: 1.0 - np.cos(u),
        phi_bounds=(-0.5, 0.625),
        phi_scalar=lambda u: math.nan,
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
