import math

import numpy as np
import pytest
from scipy.special import logsumexp as scipy_logsumexp
from scipy.special import ndtri
from scipy.stats import norm

from rwpf.stats import invnorm, logsumexp, norm_logpdf


def test_invnorm_matches_scipy_ndtri():
    us = np.concatenate([
        np.linspace(1e-10, 1 - 1e-10, 5001),
        [1e-300, 1e-16, 0.5, 1 - 1e-16],
    ])
    for u in us:
        x = invnorm(float(u))
        ref = ndtri(u)
        assert abs(x - ref) <= 1e-9 * max(1.0, abs(ref))


def test_invnorm_reference_points():
    assert invnorm(0.5) == 0.0
    # Phi(1) = 0.8413447 to the printed digits
    assert invnorm(0.8413447) == pytest.approx(1.0, abs=5e-7)
    assert invnorm(0.9986501) == pytest.approx(3.0, abs=5e-6)
    # antisymmetry up to the rounding of 1 - u in the upper branch
    assert invnorm(0.2) == pytest.approx(-invnorm(0.8), rel=1e-14)


def test_invnorm_tails_unclipped():
    assert invnorm(1e-300) < -30
    assert invnorm(1 - 1e-16) > 8


@pytest.mark.parametrize("u", [0.0, 1.0, -0.1, 1.1])
def test_invnorm_domain(u):
    with pytest.raises(ValueError):
        invnorm(u)


def test_norm_logpdf_matches_scipy():
    for x, mean, var in [(0, 0, 1), (1.7, -0.3, 0.25), (-4, 2, 9.0)]:
        assert norm_logpdf(x, mean, var) == pytest.approx(
            norm.logpdf(x, loc=mean, scale=math.sqrt(var)), rel=1e-12)


def test_logsumexp_matches_scipy_bit_for_bit():
    rng = np.random.default_rng(3)
    cases = [np.full(5, -np.inf), np.array([3.0]), np.array([-np.inf]),
             np.array([1.0, 1.0]), np.array([-np.inf, 2.0, 2.0]),
             np.array([np.inf, 1.0]), np.array([np.nan, 1.0])]
    for k in range(2000):
        a = rng.normal(rng.normal(0.0, 50.0), rng.choice([0.1, 1.0, 10.0, 1e3]),
                       int(rng.integers(1, 1100)))
        if k % 3 == 0:
            a[rng.random(a.size) < 0.3] = -np.inf         # zero-weight particles
        if k % 5 == 0:
            a[rng.integers(0, a.size, 3)] = a.max()       # ties at the max
        if k % 7 == 0:
            a = np.round(a)
        cases.append(a)
    for a in cases:
        assert np.float64(logsumexp(a)).tobytes() == np.float64(scipy_logsumexp(a)).tobytes()
