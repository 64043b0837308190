import math

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import norm

from rwpf.stats import invnorm, norm_logpdf


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
