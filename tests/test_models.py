import math

import numpy as np
import pytest

from rwpf import models
from rwpf.errors import UnsupportedOperationError
from rwpf.models import (DriftModel, builtin, exact_transition_density, phi,
                         validate_model)

GRID = np.arange(-5.0, 5.0 + 1e-12, 0.1)


def test_phi_values():
    assert phi(builtin("zero"), 1.7) == 0.0
    for u in (-3.0, 0.0, 2.5):
        assert phi(builtin("tanh"), u) == pytest.approx(0.5, abs=1e-15)
    assert phi(builtin("sine"), 0.0) == pytest.approx(0.5)


def test_phi_bounds_builtin():
    assert builtin("zero").phi_bounds == (0.0, 0.0)
    assert builtin("tanh").phi_bounds == (0.5, 0.5)
    assert builtin("sine").phi_bounds == (-0.5, 0.625)


@pytest.mark.parametrize("theta", [0.2, 0.5, 1.0, 1.7, -0.3, -2.0])
def test_scaled_sine_bounds_match_grid_extremization(theta):
    model = builtin("scaled-sine", theta=theta)
    lo, hi = model.phi_bounds
    u = np.linspace(0.0, 2 * math.pi, 400_001)  # one period is enough
    vals = phi(model, u)
    assert vals.min() == pytest.approx(lo, abs=1e-8)
    assert vals.max() == pytest.approx(hi, abs=1e-8)


@pytest.mark.parametrize("name", ["zero", "tanh", "sine"])
def test_derivative_consistency(name):
    model = builtin(name)
    h = 1e-5
    fd_prime = (model.alpha(GRID + h) - model.alpha(GRID - h)) / (2 * h)
    assert np.max(np.abs(model.alpha_prime(GRID) - fd_prime)) <= 1e-6
    fd_alpha = (model.big_a(GRID + h) - model.big_a(GRID - h)) / (2 * h)
    assert np.max(np.abs(model.alpha(GRID) - fd_alpha)) <= 1e-6


@pytest.mark.parametrize("name", ["zero", "tanh", "sine"])
def test_bounds_dominate_on_wide_grid(name):
    model = builtin(name)
    grid = np.linspace(-20, 20, 100_000)
    vals = phi(model, grid)
    lo, hi = model.phi_bounds
    assert vals.min() >= lo - 1e-9
    assert vals.max() <= hi + 1e-9


def test_antiderivative_conventions():
    assert builtin("zero").big_a(3.0) == 0.0
    assert builtin("sine").big_a(0.0) == 0.0
    assert float(builtin("sine").big_a(2.0)) == pytest.approx(1 - math.cos(2.0))
    assert float(builtin("tanh").big_a(2.0)) == pytest.approx(math.log(math.cosh(2.0)))
    assert float(builtin("tanh").big_a(0.0)) == pytest.approx(0.0, abs=1e-15)


def test_exact_density_reference_values():
    assert exact_transition_density(builtin("zero"), 0.0, 0.0, 1.0) == \
        pytest.approx(1 / math.sqrt(2 * math.pi), rel=1e-12)
    assert exact_transition_density(builtin("tanh"), 0.0, 0.0, 1.0) == \
        pytest.approx(math.exp(-0.5) / math.sqrt(2 * math.pi), rel=1e-12)


def test_tanh_density_integrates_to_one():
    x = np.linspace(-14.0, 14.0, 200_001)
    dens = exact_transition_density(builtin("tanh"), 0.3, x, 1.0)
    assert np.trapezoid(dens, x) == pytest.approx(1.0, abs=1e-6)


def test_density_capability_errors():
    with pytest.raises(UnsupportedOperationError):
        exact_transition_density(builtin("sine"), 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        exact_transition_density(builtin("zero"), 0.0, 0.0, 0.0)


def test_builtin_unknown_and_bad_params():
    with pytest.raises(ValueError):
        builtin("ornstein")
    with pytest.raises(ValueError):
        builtin("zero", theta=2.0)


def test_capabilities():
    assert builtin("tanh").exact_log_density is not None
    assert builtin("tanh").tilted_log_normalizer is not None
    assert builtin("sine").exact_log_density is None


def test_unbounded_phi_rejected_at_registration():
    # linear drift: phi = (theta^2 x^2 - theta)/2 is unbounded above
    linear = DriftModel(
        name="linear",
        alpha=lambda u: -np.asarray(u),
        alpha_prime=lambda u: -np.ones_like(np.asarray(u, dtype=float)),
        big_a=lambda u: -np.asarray(u) ** 2 / 2.0,
        phi_bounds=(-0.5, 10.0),  # a lie; phi(20) = 199.5
        phi_scalar=lambda u: (u * u - 1.0) / 2.0,
    )
    with pytest.raises(ValueError, match="escapes"):
        validate_model(linear)


def test_inconsistent_derivative_rejected():
    broken = DriftModel(
        name="broken",
        alpha=np.sin,
        alpha_prime=np.sin,  # wrong
        big_a=lambda u: 1.0 - np.cos(u),
        phi_bounds=(-0.5, 0.625),
        phi_scalar=lambda u: (math.sin(u) ** 2 + math.sin(u)) / 2.0,
    )
    with pytest.raises(ValueError, match="alpha_prime"):
        validate_model(broken)


def test_builtin_cache_returns_same_instance():
    assert builtin("sine") is builtin("sine")
    assert builtin("scaled-sine", theta=1.5) is builtin("scaled-sine", theta=1.5)
    assert builtin("scaled-sine", theta=1.5) is not builtin("scaled-sine", theta=2.0)


# +-0.0, the least subnormal and a larger one, then far, negative, wide and nan
FLOAT_INPUTS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e300, -7.3, 1e4, math.nan]


@pytest.mark.parametrize("name,params", [("sine", {}), ("scaled-sine", {"theta": 1.7})])
def test_sine_drift_on_floats_is_the_array_form_bit_for_bit(name, params):
    alpha = builtin(name, **params).alpha
    for x in FLOAT_INPUTS:
        got = alpha(x)
        assert type(got) is float, x
        assert np.float64(got).tobytes() == alpha(np.array([x]))[0].tobytes(), x
    # math.sin raises on +-inf; the drift gives nan there, as np.sin does
    with np.errstate(invalid="ignore"):
        for x in (math.inf, -math.inf):
            got = alpha(x)
            assert type(got) is float and math.isnan(got)
            assert np.float64(got).tobytes() == alpha(np.array([x]))[0].tobytes()
    assert type(alpha(np.float64(-7.3))) is np.float64
    assert alpha(np.float64(-7.3)) == alpha(-7.3)


def test_exact_transition_only_where_phi_is_constant():
    assert models.has_exact_transition(builtin("zero"))
    assert models.has_exact_transition(builtin("tanh"))
    assert not models.has_exact_transition(builtin("sine"))
    assert not models.has_exact_transition(builtin("scaled-sine", theta=1.7))
