import json
import math
import pathlib

import numpy as np
import pytest

from rwpf import oracles
from rwpf.errors import ConfigError, UnsupportedOperationError
from rwpf.models import builtin, exact_transition_density
from rwpf.rngs import stream

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def test_gridspec_validation():
    oracles.GridSpec(-1.0, 1.0, 16)
    with pytest.raises(ValueError):
        oracles.GridSpec(1.0, -1.0, 64)
    with pytest.raises(ValueError):
        oracles.GridSpec(-1.0, 1.0, 8)


def test_psi_bruteforce_zero_and_tanh():
    zero = builtin("zero")
    mean, se = oracles.psi_bruteforce(zero, 0.0, 1.0, 0.0, 1.0, 200, 1000,
                                      stream(1, 0))
    assert mean == 1.0 and se == 0.0
    tanh = builtin("tanh")
    mean, se = oracles.psi_bruteforce(tanh, 0.3, -0.4, 0.0, 1.0, 200, 1000,
                                      stream(1, 1))
    assert mean == pytest.approx(math.exp(-0.5), rel=1e-12)
    assert se < 1e-12


def test_psi_bruteforce_preconditions():
    zero = builtin("zero")
    with pytest.raises(ValueError):
        oracles.psi_bruteforce(zero, 0, 0, 0, 1, 99, 1000, stream(1, 2))
    with pytest.raises(ValueError):
        oracles.psi_bruteforce(zero, 0, 0, 0, 1, 200, 999, stream(1, 3))


def test_psi_bruteforce_far_gap_is_the_unit_gap():
    # phi does not depend on time and b - a is exactly 1 at 1e15, so the
    # same stream gives the [0, 1] result bit for bit
    sine = builtin("sine")
    near = oracles.psi_bruteforce(sine, 0.0, 0.5, 0.0, 1.0, 200, 1000, stream(1, 4))
    far = oracles.psi_bruteforce(sine, 0.0, 0.5, 1e15, 1e15 + 1, 200, 1000, stream(1, 4))
    assert far == near


def test_psi_bruteforce_step_doubling_consistency():
    sine = builtin("sine")
    m1, s1 = oracles.psi_bruteforce(sine, 0, 0, 0, 1, 500, 40_000, stream(2, 0))
    m2, s2 = oracles.psi_bruteforce(sine, 0, 0, 0, 1, 1000, 40_000, stream(2, 1))
    assert abs(m1 - m2) < 2 * math.hypot(s1, s2)


def test_pinned_sine_fixture_agreement():
    with open(FIXTURES / "psi_sine_0_0_1.json") as f:
        fx = json.load(f)
    r1, r2 = fx["runs"]
    assert abs(r1["value"] - r2["value"]) <= 3 * math.hypot(r1["se"], r2["se"])
    dbl = fx["step_doubling_check"]
    assert abs(r1["value"] - dbl["value"]) <= 3 * math.hypot(r1["se"], dbl["se"])
    # moderate fresh recomputation stays in band (guards against drift)
    sine = builtin("sine")
    mean, se = oracles.psi_bruteforce(sine, 0, 0, 0, 1, 2000, 20_000, stream(3, 0))
    assert abs(mean - fx["value"]) < 4 * math.hypot(se, fx["se"])


def test_euler_histogram_zero_drift():
    zero = builtin("zero")
    grid = oracles.GridSpec(-4.5, 4.5, 36)
    density, edges = oracles.euler_transition_histogram(
        zero, 0.0, 1.0, 200, 200_000, grid, stream(4, 0))
    centers = 0.5 * (edges[:-1] + edges[1:])
    width = edges[1] - edges[0]
    target = np.exp(-centers**2 / 2) / math.sqrt(2 * math.pi)
    p = target * width
    se = np.sqrt(p * (1 - p) / 200_000) / width
    mask = p * 200_000 > 20
    assert np.all(np.abs(density[mask] - target[mask]) < 4 * se[mask])


def test_euler_histogram_tanh_vs_exact_density():
    tanh = builtin("tanh")
    grid = oracles.GridSpec(-5.0, 5.0, 40)
    n_paths = 200_000
    density, edges = oracles.euler_transition_histogram(
        tanh, 0.0, 1.0, 2000, n_paths, grid, stream(5, 0))
    centers = 0.5 * (edges[:-1] + edges[1:])
    width = edges[1] - edges[0]
    target = exact_transition_density(tanh, 0.0, centers, 1.0)
    p = target * width
    se = np.sqrt(p * (1 - p) / n_paths) / width
    mask = p * n_paths > 20
    disc_tol = 2e-3  # weak Euler bias at dt = 5e-4 plus in-cell curvature
    assert np.all(np.abs(density[mask] - target[mask]) < 4 * se[mask] + disc_tol)


def test_euler_histogram_single_path():
    zero = builtin("zero")
    grid = oracles.GridSpec(-4.0, 4.0, 16)
    density, edges = oracles.euler_transition_histogram(
        zero, 0.0, 1.0, 100, 1, grid, stream(6, 0))
    width = edges[1] - edges[0]
    assert np.isclose(density.sum() * width, 1.0) or density.sum() == 0.0


def test_grid_filter_single_obs_zero_drift():
    zero = builtin("zero")
    res = oracles.grid_filter(zero, [(1.0, 0.7)],
                              oracles.GridSpec(-12, 12, 2048), 0.0, 1.0)
    # marginal of y_1: N(x0, t + sigma^2)
    expected = -0.5 * (math.log(2 * math.pi * 2.0) + 0.7**2 / 2.0)
    assert res.log_likelihood == pytest.approx(expected, abs=1e-8)


def test_grid_filter_uninformative_limit():
    zero = builtin("zero")
    grid = oracles.GridSpec(-15, 15, 4096)
    res = oracles.grid_filter(zero, [(1.0, 0.0)], grid, 0.0, 100.0)
    x = res.nodes
    posterior = res.posteriors[0]
    predictive = np.exp(-x**2 / 2) / math.sqrt(2 * math.pi)
    mask = predictive > 1e-300
    dx = x[1] - x[0]
    kl = float(np.sum(predictive[mask]
                      * np.log(predictive[mask] / posterior[mask])) * dx)
    assert kl < 1e-3


def test_grid_filter_posteriors_proper_and_deterministic():
    with open(FIXTURES / "grid_tanh_filter.json") as f:
        fx = json.load(f)
    tanh = builtin("tanh")
    obs = list(zip([1.0, 2.0, 3.0, 4.0, 5.0], fx["observations"]))
    g = fx["grid"]
    res = oracles.grid_filter(tanh, obs,
                              oracles.GridSpec(g["lo"], g["hi"], g["n_cells"]),
                              0.0, 0.5)
    assert res.log_likelihood == fx["log_likelihood"]  # bit-identical
    assert np.array_equal(res.posterior_means, np.array(fx["posterior_means"]))
    wq = np.full(len(res.nodes), res.nodes[1] - res.nodes[0])
    wq[0] /= 2
    wq[-1] /= 2
    for post in res.posteriors:
        assert np.all(post >= 0.0)
        assert abs(float(wq @ post) - 1.0) < 1e-10
    # node-doubling agreement recorded at pin time
    assert abs(fx["log_likelihood"]
               - fx["node_doubling_check"]["log_likelihood"]) < 1e-6


def test_grid_filter_requires_capability_and_coverage():
    sine = builtin("sine")
    with pytest.raises(UnsupportedOperationError):
        oracles.grid_filter(sine, [(1.0, 0.0)], oracles.GridSpec(-10, 10, 64),
                            0.0, 1.0)
    zero = builtin("zero")
    with pytest.raises(ConfigError, match="too small"):
        oracles.grid_filter(zero, [(1.0, 0.0)], oracles.GridSpec(-1.0, 1.0, 64),
                            0.0, 1.0)


def test_kalman_reference_value():
    res = oracles.kalman_filter(0.0, [1.0], [0.0], 1.0)
    assert res.log_likelihood == pytest.approx(-0.5 * math.log(4 * math.pi),
                                               rel=1e-12)


def test_kalman_validation():
    with pytest.raises(ValueError):
        oracles.kalman_filter(0.0, [1.0], [0.0], 1e-7)
    with pytest.raises(ValueError):
        oracles.kalman_filter(0.0, [1.0, 1.0], [0.0], 1.0)
    with pytest.raises(ValueError):
        oracles.kalman_filter(0.0, [-1.0], [0.0], 1.0)
    # sigma exactly at the floor still works
    res = oracles.kalman_filter(0.0, [1e-9], [0.0], 1e-6)
    assert math.isfinite(res.log_likelihood)


def test_kalman_agrees_with_grid_filter():
    zero = builtin("zero")
    times = [1.0, 2.0, 3.0, 4.0, 5.0]
    ys = [0.3, -0.5, 1.2, 0.8, -0.2]
    kal = oracles.kalman_filter(0.0, [1.0] * 5, ys, 1.0)
    grd = oracles.grid_filter(zero, list(zip(times, ys)),
                              oracles.GridSpec(-20, 20, 4096), 0.0, 1.0)
    assert abs(kal.log_likelihood - grd.log_likelihood) < 1e-6
    assert np.allclose(kal.means, grd.posterior_means, atol=1e-6)
    assert np.allclose(kal.variances, grd.posterior_vars, atol=1e-6)
