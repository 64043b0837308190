"""Independent reference computations used to validate the estimators.

Nothing here shares code with the estimation paths it checks: bridge
paths are simulated on dense grids with vectorized Gaussian increments,
integrals use the trapezoid rule, and the linear-Gaussian case gets an
exact Kalman recursion.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, UnsupportedOperationError
from .models import DriftModel, phi
from .smc import check_observation_times
from .stats import _LOG_2PI


@dataclass(frozen=True)
class GridSpec:
    lo: float
    hi: float
    n_cells: int

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("need lo < hi")
        if self.n_cells < 16:
            raise ValueError("need n_cells >= 16")

    def nodes(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n_cells)

    def edges(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n_cells + 1)


def _trapezoid_weights(x: np.ndarray) -> np.ndarray:
    dx = x[1] - x[0]
    w = np.full(len(x), dx)
    w[0] = w[-1] = dx / 2.0
    return w


def psi_bruteforce(model: DriftModel, x_a: float, x_b: float, a: float, b: float,
                   n_steps: int, n_paths: int, rng) -> tuple[float, float]:
    """Brute-force (mean, se) of exp{-integral of phi} over dense bridges.

    Bridges are simulated exactly on a uniform grid (sequential
    conditional Gaussian steps toward the pinned endpoint); the integral
    uses the trapezoid rule, so the discretization bias is O(n_steps^-2)
    for smooth phi.
    """
    if not b > a:
        raise ValueError(f"need b > a, got ({a}, {b})")
    if n_steps < 100:
        raise ValueError("n_steps must be >= 100")
    if n_paths < 1000:
        raise ValueError("n_paths must be >= 1000")
    # phi does not depend on time, so time runs from 0 at a: far from 0,
    # a + (k - 1) * dt could round onto b before the last step
    span = b - a
    dt = span / n_steps
    w = np.full(n_paths, float(x_a))
    phi_prev = np.broadcast_to(phi(model, w), (n_paths,)).copy()
    integral = np.zeros(n_paths)
    for k in range(1, n_steps + 1):
        rem = span - (k - 1) * dt
        mean = w + (dt / rem) * (x_b - w)
        var = dt * (rem - dt) / rem
        if var > 0:
            w = mean + math.sqrt(var) * rng.standard_normal(n_paths)
        else:
            w = np.full(n_paths, float(x_b))
        phi_cur = np.broadcast_to(phi(model, w), (n_paths,))
        integral += 0.5 * (phi_prev + phi_cur) * dt
        phi_prev = phi_cur
    vals = np.exp(-integral)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n_paths))


def euler_transition_histogram(model: DriftModel, x_a: float, t: float,
                               n_steps: int, n_paths: int, grid: GridSpec,
                               rng) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint density estimate from Euler-Maruyama paths.

    Returns (density per cell, cell edges); mass outside the grid is
    dropped, so densities integrate to the covered fraction.
    """
    if t <= 0:
        raise ValueError("t must be > 0")
    if n_steps < 100:
        raise ValueError("n_steps must be >= 100")
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    dt = t / n_steps
    sq = math.sqrt(dt)
    x = np.full(n_paths, float(x_a))
    for _ in range(n_steps):
        x = x + np.asarray(model.alpha(x)) * dt + sq * rng.standard_normal(n_paths)
    edges = grid.edges()
    counts, _ = np.histogram(x, bins=edges)
    width = edges[1] - edges[0]
    return counts / (n_paths * width), edges


@dataclass
class GridFilterResult:
    nodes: np.ndarray
    posteriors: list[np.ndarray]   # one density per observation, on nodes
    log_likelihood: float
    posterior_means: np.ndarray
    posterior_vars: np.ndarray


def grid_filter(model: DriftModel, observations, grid: GridSpec, x0: float,
                noise_sd: float) -> GridFilterResult:
    """Deterministic filtering recursion by trapezoid quadrature.

    Requires the model's closed-form transition density. The grid must
    cover the posterior: more than 1e-10 of mass in a boundary node
    raises, since truncation would silently bias the likelihood.
    """
    if model.exact_log_density is None:
        raise UnsupportedOperationError(
            f"grid_filter needs exact_transition_density; model {model.name!r} lacks it"
        )
    if noise_sd <= 0:
        raise ValueError("grid_filter needs noise_sd > 0")
    check_observation_times([t for t, _ in observations])
    x = grid.nodes()
    wq = _trapezoid_weights(x)
    var_obs = noise_sd * noise_sd
    obs_loglik = -0.5 * (_LOG_2PI + math.log(var_obs))

    kernels: dict[float, np.ndarray] = {}  # dt -> row-stochastic-ish density matrix

    def kernel(dt: float) -> np.ndarray:
        if dt not in kernels:
            # K[i, j] = p_dt(x_j | x_i)
            kernels[dt] = np.exp(model.exact_log_density(x[:, None], x[None, :], dt))
        return kernels[dt]

    loglik = 0.0
    posteriors, means, variances = [], [], []
    density = None  # posterior density on nodes; None while X_0 = x0 is exact
    prev_t = 0.0
    for t, y in observations:
        dt = t - prev_t
        if density is None:
            predicted = np.exp(model.exact_log_density(x0, x, dt))
        else:
            predicted = (wq * density) @ kernel(dt)
        unnorm = predicted * np.exp(obs_loglik - 0.5 * (y - x) ** 2 / var_obs)
        c = float(np.dot(wq, unnorm))
        if c <= 0:
            raise ConfigError(f"grid filter lost all mass at t={t}")
        loglik += math.log(c)
        density = unnorm / c
        boundary_mass = float(wq[0] * density[0] + wq[-1] * density[-1])
        if boundary_mass > 1e-10:
            raise ConfigError(
                f"grid [{grid.lo}, {grid.hi}] too small: boundary mass "
                f"{boundary_mass:.3e} at t={t}"
            )
        mean = float(np.dot(wq, density * x))
        means.append(mean)
        variances.append(float(np.dot(wq, density * (x - mean) ** 2)))
        posteriors.append(density.copy())
        prev_t = t
    return GridFilterResult(x, posteriors, loglik,
                            np.array(means), np.array(variances))


@dataclass
class KalmanResult:
    log_likelihood: float
    means: np.ndarray      # filtered means, one per observation
    variances: np.ndarray


def kalman_filter(x0: float, intervals, observations, sigma: float) -> KalmanResult:
    """Exact filter for zero drift: random walk with Gaussian observations.

    ``intervals`` are the time gaps between consecutive observations
    (the state transition variances).
    """
    if sigma < 1e-6:
        raise ValueError("sigma below 1e-6 is numerically degenerate")
    intervals = list(intervals)
    observations = list(observations)
    if len(intervals) != len(observations):
        raise ValueError("need one interval per observation")
    m, v = float(x0), 0.0
    var_obs = sigma * sigma
    loglik = 0.0
    means, variances = [], []
    for dt, y in zip(intervals, observations):
        if dt <= 0:
            raise ValueError("intervals must be positive")
        v += dt
        s = v + var_obs
        loglik += -0.5 * (_LOG_2PI + math.log(s) + (y - m) ** 2 / s)
        gain = v / s
        m += gain * (y - m)
        v *= 1.0 - gain
        means.append(m)
        variances.append(v)
    return KalmanResult(loglik, np.array(means), np.array(variances))
