"""Random-weight particle filter.

Between consecutive observation times each particle is propagated by a
proposal kernel, its weight is multiplied by an unbiased estimate of the
bridge functional expectation (replacing the intractable transition
density) and by the Gaussian observation density. Because the weight
estimates are unbiased and positive, the filter is a standard
pseudo-marginal SMC scheme: the likelihood estimate stays unbiased and
the targeted distributions are unchanged.

A step is array work over the whole cloud: one proposal call, one psi
call and the weights as one array expression. Weights live in log space
throughout. The cloud draws its moves and weights from one stream, each
draw one array over the particles, and resampling from a second; both
derive from the master seed, so results depend only on (config, master
seed).
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import proposal, psi
from .errors import DegeneracyError
from .models import DriftModel, validate_model
from .proposal import MODE_GAUSSIAN
from .rngs import NS_FILTER, particle_streams
from .stats import logsumexp, norm_logpdf

RESAMPLING_SCHEMES = ("multinomial", "systematic", "stratified")


def check_observation_times(times) -> None:
    """Raise ValueError unless times are finite, strictly increasing and > 0
    (NaN fails no comparison, so finiteness is checked on its own)."""
    if (not all(map(math.isfinite, times)) or any(t <= 0 for t in times[:1])
            or any(v <= u for u, v in zip(times, times[1:]))):
        raise ValueError("observation times must be finite, strictly increasing and > 0")


@dataclass
class ParticleCloud:
    positions: np.ndarray          # (N,) float64
    log_weights: np.ndarray        # (N,) unnormalized
    rng: np.random.Generator       # moves and weights of the whole cloud
    resample_rng: np.random.Generator
    step_index: int = 0

    @property
    def n(self) -> int:
        return len(self.positions)


@dataclass
class FilterStepReport:
    time: float
    ess: float
    log_likelihood_increment: float
    resampled: bool
    mean_kappa: float
    posterior_mean: float
    posterior_var: float


@dataclass(frozen=True)
class FilterConfig:
    n_particles: int
    x0: float
    noise_sd: float
    psi: psi.PsiConfig
    proposal: str = MODE_GAUSSIAN
    resampling: str = "systematic"
    ess_threshold: float = 0.5
    master_seed: int = 0

    def __post_init__(self):
        if self.n_particles < 1:
            raise ValueError("n_particles must be >= 1")
        if self.noise_sd <= 0:
            raise ValueError("filtering needs noise_sd > 0")
        if self.resampling not in RESAMPLING_SCHEMES:
            raise ValueError(f"unknown resampling scheme {self.resampling!r}")
        if not 0.0 <= self.ess_threshold <= 1.0:
            raise ValueError("ess_threshold must be in [0, 1]")


def init_cloud(n: int, x0: float, master_seed: int) -> ParticleCloud:
    """All particles at x0 with uniform weights, a stream for the cloud's
    moves and weights and one for resampling."""
    if n < 1:
        raise ValueError("need at least one particle")
    rng, resample_rng = particle_streams(master_seed, 2, NS_FILTER)
    return ParticleCloud(np.full(n, float(x0)), np.zeros(n), rng, resample_rng)


def _weights(log_weights: np.ndarray) -> tuple[np.ndarray, float]:
    """The normalized weights and their ESS, from one exp of the log-weights."""
    m = np.max(log_weights)
    if m == -np.inf:
        raise ValueError("all log-weights are -inf")
    w = np.exp(log_weights - m)
    s = w.sum()
    return w / s, float(s * s / np.sum(w * w))


def ess(log_weights: np.ndarray) -> float:
    """(sum w)^2 / sum w^2 of the normalized weights, computed stably."""
    return _weights(np.asarray(log_weights, dtype=float))[1]


def pivot_indices(weights: np.ndarray, u) -> np.ndarray:
    """Offspring ancestor indices at the pivots (u + k) / n, k < n: one
    uniform u in [0, 1) for systematic resampling, n of them for stratified."""
    n = len(weights)
    pivots = (u + np.arange(n)) / n
    return np.searchsorted(np.cumsum(weights), pivots, side="right").clip(0, n - 1)


def multinomial_indices(weights: np.ndarray, rng) -> np.ndarray:
    counts = rng.multinomial(len(weights), weights)
    return np.repeat(np.arange(len(weights)), counts)


def resample(cloud: ParticleCloud, scheme: str, rng) -> ParticleCloud:
    """Draw N offspring and reset weights to uniform. Offspring of one
    ancestor take separate entries of every later array draw, so they
    evolve independently afterwards."""
    w, _ = _weights(cloud.log_weights)
    if scheme == "multinomial":
        idx = multinomial_indices(w, rng)
    elif scheme == "systematic":
        idx = pivot_indices(w, float(rng.random()))
    elif scheme == "stratified":
        idx = pivot_indices(w, rng.random(len(w)))
    else:
        raise ValueError(f"unknown resampling scheme {scheme!r}")
    return dataclasses.replace(cloud, positions=cloud.positions[idx],
                               log_weights=np.zeros(cloud.n))


def step(cloud: ParticleCloud, model: DriftModel, obs: tuple[float, float, float],
         interval: tuple[float, float], psi_cfg: psi.PsiConfig,
         proposal_mode: str = FilterConfig.proposal,
         ess_threshold: float = FilterConfig.ess_threshold,
         resample_scheme: str = FilterConfig.resampling
         ) -> tuple[ParticleCloud, FilterStepReport]:
    """One propagate / weight / (maybe) resample transition to obs.time."""
    a, b = interval
    t_obs, y, sigma = obs
    if not (b == t_obs and b > a):
        raise ValueError(f"interval ({a}, {b}) inconsistent with obs time {t_obs}")
    var_obs = sigma * sigma

    moved = proposal.propose(model, cloud.positions, a, b, cloud.rng, proposal_mode)
    new_pos = moved.x_b
    est = psi.estimate_cloud(model, a, b, cloud.positions, new_pos, psi_cfg, cloud.rng)
    with np.errstate(divide="ignore"):
        log_psi = np.log(est.value)
    incr = moved.log_weight_factor + log_psi + norm_logpdf(y, new_pos, var_obs)

    old_norm = cloud.log_weights - logsumexp(cloud.log_weights)
    with np.errstate(invalid="ignore"):
        loglik_inc = float(logsumexp(old_norm + incr))
    if loglik_inc == -math.inf or math.isnan(loglik_inc):
        raise DegeneracyError(
            f"all particles have zero weight at step {cloud.step_index} (t={b})",
            step_index=cloud.step_index,
        )

    new_lw = cloud.log_weights + incr
    w, ess_val = _weights(new_lw)
    post_mean = float(np.dot(w, new_pos))
    post_var = float(np.dot(w, (new_pos - post_mean) ** 2))

    new_cloud = ParticleCloud(new_pos, new_lw, cloud.rng, cloud.resample_rng,
                              cloud.step_index + 1)
    resampled = ess_val < ess_threshold * cloud.n and cloud.n > 1
    if resampled:
        new_cloud = resample(new_cloud, resample_scheme, new_cloud.resample_rng)

    report = FilterStepReport(
        time=b, ess=ess_val, log_likelihood_increment=loglik_inc,
        resampled=resampled, mean_kappa=float(np.mean(est.kappa)),
        posterior_mean=post_mean, posterior_var=post_var,
    )
    return new_cloud, report


def run_filter(model: DriftModel, observations, cfg: FilterConfig
               ) -> tuple[list[FilterStepReport], float]:
    """Fold `step` over (time, value) observations; returns per-step reports
    and the total log-likelihood estimate. A model that has not passed
    validate_model is validated first."""
    validate_model(model)
    check_observation_times([t for t, _ in observations])

    cloud = init_cloud(cfg.n_particles, cfg.x0, cfg.master_seed)
    reports: list[FilterStepReport] = []
    a = 0.0
    total = 0.0
    for t, y in observations:
        cloud, report = step(
            cloud, model, (t, y, cfg.noise_sd), (a, t), cfg.psi,
            proposal_mode=cfg.proposal, ess_threshold=cfg.ess_threshold,
            resample_scheme=cfg.resampling,
        )
        reports.append(report)
        total += report.log_likelihood_increment
        a = t
    return reports, total
