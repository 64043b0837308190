import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest

from rwpf import proposal, smc
from rwpf.errors import NumericError, UnsupportedOperationError
from rwpf.models import DriftModel, builtin, exact_transition_density
from rwpf.psi import PsiConfig
from rwpf.rngs import stream
from rwpf.stats import norm_logpdf


def norm_pdf(x, mean, var):
    return math.exp(norm_logpdf(x, mean, var))


def _propose_one(model, x_a, a, b, rng, mode):
    """``propose`` on a cloud of one particle, with scalar fields."""
    out = proposal.propose(model, [x_a], a, b, rng, mode)
    [x_b], [lwf] = out.x_b.tolist(), out.log_weight_factor.tolist()
    return dataclasses.replace(out, x_b=x_b, log_weight_factor=lwf)


def test_gaussian_zero_drift_weight_factor():
    zero = builtin("zero")
    rng = stream(1, 0)
    for _ in range(50):
        out = _propose_one(zero, 0.3, 0.0, 1.0, rng, "gaussian")
        assert out.log_weight_factor == 0.0
        assert out.mode == "gaussian" and out.n_rejections == 0


def test_gaussian_tanh_weight_factor_matches_quadrature():
    tanh = builtin("tanh")
    rng = stream(2, 0)
    out = _propose_one(tanh, 0.0, 0.0, 1.0, rng, "gaussian")
    expected, err = quad(math.tanh, 0.0, out.x_b)
    assert err < 1e-9
    assert out.log_weight_factor == pytest.approx(expected, abs=1e-9)
    # the spec-level identity: the factor is log cosh at the landing point
    assert out.log_weight_factor == pytest.approx(math.log(math.cosh(out.x_b)),
                                                  rel=1e-12)


def test_gaussian_moments():
    zero = builtin("zero")
    rng = stream(3, 0)
    n = 100_000
    # the cloud's one stream: n normals in one array draw
    draws = proposal.propose(zero, np.full(n, 2.0), 0.0, 0.5, rng, "gaussian").x_b
    se_mean = math.sqrt(0.5 / n)
    assert abs(draws.mean() - 2.0) < 4 * se_mean
    var = draws.var(ddof=1)
    assert abs(var - 0.5) < 4 * (0.5 * math.sqrt(2.0 / (n - 1)))


def test_tilted_tanh_exact():
    tanh = builtin("tanh")
    rng = stream(4, 0)
    out = _propose_one(tanh, 0.7, 0.0, 1.0, rng, "tilted")
    assert out.mode == "tilted-exact"
    assert out.log_weight_factor == 0.5  # t/2 exactly, any x_a
    out2 = _propose_one(tanh, -3.0, 1.0, 3.5, rng, "tilted")
    assert out2.log_weight_factor == 1.25


def test_tilted_tanh_density():
    # empirical histogram vs N(x; 0, 1) cosh(x) e^{-1/2} (the exact
    # transition density, which for tanh equals the normalized tilt)
    tanh = builtin("tanh")
    rng = stream(5, 0)
    n = 100_000
    draws = proposal.propose(tanh, np.zeros(n), 0.0, 1.0, rng, "tilted").x_b
    edges = np.linspace(-4.0, 4.0, 41)
    counts, _ = np.histogram(draws, bins=edges)
    width = edges[1] - edges[0]
    centers = 0.5 * (edges[:-1] + edges[1:])
    target = exact_transition_density(tanh, 0.0, centers, 1.0)
    p = target * width
    se = np.sqrt(p * (1 - p) / n) / width
    mask = p * n > 20
    assert np.all(np.abs(counts[mask] / (n * width) - target[mask]) < 4 * se[mask])


def test_tilted_zero_is_gaussian():
    zero = builtin("zero")
    rng = stream(6, 0)
    out = _propose_one(zero, 1.0, 0.0, 1.0, rng, "tilted")
    assert out.log_weight_factor == 0.0
    assert out.mode == "tilted-exact"


def test_tilted_sine_unsupported_for_weighting():
    sine = builtin("sine")
    with pytest.raises(UnsupportedOperationError):
        proposal.propose(sine, [0.0], 0.0, 1.0, stream(7, 0), "tilted")


def test_sine_rejection_sampler_against_quadrature():
    sine = builtin("sine")
    rng = stream(8, 0)
    n = 100_000
    draws = np.empty(n)
    n_rej = 0
    for i in range(n):
        x, rej, mode = proposal.sample_tilted(sine, 0.0, 0.0, 1.0, rng)
        draws[i] = x
        n_rej += rej
        assert mode == "tilted-rejection"
    assert n_rej > 0

    # target density prop. to N(x; 0, 1) exp{cos(0) - cos(x)}
    def unnorm(x):
        return norm_pdf(x, 0.0, 1.0) * math.exp(1.0 - math.cos(x))

    z, _ = quad(unnorm, -9.0, 9.0, limit=200)
    # acceptance rate z / e^2 under the envelope e^2, estimated over all
    # n + n_rej trials
    trials = n + n_rej
    target = z / math.exp(2.0)
    assert abs(n / trials - target) < 4 * math.sqrt(target * (1 - target) / trials)

    xs = np.linspace(-9.0, 9.0, 20_001)
    pdf = np.array([unnorm(x) for x in xs]) / z
    cdf_grid = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2
                                                * np.diff(xs))])
    cdf_grid /= cdf_grid[-1]
    stat = kstest(draws, lambda v: np.interp(v, xs, cdf_grid))
    assert stat.pvalue > 1e-3


def test_weighting_identity_tanh():
    # exact density == gaussian * tilt * E[psi], with E[psi] = e^{-t/2}
    tanh = builtin("tanh")
    for x_a in (-2.0, 0.0, 1.3):
        for x_b in (-1.0, 0.4, 2.2):
            for t in (0.25, 1.0, 2.0):
                lhs = exact_transition_density(tanh, x_a, x_b, t)
                tilt = math.exp(float(tanh.big_a(x_b) - tanh.big_a(x_a)))
                rhs = norm_pdf(x_b, x_a, t) * tilt * math.exp(-t / 2)
                assert lhs == pytest.approx(rhs, rel=1e-12)


def test_mode_equivalence_tanh_filter():
    # gaussian and tilted proposals target the same filter; the
    # log-likelihood estimators share a mean
    tanh = builtin("tanh")
    obs = [(1.0, 0.4), (2.0, -0.1), (3.0, 0.9)]
    lls = {}
    for mode in ("gaussian", "tilted"):
        vals = np.empty(200)
        for seed in range(200):
            cfg = smc.FilterConfig(n_particles=128, x0=0.0, noise_sd=0.7,
                                   psi=PsiConfig(), proposal=mode,
                                   master_seed=seed)
            _, vals[seed] = smc.run_filter(tanh, obs, cfg)
        lls[mode] = vals
    diff = math.exp(lls["gaussian"].mean()) - math.exp(lls["tilted"].mean())
    se = math.hypot(
        np.exp(lls["gaussian"]).std(ddof=1) / math.sqrt(200) * 1.0,
        np.exp(lls["tilted"]).std(ddof=1) / math.sqrt(200) * 1.0,
    )
    assert abs(diff) < 4 * se


def test_understated_envelope_is_numeric_failure():
    # the sine tilt exp{cos(x_a) - cos(z)} reaches e^2, above the declared e^0.5
    understated = DriftModel(
        name="understated",
        alpha=np.sin, alpha_prime=np.cos,
        big_a=lambda u: 1.0 - np.cos(u),
        phi_bounds=(-0.5, 0.625),
        phi_scalar=lambda u: (math.sin(u) ** 2 + math.cos(u)) / 2.0,
        rejection_log_envelope=lambda x_a: 0.5,
    )
    rng = stream(9, 0)
    with pytest.raises(NumericError, match=r"'understated'.*x_a=0\.0"):
        for _ in range(1000):
            proposal.sample_tilted(understated, 0.0, 0.0, 1.0, rng)
    # with neither a sampler nor an envelope there is nothing to draw from
    bare = dataclasses.replace(understated, rejection_log_envelope=None)
    with pytest.raises(UnsupportedOperationError):
        proposal.sample_tilted(bare, 0.0, 0.0, 1.0, rng)


def test_rejection_trial_cap_surfaces_as_error(monkeypatch):
    # an absurdly loose envelope makes acceptance ~ e^{-30}: the capped
    # loop must error out instead of hanging
    sluggish = DriftModel(
        name="sluggish",
        alpha=np.sin, alpha_prime=np.cos,
        big_a=lambda u: 1.0 - np.cos(u),
        phi_bounds=(-0.5, 0.625),
        phi_scalar=lambda u: (math.sin(u) ** 2 + math.cos(u)) / 2.0,
        rejection_log_envelope=lambda x_a: 30.0,
    )
    monkeypatch.setattr(proposal, "MAX_REJECTION_TRIALS", 1000)
    with pytest.raises(NumericError, match="exceeded"):
        proposal.sample_tilted(sluggish, 0.0, 0.0, 1.0, stream(14, 0))


def test_unknown_mode_and_bad_interval():
    zero = builtin("zero")
    with pytest.raises(ValueError):
        proposal.propose(zero, [0.0], 0.0, 1.0, stream(13, 0), "laplace")
    with pytest.raises(ValueError):
        proposal.propose(zero, [0.0], 1.0, 1.0, stream(13, 1), "gaussian")


@pytest.mark.parametrize("name,mode", [
    ("sine", "gaussian"), ("tanh", "gaussian"), ("tanh", "tilted"), ("zero", "tilted"),
    ("sine-with-normalizer", "tilted"),   # the rejection sampler, particle by particle
])
def test_cloud_propose_matches_per_stream_loop(name, mode):
    # the reference on a twin stream: x_a + sqrt(t) z with z one array of
    # normals, or a sequential sample_tilted loop
    if name == "sine-with-normalizer":
        model = dataclasses.replace(builtin("sine"), tilted_log_normalizer=lambda x_a, t: 0.25)
    else:
        model = builtin(name)
    n, a, b = 64, 0.5, 1.75
    x_a = np.linspace(-3.0, 3.0, n)
    cloud_rng, loop_rng = stream(30, 0), stream(30, 0)
    out = proposal.propose(model, x_a, a, b, cloud_rng, mode)
    assert out.x_b.shape == out.log_weight_factor.shape == (n,)
    rejections = 0
    z = loop_rng.standard_normal(n) if mode == "gaussian" else None
    for i, x in enumerate(x_a.tolist()):
        if mode == "gaussian":
            x_b = x + math.sqrt(b - a) * z[i]
            lwf = float(model.big_a(x_b) - model.big_a(x))
        else:
            x_b, n_rej, _ = proposal.sample_tilted(model, x, a, b, loop_rng)
            lwf = float(model.tilted_log_normalizer(x, b - a))
            rejections += n_rej
        assert (out.x_b[i], out.log_weight_factor[i]) == (x_b, lwf), i
    assert type(out.n_rejections) is int and out.n_rejections == rejections
    assert (rejections > 0) == (name == "sine-with-normalizer")
    assert cloud_rng.random() == loop_rng.random()
