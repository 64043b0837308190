import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from rwpf import proposal, smc
from rwpf.errors import UnsupportedOperationError
from rwpf.models import builtin, exact_transition_density
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
        assert out.n_rejections == 0


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


def test_tilted_sine_unsupported_for_weighting():
    sine = builtin("sine")
    with pytest.raises(UnsupportedOperationError):
        proposal.propose(sine, [0.0], 0.0, 1.0, stream(7, 0), "tilted")


def test_tilted_normalizer_without_sampler_unsupported():
    no_sampler = dataclasses.replace(builtin("tanh"), tilted_sampler=None)
    with pytest.raises(UnsupportedOperationError):
        proposal.propose(no_sampler, [0.0], 0.0, 1.0, stream(7, 1), "tilted")


def test_tilted_tanh_far_from_origin():
    # exp(-2 x_a) overflows below x_a = -354.9; the mixture weight of the
    # x_a + t component is then 0 (and 1 at x_a = +400)
    tanh = builtin("tanh")
    x_a = np.array([-400.0, 400.0])
    for seed in range(20):
        x_b = proposal.propose(tanh, x_a, 0.0, 1.0, stream(15, seed), "tilted").x_b
        assert np.all(np.abs(x_b - (x_a + np.array([-1.0, 1.0]))) < 6.0)


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


def test_unknown_mode_and_bad_interval():
    zero = builtin("zero")
    with pytest.raises(ValueError):
        proposal.propose(zero, [0.0], 0.0, 1.0, stream(13, 0), "laplace")
    with pytest.raises(ValueError):
        proposal.propose(zero, [0.0], 1.0, 1.0, stream(13, 1), "gaussian")


@pytest.mark.parametrize("name,mode", [
    ("sine", "gaussian"), ("tanh", "gaussian"), ("tanh", "tilted"), ("zero", "tilted"),
])
def test_cloud_propose_matches_per_stream_loop(name, mode):
    # the reference on a twin stream: x_a + sqrt(t) z with z one array of
    # normals; tanh's tilted mixture first draws one array of uniforms
    # that pick each particle's component, x_a + t or x_a - t
    model = builtin(name)
    n, a, b = 64, 0.5, 1.75
    x_a = np.linspace(-3.0, 3.0, n)
    cloud_rng, loop_rng = stream(30, 0), stream(30, 0)
    out = proposal.propose(model, x_a, a, b, cloud_rng, mode)
    assert out.x_b.shape == out.log_weight_factor.shape == (n,)
    u = loop_rng.random(n) if (name, mode) == ("tanh", "tilted") else None
    z = loop_rng.standard_normal(n)
    for i, x in enumerate(x_a.tolist()):
        mean = x
        if u is not None:
            mean = x + (b - a) if u[i] < 1 / (1 + math.exp(-2 * x)) else x - (b - a)
        x_b = mean + math.sqrt(b - a) * z[i]
        if mode == "gaussian":
            lwf = float(model.big_a(x_b) - model.big_a(x))
        else:
            lwf = float(model.tilted_log_normalizer(x, b - a))
        assert (out.x_b[i], out.log_weight_factor[i]) == (x_b, lwf), i
    assert type(out.n_rejections) is int and out.n_rejections == 0
    assert cloud_rng.random() == loop_rng.random()
