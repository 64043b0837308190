import collections
import dataclasses
import math

import numpy as np
import pytest
from cloud_replay import per_particle_estimates

from rwpf import bench, oracles, psi, smc
from rwpf.config import BenchConfig
from rwpf.errors import DegeneracyError, NumericError
from rwpf.models import DriftModel, builtin
from rwpf.rngs import stream


def test_init_cloud():
    cloud = smc.init_cloud(4, 1.5, 42)
    assert cloud.positions.tolist() == [1.5, 1.5, 1.5, 1.5]
    assert np.all(cloud.log_weights == 0.0)
    assert cloud.n == 4 and cloud.step_index == 0
    # two streams whatever the size: the cloud's and the resampling one
    again, larger = smc.init_cloud(4, 1.5, 42), smc.init_cloud(4096, 1.5, 42)
    assert all(a.bit_generator.state == b.bit_generator.state
               for other in (again, larger)
               for a, b in ((cloud.rng, other.rng),
                            (cloud.resample_rng, other.resample_rng)))
    assert cloud.rng.bit_generator.state != cloud.resample_rng.bit_generator.state
    smc.init_cloud(1, 0.0, 0)  # degenerate single-particle cloud is valid
    with pytest.raises(ValueError):
        smc.init_cloud(0, 0.0, 0)


def test_ess_examples():
    assert smc.ess(np.zeros(8)) == pytest.approx(8.0, rel=1e-12)
    one_hot = np.full(5, -np.inf)
    one_hot[2] = 0.0
    assert smc.ess(one_hot) == pytest.approx(1.0, rel=1e-12)
    w = np.log(np.array([0.5, 0.5, 1e-300, 1e-300]))
    assert smc.ess(w) == pytest.approx(2.0, rel=1e-9)
    with pytest.raises(ValueError):
        smc.ess(np.full(3, -np.inf))


def test_ess_stability_under_large_offsets():
    lw = np.array([1000.0, 1000.0, 1000.0, 1000.0])
    assert smc.ess(lw) == pytest.approx(4.0, rel=1e-12)
    assert smc.ess(lw - 2000.0) == pytest.approx(4.0, rel=1e-12)


@pytest.mark.parametrize("scheme", ["multinomial", "systematic", "stratified"])
def test_resample_one_hot(scheme):
    cloud = smc.init_cloud(6, 0.0, 1)
    cloud.positions[:] = np.arange(6.0)
    cloud.log_weights[:] = -np.inf
    cloud.log_weights[3] = 0.0
    out = smc.resample(cloud, scheme, stream(2, 0))
    assert np.all(out.positions == 3.0)
    assert np.all(out.log_weights == 0.0)
    assert smc.ess(out.log_weights) == out.n  # reset to uniform


def test_systematic_identity_at_zero_pivot():
    w = np.full(8, 1 / 8)
    idx = smc.pivot_indices(w, 0.0)
    assert idx.tolist() == list(range(8))


def test_multinomial_counts_clt():
    w = np.array([0.7, 0.3])
    n = 100_000
    counts = stream(3, 0).multinomial(n, w)
    assert abs(counts[0] / n - 0.7) < 4 * math.sqrt(0.21 / n)
    # through the API: offspring of a 2-particle cloud repeated
    idx = smc.multinomial_indices(w, stream(3, 1))
    assert len(idx) == 2


@pytest.mark.parametrize("scheme", ["multinomial", "systematic", "stratified"])
def test_resample_unbiased_offspring_counts(scheme):
    w = np.array([0.5, 0.25, 0.15, 0.1])
    n_rep = 20_000
    rng = stream(4, 0)
    counts = np.zeros(4)
    cloud = smc.init_cloud(4, 0.0, 5)
    cloud.positions[:] = np.arange(4.0)
    cloud.log_weights[:] = np.log(w)
    for _ in range(n_rep):
        out = smc.resample(cloud, scheme, rng)
        for j in range(4):
            counts[j] += np.sum(out.positions == j)
    expected = 4 * w * n_rep
    se = np.sqrt(4 * w * (1 - w) * n_rep)  # crude multinomial scale
    assert np.all(np.abs(counts - expected) < 5 * se)


def test_resample_preserves_mean_at_root_n_rate():
    rng = stream(5, 0)
    rmse = {}
    for n in (100, 1000, 10_000):
        cloud = smc.init_cloud(n, 0.0, 6)
        cloud.positions[:] = stream(6, n).normal(size=n)
        cloud.log_weights[:] = stream(7, n).normal(size=n)
        w = np.exp(cloud.log_weights - cloud.log_weights.max())
        w /= w.sum()
        target = float(np.dot(w, cloud.positions))
        errs = [np.mean(smc.resample(cloud, "multinomial", rng).positions) - target
                for _ in range(200)]
        rmse[n] = float(np.sqrt(np.mean(np.square(errs))))
    assert rmse[10_000] < rmse[100]
    # ratio ~ sqrt(100/10000) = 0.1; allow generous slack
    assert rmse[10_000] / rmse[100] < 0.4


def test_step_zero_drift_matches_kalman_statistically():
    zero = builtin("zero")
    obs = [(1.0, 0.5), (2.0, -0.3), (3.0, 1.1), (4.0, 0.2), (5.0, -0.9)]
    kalman = oracles.kalman_filter(0.0, [1.0] * 5, [y for _, y in obs], 1.0)
    n_runs = 100
    ratios = np.empty(n_runs)
    for seed in range(n_runs):
        cfg = smc.FilterConfig(n_particles=512, x0=0.0, noise_sd=1.0,
                               psi=psi.PsiConfig(), master_seed=seed)
        _, ll = smc.run_filter(zero, obs, cfg)
        ratios[seed] = math.exp(ll - kalman.log_likelihood)
    se = ratios.std(ddof=1) / math.sqrt(n_runs)
    assert abs(ratios.mean() - 1.0) < 4 * se


def test_tanh_likelihood_unbiased_vs_grid():
    tanh = builtin("tanh")
    obs = [(1.0, 0.6), (2.0, 1.1), (3.0, 0.2)]
    grid = oracles.grid_filter(tanh, obs, oracles.GridSpec(-10, 10, 2048),
                               0.0, 0.5)
    n_runs = 100
    ratios = np.empty(n_runs)
    for seed in range(n_runs):
        cfg = smc.FilterConfig(n_particles=256, x0=0.0, noise_sd=0.5,
                               psi=psi.PsiConfig(), master_seed=seed)
        _, ll = smc.run_filter(tanh, obs, cfg)
        ratios[seed] = math.exp(ll - grid.log_likelihood)
    se = ratios.std(ddof=1) / math.sqrt(n_runs)
    assert abs(ratios.mean() - 1.0) < 4 * se


def test_tanh_step_weight_structure():
    # with constant phi the weight estimate is deterministic: kappa = 0 always
    tanh = builtin("tanh")
    obs = [(1.0, 0.3), (2.0, 0.1)]
    cfg = smc.FilterConfig(n_particles=64, x0=0.0, noise_sd=0.5,
                           psi=psi.PsiConfig(), master_seed=9)
    reports, ll = smc.run_filter(tanh, obs, cfg)
    assert all(r.mean_kappa == 0.0 for r in reports)
    assert math.isfinite(ll)


def test_single_particle_filter():
    zero = builtin("zero")
    obs = [(1.0, 0.0), (2.0, 0.5)]
    cfg = smc.FilterConfig(n_particles=1, x0=0.0, noise_sd=1.0,
                           psi=psi.PsiConfig(), master_seed=3)
    reports, ll = smc.run_filter(zero, obs, cfg)
    assert ll == pytest.approx(sum(r.log_likelihood_increment for r in reports))
    assert not any(r.resampled for r in reports)
    assert all(r.ess == 1.0 for r in reports)


def test_empty_observations():
    zero = builtin("zero")
    cfg = smc.FilterConfig(n_particles=8, x0=0.0, noise_sd=1.0,
                           psi=psi.PsiConfig(), master_seed=1)
    reports, ll = smc.run_filter(zero, [], cfg)
    assert reports == [] and ll == 0.0


def test_run_filter_deterministic():
    sine = builtin("sine")
    obs = [(0.5, 0.2), (1.0, -0.4), (1.5, 0.6)]
    cfg = smc.FilterConfig(n_particles=32, x0=0.0, noise_sd=0.5,
                           psi=psi.PsiConfig(mode="rqmc-times-values",
                                             inner_points=8),
                           master_seed=77)
    r1, ll1 = smc.run_filter(sine, obs, cfg)
    r2, ll2 = smc.run_filter(sine, obs, cfg)
    assert ll1 == ll2
    assert r1 == r2


def test_resampling_triggers_and_resets_ess():
    zero = builtin("zero")
    # far-apart observations force weight collapse and resampling
    obs = [(1.0, 8.0), (2.0, -8.0)]
    cfg = smc.FilterConfig(n_particles=256, x0=0.0, noise_sd=0.3,
                           psi=psi.PsiConfig(), master_seed=21,
                           ess_threshold=0.5)
    reports, _ = smc.run_filter(zero, obs, cfg)
    assert any(r.resampled for r in reports)


def test_degeneracy_error(monkeypatch):
    zero = builtin("zero")

    def zero_estimates(model, a, b, x_a, x_b, cfg, rng):
        n = len(x_a)
        return psi.PsiEstimate(np.zeros(n), np.zeros(n, dtype=int), np.full(n, "mc"),
                               np.zeros(n, dtype=int))

    monkeypatch.setattr(smc.psi, "estimate_cloud", zero_estimates)
    cfg = smc.FilterConfig(n_particles=4, x0=0.0, noise_sd=1.0,
                           psi=psi.PsiConfig(), master_seed=2)
    with pytest.raises(DegeneracyError) as err:
        smc.run_filter(zero, [(1.0, 0.0)], cfg)
    assert err.value.step_index == 0


def test_negative_psi_is_invariant_violation(monkeypatch):
    # phi above its declared U makes weight factors negative; an even
    # number of them would multiply to a positive psi, so each factor is
    # checked, whatever the mode (kappa has mean 0.1 per unit of time)
    understated = dataclasses.replace(builtin("sine"), phi_bounds=(-0.5, -0.4))
    monkeypatch.setattr(smc, "validate_model", lambda model: model)
    for mode in psi.MODES:
        cfg = smc.FilterConfig(n_particles=16, x0=0.0, noise_sd=1.0,
                               psi=psi.PsiConfig(mode=mode, inner_points=4),
                               master_seed=2)
        with pytest.raises(NumericError, match="'sine'.*exceeds its upper bound"):
            smc.run_filter(understated, [(10.0, 0.0)], cfg)


def test_filter_config_validation():
    with pytest.raises(ValueError):
        smc.FilterConfig(n_particles=0, x0=0.0, noise_sd=1.0, psi=psi.PsiConfig())
    with pytest.raises(ValueError):
        smc.FilterConfig(n_particles=8, x0=0.0, noise_sd=0.0, psi=psi.PsiConfig())
    with pytest.raises(ValueError):
        smc.FilterConfig(n_particles=8, x0=0.0, noise_sd=1.0, psi=psi.PsiConfig(),
                         resampling="residual")
    with pytest.raises(ValueError):
        smc.run_filter(builtin("zero"), [(2.0, 0.0), (1.0, 0.0)],
                       smc.FilterConfig(n_particles=8, x0=0.0, noise_sd=1.0,
                                        psi=psi.PsiConfig()))


def test_posterior_tracking_against_grid_filter():
    # tanh posterior means from the particle filter track the deterministic
    # grid filter at the statistical rate
    tanh = builtin("tanh")
    obs = [(1.0, 0.8), (2.0, 1.4), (3.0, 0.9)]
    grid = oracles.grid_filter(tanh, obs, oracles.GridSpec(-10, 10, 2048),
                               0.0, 0.5)
    n, seeds = 4096, 20
    errs = np.zeros((seeds, len(obs)))
    for seed in range(seeds):
        cfg = smc.FilterConfig(n_particles=n, x0=0.0, noise_sd=0.5,
                               psi=psi.PsiConfig(), master_seed=seed)
        reports, _ = smc.run_filter(tanh, obs, cfg)
        errs[seed] = [r.posterior_mean for r in reports] - grid.posterior_means
    rmse = np.sqrt((errs**2).mean(axis=0))
    bound = 5 * np.sqrt(grid.posterior_vars) / math.sqrt(n)
    assert np.all(rmse <= bound)


def test_observation_times_rule():
    for ok in ([1.0, 2.0, 3.0], [0.5], []):
        smc.check_observation_times(ok)
    for bad in ([1.0, 1.0], [0.0, 1.0], [2.0, 1.0], [-1.0],
                [math.nan, 1.0], [1.0, math.nan], [1.0, math.inf]):
        with pytest.raises(ValueError, match="strictly increasing"):
            smc.check_observation_times(bad)


def test_unvalidated_custom_model_rejected_on_entry(monkeypatch):
    # sine drift with U understated: phi reaches 0.625
    understated = DriftModel(
        name="understated-u",
        alpha=np.sin, alpha_prime=np.cos,
        big_a=lambda u: 1.0 - np.cos(u),
        phi_bounds=(-0.5, 0.5),
        phi_scalar=lambda u: (math.sin(u) ** 2 + math.cos(u)) / 2.0,
    )
    calls = []
    monkeypatch.setattr(smc.proposal, "propose", lambda *a: calls.append(a))
    monkeypatch.setattr(bench.psi, "estimate_with_kappa", lambda *a: calls.append(a))
    cfg = smc.FilterConfig(n_particles=4, x0=0.0, noise_sd=1.0,
                           psi=psi.PsiConfig(), master_seed=3)
    with pytest.raises(ValueError, match="escapes"):
        smc.run_filter(understated, [(1.0, 0.0)], cfg)
    bcfg = BenchConfig(x_a=0.0, x_b=0.0, a=0.0, b=1.0, inner_points_grid=(1,),
                       replications=2, modes=("mc",))
    with pytest.raises(ValueError, match="escapes"):
        bench.run_bench(understated, bcfg, 3)
    assert calls == []


def _per_particle_cloud(model, a, b, x_a, x_b, cfg, rng):
    """estimate_cloud as a loop of psi.estimate_with_kappa, one particle at a
    time, in the cloud's draw order (see ``cloud_replay``)."""
    ests = per_particle_estimates(model, a, b, x_a, x_b, cfg, rng)
    return psi.PsiEstimate(*(np.array([getattr(e, f.name) for e in ests])
                             for f in dataclasses.fields(psi.PsiEstimate)))


@pytest.mark.parametrize("scheme", ["digital-shift", "owen-scramble"])
def test_cloud_weights_match_per_particle_loop(monkeypatch, scheme):
    # kappa cap 2 on unit gaps, so some particles fall back to mc
    sine = builtin("sine")
    obs = [(1.0, 0.4), (2.0, 1.3), (3.0, -0.2), (4.0, 2.5), (5.0, 0.9), (6.0, 3.4)]
    cfg = smc.FilterConfig(
        n_particles=64, x0=0.0, noise_sd=0.3, master_seed=31,
        psi=psi.PsiConfig(mode="rqmc-times-values", inner_points=8,
                          rqmc_kappa_cap=2, randomization=scheme))
    runs = []
    for cloud_fn in (psi.estimate_cloud, _per_particle_cloud):
        seen = []

        def recording(*args, cloud_fn=cloud_fn, seen=seen):
            seen.append(cloud_fn(*args))
            return seen[-1]

        monkeypatch.setattr(psi, "estimate_cloud", recording)
        runs.append((smc.run_filter(sine, obs, cfg), seen))
    ((reports, ll), clouds), ((ref_reports, ref_ll), ref_clouds) = runs
    assert any(r.resampled for r in reports)
    assert any((c.mode == psi.MODE_MC_FALLBACK).any() for c in clouds)
    assert ll == pytest.approx(ref_ll, rel=1e-12, abs=1e-9)
    for c, rc in zip(clouds, ref_clouds, strict=True):
        for field in ("kappa", "mode", "n_bridge_queries", "n_time_collisions"):
            assert getattr(c, field).tolist() == getattr(rc, field).tolist()
        assert c.value == pytest.approx(rc.value, rel=1e-12, abs=1e-15)
    for r, rr in zip(reports, ref_reports, strict=True):
        assert (r.time, r.resampled, r.mean_kappa) == (rr.time, rr.resampled, rr.mean_kappa)
        for field in ("ess", "log_likelihood_increment", "posterior_mean", "posterior_var"):
            assert getattr(r, field) == pytest.approx(getattr(rr, field), rel=1e-9)


class _CountingRng:
    """A Generator proxy that counts the calls made to it, by method."""

    def __init__(self, rng):
        self.rng, self.calls = rng, collections.Counter()

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return method(*args, **kwargs)

        return counted


@pytest.mark.parametrize("mode,per_group", [
    ("mc", {"random": 1, "standard_normal": 1}),
    ("rqmc-times-values", {"integers": 1}),
], ids=["mc-random", "rqmc-times-values-integers"])
def test_step_draw_calls_do_not_grow_with_the_cloud(monkeypatch, mode, per_group):
    # one step draws one array of proposal normals, one of kappas, and per
    # distinct kappa one array of time uniforms and one of normals, or one
    # of digital shifts, whatever the number of particles; only the number
    # of distinct kappas varies with N
    sine = builtin("sine")
    cfg = psi.PsiConfig(mode=mode, inner_points=4, randomization="digital-shift")
    estimate_cloud, kappas = psi.estimate_cloud, []

    def recording(*args):
        est = estimate_cloud(*args)
        kappas.append(est.kappa)
        return est

    monkeypatch.setattr(psi, "estimate_cloud", recording)
    per_step = {}
    for n in (64, 4096):
        cloud = smc.init_cloud(n, 0.0, 3)
        counting = _CountingRng(cloud.rng)
        smc.step(dataclasses.replace(cloud, rng=counting), sine, (1.0, 0.3, 0.5),
                 (0.0, 1.0), cfg)
        groups = len(set(kappas[-1].tolist()) - {0})
        assert groups > 0
        expected = collections.Counter({"standard_normal": 1, "poisson": 1})
        for _ in range(groups):
            expected.update(per_group)
        assert counting.calls == expected, n
        per_step[n] = sum(counting.calls.values()) - groups * sum(per_group.values())
    assert per_step[64] == per_step[4096] == 2
