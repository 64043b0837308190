import dataclasses

import numpy as np
import pytest

from rwpf import models
from rwpf.config import ConfigError, content_hash, parse_config
from rwpf.models import exact_transition_density, builtin
from rwpf.simulate import Dataset, simulate


def _base_config(**overrides):
    raw = {
        "model": {"name": "sine"},
        "x0": 0.0,
        "observation_times": [1.0, 2.0, 3.0],
        "noise_sd": 0.5,
        "seed": 7,
    }
    raw.update(overrides)
    return raw


_BENCH = {"x_a": 0.0, "x_b": 1.0, "a": 0.0, "b": 1.0,
          "inner_points_grid": [4], "replications": 10}
_ORACLE = {"kind": "psi-bruteforce", "x_a": 0.0, "x_b": 0.0, "a": 0.0, "b": 1.0}


def test_parse_minimal_and_defaults():
    cfg = parse_config(_base_config())
    assert cfg.model_name == "sine"
    assert cfg.n_particles == 256
    assert cfg.psi_cfg.mode == "mc"
    assert cfg.proposal == "gaussian"
    assert cfg.resampling == "systematic"
    assert cfg.observation_times == (1.0, 2.0, 3.0)


def test_parse_full():
    cfg = parse_config(_base_config(
        particles=64,
        psi={"mode": "rqmc-times-values", "inner_points": 32, "kappa_cap": 16,
             "randomization": "owen-scramble"},
        proposal="tilted",
        model={"name": "tanh"},
        resampling={"scheme": "stratified", "ess_threshold": 0.7},
        euler_steps_per_unit=500,
        store_fine_path=True,
    ))
    assert cfg.psi_cfg.inner_points == 32
    assert cfg.psi_cfg.rqmc_kappa_cap == 16
    assert cfg.resampling == "stratified"
    assert cfg.store_fine_path


def test_observation_times_expansion():
    cfg = parse_config(_base_config(
        observation_times={"count": 4, "spacing": 0.5}))
    assert cfg.observation_times == (0.5, 1.0, 1.5, 2.0)


def test_rqmc_mode_alias_selects_default_layout():
    cfg = parse_config(_base_config(psi={"mode": "rqmc", "inner_points": 8}))
    assert cfg.psi_cfg.mode == "rqmc-times-values"


@pytest.mark.parametrize("mutation,fragment", [
    (dict(seed=None), "seed"),
    (dict(model={"name": "nope"}), "model"),
    (dict(model={"noname": True}), "model.name"),
    (dict(observation_times=[2.0, 1.0]), "observation_times"),
    (dict(observation_times=[0.0, 1.0]), "observation_times"),
    (dict(noise_sd=-1.0), "noise_sd"),
    (dict(particles=0), "particles"),
    (dict(proposal="fancy"), "proposal"),
    (dict(psi={"mode": "bogus"}), "psi"),
    (dict(psi={"mode": "mc", "oops": 1}), "psi"),
    (dict(resampling={"scheme": "residual"}), "resampling.scheme"),
    (dict(euler_steps_per_unit=10), "euler_steps_per_unit"),
    (dict(unknown_top_level=1), "unknown"),
    (dict(observation_times={"count": True, "spacing": True}), "observation_times"),
    (dict(observation_times={"count": 2, "spacing": True}), "observation_times"),
    (dict(bench={**_BENCH, "inner_points_grid": [True]}), "bench.inner_points_grid"),
    (dict(bench={**_BENCH, "randomization": "none"}), "bench.randomization"),
    (dict(bench={**_BENCH, "kappa_cap": 0}), "bench.kappa_cap"),
    (dict(x0=float("nan")), "x0"),
    (dict(x0=10**400), "x0"),
    (dict(model={"name": "scaled-sine", "theta": float("nan")}), "model.theta"),
    (dict(observation_times=[1.0, float("inf")]), "observation_times"),
    (dict(observation_times={"count": 2, "spacing": float("nan")}), "observation_times"),
    (dict(observation_times={"count": 2, "spacing": 1e308}), "observation_times"),
    (dict(oracle={**_ORACLE, "x_a": None}), "oracle.x_a"),
    (dict(oracle={**_ORACLE, "x_a": True}), "oracle.x_a"),
    (dict(oracle={**_ORACLE, "n_pathz": 5000}), "oracle"),
    (dict(oracle={k: v for k, v in _ORACLE.items() if k != "x_a"}), "oracle.x_a"),
    (dict(oracle={"kind": "grid-filter", "dataset": "d.json",
                  "grid": {"lo": 0.0, "hi": 1.0, "n_cells": True}}), "oracle.grid.n_cells"),
    (dict(observation_times={"count": 3, "spacing": 0.5, "start": 10.0}), "observation_times"),
    (dict(bench={**_BENCH, "modes": [["mc"]]}), "bench.modes"),
    (dict(model={"name": "scaled-sine", "theta": True}), "model.theta"),
    (dict(model={"name": "scaled-sine", "theta": "2"}), "model.theta"),
    (dict(psi={"mode": "rqmc-times", "inner_points": 2**31 + 1}), "psi"),
    (dict(bench={**_BENCH, "modes": ["mc", "rqmc-times-values"],
                 "inner_points_grid": [4, 2**31 + 1]}), "bench"),
])
def test_parse_field_errors(mutation, fragment):
    raw = _base_config()
    for key, value in mutation.items():
        if value is None:
            raw.pop(key, None)
        else:
            raw[key] = value
    with pytest.raises(ConfigError, match=fragment.split(".")[0]):
        parse_config(raw)


def test_point_count_cap_exempts_mc():
    # the 2**31 cap bounds the point sets; mc draws no point set
    over = 2**31 + 1
    assert parse_config(_base_config(psi={"mode": "mc", "inner_points": over})
                        ).psi_cfg.inner_points == over
    cfg = parse_config(_base_config(bench={**_BENCH, "modes": ["mc"],
                                           "inner_points_grid": [over]}))
    assert cfg.bench.inner_points_grid == (over,)


def test_bench_modes_must_be_distinct():
    # "rqmc" names rqmc-times-values, so listing both runs one mode twice
    with pytest.raises(ConfigError, match="bench.modes: duplicate"):
        parse_config(_base_config(bench={**_BENCH, "modes": ["mc", "rqmc", "rqmc-times-values"]}))
    with pytest.raises(ConfigError, match="bench.modes: duplicate"):
        parse_config(_base_config(bench={**_BENCH, "modes": ["mc", "mc"]}))
    cfg = parse_config(_base_config(bench={**_BENCH, "modes": ["mc", "rqmc"]}))
    assert cfg.bench.modes == ("mc", "rqmc-times-values")


def test_tilted_requires_normalizer_capability(monkeypatch):
    with pytest.raises(ConfigError, match="tilted"):
        parse_config(_base_config(proposal="tilted"))  # sine lacks both
    parse_config(_base_config(proposal="tilted", model={"name": "tanh"}))
    # a normalizer without an exact sampler is refused too
    no_sampler = dataclasses.replace(builtin("tanh"), tilted_sampler=None)
    monkeypatch.setattr(models, "builtin", lambda name, **params: no_sampler)
    with pytest.raises(ConfigError, match="tilted"):
        parse_config(_base_config(proposal="tilted", model={"name": "tanh"}))


def test_hash_sensitivity():
    cfg1 = parse_config(_base_config())
    cfg2 = parse_config(_base_config(seed=8))
    cfg3 = parse_config(_base_config(particles=512))
    assert cfg1.config_hash() != cfg2.config_hash()
    assert cfg1.dataset_hash() != cfg2.dataset_hash()
    # particle count is filter-side only: dataset binding unchanged
    assert cfg1.dataset_hash() == cfg3.dataset_hash()
    assert cfg1.config_hash() != cfg3.config_hash()
    assert content_hash({"a": 1, "b": 2}) == content_hash({"b": 2, "a": 1})


def test_simulate_deterministic_and_exact_observations():
    cfg = parse_config(_base_config(model={"name": "zero"}, noise_sd=0.0))
    ds1 = simulate(cfg)
    ds2 = simulate(cfg)
    assert ds1 == ds2
    assert ds1.observations == ds1.latent  # sigma = 0
    noisy = simulate(parse_config(_base_config(model={"name": "zero"})))
    assert noisy.observations != noisy.latent


def test_simulate_roundtrip_dict():
    cfg = parse_config(_base_config(store_fine_path=True))
    ds = simulate(cfg)
    assert ds.fine_path is not None  # sine path comes from the Euler scheme
    again = Dataset.from_dict(ds.to_dict())
    assert again == ds


def test_simulate_exact_sampler_matches_density():
    # one-step transitions drawn by the exact tanh sampler reproduce the
    # closed-form transition density
    cfg = parse_config(_base_config(model={"name": "tanh"},
                                    observation_times=[1.0], noise_sd=0.0))
    n = 10_000
    draws = np.empty(n)
    for seed in range(n):
        ds = simulate(parse_config(_base_config(model={"name": "tanh"},
                                                observation_times=[1.0],
                                                noise_sd=0.0, seed=seed)))
        draws[seed] = ds.latent[0]
    tanh = builtin("tanh")
    edges = np.linspace(-4, 4, 33)
    counts, _ = np.histogram(draws, bins=edges)
    width = edges[1] - edges[0]
    centers = 0.5 * (edges[:-1] + edges[1:])
    target = exact_transition_density(tanh, 0.0, centers, 1.0)
    p = target * width
    se = np.sqrt(p * (1 - p) / n) / width
    mask = p * n > 20
    assert np.all(np.abs(counts[mask] / (n * width) - target[mask]) < 4 * se[mask])
    assert cfg.dataset_hash()  # config itself is valid


def test_simulate_latent_length_matches_times():
    cfg = parse_config(_base_config(observation_times=[0.3, 0.9, 2.7]))
    ds = simulate(cfg)
    assert len(ds.latent) == 3 and len(ds.observations) == 3
    assert ds.config_hash == cfg.dataset_hash()
