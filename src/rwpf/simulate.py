"""Synthetic data generation for the filtering experiments.

The latent path starts at the known x0. Models with constant phi and an
exact tilted sampler (zero drift, tanh), whose tilted kernel is then the
transition law, are advanced by exact draws between observation times;
everything else uses fine Euler-Maruyama with a configurable resolution.
Observations add Gaussian noise, with sigma = 0 permitted to produce
exact observations.
"""

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .config import RunConfig, euler_steps
from .models import DriftModel, has_exact_transition
from .rngs import NS_SIMULATE, stream


@dataclass(frozen=True)
class Dataset:
    model_name: str
    model_params: dict
    x0: float
    noise_sd: float
    seed: int
    times: tuple[float, ...]
    latent: tuple[float, ...]
    observations: tuple[float, ...]
    config_hash: str
    fine_path: tuple[tuple[float, ...], tuple[float, ...]] | None = None

    def to_dict(self) -> dict:
        out = {
            "schema": "rwpf-dataset-v1",
            "config_hash": self.config_hash,
            "model": {"name": self.model_name, **self.model_params},
            "x0": self.x0,
            "noise_sd": self.noise_sd,
            "seed": self.seed,
            "times": list(self.times),
            "latent": list(self.latent),
            "observations": list(self.observations),
        }
        if self.fine_path is not None:
            out["fine_path"] = {"times": list(self.fine_path[0]),
                                "values": list(self.fine_path[1])}
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "Dataset":
        fine = raw.get("fine_path")
        model = dict(raw["model"])
        return cls(
            model_name=model.pop("name"),
            model_params=model,
            x0=float(raw["x0"]),
            noise_sd=float(raw["noise_sd"]),
            seed=int(raw["seed"]),
            times=tuple(float(t) for t in raw["times"]),
            latent=tuple(float(v) for v in raw["latent"]),
            observations=tuple(float(v) for v in raw["observations"]),
            config_hash=raw["config_hash"],
            fine_path=None if fine is None else
            (tuple(fine["times"]), tuple(fine["values"])),
        )


def _euler_segment(model: DriftModel, x0: float, a: float, b: float,
                   steps_per_unit: int, rng) -> tuple[Iterator[float], list[float]]:
    """The fine grid's times on (a, b], lazily, since only a stored fine
    path reads them, and the Euler path's values on them."""
    n = euler_steps(b - a, steps_per_unit)
    dt = (b - a) / n
    ts = (a + dt * k for k in range(1, n + 1))
    xs = []
    x = x0
    alpha = model.alpha
    # Python floats in the loop: numpy scalars cost more per step
    for dw in (math.sqrt(dt) * rng.standard_normal(n)).tolist():
        x = x + float(alpha(x)) * dt + dw
        xs.append(x)
    return ts, xs


def simulate(cfg: RunConfig) -> Dataset:
    """Generate a latent path and noisy observations per the config."""
    model = cfg.build_model()
    rng = stream(cfg.seed, NS_SIMULATE)
    times = cfg.observation_times

    latent = []
    fine_t: list[float] = []
    fine_x: list[float] = []
    x = float(cfg.x0)
    prev_t = 0.0
    exact = has_exact_transition(model)
    for t in times:
        if exact:
            x = float(model.tilted_sampler(x, t - prev_t, rng))
        else:
            ts, xs = _euler_segment(model, x, prev_t, t, cfg.euler_steps_per_unit, rng)
            x = xs[-1]
            if cfg.store_fine_path:
                fine_t.extend(ts)
                fine_x.extend(xs)
        latent.append(x)
        prev_t = t

    if cfg.noise_sd > 0:
        obs = np.asarray(latent) + cfg.noise_sd * rng.standard_normal(len(latent))
        observations = tuple(float(y) for y in obs)
    else:
        observations = tuple(latent)

    return Dataset(
        model_name=cfg.model_name,
        model_params=dict(cfg.model_params),
        x0=cfg.x0,
        noise_sd=cfg.noise_sd,
        seed=cfg.seed,
        times=times,
        latent=tuple(latent),
        observations=observations,
        config_hash=cfg.dataset_hash(),
        fine_path=(tuple(fine_t), tuple(fine_x))
        if cfg.store_fine_path and not exact else None,
    )
