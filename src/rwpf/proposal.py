"""Particle propagation between observation times, for a whole cloud.

The transition density factorizes into a Gaussian kernel, the drift tilt
exp{A(x_b) - A(x_a)}, and the bridge functional expectation. Two
proposal modes cover the two ways of placing the tilt:

* ``gaussian``: sample x_b ~ N(x_a, b - a) and put the tilt in the
  weight. Always available.
* ``tilted``: sample x_b from the tilted kernel itself with the model's
  exact sampler; the weight then needs the kernel's normalizing constant
  in closed form. A model offers this mode only when it carries both
  (``supports_tilted``).

``propose`` moves every particle at once, drawing from the cloud's one
stream: the Gaussian kernel takes one array of N standard normals, the
tilted kernel is one call of the model's array sampler on that stream.
The landing points and log weight factors come back as arrays.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedOperationError
from .models import DriftModel

MODE_GAUSSIAN = "gaussian"
MODE_TILTED = "tilted"
PROPOSALS = (MODE_GAUSSIAN, MODE_TILTED)


@dataclass
class ProposalOutcome:
    x_b: np.ndarray                # (N,) landing points
    log_weight_factor: np.ndarray  # (N,) log of the weight term multiplying psi
    # always 0: both proposals draw exactly; perfbench/tracing.py's
    # _on_proposal still sums it into its proposal.rejections count
    n_rejections: int


def supports_tilted(model: DriftModel) -> bool:
    """Whether ``model`` has the exact sampler and normalizer the tilted proposal needs."""
    return model.tilted_sampler is not None and model.tilted_log_normalizer is not None


def propose(model: DriftModel, x_a, a: float, b: float, rng,
            mode: str) -> ProposalOutcome:
    """Move particle i from (a, x_a[i]) to time b, every draw from ``rng``."""
    t = b - a
    if t <= 0:
        raise ValueError(f"need b > a, got ({a}, {b})")
    x_a = np.asarray(x_a, dtype=np.float64)
    if mode == MODE_GAUSSIAN:
        x_b = x_a + math.sqrt(t) * rng.standard_normal(len(x_a))
        return ProposalOutcome(x_b, model.big_a(x_b) - model.big_a(x_a), 0)
    if mode != MODE_TILTED:
        raise ValueError(f"unknown proposal mode {mode!r}")
    if not supports_tilted(model):
        raise UnsupportedOperationError(
            f"model {model.name!r} lacks an exact tilted sampler or the tilted "
            "kernel's normalizer, so it cannot use the tilted proposal (use gaussian mode)"
        )
    log_norm = np.zeros(len(x_a)) + model.tilted_log_normalizer(x_a, t)
    return ProposalOutcome(model.tilted_sampler(x_a, t, rng), log_norm, 0)
