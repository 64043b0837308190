"""Particle propagation between observation times, for a whole cloud.

The transition density factorizes into a Gaussian kernel, the drift tilt
exp{A(x_b) - A(x_a)}, and the bridge functional expectation. Two
proposal modes cover the two ways of placing the tilt:

* ``gaussian``: sample x_b ~ N(x_a, b - a) and put the tilt in the
  weight. Always available.
* ``tilted``: sample x_b from the tilted kernel itself (exactly, or by
  rejection under a model-declared envelope); the weight then needs the
  kernel's normalizing constant in closed form, so this mode requires
  the ``tilted_normalizer`` capability.

``propose`` moves every particle at once, drawing from the cloud's one
stream: the Gaussian kernel takes one array of N standard normals, the
tilted kernel calls ``sample_tilted`` particle by particle on that
stream. The landing points and log weight factors come back as arrays.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, UnsupportedOperationError
from .models import DriftModel

MODE_GAUSSIAN = "gaussian"
MODE_TILTED = "tilted"
PROPOSALS = (MODE_GAUSSIAN, MODE_TILTED)
# outcome tags of the tilted proposal
MODE_TILTED_EXACT = "tilted-exact"
MODE_TILTED_REJECTION = "tilted-rejection"

MAX_REJECTION_TRIALS = 10**6


@dataclass
class ProposalOutcome:
    x_b: np.ndarray                # (N,) landing points
    log_weight_factor: np.ndarray  # (N,) log of the weight term multiplying psi
    n_rejections: int              # rejected trials over the cloud
    mode: str


def sample_tilted(model: DriftModel, x_a: float, a: float, b: float,
                  rng) -> tuple[float, int, str]:
    """Draw x_b proportional to N(x_b; x_a, b-a) exp{A(x_b) - A(x_a)}.

    Uses the model's exact sampler when present, otherwise rejection
    from N(x_a, b-a) under the declared envelope. Returns
    (x_b, n_rejections, mode).
    """
    t = b - a
    if t <= 0:
        raise ValueError(f"need b > a, got ({a}, {b})")
    if model.tilted_sampler is not None:
        return model.tilted_sampler(x_a, t, rng), 0, MODE_TILTED_EXACT
    if model.rejection_log_envelope is None:
        raise UnsupportedOperationError(
            f"model {model.name!r} has neither a tilted sampler nor a rejection envelope"
        )
    log_env = model.rejection_log_envelope(x_a)
    a_at_xa = float(model.big_a(x_a))
    sqrt_t = math.sqrt(t)
    for trial in range(MAX_REJECTION_TRIALS):
        z = x_a + sqrt_t * rng.normal()
        log_acc = float(model.big_a(z)) - a_at_xa - log_env
        if log_acc > 1e-12:
            raise NumericError(
                f"rejection envelope of model {model.name!r} does not dominate "
                f"the tilt at x_a={x_a} (log acceptance {log_acc} at z={z})"
            )
        if rng.random() < math.exp(log_acc):
            return z, trial, MODE_TILTED_REJECTION
    raise NumericError(
        f"tilted rejection sampler exceeded {MAX_REJECTION_TRIALS} trials "
        f"(model {model.name!r}, x_a={x_a}, t={t}); envelope looks pathological"
    )


def propose(model: DriftModel, x_a, a: float, b: float, rng,
            mode: str) -> ProposalOutcome:
    """Move particle i from (a, x_a[i]) to time b, every draw from ``rng``."""
    t = b - a
    if t <= 0:
        raise ValueError(f"need b > a, got ({a}, {b})")
    x_a = np.asarray(x_a, dtype=np.float64)
    if mode == MODE_GAUSSIAN:
        x_b = x_a + math.sqrt(t) * rng.standard_normal(len(x_a))
        return ProposalOutcome(x_b, model.big_a(x_b) - model.big_a(x_a), 0, mode)
    if mode != MODE_TILTED:
        raise ValueError(f"unknown proposal mode {mode!r}")
    if model.tilted_log_normalizer is None:
        raise UnsupportedOperationError(
            f"model {model.name!r} lacks the tilted_normalizer capability; "
            "its tilted kernel cannot be used for weighting (use gaussian mode)"
        )
    x_b, n_rej, tags = zip(*(sample_tilted(model, x, a, b, rng) for x in x_a.tolist()))
    log_norm = np.zeros(len(x_a)) + model.tilted_log_normalizer(x_a, t)
    return ProposalOutcome(np.array(x_b), log_norm, sum(n_rej), tags[0])
