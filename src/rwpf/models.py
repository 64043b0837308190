"""Scalar diffusion models dX = alpha(X) dt + dB with everything the
weight estimators need: the drift, its derivative and antiderivative,
the path functional phi = (alpha^2 + alpha')/2 with global bounds, and
optional closed-form extras (exact transition density, exact tilted
sampler, tilted normalizing constant).

Models are immutable and validated once, by ``builtin`` or on entry to
the filter and the benchmark: the (A, alpha, alpha') triple must pass
finite-difference consistency checks and the declared bounds must
dominate phi on a dense grid, which is what rejects drifts with
unbounded phi such as alpha(x) = -theta*x.

Conventions: unit diffusion coefficient, A(0) = 0.
"""

import math
import weakref
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import UnsupportedOperationError
from .stats import _LOG_2PI


@dataclass(frozen=True, eq=False)
class DriftModel:
    """A drift specification plus whatever closed forms it admits.

    ``alpha``, ``alpha_prime`` and ``big_a`` accept scalars or arrays;
    the estimators evaluate phi through them on arrays (``phi``).
    ``phi_scalar`` is phi for one float, for scalar checks against the
    array form, and must agree with (alpha^2 + alpha')/2 pointwise.
    """

    name: str
    alpha: Callable
    alpha_prime: Callable
    big_a: Callable
    phi_bounds: tuple[float, float]
    phi_scalar: Callable
    params: dict = field(default_factory=dict)
    # log p_t(x_b | x_a); broadcasting over x_a/x_b
    exact_log_density: Callable | None = None
    # (x_a, t, rng) -> x_b distributed prop. to N(x_b; x_a, t) exp{A(x_b)-A(x_a)},
    # one independent draw per element of the array x_a, in one array call
    tilted_sampler: Callable | None = None
    # (x_a, t) -> log of the tilted kernel's normalizing constant
    tilted_log_normalizer: Callable | None = None


def has_exact_transition(model: DriftModel) -> bool:
    """Whether the tilted sampler draws the transition law itself: it does
    when phi is constant, since the weight exp(-int phi) is then constant."""
    return model.phi_bounds[0] == model.phi_bounds[1] and model.tilted_sampler is not None


def phi(model: DriftModel, u):
    """(alpha(u)^2 + alpha'(u)) / 2, scalar or array."""
    a = model.alpha(u)
    return (a * a + model.alpha_prime(u)) / 2.0


def exact_transition_density(model: DriftModel, x_a, x_b, t):
    """Transition density p_t(x_b | x_a) for models that carry it."""
    if model.exact_log_density is None:
        raise UnsupportedOperationError(
            f"model {model.name!r} has no closed-form transition density"
        )
    if t <= 0:
        raise ValueError("t must be > 0")
    return np.exp(model.exact_log_density(x_a, x_b, t))


PHI_TOL = 1e-9  # how far phi may stray past its declared bounds

_VALIDATED = weakref.WeakSet()  # models that have passed validate_model


def validate_model(model: DriftModel) -> DriftModel:
    """Derivative/antiderivative consistency and bound domination, checked
    on grids; raises ValueError on any failure. A model that has passed
    once is not checked again."""
    if model in _VALIDATED:
        return model
    h, tol = 1e-5, 1e-6
    x = np.arange(-5.0, 5.0 + 1e-12, 0.1)
    fd_alpha_prime = (model.alpha(x + h) - model.alpha(x - h)) / (2 * h)
    if not np.all(np.abs(model.alpha_prime(x) - fd_alpha_prime) <= tol):
        raise ValueError(f"model {model.name!r}: alpha_prime inconsistent with alpha")
    fd_alpha = (model.big_a(x + h) - model.big_a(x - h)) / (2 * h)
    if not np.all(np.abs(model.alpha(x) - fd_alpha) <= tol):
        raise ValueError(f"model {model.name!r}: alpha inconsistent with big_a")

    lo, hi = -20.0, 20.0
    grid = np.linspace(lo, hi, 100_000)
    vals = phi(model, grid)
    l_bound, u_bound = model.phi_bounds
    if l_bound > u_bound:
        raise ValueError(f"model {model.name!r}: phi_bounds out of order")
    if vals.min() < l_bound - PHI_TOL or vals.max() > u_bound + PHI_TOL:
        raise ValueError(
            f"model {model.name!r}: phi escapes [{l_bound}, {u_bound}] "
            f"on [{lo}, {hi}] (observed range [{vals.min()}, {vals.max()}])"
        )
    scal = np.array([model.phi_scalar(float(u)) for u in x])
    if not np.allclose(scal, phi(model, x), rtol=0, atol=1e-12):
        raise ValueError(f"model {model.name!r}: phi_scalar disagrees with phi")
    _VALIDATED.add(model)
    return model


def _gauss_log_density(x_a, x_b, t):
    d = np.asarray(x_b) - np.asarray(x_a)
    return -0.5 * (_LOG_2PI + np.log(t) + d * d / t)


def _log_cosh(x):
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax)) - math.log(2.0)


def _make_zero() -> DriftModel:
    zero_of = lambda u: np.zeros_like(np.asarray(u, dtype=float)) + 0.0

    def sampler(x_a, t, rng):
        return x_a + math.sqrt(t) * rng.standard_normal(np.shape(x_a))

    return DriftModel(
        name="zero",
        alpha=zero_of,
        alpha_prime=zero_of,
        big_a=zero_of,
        phi_bounds=(0.0, 0.0),
        phi_scalar=lambda u: 0.0,
        exact_log_density=_gauss_log_density,
        tilted_sampler=sampler,
        tilted_log_normalizer=lambda x_a, t: 0.0,
    )


def _make_tanh() -> DriftModel:
    def log_density(x_a, x_b, t):
        return (_gauss_log_density(x_a, x_b, t)
                + _log_cosh(x_b) - _log_cosh(x_a) - t / 2.0)

    def sampler(x_a, t, rng):
        # p-tilde is the two-component Gaussian mixture
        #   e^{x_a}/(2 cosh x_a) N(x_a + t, t) + e^{-x_a}/(2 cosh x_a) N(x_a - t, t);
        # below x_a = -354.9 the exp overflows to inf and w_plus is 0
        with np.errstate(over="ignore"):
            w_plus = 1.0 / (1.0 + np.exp(-2.0 * x_a))
        u = rng.random(np.shape(x_a))
        z = rng.standard_normal(np.shape(x_a))
        return np.where(u < w_plus, x_a + t, x_a - t) + math.sqrt(t) * z

    return DriftModel(
        name="tanh",
        alpha=np.tanh,
        alpha_prime=lambda u: 1.0 / np.cosh(u) ** 2,
        big_a=_log_cosh,
        phi_bounds=(0.5, 0.5),
        phi_scalar=lambda u: 0.5,
        exact_log_density=log_density,
        tilted_sampler=sampler,
        tilted_log_normalizer=lambda x_a, t: t / 2.0,
    )


def _scaled_sine_bounds(theta: float) -> tuple[float, float]:
    # phi as a function of c = cos(x): (theta^2 (1 - c^2) + theta c) / 2 on [-1, 1].
    # Downward parabola with vertex c* = 1/(2 theta); interior max when |c*| <= 1.
    at = abs(theta)
    upper = theta * theta / 2.0 + 0.125 if at >= 0.5 else at / 2.0
    return (-at / 2.0, upper)


def _make_scaled_sine(theta: float) -> DriftModel:
    th = float(theta)

    def a_prime(u):
        return th * np.cos(u)

    def big_a(u):
        return th * (1.0 - np.cos(u))

    def phi_scalar(u):
        s = math.sin(u)
        return (th * th * s * s + th * math.cos(u)) / 2.0

    def alpha(u):
        # simulate's Euler loop passes Python floats, where math.sin costs a
        # quarter of np.sin; both call the C library's sin on glibc builds,
        # so the bits agree (tests/test_models.py holds them to it)
        if type(u) is float:
            try:
                return th * math.sin(u)
            except ValueError:  # u is +-inf, where np.sin gives nan
                return float(th * np.sin(u))
        return th * np.sin(u)

    name = "sine" if th == 1.0 else "scaled-sine"
    return DriftModel(
        name=name,
        alpha=alpha,
        alpha_prime=a_prime,
        big_a=big_a,
        phi_bounds=_scaled_sine_bounds(th),
        phi_scalar=phi_scalar,
        params={} if th == 1.0 else {"theta": th},
    )


_BUILTINS: dict[str, Callable[..., DriftModel]] = {
    "zero": _make_zero,
    "tanh": _make_tanh,
    "sine": lambda: _make_scaled_sine(1.0),
    "scaled-sine": _make_scaled_sine,
}


_CACHE: dict[tuple, DriftModel] = {}


def builtin(name: str, **params) -> DriftModel:
    """Construct and validate a built-in model by name.

    ``scaled-sine`` takes ``theta``; the other names take no parameters.
    Models are immutable, so repeated requests share one instance.
    """
    key = (name, tuple(sorted(params.items())))
    try:
        return _CACHE[key]
    except (KeyError, TypeError):
        pass
    factory = _BUILTINS.get(name)
    if factory is None:
        raise ValueError(f"unknown model {name!r}; known: {sorted(_BUILTINS)}")
    try:
        model = factory(**params)
    except TypeError as exc:
        raise ValueError(f"bad parameters for model {name!r}: {exc}") from None
    validate_model(model)
    _CACHE[key] = model
    return model
