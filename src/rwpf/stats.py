"""Probability helpers.

`invnorm` is Wichura's AS 241 / PPND16 rational approximation of the
standard normal quantile function (absolute error below 1e-15 over the
open unit interval, far inside the 1e-9 budget the bridge sampler needs).
It serves ``LazyBridge``'s one-at-a-time queries, which take one uniform
per Gaussian and are the scalar reference for the estimators. The
estimators' array kernel needs an inverse normal only for the point-set
value uniforms of ``rqmc-times-values``, and uses ``scipy.special.ndtri``
there; the other modes draw standard normals directly. The test suite
checks ``invnorm`` against ``ndtri``. `logsumexp` is the
particle filter's log-sum-exp of its log-weights, in numpy.
"""

import math

import numpy as np

_LOG_2PI = math.log(2.0 * math.pi)

# AS 241 PPND16 coefficients (central, middle and tail rational functions).
_A = (3.3871328727963666080e0, 1.3314166789178437745e2,
      1.9715909503065514427e3, 1.3731693765509461125e4,
      4.5921953931549871457e4, 6.7265770927008700853e4,
      3.3430575583588128105e4, 2.5090809287301226727e3)
_B = (1.0, 4.2313330701600911252e1, 6.8718700749205790830e2,
      5.3941960214247511077e3, 2.1213794301586595867e4,
      3.9307895800092710610e4, 2.8729085735721942674e4,
      5.2264952788528545610e3)
_C = (1.42343711074968357734e0, 4.63033784615654529590e0,
      5.76949722146069140550e0, 3.64784832476320460504e0,
      1.27045825245236838258e0, 2.41780725177450611770e-1,
      2.27238449892691845833e-2, 7.74545014278341407640e-4)
_D = (1.0, 2.05319162663775882187e0, 1.67638483018380384940e0,
      6.89767334985100004550e-1, 1.48103976427480074590e-1,
      1.51986665636164571966e-2, 5.47593808499534494600e-4,
      1.05075007164441684324e-9)
_E = (6.65790464350110377720e0, 5.46378491116411436990e0,
      1.78482653991729133580e0, 2.96560571828504891230e-1,
      2.65321895265761230930e-2, 1.24266094738807843860e-3,
      2.71155556874348757815e-5, 2.01033439929228813265e-7)
_F = (1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1,
      1.48753612908506148525e-2, 7.86869131145613259100e-4,
      1.84631831751005468180e-5, 1.42151175831644588870e-7,
      2.04426310338993978564e-15)


def _ratio(num, den, r):
    p = num[7]
    for c in (num[6], num[5], num[4], num[3], num[2], num[1], num[0]):
        p = p * r + c
    q = den[7]
    for c in (den[6], den[5], den[4], den[3], den[2], den[1], den[0]):
        q = q * r + c
    return p / q


def invnorm(u):
    """Standard normal quantile of ``u`` for ``0 < u < 1``."""
    if not 0.0 < u < 1.0:
        raise ValueError(f"invnorm requires 0 < u < 1, got {u!r}")
    q = u - 0.5
    if abs(q) <= 0.425:
        r = 0.180625 - q * q
        return q * _ratio(_A, _B, r)
    r = u if q < 0.0 else 1.0 - u
    r = math.sqrt(-math.log(r))
    if r <= 5.0:
        x = _ratio(_C, _D, r - 1.6)
    else:
        x = _ratio(_E, _F, r - 5.0)
    return -x if q < 0.0 else x


def norm_logpdf(x, mean, var):
    """Log density of Normal(mean, var) at x; x or mean may be an array,
    var is a scalar."""
    d = x - mean
    return -0.5 * (_LOG_2PI + math.log(var) + d * d / var)


def logsumexp(a) -> float:
    """log(sum(exp(a))) of a 1-D array, computed as ``scipy.special.logsumexp``
    computes it, to the bit: the entries equal to the max are taken out of
    the sum, the rest is s = sum(exp(a - max)) divided by their count, and
    the result is log1p(s) + log(count) + max. Where that is not finite
    (every entry -inf, an inf or a NaN) it is log(sum(exp(a))) instead."""
    a = np.asarray(a, dtype=np.float64)
    a_max = np.max(a)
    top = a == a_max
    n_top = np.count_nonzero(top)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.sum(np.exp(np.where(top, -np.inf, a) - a_max))
        if s != 0.0:
            s = s / n_top
        out = np.log1p(s) + np.log(n_top) + a_max
        if not np.isfinite(out):
            out = np.log(np.sum(np.exp(a)))
    return float(out)
