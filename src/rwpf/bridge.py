"""Lazily refined Brownian bridge skeletons.

A bridge is pinned at (a, x_a) and (b, x_b) and materializes interior
values only when queried, by conditional Gaussian sampling between the
nearest already-known neighbors. Repeated queries of the same time (by
exact float equality) return the memoized value, so any query order
realizes one consistent path.

Gaussian draws go through the inverse normal CDF and consume exactly one
uniform each, which is what lets low-discrepancy coordinates stand in
for pseudo-random uniforms. The estimators in ``psi`` sample their paths
with an array form of the same recursion and hand the fresh points of a
shared path back through ``insert_path``; ``value_at``,
``value_at_with_uniform``, its normal-driven form
``_value_at_with_normal`` and ``snapshot``/``restore`` are the scalar
reference the tests hold that kernel to.
"""

import math
from bisect import bisect_left

from .errors import ContractViolationError
from .stats import invnorm

_TINY = 5e-324  # smallest positive double; floor for a raw 0.0 uniform


class LazyBridge:
    """Growable sorted skeleton of (time, value) pairs on [a, b]."""

    __slots__ = ("a", "b", "x_a", "x_b", "_times", "_values", "total_inserted")

    def __init__(self, a: float, x_a: float, b: float, x_b: float):
        if not a < b:
            raise ValueError(f"need a < b, got a={a}, b={b}")
        if not (math.isfinite(x_a) and math.isfinite(x_b)):
            raise ValueError("endpoint values must be finite")
        self.a = a
        self.b = b
        self.x_a = x_a
        self.x_b = x_b
        self._times = [a, b]
        self._values = [x_a, x_b]
        self.total_inserted = 0  # fresh Gaussian draws ever made, survives restore()

    def __len__(self) -> int:
        return len(self._times)

    def skeleton(self) -> list[tuple[float, float]]:
        return list(zip(self._times, self._values))

    def _conditional(self, t: float):
        """(insertion index, conditional mean, conditional sd) for a fresh t."""
        times = self._times
        if not self.a <= t <= self.b:
            raise ValueError(f"time {t} outside [{self.a}, {self.b}]")
        i = bisect_left(times, t)
        if i < len(times) and times[i] == t:
            return i, None, None  # memoized
        s, u = times[i - 1], times[i]
        w_s, w_u = self._values[i - 1], self._values[i]
        frac = (t - s) / (u - s)
        mean = w_s + frac * (w_u - w_s)
        var = (t - s) * (u - t) / (u - s)
        return i, mean, math.sqrt(var)

    def value_at(self, t: float, rng) -> float:
        """Value of the path at t, sampling (one uniform) if t is fresh."""
        i, mean, sd = self._conditional(t)
        if mean is None:
            return self._values[i]
        return self._insert(i, t, mean + sd * invnorm(max(rng.random(), _TINY)))

    def value_at_with_uniform(self, t: float, u01: float) -> float:
        """Deterministic-uniform variant for point-set-driven sampling.

        Requires a fresh t: re-querying a known time would silently ignore
        the supplied uniform, so it is an error here.
        """
        return self._value_at_with_normal(t, invnorm(u01))

    def _value_at_with_normal(self, t: float, z: float) -> float:
        """Value at a fresh t for the given standard normal ``z``: the
        scalar reference for paths whose normals are drawn directly."""
        i, mean, sd = self._conditional(t)
        if mean is None:
            raise ContractViolationError(
                f"time {t} already in skeleton; uniform-driven queries need fresh times"
            )
        return self._insert(i, t, mean + sd * z)

    def _insert(self, i: int, t: float, value: float) -> float:
        self._times.insert(i, t)
        self._values.insert(i, value)
        self.total_inserted += 1
        return value

    def insert_path(self, times, values) -> None:
        """Write the fresh points of a shared path, its times sorted and
        strictly inside (a, b), into a two-point skeleton; each counts as
        one insertion."""
        if len(self._times) != 2:
            raise ContractViolationError(
                f"insert_path needs a two-point skeleton, got {len(self._times)} points"
            )
        self._times[1:1] = times
        self._values[1:1] = values
        self.total_inserted += len(times)

    def snapshot(self):
        """Opaque state token for restore(); endpoints are always retained."""
        return list(self._times), list(self._values)

    def restore(self, snap) -> None:
        times, values = snap
        self._times = list(times)
        self._values = list(values)
