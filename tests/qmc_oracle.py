"""Test-local oracles for the low-discrepancy engine.

The direction-number expansion is deliberately coded unlike the package
generator: the primitive polynomial is reconstructed as a full bit
pattern, the recurrence uses multiplication instead of shifts, and points
are expanded one index at a time without Gray-code or vectorization
tricks. It shares only the bundled table with the implementation under
test.

The nested scramble is the level-by-level loop that derives each level's
tree nodes with ``np.unique``: the package's layout lookup must take the
same draws in the same order and return the same bits.

The projection check (a chi-square statistic of every 2D projection) and
``shift_from_floats`` are test diagnostics of the point sets, not part of
the estimators, so they live here too.
"""

from dataclasses import dataclass
from functools import reduce
from importlib import resources

import numpy as np
from scipy.stats import chi2

N_BITS = 53


def oracle_directions(dim: int, n_bits: int = N_BITS) -> list[int]:
    if dim == 1:
        return [1 << (n_bits - k) for k in range(1, n_bits + 1)]
    text = resources.files("rwpf.data").joinpath("joe-kuo-d6-64.txt").read_text()
    row = next(line.split() for line in text.splitlines()[1:]
               if line.split() and int(line.split()[0]) == dim)
    s, a = int(row[1]), int(row[2])
    m = [int(tok) for tok in row[3:]]
    poly = (1 << s) | (a << 1) | 1  # x^s + middle coefficients + 1
    while len(m) < n_bits:
        k = len(m)
        acc = m[k - s] ^ (m[k - s] * (1 << s))
        for i in range(1, s):
            if (poly >> (s - i)) & 1:
                acc ^= m[k - i] * (1 << i)
        m.append(acc)
    return [m[k - 1] << (n_bits - k) for k in range(1, n_bits + 1)]


def oracle_point(index: int, directions: list[int], n_bits: int = N_BITS) -> float:
    chosen = [v for b, v in enumerate(directions) if (index >> b) & 1]
    return reduce(lambda x, y: x ^ y, chosen, 0) / 2.0**n_bits


def oracle_owen_scramble(ipoints: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Nested uniform scrambling: one random bit flip per node of the dyadic
    tree of each coordinate, applied by original-prefix grouping."""
    out = ipoints.copy()
    for j in range(ipoints.shape[1]):
        x = ipoints[:, j]
        acc = np.zeros_like(x)
        for level in range(N_BITS):
            prefixes = x >> np.uint64(N_BITS - level)
            uniq, inverse = np.unique(prefixes, return_inverse=True)
            flips = rng.integers(0, 2, size=uniq.shape[0], dtype=np.uint64)
            acc ^= flips[inverse] << np.uint64(N_BITS - 1 - level)
        out[:, j] = x ^ acc
    return out


def shift_from_floats(values) -> np.ndarray:
    """Convert coordinates in [0,1) to their 53-bit integer form."""
    arr = np.asarray(values, dtype=np.float64)
    return (arr * float(2**N_BITS)).astype(np.uint64)


@dataclass
class ProjectionReport:
    """Chi-square uniformity statistics of all 2D coordinate projections."""

    count: int
    dimension: int
    grid: int                                   # cells per axis
    pair_stats: dict[tuple[int, int], float]    # (i, j) -> chi-square
    dof: int
    threshold_999: float
    insufficient_points: bool

    @property
    def max_stat(self) -> float:
        return max(self.pair_stats.values()) if self.pair_stats else 0.0


def projection_quality(ps, grid: int = 16) -> ProjectionReport:
    """Chi-square statistic of every 2D projection of the point set ``ps``
    over a grid x grid mesh.

    A base-2 digital net whose cells are elementary dyadic boxes scores 0;
    i.i.d. uniforms score around the dof. Flagged insufficient below 16
    points (one per grid row), where the statistic is meaningless.
    """
    dof = grid * grid - 1
    threshold = float(chi2.ppf(0.999, dof))
    insufficient = ps.count < grid
    stats: dict[tuple[int, int], float] = {}
    if not insufficient:
        expected = ps.count / (grid * grid)
        cells = np.minimum((ps.points * grid).astype(np.int64), grid - 1)
        for i in range(ps.dimension):
            for j in range(i + 1, ps.dimension):
                flat = cells[:, i] * grid + cells[:, j]
                counts = np.bincount(flat, minlength=grid * grid)
                stats[(i, j)] = float(np.sum((counts - expected) ** 2) / expected)
    return ProjectionReport(ps.count, ps.dimension, grid, stats, dof,
                            threshold, insufficient)
