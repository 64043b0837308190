"""Randomized low-discrepancy point sets in [0,1)^d.

The base construction is a digital (t,s)-sequence in base 2 built from a
bundled table of primitive polynomials and initial direction numbers
(Joe-Kuo D6 style, dimensions 2..64; dimension 1 is the van der Corput
sequence). Points are produced in natural index order: the binary digits
of the point index select which direction integers get XORed together,
so index 0 is the origin. Randomization (digital shift by default, nested
uniform scrambling opt-in) makes every point marginally uniform while
preserving the digital-net structure.

Points are held both as floats and as 53-bit integers; all randomization
happens on the integer form, so regenerating with the same
(dimension, count, scheme, seed) is bit-identical. The base set is
deterministic in (dimension, count), so it is built once per pair and
shared, with read-only arrays.

Nested uniform scrambling (Owen 1995) needs one fair flip bit per node
of each coordinate's dyadic tree that holds a point. Which nodes those
are depends on the base alone, so the tree of each memoized base is laid
out once (``_scramble_layout``): with depth = (M-1).bit_length(), the
levels above depth are complete heaps, and from depth down every point
sits alone in its node (the truncated form of Matousek 1998), so its
remaining flips are one uniform integer. A scramble is then one draw of
64-bit raw words from the caller's stream, one heap of bits and one word
per point for each coordinate, folded through that layout.
"""

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np

from .errors import UnsupportedDimensionError

MAX_DIMENSION = 64
N_BITS = 53
_SCALE = float(2**N_BITS)

SCHEME_NONE = "none"
SCHEME_DIGITAL_SHIFT = "digital-shift"
SCHEME_OWEN = "owen-scramble"
_SCHEMES = (SCHEME_DIGITAL_SHIFT, SCHEME_OWEN)

MAX_COUNT = 2**31  # index arithmetic stays comfortably inside 53 bits
_LEVEL_BIT = (N_BITS - 1 - np.arange(N_BITS)).astype(np.uint64)[:, None]  # flip bit per level
_WORD_BITS = 64          # bits per raw word of the bit generator
_BIT_POS = np.arange(_WORD_BITS, dtype=np.uint64)
_BLOCK_WORDS = 2**20     # words of draw and heap gather per block of scramble rows


@dataclass(frozen=True, eq=False)
class PointSet:
    """An M x d point set in [0,1)^d, or g of them stacked, with its exact
    53-bit integer form."""

    dimension: int
    count: int
    points: np.ndarray          # (M, d) float64; (g, M, d) for g sets
    randomization: str
    seed: int | None
    ipoints: np.ndarray         # uint64, points * 2**53


@lru_cache(maxsize=1)
def _direction_table() -> dict[int, tuple[int, int, list[int]]]:
    """Parse the bundled table: dimension -> (degree s, coeffs a, m_1..m_s)."""
    text = resources.files("rwpf.data").joinpath("joe-kuo-d6-64.txt").read_text()
    table = {}
    for line in text.splitlines()[1:]:
        parts = line.split()
        if not parts:
            continue
        d, s, a = int(parts[0]), int(parts[1]), int(parts[2])
        m = [int(tok) for tok in parts[3:]]
        assert len(m) == s
        table[d] = (s, a, m)
    return table


@lru_cache(maxsize=MAX_DIMENSION)
def _direction_integers(dimension: int) -> np.ndarray:
    """53-bit direction integers v_1..v_53 for one coordinate (1-based dim)."""
    if dimension == 1:
        m = [1] * N_BITS
    else:
        s, a, m_init = _direction_table()[dimension]
        m = list(m_init)
        for k in range(s, N_BITS):
            # m_k = m_{k-s} ^ 2^s m_{k-s} ^ XOR_{i<s} a_i 2^i m_{k-i}
            new = m[k - s] ^ (m[k - s] << s)
            for i in range(1, s):
                if (a >> (s - 1 - i)) & 1:
                    new ^= m[k - i] << i
            m.append(new)
    v = [m[k] << (N_BITS - (k + 1)) for k in range(N_BITS)]
    return np.array(v, dtype=np.uint64)


def _to_floats(ipoints: np.ndarray) -> np.ndarray:
    return ipoints * (1.0 / _SCALE)     # exact: below 2**53, times a power of two


@lru_cache(maxsize=256)
def generate_base(dimension: int, count: int) -> PointSet:
    """First ``count`` points of the base-2 digital sequence, unrandomized.

    Point i is the XOR of the direction integers selected by the binary
    digits of i (natural order, so the ordering convention pinned by the
    tests is x_0=0, x_1=0.5, x_2=0.25, ... in one dimension). Memoized:
    every call with the same (dimension, count) returns one shared point
    set whose arrays are read-only.
    """
    if not 1 <= dimension <= MAX_DIMENSION:
        raise UnsupportedDimensionError(
            f"dimension {dimension} outside supported range 1..{MAX_DIMENSION}"
        )
    if not 1 <= count <= MAX_COUNT:
        raise ValueError(f"count must be in 1..{MAX_COUNT}, got {count}")

    v = np.stack([_direction_integers(j + 1) for j in range(dimension)])  # (d, 53)
    idx = np.arange(count, dtype=np.uint64)
    ipoints = np.zeros((count, dimension), dtype=np.uint64)
    for b in range(max(int(count - 1).bit_length(), 1)):
        hit = (idx >> np.uint64(b)) & np.uint64(1) == 1
        ipoints[hit] ^= v[:, b]
    points = _to_floats(ipoints)
    ipoints.flags.writeable = False
    points.flags.writeable = False
    return PointSet(dimension, count, points, SCHEME_NONE, None, ipoints)


@lru_cache(maxsize=256)
def _scramble_layout(base: PointSet) -> tuple[int, np.ndarray, np.ndarray]:
    """The nodes that the points of ``base`` occupy in each coordinate's
    scramble tree, as (depth, top, rank) with top and rank of shape (d, M).

    depth = (M-1).bit_length() is the least level with at least M nodes.
    Each coordinate of a base-2 digital sequence is a (0,1)-sequence: its
    first 2**l points have distinct l-bit prefixes. So at each level
    l < depth, whose 2**l nodes number fewer than M, every node holds a
    point, and the node of point i is its prefix, top[i] >> (depth - l),
    where top holds the first depth bits. At level depth the M prefixes
    are distinct, and they stay distinct and in the same order at every
    deeper level, so each level from depth down has one node per point,
    numbered by rank, the position of top[i] in sorted order.

    Keyed on the base object, so a set is only ever scrambled with its own
    tree; the memoized bases make it one layout per (dimension, count).
    Both claims are checked here with ``np.unique``, the grouping that
    defines the tree, at levels 0..depth (the deeper levels follow from
    level depth); a base that breaks them (a hand-built set with repeated
    points, say) raises ValueError.
    """
    depth = (base.count - 1).bit_length()
    # int32 holds both: depth <= 31 and M <= 2**31
    top = (base.ipoints.T >> np.uint64(N_BITS - depth)).astype(np.int32)
    rank = np.empty_like(top)
    for j, column in enumerate(top):
        for level in range(depth):
            if np.unique(column >> (depth - level)).size != 1 << level:
                raise ValueError(f"cannot scramble coordinate {j}: level {level} "
                                 "of its tree has an empty node")
        uniq, rank[j] = np.unique(column, return_inverse=True)
        if uniq.size != base.count:
            raise ValueError(f"cannot scramble coordinate {j}: two points share "
                             f"their first {depth} bits")
    top.flags.writeable = False
    rank.flags.writeable = False
    return depth, top, rank


def apply_digital_shift(base: PointSet, shifts: np.ndarray) -> PointSet:
    """XOR every point with one 53-bit shift integer per coordinate; g rows
    of shifts, shape (g, d), give g shifted sets stacked as (g, M, d)."""
    shifts = np.asarray(shifts, dtype=np.uint64)
    if shifts.ndim not in (1, 2) or shifts.shape[-1] != base.dimension:
        raise ValueError(f"need {base.dimension} shifts per set, got shape {shifts.shape}")
    ipoints = base.ipoints ^ shifts[..., None, :]
    return PointSet(base.dimension, base.count, _to_floats(ipoints),
                    SCHEME_DIGITAL_SHIFT, base.seed, ipoints)


@lru_cache(maxsize=32)
def _heap_nodes(depth: int) -> np.ndarray:
    """(depth, 2**depth): row l holds, for each depth-bit prefix q, the
    node of level l above it in the heap of a tree's top levels,
    2**l - 1 + (q >> (depth - l)). The same for every base of this depth."""
    levels = np.arange(depth, dtype=np.int32)[:, None]
    nodes = (1 << levels) - 1 + (np.arange(1 << depth, dtype=np.int32) >> (depth - levels))
    nodes.flags.writeable = False
    return nodes


def _owen_scramble(base: PointSet, rng: np.random.Generator, g: int) -> np.ndarray:
    """g nested uniform scrambles of ``base`` as (g, M, d) integers (a view
    of rows stored coordinate by coordinate), from one draw of 64-bit raw
    words: one fair flip bit per occupied node of each coordinate's dyadic
    tree, XORed into the bit of that node's level.

    The draw is one row per (set, coordinate), set-major then coordinate-
    major. A row is h = ceil((2**depth - 1) / 64) heap words, one bit per
    node of the complete levels above depth, then M point words in rank
    order. From depth down each point sits alone in its node, so its flips
    there are 53 - depth fair bits of its own: the top bits of its word.
    The heap bits are folded into one integer per depth-bit prefix and
    gathered by top, the point words by rank.

    Rows are drawn and folded in blocks of whole rows, at most
    _BLOCK_WORDS words of draw and heap gather (one row at least), so a
    large set never holds a temporary across all its coordinates. Raw
    words carry no buffer between calls, so the blocks draw what one call
    would.
    """
    if isinstance(rng.bit_generator, np.random.MT19937):
        raise ValueError("Owen scrambling draws 64-bit raw words; MT19937 gives 32-bit ones")
    # a base with writeable arrays (built by hand) may change between calls,
    # so its layout is built afresh
    depth, top, rank = (_scramble_layout.__wrapped__(base) if base.ipoints.flags.writeable
                        else _scramble_layout(base))
    nodes = _heap_nodes(depth)
    d, m = base.dimension, base.count
    n_heap = -(-((1 << depth) - 1) // _WORD_BITS)
    row = n_heap + m
    per_block = max(1, _BLOCK_WORDS // (row + _WORD_BITS * n_heap + nodes.size))
    deep_shift = np.uint64(_WORD_BITS - (N_BITS - depth))
    flips = np.empty((g * d, m), dtype=np.uint64)   # one row per (set, coordinate)
    for start in range(0, g * d, per_block):
        rows = flips[start:start + per_block]
        j = np.arange(start, start + len(rows)) % d
        r = np.arange(len(rows))[:, None]
        words = rng.bit_generator.random_raw(len(rows) * row).reshape(len(rows), row)
        bits = words[:, :n_heap, None] >> _BIT_POS  # node k at [k // 64, k % 64]
        bits &= np.uint64(1)
        heap = bits.reshape(len(rows), _WORD_BITS * n_heap).take(nodes, axis=1)
        heap <<= _LEVEL_BIT[:depth]                 # (rows, depth, 2**depth)
        np.bitwise_or(np.bitwise_or.reduce(heap, axis=1)[r, top[j]],
                      (words[:, n_heap:] >> deep_shift)[r, rank[j]], out=rows)
    flips = flips.reshape(g, d, m)
    flips ^= base.ipoints.T
    return flips.transpose(0, 2, 1)


def randomize(base: PointSet, scheme: str, seed, g: int | None = None) -> PointSet:
    """Randomize an unrandomized point set, drawing from ``seed``: an int
    builds the stream PCG64(SeedSequence(seed)), so an int seed always
    gives the same points; a Generator (or anything else) is drawn from as
    given.

    With ``g``, g sets come from one draw, stacked as (g, M, d): a (g, d)
    draw of 53-bit shifts, or one raw-word draw for g Owen scrambles. They
    equal g single-set draws in a row on the same stream.
    """
    if base.randomization != SCHEME_NONE:
        raise ValueError("randomize expects an unrandomized base point set")
    if scheme not in _SCHEMES:
        raise ValueError(f"unknown randomization scheme {scheme!r}")
    if isinstance(seed, (int, np.integer)):
        seed = int(seed)
        rng = np.random.default_rng(seed)
    else:
        rng, seed = seed, None
    if scheme == SCHEME_DIGITAL_SHIFT:
        shape = (base.dimension,) if g is None else (g, base.dimension)
        ps = apply_digital_shift(base, rng.integers(0, 2**N_BITS, size=shape,
                                                    dtype=np.uint64))
        return PointSet(ps.dimension, ps.count, ps.points, scheme, seed, ps.ipoints)
    ipoints = _owen_scramble(base, rng, 1 if g is None else g)
    if g is None:
        ipoints = ipoints[0]
    return PointSet(base.dimension, base.count, _to_floats(ipoints), scheme, seed, ipoints)
