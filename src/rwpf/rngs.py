"""Deterministic random-stream derivation.

Every stochastic component takes an explicit ``numpy.random.Generator``.
Streams are derived from a master seed plus a small integer key path, so
results depend only on (config, master seed) and never on execution
order or worker count. A particle cloud draws from two streams, whatever
its size: one for its moves and weights, one for resampling.
"""

import numpy as np

# Stream namespaces; first key component of every derived stream.
NS_SIMULATE = 1
NS_FILTER = 2
NS_PSI_BENCH = 3
NS_ORACLE = 4


def stream(master_seed: int, *key: int) -> np.random.Generator:
    """Generator for (master_seed, *key); identical arguments, identical stream."""
    ss = np.random.SeedSequence([int(master_seed), *map(int, key)])
    return np.random.Generator(np.random.PCG64(ss))


def particle_streams(master_seed: int, n: int, *key: int) -> list[np.random.Generator]:
    """``n`` independent streams spawned under (master_seed, *key)."""
    ss = np.random.SeedSequence([int(master_seed), *map(int, key)])
    return [np.random.Generator(np.random.PCG64(child)) for child in ss.spawn(n)]


def fresh_seed(rng: np.random.Generator) -> int:
    """Draw a 63-bit seed for a sub-component from an existing stream."""
    return int(rng.integers(0, 2**63))
