import numpy as np

from rwpf import bench
from rwpf.rngs import stream


def test_bootstrap_in_row_blocks_matches_one_draw():
    # the one-shot form: every resample drawn as one (n_boot, n) array
    for n in (7, 150, 2401):
        rng = stream(41, n)
        mc, rq = rng.random(n), rng.random(n) ** 2
        blocks, whole = stream(42, n), stream(42, n)
        idx = whole.integers(0, n, size=(1000, n))
        ratios = mc[idx].var(axis=1, ddof=1) / rq[idx].var(axis=1, ddof=1)
        assert bench._bootstrap_ratio_lower(mc, rq, blocks) == float(np.percentile(ratios, 5.0))
        assert blocks.bit_generator.state == whole.bit_generator.state
