"""``psi.estimate_cloud`` as a loop of ``psi.estimate_with_kappa``, one
particle at a time, on a twin of the cloud's stream.

The cloud draws its kappas as one array, then each distinct nonzero
kappa's draws, group by group in order of first appearance. A
rqmc-times-values group draws each bridge's point set as one row of one
array draw, so a loop over its bridges on the twin sees the same draws.
Any other group (mc, mc-fallback, rqmc-times) draws its time uniforms or
point sets as one array and then its normals as another, so the loop
draws both arrays from the twin the same way and hands each bridge its
rows through a ``Replay``.
"""

import numpy as np
import pytest

from rwpf import lowdisc, psi
from rwpf.bridge import LazyBridge


class Replay:
    """A stream stand-in that hands one bridge its share of a kappa group's
    draws, in the order an estimate on a batch of one asks for them: its
    time uniforms (or its point set, through ``psi._point_sets``), then its
    normals."""

    def __init__(self, times, normals):
        self.times, self.normals = times, normals

    def random(self, shape):
        return np.reshape(self.times, shape)

    def standard_normal(self, shape):
        return np.reshape(self.normals, shape)


def per_particle_estimates(model, a, b, x_a, x_b, cfg, rng) -> list:
    """One scalar PsiEstimate per bridge, drawn from ``rng`` in the cloud's
    order."""
    m = cfg.inner_points
    kappa = psi.sample_kappa(model.phi_bounds, a, b, rng, len(x_a))
    ests = [None] * len(x_a)
    point_sets = psi._point_sets
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(psi, "_point_sets", lambda mode, k, cfg, rng, g: (
            rng.times[None] if isinstance(rng, Replay) else point_sets(mode, k, cfg, rng, g)))
        for k in dict.fromkeys(kappa.tolist()):
            idx = np.flatnonzero(kappa == k).tolist()
            rngs = [rng] * len(idx)
            capped = cfg.mode != psi.MODE_MC and k <= cfg.rqmc_kappa_cap
            if k > 0 and not (capped and cfg.mode == psi.MODE_RQMC_TIMES_VALUES):
                if capped:   # rqmc-times: the group's point sets as one draw
                    times = lowdisc.randomize(lowdisc.generate_base(k, m),
                                              cfg.randomization, rng, len(idx)).points
                else:
                    times = rng.random((len(idx), m * k))
                normals = rng.standard_normal((len(idx), m * k))
                rngs = [Replay(t, z) for t, z in zip(times, normals)]
            for i, bridge_rng in zip(idx, rngs):
                ests[i] = psi.estimate_with_kappa(
                    model, LazyBridge(a, float(x_a[i]), b, float(x_b[i])), cfg, bridge_rng, k)
    return ests
