"""Random-weight particle filtering for partially observed scalar diffusions.

The intractable transition density is replaced by an unbiased
Poisson-product estimate of the bridge weight, optionally driven by a
randomized low-discrepancy point set conditional on the Poisson count.
"""

from . import bench, bridge, config, lowdisc, models, oracles, proposal, psi, smc
from .bridge import LazyBridge
from .models import DriftModel, builtin
from .psi import PsiConfig, PsiEstimate
from .smc import FilterConfig, ParticleCloud, run_filter

__version__ = "0.1.0"

__all__ = [
    "LazyBridge", "DriftModel", "builtin",
    "PsiConfig", "PsiEstimate", "FilterConfig", "ParticleCloud", "run_filter",
    "bench", "bridge", "config", "lowdisc", "models", "oracles",
    "proposal", "psi", "smc",
]
