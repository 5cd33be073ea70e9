"""Dissipative dynamics and entanglement of a driven atom in a lossy cavity.

The Fock-space oracle is the submodule `drivenjc.liouville`; it is not
imported here, so the closed-form path starts without it.
"""

from .model import (
    DegenerateDispersive,
    DerivedParams,
    ModelParams,
    derive_params,
    dispersive_ratio,
)
from .analytic import (
    AnalyticSnapshot,
    concurrence_analytic,
    evolve,
    linear_entropy_analytic,
    photon_number,
)
from .entanglement import (
    InvalidDensityMatrix,
    wootters_concurrence,
)

__version__ = "0.1.0"
