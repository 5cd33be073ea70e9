"""Dissipative dynamics and entanglement of a driven atom in a lossy cavity."""

from .model import (
    DegenerateDispersive,
    DerivedParams,
    ModelParams,
    derive_params,
    dispersive_ratio,
    dressed_transform,
)
from .analytic import (
    AnalyticSnapshot,
    coherent_overlap,
    concurrence_analytic,
    evolve,
    linear_entropy_analytic,
    photon_number,
    two_qubit_density,
)
from .entanglement import (
    InvalidDensityMatrix,
    linear_entropy_general,
    wootters_concurrence,
)
from .liouville import (
    FockConfig,
    SuperopSpec,
    TruncationError,
    coherent_vector,
    default_nmax,
    generator,
    integrate,
    verify_disentangling,
)

__version__ = "0.1.0"
