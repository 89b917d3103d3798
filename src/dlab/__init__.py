"""dlab: a pseudospectral laboratory on a periodic 4D box for the constructive
objects behind randomized-data dispersive estimates: unit-scale randomization,
frequency projections, space-time norms, free propagators, the Picard/Duhamel
solver for the forced cubic NLS, and Morawetz/energy diagnostics."""

from .grid import (
    Field,
    SpectralGrid,
    Trajectory,
    Weight,
    lp_norm,
    read_snapshot,
    sobolev_norm,
    to_frequency,
    to_physical,
    weighted_lp_norm,
    write_snapshot,
)
from .norms import EpsilonPolicy
from .projections import Band

__version__ = "0.1.0"

__all__ = [
    "Band",
    "EpsilonPolicy",
    "Field",
    "SpectralGrid",
    "Trajectory",
    "Weight",
    "lp_norm",
    "read_snapshot",
    "sobolev_norm",
    "to_frequency",
    "to_physical",
    "weighted_lp_norm",
    "write_snapshot",
    "__version__",
]
