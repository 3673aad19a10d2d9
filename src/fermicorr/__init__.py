"""Two-qubit correlation dynamics for a pair of artificial atoms coupled to
the vacuum field of an open 1D transmission line, to second perturbative
order.

The package exports what a user calls; every other name lives in its own
module (``fermicorr.states``, ``fermicorr.measures``, ``fermicorr.oracles``,
``fermicorr.amplitudes``, ``fermicorr.cli``)."""

from .amplitudes import ModelParams, OutOfRegimeError, assemble, compute_amplitudes
from .measures import connected_correlation, geometric_discord, negativity, report
from .states import StateValidationError, random_state

__all__ = [
    "ModelParams",
    "OutOfRegimeError",
    "StateValidationError",
    "assemble",
    "compute_amplitudes",
    "connected_correlation",
    "geometric_discord",
    "negativity",
    "random_state",
    "report",
]

__version__ = "0.1.0"
