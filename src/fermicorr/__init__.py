"""Two-qubit correlation dynamics for a pair of artificial atoms coupled to
the vacuum field of an open 1D transmission line, to second perturbative
order."""

from .amplitudes import (
    ModelParams,
    OutOfRegimeError,
    PerturbativeAmplitudes,
    XStateCoefficients,
    assemble,
    compute_amplitudes,
    two_point,
)
from .measures import (
    BELL_TSIRELSON,
    CorrelationReport,
    bell_chsh,
    bell_opt,
    connected_correlation,
    connected_correlation_xstate,
    geometric_discord,
    negativity,
    negativity_xstate,
    report,
    sqrt_discord_xstate,
)
from .oracles import (
    DirectionGrid,
    chsh_gridopt,
    discord_bruteforce,
    maxcorr_bruteforce,
    negativity_eig,
)
from .states import (
    BlochDecomposition,
    StateValidationError,
    decompose,
    partial_transpose,
    random_state,
    state_from_json,
    state_to_json,
    validate_state,
)

__all__ = [
    "BELL_TSIRELSON",
    "BlochDecomposition",
    "CorrelationReport",
    "DirectionGrid",
    "ModelParams",
    "OutOfRegimeError",
    "PerturbativeAmplitudes",
    "StateValidationError",
    "XStateCoefficients",
    "assemble",
    "bell_chsh",
    "bell_opt",
    "chsh_gridopt",
    "compute_amplitudes",
    "connected_correlation",
    "connected_correlation_xstate",
    "decompose",
    "discord_bruteforce",
    "geometric_discord",
    "maxcorr_bruteforce",
    "negativity",
    "negativity_eig",
    "negativity_xstate",
    "partial_transpose",
    "random_state",
    "report",
    "sqrt_discord_xstate",
    "state_from_json",
    "state_to_json",
    "two_point",
    "validate_state",
]

__version__ = "0.1.0"
