"""The package's public surface: the names a user calls, and where the rest live."""
import os
import subprocess
import sys

import pytest

import fermicorr
from fermicorr import states

PUBLIC = {
    "ModelParams", "compute_amplitudes", "assemble", "OutOfRegimeError", "report",
    "geometric_discord", "negativity", "connected_correlation", "StateValidationError",
    "random_state",
}
# names the package does not export, each under the module that defines it
MODULE_ONLY = {
    "fermicorr.amplitudes": ("PerturbativeAmplitudes", "XStateCoefficients", "two_point"),
    "fermicorr.measures": (
        "BELL_TSIRELSON", "CorrelationReport", "bell_chsh", "bell_opt",
        "connected_correlation_xstate", "negativity_xstate", "sqrt_discord_xstate",
    ),
    "fermicorr.oracles": (
        "DirectionGrid", "chsh_gridopt", "discord_bruteforce", "maxcorr_bruteforce",
        "negativity_eig",
    ),
    "fermicorr.states": (
        "decompose", "partial_transpose", "state_from_json", "state_to_json", "validate_state",
    ),
}


def test_all_is_the_public_names():
    assert len(fermicorr.__all__) == len(PUBLIC)
    assert set(fermicorr.__all__) == PUBLIC


def test_star_import_binds_only_the_public_names():
    namespace = {}
    exec("from fermicorr import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC


@pytest.mark.parametrize("module", sorted(MODULE_ONLY))
def test_other_names_import_from_their_module(module):
    for name in MODULE_ONLY[module]:
        exec(f"from {module} import {name}", {})
        assert name not in fermicorr.__all__


def test_bloch_decomposition_record_is_gone():
    assert not hasattr(states, "BlochDecomposition")


def test_cli_import_loads_only_numpy():
    # the runtime depends on numpy alone; scipy and mpmath are test-only
    code = ("import sys, fermicorr.cli; "
            "print(sorted({'scipy', 'mpmath'} & {m.split('.')[0] for m in sys.modules}))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "[]"
