"""Shared fixtures and helpers: the default sweep (computed once per
session), params, and state and state-dump helpers used only by the tests."""
import time

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from fermicorr import ModelParams, amplitudes, oracles
from fermicorr.amplitudes import PerturbativeAmplitudes, XStateCoefficients
from fermicorr.states import IDENTITY_2, PAULI, state_from_json
from fermicorr.cli import (
    AMPLITUDE_NAMES,
    DEFAULT_COUPLINGS,
    DEFAULT_R_BAR,
    DEFAULT_XI_MAX,
    DEFAULT_XI_MIN,
    DEFAULT_XI_STEPS,
    SweepSpec,
    run_sweep,
)


@pytest.fixture(scope="session")
def default_params():
    return ModelParams(r_bar=DEFAULT_R_BAR, coupling=DEFAULT_COUPLINGS[1])


@pytest.fixture(scope="session")
def default_sweep():
    """Rows of the default (xi, K) sweep plus the wall time it took to build."""
    spec = SweepSpec(
        xi_min=DEFAULT_XI_MIN,
        xi_max=DEFAULT_XI_MAX,
        xi_steps=DEFAULT_XI_STEPS,
        couplings=DEFAULT_COUPLINGS,
        r_bar=DEFAULT_R_BAR,
    )
    start = time.perf_counter()
    rows = sweep_rows(run_sweep(spec))
    elapsed = time.perf_counter() - start
    return {"spec": spec, "rows": rows, "elapsed": elapsed}


def double_truncation(monkeypatch):
    """From now on, take twice the E1 series terms and continued-fraction
    levels, and twice the Gauss-Legendre nodes on the early-time panel."""
    monkeypatch.setattr(amplitudes, "_SERIES_TERMS", 2 * amplitudes._SERIES_TERMS)
    monkeypatch.setattr(amplitudes, "_FRACTION_DEPTH", 2 * amplitudes._FRACTION_DEPTH)
    monkeypatch.setattr(amplitudes, "_GAUSS", leggauss(2 * amplitudes._GAUSS[0].size))


def halve_mode_panel_width(monkeypatch):
    """Give the mode-sum oracle panels of half their width from now on."""
    monkeypatch.setattr(oracles, "_MODE_PANEL_WIDTH", 0.5 * oracles._MODE_PANEL_WIDTH)


def sweep_rows(columns):
    """Row dicts of Python scalars from the columns of :func:`run_sweep`."""
    names = list(columns)
    return [dict(zip(names, row)) for row in zip(*(columns[n].tolist() for n in names))]


def sweep_block(rows, coupling):
    """Rows of one coupling block, in xi order."""
    return [r for r in rows if r["K"] == coupling]


def bell_projector():
    """(|ee> + |gg>)(<ee| + <gg|)/2."""
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = rho[0, 3] = rho[3, 0] = rho[3, 3] = 0.5
    return rho


def reconstruct(bloch):
    """Rebuild the 4x4 matrix from a Bloch decomposition ``(x, y, t)``.

    The output is Hermitian with unit trace by construction; positivity is
    not guaranteed and not checked.
    """
    x, y, t = bloch
    rho = np.eye(4, dtype=complex)
    for i, s in enumerate(PAULI):
        rho += x[i] * np.kron(s, IDENTITY_2)
        rho += y[i] * np.kron(IDENTITY_2, s)
        for j, sj in enumerate(PAULI):
            rho += t[i, j] * np.kron(s, sj)
    return 0.25 * rho


def purity(rho):
    """Tr rho^2."""
    rho = np.asarray(rho, dtype=complex)
    return float(np.trace(rho @ rho).real)


def load_state_dump(doc: dict):
    """Rebuild (params, amplitudes, coefficients, rho) from a state dump."""
    a, co = doc["amplitudes"], doc["coefficients"]
    params = ModelParams(**doc["params"])
    amps = PerturbativeAmplitudes(coupling=params.coupling, **{
        attr: complex(a[name[0]], a[name[1]]) if isinstance(name, tuple) else a[name]
        for attr, name in AMPLITUDE_NAMES.items()
    })
    coeffs = XStateCoefficients(**{
        name: complex(*value) if isinstance(value, list) else value for name, value in co.items()
    })
    return params, amps, coeffs, state_from_json(doc["rho"])
