"""Two-qubit density matrices: validation, Bloch form, partial transposition.

The computational basis is ordered |ee>, |eg>, |ge>, |gg>, with |e> the
sigma_z eigenstate of eigenvalue +1. All functions are pure; matrices are
plain 4x4 complex numpy arrays.
"""
from __future__ import annotations

import numpy as np

BASIS_LABELS = ("ee", "eg", "ge", "gg")

# sigma_x, sigma_y, sigma_z
PAULI = (np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
         np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
         np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex))
IDENTITY_2 = np.eye(2, dtype=complex)

HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-12
# Assembled perturbative states can carry tiny negative eigenvalues from
# rounding error; a hard zero would reject physically fine states.
POSITIVITY_ATOL = 1e-10


class StateValidationError(ValueError):
    """Raised when a matrix violates a density-matrix invariant.

    The message names the violated invariant (shape, finite, hermiticity,
    trace or positivity) together with the offending value.
    """


def validate_state(rho: np.ndarray) -> np.ndarray:
    """Check the density-matrix invariants of ``rho`` and return it as complex.

    ``rho`` is one (4, 4) matrix or a (..., 4, 4) stack of them; hermiticity,
    unit trace and positive semidefiniteness are each checked over the whole
    stack at once and reported by their worst value. A NaN or infinite entry
    is rejected first, since every comparison with NaN is false.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise StateValidationError(f"shape: expected (..., 4, 4), got {rho.shape}")
    if not np.isfinite(rho).all():
        bad = np.count_nonzero(~np.isfinite(rho))
        raise StateValidationError(f"finite: {bad} of {rho.size} entries are NaN or infinite")
    gap = rho.conj().swapaxes(-1, -2)  # conj() copies, so subtract in place
    gap -= rho
    herm = np.abs(gap).max()
    if herm > HERMITICITY_ATOL:
        raise StateValidationError(f"hermiticity: max |rho - rho^dag| = {herm:.3e}")
    tr = abs(rho.trace(0, -2, -1) - 1.0).max()
    if tr > TRACE_ATOL:
        raise StateValidationError(f"trace: |Tr(rho) - 1| = {tr:.3e}")
    lo = np.linalg.eigvalsh(rho).min()
    if lo < -POSITIVITY_ATOL:
        raise StateValidationError(f"positivity: min eigenvalue = {lo:.3e}")
    return rho


def unwrap_scalar(value):
    """A Python scalar for a 0-d value, the array itself otherwise."""
    return np.asarray(value).item() if np.ndim(value) == 0 else value


def decompose(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bloch decomposition of a two-qubit state: the local Bloch vectors
    ``x`` (first qubit) and ``y`` (second) and the 3x3 correlation matrix
    ``t``, returned as the tuple ``(x, y, t)``.

    x_i = Tr[rho (sigma_i x I)], y_j = Tr[rho (I x sigma_j)],
    t_ij = Tr[rho (sigma_i x sigma_j)].

    Rejects input that is not a density matrix (see :func:`validate_state`).
    """
    rho = validate_state(rho)
    r4 = rho.reshape(2, 2, 2, 2)  # [row_a, row_b, col_a, col_b]
    x = np.array([np.einsum("ikjk,ji->", r4, s).real for s in PAULI])
    y = np.array([np.einsum("ikil,lk->", r4, s).real for s in PAULI])
    t = np.array(
        [[np.einsum("ikjl,ji,lk->", r4, sa, sb).real for sb in PAULI] for sa in PAULI]
    )
    return x, y, t


def partial_transpose(rho: np.ndarray) -> np.ndarray:
    """Transpose the indices of the first qubit; trace and hermiticity
    survive, eigenvalues may turn negative for entangled states. The second
    qubit's partial transpose is the full transpose of this one, so it has
    the same spectrum."""
    r4 = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)
    return r4.transpose(2, 1, 0, 3).reshape(4, 4)  # reshape copies the transposed view


def random_state(seed: int, kind: str = "mixed") -> np.ndarray:
    """Deterministic random two-qubit state.

    kind='pure'   rank-1 projector from a normalized Gaussian 4-vector,
    kind='mixed'  normalized M M^dag for a Gaussian complex M,
    kind='xshape' random valid state with zeros outside the diagonal and
                  anti-diagonal (built from two PSD 2x2 blocks, so the
                  pattern holds exactly).
    """
    rng = np.random.default_rng(seed)
    if kind == "pure":
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v /= np.linalg.norm(v)
        return np.outer(v, v.conj())
    if kind == "mixed":
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = m @ m.conj().T
        return rho / np.trace(rho).real
    if kind == "xshape":
        m1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        m2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b1 = m1 @ m1.conj().T  # spans {|ee>, |gg>}
        b2 = m2 @ m2.conj().T  # spans {|eg>, |ge>}
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0], rho[0, 3], rho[3, 0], rho[3, 3] = b1[0, 0], b1[0, 1], b1[1, 0], b1[1, 1]
        rho[1, 1], rho[1, 2], rho[2, 1], rho[2, 2] = b2[0, 0], b2[0, 1], b2[1, 0], b2[1, 1]
        return rho / np.trace(rho).real
    raise ValueError(f"kind must be 'pure', 'mixed' or 'xshape', got {kind!r}")


def state_to_json(rho: np.ndarray) -> dict:
    """JSON-ready dict: basis labels plus a 4x4 nested array of [re, im] pairs."""
    rho = np.asarray(rho, dtype=complex)
    return {
        "basis": list(BASIS_LABELS),
        "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in rho],
    }


def state_from_json(doc: dict) -> np.ndarray:
    """Inverse of :func:`state_to_json`; exact at double precision."""
    if tuple(doc.get("basis", ())) != BASIS_LABELS:
        raise ValueError(f"unexpected basis labels: {doc.get('basis')!r}")
    mat = doc["matrix"]
    rho = np.array([[complex(re, im) for re, im in row] for row in mat], dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"matrix must be 4x4, got shape {rho.shape}")
    return rho
