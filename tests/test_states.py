"""State representation: Bloch decomposition, partial transpose, generators."""
import json

import numpy as np
import pytest

from fermicorr import (
    BlochDecomposition,
    StateValidationError,
    decompose,
    partial_transpose,
    random_state,
    state_from_json,
    state_to_json,
    validate_state,
)

from conftest import bell_projector, purity, reconstruct


def test_decompose_maximally_mixed():
    b = decompose(np.eye(4, dtype=complex) / 4.0)
    assert np.allclose(b.x, 0.0, atol=1e-14)
    assert np.allclose(b.y, 0.0, atol=1e-14)
    assert np.allclose(b.t, 0.0, atol=1e-14)


def test_decompose_eg_projector():
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1] = 1.0  # |eg><eg|
    b = decompose(rho)
    assert np.allclose(b.x, [0.0, 0.0, 1.0], atol=1e-14)
    assert np.allclose(b.y, [0.0, 0.0, -1.0], atol=1e-14)
    expected_t = np.diag([0.0, 0.0, -1.0])
    assert np.allclose(b.t, expected_t, atol=1e-14)


def test_decompose_bell_projector():
    b = decompose(bell_projector())
    assert np.allclose(b.x, 0.0, atol=1e-14)
    assert np.allclose(b.y, 0.0, atol=1e-14)
    assert np.allclose(b.t, np.diag([1.0, -1.0, 1.0]), atol=1e-14)


def test_decompose_rejects_non_hermitian():
    rho = np.eye(4, dtype=complex) / 4.0
    rho[0, 1] = 0.1
    with pytest.raises(StateValidationError, match="hermiticity"):
        decompose(rho)


def test_decompose_rejects_bad_trace():
    with pytest.raises(StateValidationError, match="trace"):
        decompose(np.eye(4, dtype=complex))


def test_validate_rejects_negative_state():
    rho = np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex)
    with pytest.raises(StateValidationError, match="positivity"):
        validate_state(rho)
    with pytest.raises(StateValidationError, match="positivity"):
        decompose(rho)


def test_validate_state_stack():
    stack = np.stack([random_state(seed, kind) for seed in range(6)
                      for kind in ("mixed", "pure", "xshape")]).reshape(3, 6, 4, 4)
    assert validate_state(stack).shape == (3, 6, 4, 4)
    bad = stack.copy()
    bad[2, 4] = np.diag([0.7, 0.5, -0.1, -0.1])
    with pytest.raises(StateValidationError, match=r"positivity: min eigenvalue = -1\.000e-01"):
        validate_state(bad)
    bad[1, 1, 0, 1] = 0.1
    with pytest.raises(StateValidationError, match="hermiticity"):
        validate_state(bad)
    with pytest.raises(StateValidationError, match="shape"):
        validate_state(stack[..., :3])


def test_reconstruct_zero_bloch_is_maximally_mixed():
    b = BlochDecomposition(x=np.zeros(3), y=np.zeros(3), t=np.zeros((3, 3)))
    assert np.allclose(reconstruct(b), np.eye(4) / 4.0, atol=1e-15)


def test_reconstruct_bell_correlations():
    b = BlochDecomposition(x=np.zeros(3), y=np.zeros(3), t=np.diag([1.0, -1.0, 1.0]))
    assert np.allclose(reconstruct(b), bell_projector(), atol=1e-15)


def test_roundtrip_random_states():
    for seed in range(100):
        rho = random_state(seed, "mixed")
        back = reconstruct(decompose(rho))
        assert np.max(np.abs(back - rho)) < 1e-12


def test_bloch_roundtrip_is_identity():
    for seed in range(20):
        b = decompose(random_state(seed, "mixed"))
        b2 = decompose(reconstruct(b))
        assert np.max(np.abs(b.x - b2.x)) < 1e-12
        assert np.max(np.abs(b.y - b2.y)) < 1e-12
        assert np.max(np.abs(b.t - b2.t)) < 1e-12


def test_bloch_norm_identity():
    # Tr rho^2 = (1 + |x|^2 + |y|^2 + sum t_ij^2)/4
    for seed in range(100):
        rho = random_state(seed, "mixed")
        b = decompose(rho)
        rhs = 0.25 * (1.0 + b.x @ b.x + b.y @ b.y + np.sum(b.t**2))
        assert abs(purity(rho) - rhs) < 1e-10


def test_partial_transpose_product_projector():
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1] = 1.0
    assert np.array_equal(partial_transpose(rho), rho)


def test_partial_transpose_bell_eigenvalues():
    ev = np.linalg.eigvalsh(partial_transpose(bell_projector()))
    assert np.allclose(np.sort(ev), [-0.5, 0.5, 0.5, 0.5], atol=1e-14)


def test_partial_transpose_involution_and_bounds():
    for seed in range(50):
        rho = random_state(seed, "mixed")
        pt = partial_transpose(rho)
        assert np.max(np.abs(pt - pt.conj().T)) < 1e-14
        assert abs(np.trace(pt) - 1.0) < 1e-14
        assert np.max(np.abs(partial_transpose(pt) - rho)) == 0.0
        ev = np.linalg.eigvalsh(pt)
        assert ev[0] >= -0.5 - 1e-12 and ev[-1] <= 1.0 + 1e-12


def test_random_pure_state():
    rho = random_state(1, "pure")
    assert np.linalg.eigvalsh(rho)[0] >= -1e-12
    assert abs(purity(rho) - 1.0) < 1e-12


def test_random_xshape_zero_pattern():
    rho = random_state(2, "xshape")
    for i, j in ((0, 1), (0, 2), (1, 3), (2, 3)):
        assert rho[i, j] == 0.0
        assert rho[j, i] == 0.0
    validate_state(rho)


def test_random_state_determinism():
    for kind in ("pure", "mixed", "xshape"):
        a = random_state(42, kind)
        b = random_state(42, kind)
        assert np.array_equal(a, b)


def test_random_state_unknown_kind():
    with pytest.raises(ValueError):
        random_state(0, "thermal")


def test_random_states_are_valid():
    for seed in range(30):
        for kind in ("pure", "mixed", "xshape"):
            validate_state(random_state(seed, kind))


def test_json_roundtrip_bit_exact():
    for seed in range(20):
        rho = random_state(seed, "mixed")
        doc = json.loads(json.dumps(state_to_json(rho)))
        back = state_from_json(doc)
        assert np.array_equal(back, rho)


def test_json_layout():
    doc = state_to_json(bell_projector())
    assert list(doc.keys()) == ["basis", "matrix"]
    assert doc["basis"] == ["ee", "eg", "ge", "gg"]
    assert doc["matrix"][0][3] == [0.5, 0.0]


def test_json_rejects_wrong_basis():
    doc = state_to_json(bell_projector())
    doc["basis"] = ["00", "01", "10", "11"]
    with pytest.raises(ValueError):
        state_from_json(doc)
