"""Brute-force oracles against the closed-form measures."""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fermicorr import (
    DirectionGrid,
    XStateCoefficients,
    bell_opt,
    chsh_gridopt,
    connected_correlation,
    discord_bruteforce,
    geometric_discord,
    maxcorr_bruteforce,
    negativity,
    negativity_eig,
    random_state,
)
from fermicorr.oracles import (
    _antipodal_half,
    _chsh_value,
    _measurement_residual,
    _moments,
    _pair_covariance,
)
from fermicorr.states import IDENTITY_2, PAULI

from conftest import bell_projector

GRID = DirectionGrid()

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)
states = st.builds(
    random_state, st.integers(0, 2**32 - 1), st.sampled_from(["mixed", "xshape"])
)
axes = st.builds(
    lambda theta, phi: np.array(
        [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]
    ),
    st.floats(0.0, math.pi),
    st.floats(0.0, 2.0 * math.pi),
)


def pure_product_state():
    v = np.kron([1.0, 0.0], [0.6, 0.8])
    return np.outer(v, v).astype(complex)


def test_direction_grid_validation():
    with pytest.raises(ValueError, match="polar_steps"):
        DirectionGrid(polar_steps=8)
    with pytest.raises(ValueError, match="azimuth_steps"):
        DirectionGrid(azimuth_steps=16)
    with pytest.raises(ValueError, match="refine_rounds"):
        DirectionGrid(refine_rounds=1)


def test_direction_grid_includes_poles():
    dirs = GRID.directions()
    assert np.any(np.all(np.abs(dirs - [0.0, 0.0, 1.0]) < 1e-15, axis=1))
    assert np.any(np.all(np.abs(dirs - [0.0, 0.0, -1.0]) < 1e-15, axis=1))
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-14)


def test_discord_bruteforce_product_state():
    assert discord_bruteforce(pure_product_state(), GRID) < 1e-8


def test_discord_bruteforce_bell_projector():
    assert discord_bruteforce(bell_projector(), GRID) == pytest.approx(1.0, abs=1e-6)


def test_discord_bruteforce_matches_closed_form():
    for seed in range(30):
        rho = random_state(seed, "mixed")
        closed = geometric_discord(rho)
        brute = discord_bruteforce(rho, GRID)
        assert brute >= closed - 1e-6  # a grid can only overshoot a minimum
        assert abs(brute - closed) < 1e-5


def test_discord_refinement_monotone():
    rho = random_state(123, "mixed")
    values = [
        discord_bruteforce(rho, DirectionGrid(refine_rounds=r)) for r in (2, 3, 4, 6)
    ]
    assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


def test_max_oracles_refinement_monotone():
    rho = random_state(123, "mixed")
    rounds = (2, 3, 4, 6)
    corr_values = [maxcorr_bruteforce(rho, DirectionGrid(refine_rounds=r))[0] for r in rounds]
    chsh_values = [chsh_gridopt(rho, DirectionGrid(refine_rounds=r)) for r in rounds]
    assert all(a <= b + 1e-15 for a, b in zip(corr_values, corr_values[1:]))
    assert all(a <= b + 1e-15 for a, b in zip(chsh_values, chsh_values[1:]))


def test_maxcorr_bruteforce_bell_projector():
    value, n, nprime = maxcorr_bruteforce(bell_projector(), GRID)
    assert value == pytest.approx(1.0, abs=1e-5)
    assert abs(np.linalg.norm(n) - 1.0) < 1e-12
    assert abs(np.linalg.norm(nprime) - 1.0) < 1e-12


def test_maxcorr_bruteforce_matches_closed_form():
    for seed in range(30):
        rho = random_state(seed, "mixed")
        closed = connected_correlation(rho)
        value, _, _ = maxcorr_bruteforce(rho, GRID)
        assert value <= closed + 1e-6  # a grid can only undershoot a maximum
        assert abs(value - closed) < 1e-5


def test_negativity_eig_separable_mixture():
    rng = np.random.default_rng(5)
    rho = np.zeros((4, 4), dtype=complex)
    for _ in range(5):
        va = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        vb = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v = np.kron(va / np.linalg.norm(va), vb / np.linalg.norm(vb))
        rho += rng.uniform(0.1, 1.0) * np.outer(v, v.conj())
    rho /= np.trace(rho).real
    assert negativity_eig(rho) < 1e-10


def test_negativity_eig_bell_projector():
    assert negativity_eig(bell_projector()) == pytest.approx(1.0, abs=1e-13)


def test_negativity_dual_path_equivalence():
    for seed in range(1000):
        rho = random_state(seed, "mixed")
        assert abs(negativity_eig(rho) - negativity(rho)) < 1e-12


def test_chsh_gridopt_bell_projector():
    assert chsh_gridopt(bell_projector(), GRID) == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-4)


def test_chsh_gridopt_product_state():
    assert chsh_gridopt(pure_product_state(), GRID) == pytest.approx(2.0, abs=1e-4)


def test_chsh_gridopt_matches_bell_opt():
    for seed in range(30):
        rho = random_state(seed, "xshape")
        co = XStateCoefficients(
            rho11=rho[0, 0].real, rho22=rho[1, 1].real,
            rho33=rho[2, 2].real, rho44=rho[3, 3].real,
            rho14=complex(rho[0, 3]), rho23=complex(rho[1, 2]), c=1.0,
        )
        value = chsh_gridopt(rho, GRID)
        assert abs(value - bell_opt(co)) < 1e-4
        assert value <= 2.0 * math.sqrt(2.0) + 1e-6


def test_oracles_deterministic():
    rho = random_state(77, "mixed")
    assert discord_bruteforce(rho, GRID) == discord_bruteforce(rho, GRID)
    v1 = maxcorr_bruteforce(rho, GRID)
    v2 = maxcorr_bruteforce(rho, GRID)
    assert v1[0] == v2[0]
    assert np.array_equal(v1[1], v2[1]) and np.array_equal(v1[2], v2[2])
    assert chsh_gridopt(rho, GRID) == chsh_gridopt(rho, GRID)


def _axis_operator(n):
    return sum(c * s for c, s in zip(n, PAULI))


def test_pair_covariance_matches_operator_definition():
    rng = np.random.default_rng(11)
    for seed in range(20):
        rho = random_state(seed, "mixed" if seed % 2 else "xshape")
        dirs_a, dirs_b = (
            v / np.linalg.norm(v, axis=1, keepdims=True)
            for v in rng.standard_normal((2, 6, 3))
        )
        cov = _pair_covariance(_moments(rho), dirs_a, dirs_b)
        for i, n in enumerate(dirs_a):
            sn = _axis_operator(n)
            for j, m in enumerate(dirs_b):
                sm = _axis_operator(m)
                joint = np.trace(rho @ np.kron(sn, sm)).real
                local_a = np.trace(rho @ np.kron(sn, IDENTITY_2)).real
                local_b = np.trace(rho @ np.kron(IDENTITY_2, sm)).real
                assert abs(cov[i, j] - (joint - local_a * local_b)) <= 1e-13


def _chsh_explicit(corr, b, bp):
    return np.linalg.norm(corr @ (b + bp)) + np.linalg.norm(corr @ (b - bp))


@PROPERTY
@given(rho=states, b=axes, bp=axes)
def test_chsh_gram_form_matches_explicit_norms(rho, b, bp):
    # the Gram form loses digits where |T b -+ T b'| is small, whether b' is
    # near +-b or b -+ b' lies near a null direction of T
    corr = _moments(rho)[0]
    assume(min(np.linalg.norm(corr @ (b - bp)), np.linalg.norm(corr @ (b + bp))) >= 0.01)
    assert abs(_chsh_value(corr, b[None], bp[None])[0, 0] - _chsh_explicit(corr, b, bp)) <= 1e-12


@PROPERTY
@given(rho=states, b=axes, sign=st.sampled_from([1.0, -1.0]))
def test_chsh_gram_form_cancellation_at_parallel_axes(rho, b, sign):
    corr = _moments(rho)[0]
    bp = sign * b
    assert abs(_chsh_value(corr, b[None], bp[None])[0, 0] - _chsh_explicit(corr, b, bp)) <= 1e-7


@PROPERTY
@given(rho=states, n=axes, nprime=axes)
def test_oracle_objectives_even_in_each_axis(rho, n, nprime):
    n, nprime = n[None], nprime[None]
    moments = _moments(rho)
    residual = _measurement_residual(rho, n)
    assert abs(_measurement_residual(rho, -n) - residual)[0] <= 1e-14
    cov = _pair_covariance(moments, n, nprime)
    assert abs(_pair_covariance(moments, -n, -nprime) - cov)[0, 0] <= 1e-14
    chsh = _chsh_value(moments[0], n, nprime)
    assert abs(_chsh_value(moments[0], -n, nprime) - chsh)[0, 0] <= 1e-14
    assert abs(_chsh_value(moments[0], n, -nprime) - chsh)[0, 0] <= 1e-14


@pytest.mark.parametrize("grid", [GRID, DirectionGrid(polar_steps=25, azimuth_steps=50)])
def test_antipodal_half_holds_one_of_each_pair(grid):
    dirs = grid.directions()
    half = _antipodal_half(dirs)
    assert 2 * len(half) == len(dirs)
    mirror = np.linalg.norm(dirs[len(half):, None, :] + half[None, :, :], axis=-1)
    assert mirror.min(axis=1).max() <= 1e-15


def test_half_grid_coarse_optimum_equals_full_grid():
    dirs = GRID.directions()
    half = _antipodal_half(dirs)
    for seed in range(30):
        rho = random_state(seed, "mixed")
        moments = _moments(rho)
        assert abs(
            _measurement_residual(rho, half).min() - _measurement_residual(rho, dirs).min()
        ) <= 1e-14
        assert abs(
            _pair_covariance(moments, half, dirs).max() - _pair_covariance(moments, dirs, dirs).max()
        ) <= 1e-14
        corr = _moments(random_state(seed, "xshape"))[0]
        assert abs(_chsh_value(corr, half, half).max() - _chsh_value(corr, dirs, dirs).max()) <= 1e-14
