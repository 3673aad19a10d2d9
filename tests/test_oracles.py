"""Brute-force oracles against the closed-form measures."""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fermicorr import (
    DirectionGrid,
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
from fermicorr.cli import oracle_check
from fermicorr.oracles import (
    _antipodal_half,
    _chsh_value,
    _measurement_residual,
    _moments,
    _pair_covariance,
    _residual_form,
    _search,
)
from fermicorr.states import IDENTITY_2, PAULI

from conftest import bell_projector, coeffs_from_state

GRID = DirectionGrid()

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)
states = st.builds(
    random_state, st.integers(0, 2**32 - 1), st.sampled_from(["mixed", "xshape"])
)
all_states = st.builds(
    random_state, st.integers(0, 2**32 - 1), st.sampled_from(["mixed", "xshape", "pure"])
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
    # an odd azimuth count leaves far-half directions without an antipode
    # in the searched half
    with pytest.raises(ValueError, match="azimuth_steps must be even"):
        DirectionGrid(azimuth_steps=49)


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
        value = chsh_gridopt(rho, GRID)
        assert abs(value - bell_opt(coeffs_from_state(rho))) < 1e-5
        assert value <= 2.0 * math.sqrt(2.0) + 1e-6


# States on which a fixed number of refinement rounds stalls on a flat ridge
# of near-degenerate singular values: discord (4000201), connected
# correlation (11000152, 2636, 2254) and CHSH (110000372, 502, 1888).
RIDGE_SEEDS = [4000201, 11000152, 2636, 2254, 110000372, 502, 1888]


@pytest.mark.parametrize("seed", RIDGE_SEEDS)
def test_oracle_check_resolves_ridge_states(seed):
    rep = oracle_check(1, seed, GRID)
    assert rep["ok"] is True
    assert max(rep["max_deviation"].values()) <= 1e-9, rep["max_deviation"]


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
    form = _residual_form(rho)
    residual = _measurement_residual(form, n)
    assert abs(_measurement_residual(form, -n) - residual)[0] <= 1e-14
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
        moments, form = _moments(rho), _residual_form(rho)
        assert abs(
            _measurement_residual(form, half).min() - _measurement_residual(form, dirs).min()
        ) <= 1e-14
        assert abs(
            _pair_covariance(moments, half, dirs).max() - _pair_covariance(moments, dirs, dirs).max()
        ) <= 1e-14
        corr = _moments(random_state(seed, "xshape"))[0]
        assert abs(_chsh_value(corr, half, half).max() - _chsh_value(corr, dirs, dirs).max()) <= 1e-14


# The three search objectives as first written: the explicit projector sum,
# the covariance with its outer product subtracted, and the CHSH Gram form
# over the whole (b, b') batch at once. The oracles must land where these do.
def _residual_reference(rho, dirs):
    axis = np.einsum("mi,ijk->mjk", dirs, np.stack(PAULI))
    measured = np.zeros((dirs.shape[0], 4, 4), dtype=complex)
    for sign in (1.0, -1.0):
        proj = 0.5 * (IDENTITY_2 + sign * axis)
        k4 = np.einsum("mab,cd->macbd", proj, IDENTITY_2).reshape(-1, 4, 4)
        measured += np.einsum("mij,jk,mkl->mil", k4, rho, k4)
    diff = rho[None, :, :] - measured
    return 2.0 * np.einsum("mij,mij->m", diff, diff.conj()).real


@PROPERTY
@given(rho=all_states, n=axes, m=axes)
def test_measurement_residual_matches_projector_definition(rho, n, m):
    # 2 ||rho - sum_+- (P+- (x) 1) rho (P+- (x) 1)||_2^2, one projector pair per axis
    dirs = np.stack([n, m, -n])
    residual = _measurement_residual(_residual_form(rho), dirs)
    assert np.abs(residual - _residual_reference(rho, dirs)).max() <= 1e-14


def _covariance_reference(moments, dirs_a, dirs_b):
    corr, x, y = moments
    return dirs_a @ corr @ dirs_b.T - np.outer(dirs_a @ x, dirs_b @ y)


def _chsh_reference(corr, dirs_b, dirs_bp):
    tb = dirs_b @ corr.T
    tbp = dirs_bp @ corr.T
    cross = 2.0 * (tb @ tbp.T)
    plus = np.add.outer(np.einsum("mi,mi->m", tb, tb), np.einsum("mi,mi->m", tbp, tbp))
    minus = plus - cross
    plus += cross
    for squared in (plus, minus):
        np.sqrt(np.maximum(squared, 0.0, out=squared), out=squared)
    return plus + minus


REGRESSION_SEEDS = [*range(30), 502, 564, 1888, 110000372]


@pytest.mark.parametrize("seed", REGRESSION_SEEDS)
def test_oracles_match_reference_objectives(seed):
    dirs = GRID.directions()
    half = _antipodal_half(dirs)
    rho = random_state(seed, "mixed")
    ref_value, (ref_n,) = _search(lambda d: _residual_reference(rho, d), [half], GRID, -1.0)
    form = _residual_form(rho)
    value, (n,) = _search(lambda d: _measurement_residual(form, d), [half], GRID, -1.0)
    assert abs(value - ref_value) <= 1e-14
    assert np.abs(n - ref_n).max() <= 1e-12
    assert abs(discord_bruteforce(rho, GRID) - ref_value) <= 1e-14

    moments = _moments(rho)
    ref_value, ref_axes = _search(lambda a, b: _covariance_reference(moments, a, b),
                                  [half, dirs], GRID)
    value, n, n_prime = maxcorr_bruteforce(rho, GRID)
    assert abs(value - ref_value) <= 1e-14
    assert np.abs(np.stack([n, n_prime]) - np.stack(ref_axes)).max() <= 1e-12

    corr = _moments(random_state(seed, "xshape"))[0]
    ref_value, _ = _search(lambda b, bp: _chsh_reference(corr, b, bp), [half, half], GRID)
    assert chsh_gridopt(random_state(seed, "xshape"), GRID) == ref_value
