"""Brute-force oracles against the closed-form measures."""
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fermicorr import connected_correlation, geometric_discord, negativity, oracles, random_state
from fermicorr.amplitudes import XStateCoefficients
from fermicorr.cli import oracle_check
from fermicorr.measures import bell_opt
from fermicorr.oracles import (
    DirectionGrid,
    _chsh_axes,
    _chsh_value,
    _covariance_rows,
    _measurement_residual,
    _moments,
    _pair_covariance,
    _residual_form,
    _search,
    chsh_gridopt,
    discord_bruteforce,
    maxcorr_bruteforce,
    negativity_eig,
)
from fermicorr.states import IDENTITY_2, PAULI

from conftest import bell_projector

GRID = DirectionGrid()
GOLDEN = Path(__file__).parent / "data" / "oracle_golden.json"

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
    dirs = GRID.directions
    assert np.any(np.all(np.abs(dirs - [0.0, 0.0, 1.0]) < 1e-15, axis=1))
    assert np.any(np.all(np.abs(dirs - [0.0, 0.0, -1.0]) < 1e-15, axis=1))
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-14)


def test_directions_built_once_per_grid_and_read_only():
    grid = DirectionGrid()
    dirs, half = grid.directions, grid.half
    assert grid.directions is dirs and grid.half is half
    for array in (dirs, half):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 0.0
    # another grid object builds its own array, equal for equal fields
    assert DirectionGrid().directions is not dirs
    assert np.array_equal(DirectionGrid().directions, dirs)
    assert DirectionGrid(polar_steps=25).directions.shape == (25 * 48, 3)


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
        assert abs(value - bell_opt(XStateCoefficients.from_matrix(rho))) < 1e-5
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


def _covariance_matrix(rho):
    """W = T - x y^T from the Pauli moments of ``rho``."""
    corr, x, y = _moments(rho)
    return corr - np.outer(x, y)


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
        cov = _pair_covariance(_covariance_matrix(rho), dirs_a, dirs_b)
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
    corr, w = _moments(rho)[0], _covariance_matrix(rho)
    form = _residual_form(rho)
    residual = _measurement_residual(form, n)
    assert abs(_measurement_residual(form, -n) - residual)[0] <= 1e-14
    cov = _pair_covariance(w, n, nprime)
    assert abs(_pair_covariance(w, -n, -nprime) - cov)[0, 0] <= 1e-14
    chsh = _chsh_value(corr, n, nprime)
    assert abs(_chsh_value(corr, -n, nprime) - chsh)[0, 0] <= 1e-14
    assert abs(_chsh_value(corr, n, -nprime) - chsh)[0, 0] <= 1e-14


@pytest.mark.parametrize("grid", [GRID, DirectionGrid(polar_steps=25, azimuth_steps=50)])
def test_antipodal_half_holds_one_of_each_pair(grid):
    dirs, half = grid.directions, grid.half
    assert 2 * len(half) == len(dirs)
    mirror = np.linalg.norm(dirs[len(half):, None, :] + half[None, :, :], axis=-1)
    assert mirror.min(axis=1).max() <= 1e-15


def test_half_grid_coarse_optimum_equals_full_grid():
    dirs, half = GRID.directions, GRID.half
    for seed in range(30):
        rho = random_state(seed, "mixed")
        w, form = _covariance_matrix(rho), _residual_form(rho)
        assert abs(
            _measurement_residual(form, half).min() - _measurement_residual(form, dirs).min()
        ) <= 1e-14
        assert abs(
            _pair_covariance(w, half, dirs).max() - _pair_covariance(w, dirs, dirs).max()
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


# 2000160, 7000603 and 14000700 run the CHSH search to its 200-round cap
REGRESSION_SEEDS = [*range(30), 502, 564, 1888, 110000372, 2000160, 7000603, 14000700]


def test_pruned_coarse_pick_equals_full_grid(monkeypatch):
    # no refinement round: _search returns its coarse value and axes. The
    # Bell projector, a product state and I/4 (T = W = 0) tie many pairs. So
    # do a Werner state, where every |W^T n| is 0.4, and T = diag(0.3, -0.3, 0),
    # where |Tb| is 0.3 on the equator; without the slack, rounding drops the
    # first maximum's row or axis on these two.
    monkeypatch.setattr(oracles, "_MAX_ROUNDS", 0)
    dirs, half = GRID.directions, GRID.half
    seeds = sorted(set(range(300)) | set(REGRESSION_SEEDS))
    dephased = np.eye(4, dtype=complex) / 4.0
    dephased[0, 3] = dephased[3, 0] = 0.15
    werner = 0.4 * bell_projector() + (1.0 - 0.4) / 4.0 * np.eye(4, dtype=complex)
    ties = [bell_projector(), pure_product_state(), np.eye(4) / 4.0 + 0j, werner, dephased]
    for rho in [random_state(s, kind) for s in seeds for kind in ("mixed", "xshape")] + ties:
        corr, w = _moments(rho)[0], _covariance_matrix(rho)

        def covariance(a, b):
            return _pair_covariance(w, a, b)

        value, axes = _search(covariance, [_covariance_rows(w, half, dirs), dirs], GRID)
        ref_value, ref_axes = _search(covariance, [half, dirs], GRID)
        # a pruned block can round n W one ulp apart from a full one
        assert abs(value - ref_value) <= 1e-15
        assert np.array_equal(np.stack(axes), np.stack(ref_axes))

        def chsh(b, bp):
            return _chsh_value(corr, b, bp)

        kept = _chsh_axes(corr, half)
        value, axes = _search(chsh, [kept, kept], GRID, symmetric=True)
        ref_value, ref_axes = _search(chsh, [half, half], GRID, symmetric=True)
        assert value == ref_value
        assert np.array_equal(np.stack(axes), np.stack(ref_axes))


@pytest.mark.parametrize("seed", REGRESSION_SEEDS)
def test_oracles_match_reference_objectives(seed):
    dirs, half = GRID.directions, GRID.half
    rho = random_state(seed, "mixed")
    # the discord is a minimum: the search maximizes the negated residual
    ref_value, (ref_n,) = _search(lambda d: -_residual_reference(rho, d), [half], GRID)
    form = _residual_form(rho)
    value, (n,) = _search(lambda d: -_measurement_residual(form, d), [half], GRID)
    discord, ref_discord = -value, -ref_value
    assert abs(discord - ref_discord) <= 1e-14
    assert np.abs(n - ref_n).max() <= 1e-12
    assert abs(discord_bruteforce(rho, GRID) - ref_discord) <= 1e-14

    moments = _moments(rho)
    ref_value, ref_axes = _search(lambda a, b: _covariance_reference(moments, a, b),
                                  [half, dirs], GRID)
    value, n, n_prime = maxcorr_bruteforce(rho, GRID)
    assert abs(value - ref_value) <= 1e-14
    assert np.abs(np.stack([n, n_prime]) - np.stack(ref_axes)).max() <= 1e-12

    corr = _moments(random_state(seed, "xshape"))[0]
    ref_value, _ = _search(lambda b, bp: _chsh_reference(corr, b, bp), [half, half], GRID)
    assert chsh_gridopt(random_state(seed, "xshape"), GRID) == ref_value


def _coarse_pick(table, dirs, symmetric):
    """(value, indices) that _search keeps for a table looked up by the exact
    coarse directions; every other direction scores below the table, so no
    refinement round improves on the coarse pick."""
    index = {d.tobytes(): i for i, d in enumerate(dirs)}

    def lookup(batch):
        return np.array([index.get(d.tobytes(), -1) for d in batch])

    def objective(a, b):
        rows, cols = lookup(a), lookup(b)
        vals = table[np.ix_(rows, cols)]
        vals[(rows < 0)[:, None] | (cols < 0)[None, :]] = -1.0
        return vals

    value, axes = _search(objective, [dirs, dirs], GRID, symmetric=symmetric)
    return value, tuple(int(lookup(axis[None])[0]) for axis in axes)


@pytest.mark.parametrize("symmetric", [False, True])
def test_coarse_search_keeps_first_row_major_maximum(symmetric):
    # the maximum repeats inside the row block 48-95 and again in block 96-143:
    # the coarse pick must be np.argmax's, not the last block's
    rng = np.random.default_rng(3)
    dirs = rng.standard_normal((200, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    table = rng.integers(0, 5, (200, 200)).astype(float)
    if symmetric:
        table += table.T
        ties = [(60, 150), (70, 75), (130, 140)]
        ties += [(j, i) for i, j in ties]
    else:
        ties = [(60, 10), (60, 150), (70, 5), (130, 2)]
    for i, j in ties:
        table[i, j] = 9.0
    first = np.unravel_index(int(np.argmax(table)), table.shape)
    assert first == ((60, 150) if symmetric else (60, 10))
    assert _coarse_pick(table, dirs, symmetric) == (9.0, first)


def test_oracles_match_golden_values():
    # discord, maxcorr (value and axes) and CHSH of 40 seeded states, as the
    # oracles gave them when this file was written
    for row in json.loads(GOLDEN.read_text()):
        rho = random_state(row["seed"], row["kind"])
        value, n, n_prime = maxcorr_bruteforce(rho, GRID)
        assert abs(discord_bruteforce(rho, GRID) - row["discord"]) <= 1e-12
        assert abs(value - row["maxcorr"]) <= 1e-12
        assert np.abs(n - row["n"]).max() <= 1e-12
        assert np.abs(n_prime - row["n_prime"]).max() <= 1e-12
        assert abs(chsh_gridopt(rho, GRID) - row["chsh"]) <= 1e-12
