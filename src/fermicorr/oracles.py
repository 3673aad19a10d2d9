"""Brute-force validators for the closed-form measures and the amplitudes.

Each measure oracle evaluates its objective directly from expectation values
measured on the state and optimizes by deterministic grid search with local
refinement, so the closed forms in :mod:`fermicorr.measures` can be checked
against an independent code path. Refinement steps move in the tangent plane
of the current best direction, which keeps the search well-behaved at the
coordinate poles, and stop once their window is below a fixed floor.

Every objective is written so that one coarse step is a few matrix
products. The discord residual of the projective measurement along n on
qubit A is the quadratic form 2 ||rho - Pi_n(rho)||_2^2 = Tr rho^2 - n^T Q n,
with Q_ij = Re Tr(rho K_i rho K_j) and K_i = s_i (x) 1 taken once per call
from the state (see :func:`_residual_form`). The Pauli moments
T_ab = <s_a s_b>, x_a = <s_a 1> and y_b = <1 s_b> are measured entry-wise
from the state once per call; the connected correlation of axis batches A, B
is then (A W) B^T with W = T - x y^T. The CHSH objective
|Tb + Tb'| + |Tb - Tb'| uses the Gram form |Tb +- Tb'|^2 = |Tb|^2 + |Tb'|^2
+- 2 Tb.Tb' from one product of the two batches. Where |Tb -+ Tb'| is small
that branch cancels before its square root, which can cost about 1e-8
absolute (at b' = +-b, the root of a rounding error of |Tb|^2 <= 1), far
inside the 1e-5 and 1e-4 Bell tolerances.

Every objective is even in each measurement axis (a projective measurement
along -n is the one along n, and the covariance and CHSH value change sign
in pairs or not at all), so the coarse search runs on the antipodal half of
the grid, ``DirectionGrid.half``: the first half of the theta-major
``DirectionGrid.directions``, which holds one direction of each antipodal
pair, as ``azimuth_steps`` is even. :func:`_search` only maximizes and holds
no coarse table: it keeps a running best over blocks of 48 rows, whose
temporaries stay in cache; CHSH, symmetric in b and b', takes about the
triangle b <= b' of each block. Two bounds drop the axes that cannot hold
the coarse maximum: n^T W n' <= |W^T n| for unit n' (Cauchy-Schwarz), and
|Tb + Tb'| + |Tb - Tb'| <= 2 sqrt(|Tb|^2 + M) with M = max |Tb'|^2. The
floor is the best pair of the axis of largest bound, a value the grid
attains. An axis goes only if its bound is below the floor by more than
_PRUNE_SLACK = 1e-6, which exceeds the bounds' rounding and the Gram form's
1e-8, so each of its pairs scores strictly below that value. The kept axes
stay in order: the first row-major maximum is the full grid's.

The amplitude oracle sums the emission weights and the pair coherence over
field modes instead of integrating over time differences, which checks the
time-difference closed form of :mod:`fermicorr.amplitudes`.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial.legendre import leggauss

from .amplitudes import ModelParams
from .states import IDENTITY_2, PAULI, partial_transpose, validate_state

_SIGMA_1 = np.stack((IDENTITY_2,) + PAULI)  # (4, 2, 2), identity first
_SIGMA_A = np.stack([np.kron(s, IDENTITY_2) for s in PAULI])  # (3, 4, 4): s_i (x) 1

# 9-point meshes over a +-w window: the offsets in units of w as (81, 1) columns
# of the 9 x 9 grid in row-major order, and the mesh indices of its outer ring
_REFINE_MESH = 9
_MESH_STEPS = np.linspace(-1.0, 1.0, _REFINE_MESH)
_MESH_A = np.repeat(_MESH_STEPS, _REFINE_MESH)[:, None]
_MESH_B = np.tile(_MESH_STEPS, _REFINE_MESH)[:, None]
_MESH_RING = frozenset(np.flatnonzero(np.maximum(abs(_MESH_A), abs(_MESH_B)) == 1.0).tolist())

# refinement ends once its window is below the floor; the cap only bounds the loop
_WINDOW_FLOOR = 1e-5
_MAX_ROUNDS = 200

# rows of the first batch per coarse block: its (48, 1152) temporaries stay in cache
_COARSE_ROWS = 48
# slack of the coarse pruning bounds: above their rounding and the CHSH Gram form's 1e-8
_PRUNE_SLACK = 1e-6

# tangent-plane seeds: x, or y where the center lies near +-x
_SEED_X, _SEED_Y = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])

# Mode integrals run over k in (0, 40*cutoff); panel width resolves the
# slowest oscillation period of the integrands (>= 2*pi/2.4 here).
_MODE_RANGE = 40.0
_MODE_PANEL_WIDTH = 0.3
_MODE_PANEL_ORDER = 8


@dataclass(frozen=True)
class DirectionGrid:
    """Spherical search grid: polar x azimuth nodes."""

    polar_steps: int = 24
    azimuth_steps: int = 48

    def __post_init__(self):
        if self.polar_steps < 24:
            raise ValueError(f"polar_steps must be >= 24, got {self.polar_steps}")
        if self.azimuth_steps < 48 or self.azimuth_steps % 2:
            raise ValueError(f"azimuth_steps must be even and >= 48, got {self.azimuth_steps}")

    @cached_property
    def directions(self) -> np.ndarray:
        """Coarse unit-vector grid with the exact poles, theta-major: built
        once per grid object, read-only."""
        theta = np.linspace(0.0, np.pi, self.polar_steps)
        phi = np.linspace(0.0, 2.0 * np.pi, self.azimuth_steps, endpoint=False)
        tt, pp = np.meshgrid(theta, phi, indexing="ij")
        st = np.sin(tt.ravel())
        dirs = np.stack([st * np.cos(pp.ravel()), st * np.sin(pp.ravel()), np.cos(tt.ravel())], -1)
        dirs.flags.writeable = False
        return dirs

    @cached_property
    def half(self) -> np.ndarray:
        """First half of ``directions``: the polar rows from the north pole
        down, plus half of the equator row when the row count is odd. With
        an even azimuth count it holds one direction of every antipodal pair."""
        return self.directions[: len(self.directions) // 2]

    def initial_window(self) -> float:
        """Tangent-plane half-width covering one coarse grid cell."""
        return np.pi / (self.polar_steps - 1) + 2.0 * np.pi / self.azimuth_steps


def _tangent_mesh(center: np.ndarray, half_width: float) -> np.ndarray:
    """Unit vectors fanned around ``center`` in its tangent plane."""
    seed = _SEED_X if abs(center[0]) < 0.9 else _SEED_Y
    e1 = seed - np.dot(seed, center) * center
    e1 /= np.sqrt(e1.dot(e1))  # what np.linalg.norm computes for a real vector
    # center x e1 by components: np.cross costs more than the rest of the mesh
    cx, cy, cz = center
    e2 = np.array([cy * e1[2] - cz * e1[1], cz * e1[0] - cx * e1[2], cx * e1[1] - cy * e1[0]])
    dirs = center + (half_width * _MESH_A) * e1 + (half_width * _MESH_B) * e2
    return dirs / np.sqrt(np.add.reduce(dirs * dirs, axis=1, keepdims=True))


def _search(objective, coarse_batches, grid: DirectionGrid, symmetric: bool = False):
    """Maximize ``objective`` over one measurement axis per batch.

    ``objective`` maps k direction batches to an array with one axis per
    batch. The coarse step evaluates it on ``coarse_batches``, _COARSE_ROWS
    rows of the first of k > 1 batches at a time; a block replaces the best
    only if strictly greater, so the first row-major maximum is kept, as by
    np.argmax over the whole table. symmetric=True declares two equal batches
    and a symmetric table: each block's columns start at its first row, which
    keeps that maximum, since its row <= its column. Each round evaluates
    ``objective`` on tangent meshes of half-width w around the best axes so
    far. A round whose best point improves on the outer ring of a mesh moves
    there and doubles w, up to its start of one grid cell; any other round
    keeps an improvement and quarters w. The search ends once
    w < _WINDOW_FLOOR, or after _MAX_ROUNDS rounds. Returns (value, axes):
    the best value and a list of its k axes.
    """
    def best_of(batches):
        vals = objective(*batches)
        flat = int(vals.argmax())
        idx = divmod(flat, vals.shape[1]) if vals.ndim == 2 else (flat,)
        return vals[idx], [batch[i] for batch, i in zip(batches, idx)], idx

    first, *rest = coarse_batches
    rows = _COARSE_ROWS if rest else len(first)
    best = -np.inf
    for start in range(0, len(first), rows):
        block = [first[start:start + rows]] + [b[start:] if symmetric else b for b in rest]
        value, centers, _ = best_of(block)
        if value > best:
            best, axes = value, centers
    w = w_max = grid.initial_window()
    for _ in range(_MAX_ROUNDS):
        value, centers, idx = best_of([_tangent_mesh(axis, w) for axis in axes])
        improved = value > best
        if improved:
            best, axes = value, centers
        w = min(2.0 * w, w_max) if improved and not _MESH_RING.isdisjoint(idx) else 0.25 * w
        if w < _WINDOW_FLOOR:
            break
    return float(best), axes


def _moments(rho: np.ndarray):
    """Pauli moments (T, x, y) of a state, each entry measured as
    Tr(rho s_a (x) s_b) with s_0 the identity."""
    rho4 = rho.reshape(2, 2, 2, 2)
    r = np.einsum("ikjl,aji,blk->ab", rho4, _SIGMA_1, _SIGMA_1).real
    return r[1:, 1:], r[1:, 0], r[0, 1:]


def _residual_form(rho: np.ndarray):
    """(Tr rho^2, Q) with Q_ij = Re Tr(rho K_i rho K_j) and K_i = s_i (x) 1.

    The measurement along n, Pi_n(rho) = sum_+- P_+- rho P_+- with
    P_+- = (1 +- K_n)/2 and K_n = sum_i n_i K_i, is (rho + K_n rho K_n)/2.
    K_n is Hermitian and squares to 1, so
    2 ||rho - Pi_n(rho)||_2^2 = ||rho - K_n rho K_n||_2^2 / 2 = Tr rho^2 - n^T Q n.
    """
    rk = rho @ _SIGMA_A
    return np.einsum("ab,ba->", rho, rho).real, np.einsum("iab,jba->ij", rk, rk).real


def _measurement_residual(form, dirs):
    """2 ||rho - Pi_n(rho)||_2^2 for a batch of measurement axes on qubit A,
    from the form (Tr rho^2, Q) of :func:`_residual_form`."""
    purity, q = form
    return purity - np.einsum("mi,mi->m", dirs @ q, dirs)


def discord_bruteforce(rho: np.ndarray, grid: DirectionGrid) -> float:
    """Geometric discord by direct minimization over projective measurements.

    Minimizes 2 ||rho - Pi_n(rho)||_2^2 over the Bloch axis n of a projective
    measurement on the first qubit, by coarse search over the antipodal half
    of the grid plus tangent-plane refinement. Grid search can only overshoot
    a minimum, so the result brackets the closed form from above. The search
    maximizes the exact negation of the residual.
    """
    form = _residual_form(validate_state(rho))
    return -_search(lambda dirs: -_measurement_residual(form, dirs), [grid.half], grid)[0]


def _pair_covariance(w, dirs_a, dirs_b):
    """cov(n, n') = <(s.n)(s.n')> - <s.n><s.n'> = n^T W n' for direction
    batches, with W = T - x y^T from the moments (T, x, y) of :func:`_moments`."""
    return (dirs_a @ w) @ dirs_b.T


def _covariance_rows(w, half, dirs):
    """Rows n of ``half`` whose bound |W^T n| reaches the coarse floor."""
    rows = half @ w
    bound = np.sqrt(np.einsum("mi,mi->m", rows, rows))
    return half[bound >= (rows[bound.argmax()] @ dirs.T).max() - _PRUNE_SLACK]


def maxcorr_bruteforce(
    rho: np.ndarray, grid: DirectionGrid
) -> tuple[float, np.ndarray, np.ndarray]:
    """Maximum connected correlation by direct search over direction pairs.

    n runs over the antipodal half of the grid and n' over all of it, since
    cov(-n, -n') = cov(n, n'). Returns (value, n, n') with n, n' the
    maximizing measurement axes of the first and second qubit.
    """
    corr, x, y = _moments(validate_state(rho))
    w = corr - np.outer(x, y)
    rows = _covariance_rows(w, grid.half, grid.directions)
    value, (n, n_prime) = _search(lambda a, b: _pair_covariance(w, a, b),
                                  [rows, grid.directions], grid)
    return value, n, n_prime


def negativity_eig(rho: np.ndarray) -> float:
    """Negativity as twice the absolute sum of the negative eigenvalues of
    the partial transpose (eigendecomposition route)."""
    pt = partial_transpose(validate_state(rho))
    ev = np.linalg.eigvalsh(pt)
    return float(2.0 * np.sum(np.abs(ev[ev < 0.0])))


def _chsh_value(corr, dirs_b, dirs_bp):
    """Best CHSH value over the first party's axes for batches of (b, b').

    For fixed b, b' the optimum over unit a, a' is |T b + T b'| + |T b - T b'|,
    here in Gram form; see the module docstring for its cancellation bound.
    """
    tb = dirs_b @ corr.T
    tbp = dirs_bp @ corr.T
    cross = 2.0 * (tb @ tbp.T)
    plus = np.add.outer(np.einsum("mi,mi->m", tb, tb), np.einsum("mi,mi->m", tbp, tbp))
    minus = plus - cross
    plus += cross
    # rounding can leave |T(b -+ b')|^2 slightly negative near b' = +-b
    for squared in (plus, minus):
        np.sqrt(np.maximum(squared, 0.0, out=squared), out=squared)
    return plus + minus


def _chsh_axes(corr, half):
    """Axes b of ``half`` whose bound 2 sqrt(|Tb|^2 + M) reaches the coarse floor."""
    tb = half @ corr.T
    norm2 = np.einsum("mi,mi->m", tb, tb)
    floor = _chsh_value(corr, half[[norm2.argmax()]], half).max()
    return half[2.0 * np.sqrt(norm2 + norm2.max()) >= floor - _PRUNE_SLACK]


def chsh_gridopt(rho: np.ndarray, grid: DirectionGrid) -> float:
    """CHSH parameter maximized over all four measurement directions.

    The second party's two axes are grid-searched, each over the antipodal
    half of the grid, and refined; for each such pair the first party's axes
    are optimized exactly. The correlation matrix is measured entry-wise
    from the state.
    """
    corr = _moments(validate_state(rho))[0]
    dirs = _chsh_axes(corr, grid.half)
    return _search(lambda b, bp: _chsh_value(corr, b, bp), [dirs, dirs], grid,
                   symmetric=True)[0]


def mode_sum_amplitudes(p: ModelParams, xi: float) -> tuple[float, float, complex]:
    """Emission weights u2, v2 and pair coherence L by a sum over field modes.

    u2 = 2K int_0^inf k e^{-k/cutoff} sin^2((k-1) tau/2) / (k-1)^2 dk and v2
    the same with k+1 in place of k-1 (tau = xi * r_bar); L is minus the
    mode sum of cos(k r_bar) times the product P conj(M) of the per-mode
    counter-rotating and rotating emission amplitudes. One fixed Gauss rule
    sums them at unit coupling, 8 nodes on each panel of width 0.3 over
    (0, 40*cutoff), and K multiplies the sums last. This is an independent
    route to the values that :func:`fermicorr.amplitudes.compute_amplitudes`
    gets in closed form over time differences.
    """
    tau = xi * p.r_bar
    if tau <= 0.0:
        return 0.0, 0.0, 0.0j
    kmax = _MODE_RANGE * p.cutoff
    cuts = np.linspace(0.0, kmax, int(np.ceil(kmax / _MODE_PANEL_WIDTH)) + 1)
    x, w = leggauss(_MODE_PANEL_ORDER)
    mid = 0.5 * (cuts[:-1] + cuts[1:])[:, None]
    half = 0.5 * (cuts[1:] - cuts[:-1])[:, None]
    om = (mid + half * x[None, :]).ravel()
    base = om * np.exp(-om / p.cutoff) * (half * w[None, :]).ravel()
    # Gauss nodes never land exactly on the resonance om = 1
    inv_m = 1.0 / (om - 1.0)
    inv_p = 1.0 / (om + 1.0)
    # per-mode emission amplitudes |M|^2 = 4 sin^2((om-1) tau/2)/(om-1)^2 etc.,
    # built from one trig pair via angle addition
    s = np.sin(0.5 * tau * om)
    c = np.cos(0.5 * tau * om)
    ch, sh = np.cos(0.5 * tau), np.sin(0.5 * tau)
    sin_m = s * ch - c * sh
    sin_p = s * ch + c * sh
    u2 = float(2.0 * np.sum(base * sin_m**2 * inv_m**2))
    v2 = float(2.0 * np.sum(base * sin_p**2 * inv_p**2))
    # P conj(M) = [(e^{i tau} - 1)^2 + 4 e^{i tau} sin^2(om tau/2)] / ((om+1)(om-1));
    # the numerator must stay fused so its zero at om = 1 cancels per node
    eit = np.exp(1j * tau)
    numer = (eit - 1.0) ** 2 + 4.0 * eit * s**2
    pair_mode = complex(0.5 * np.sum(base * np.cos(om * p.r_bar) * inv_m * inv_p * numer))
    return p.coupling * u2, p.coupling * v2, -p.coupling * pair_mode
