"""Brute-force validators for the closed-form measures and the amplitudes.

Each measure oracle evaluates its objective directly from expectation values
measured on the state and optimizes by deterministic grid search with local
refinement, so the closed forms in :mod:`fermicorr.measures` can be checked
against an independent code path. Refinement steps move in the tangent plane
of the current best direction, which keeps the search well-behaved at the
coordinate poles.

The two-party objectives are written so that one coarse step is a few
matrix products. The Pauli moments T_ab = <s_a s_b>, x_a = <s_a 1> and
y_b = <1 s_b> are measured entry-wise from the state once per call; the
connected correlation of axis batches A, B is then A T B^T - (A x)(B y)^T.
The CHSH objective |Tb + Tb'| + |Tb - Tb'| uses the Gram form
|Tb +- Tb'|^2 = |Tb|^2 + |Tb'|^2 +- 2 Tb.Tb' from one product of the two
batches. Where |Tb - Tb'| or |Tb + Tb'| is small (b' near +-b, or b -+ b'
near a null direction of T) that branch loses digits to cancellation before
its square root. The value is then off by at most about 1e-8 absolute,
reached at b' = +-b as the square root of a rounding error of |Tb|^2 <= 1;
that is far inside the 1e-5 and 1e-4 Bell tolerances.

Every objective is even in each measurement axis (a projective measurement
along -n is the one along n, and the covariance and CHSH value change sign
in pairs or not at all), so the coarse search runs on the antipodal half of
the grid: the first half of the theta-major ``DirectionGrid.directions()``,
which holds one direction of every antipodal pair when ``azimuth_steps`` is
even. Discord searches n on it, the connected correlation n (not n'), and
CHSH both b and b'. Refinement meshes are unchanged.

The amplitude oracle sums the emission weights and the pair coherence over
field modes instead of integrating over time differences, which checks the
time-difference quadrature of :mod:`fermicorr.amplitudes`.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .amplitudes import ModelParams
from .states import IDENTITY_2, PAULI, partial_transpose, validate_state

_SIGMA = np.stack(PAULI)  # (3, 2, 2)
_SIGMA_1 = np.stack((IDENTITY_2,) + PAULI)  # (4, 2, 2), identity first

# 9-point meshes over a +-w window quarter the window each round
_REFINE_MESH = 9
_REFINE_SHRINK = 0.25

# Mode integrals run over k in (0, 40*cutoff); panel width resolves the
# slowest oscillation period of the integrands (>= 2*pi/2.4 here).
_MODE_RANGE = 40.0
_MODE_PANEL_WIDTH = 0.6
_MODE_PANEL_ORDER = 8
_MODE_REFINE_ROUNDS = 3
_MODE_REFINE_RTOL = 1e-9


@dataclass(frozen=True)
class DirectionGrid:
    """Spherical search grid: polar x azimuth nodes plus refinement rounds."""

    polar_steps: int = 24
    azimuth_steps: int = 48
    refine_rounds: int = 6

    def __post_init__(self):
        if self.polar_steps < 24:
            raise ValueError(f"polar_steps must be >= 24, got {self.polar_steps}")
        if self.azimuth_steps < 48:
            raise ValueError(f"azimuth_steps must be >= 48, got {self.azimuth_steps}")
        if self.refine_rounds < 2:
            raise ValueError(f"refine_rounds must be >= 2, got {self.refine_rounds}")

    def directions(self) -> np.ndarray:
        """Coarse unit-vector grid; the exact poles are included."""
        theta = np.linspace(0.0, np.pi, self.polar_steps)
        phi = np.linspace(0.0, 2.0 * np.pi, self.azimuth_steps, endpoint=False)
        tt, pp = np.meshgrid(theta, phi, indexing="ij")
        st = np.sin(tt.ravel())
        return np.stack(
            [st * np.cos(pp.ravel()), st * np.sin(pp.ravel()), np.cos(tt.ravel())], axis=-1
        )

    def initial_window(self) -> float:
        """Tangent-plane half-width covering one coarse grid cell."""
        return np.pi / (self.polar_steps - 1) + 2.0 * np.pi / self.azimuth_steps


def _tangent_mesh(center: np.ndarray, half_width: float) -> np.ndarray:
    """Unit vectors fanned around ``center`` in its tangent plane."""
    seed = np.array([1.0, 0.0, 0.0]) if abs(center[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = seed - np.dot(seed, center) * center
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(center, e1)
    steps = np.linspace(-half_width, half_width, _REFINE_MESH)
    aa, bb = np.meshgrid(steps, steps, indexing="ij")
    dirs = center[None, :] + aa.ravel()[:, None] * e1[None, :] + bb.ravel()[:, None] * e2[None, :]
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def _search(objective, coarse_batches, grid: DirectionGrid, sign: float = 1.0):
    """Maximize ``sign * objective`` over one measurement axis per batch.

    ``objective`` maps k direction batches to an array with one axis per
    batch. The coarse step evaluates it on ``coarse_batches``, and each
    of ``grid.refine_rounds`` rounds on tangent meshes around the best axes
    so far, with a window that starts at one grid cell and shrinks by
    _REFINE_SHRINK per round. sign = -1 minimizes. Returns (value, axes):
    the best value of ``objective`` itself and a list of its k axes.
    """
    def best_of(batches):
        vals = sign * objective(*batches)
        idx = np.unravel_index(int(np.argmax(vals)), vals.shape)
        return vals[idx], [batch[i] for batch, i in zip(batches, idx)]

    best, axes = best_of(coarse_batches)
    w = grid.initial_window()
    for _ in range(grid.refine_rounds):
        value, centers = best_of([_tangent_mesh(axis, w) for axis in axes])
        if value > best:
            best, axes = value, centers
        w *= _REFINE_SHRINK
    return sign * float(best), axes


def _antipodal_half(dirs: np.ndarray) -> np.ndarray:
    """First half of a theta-major direction grid: the polar rows from the
    north pole down, plus half of the equator row when the row count is odd.
    With an even azimuth count it holds one direction of every antipodal
    pair of the grid."""
    return dirs[: len(dirs) // 2]


def _moments(rho: np.ndarray):
    """Pauli moments (T, x, y) of a state, each entry measured as
    Tr(rho s_a (x) s_b) with s_0 the identity."""
    rho4 = rho.reshape(2, 2, 2, 2)
    r = np.einsum("ikjl,aji,blk->ab", rho4, _SIGMA_1, _SIGMA_1).real
    return r[1:, 1:], r[1:, 0], r[0, 1:]


def _measurement_residual(rho, dirs):
    """2 ||rho - Pi_n(rho)||_2^2 for a batch of measurement axes on qubit A."""
    axis = np.einsum("mi,ijk->mjk", dirs, _SIGMA)
    measured = np.zeros((dirs.shape[0], 4, 4), dtype=complex)
    for sign in (1.0, -1.0):
        proj = 0.5 * (IDENTITY_2 + sign * axis)
        k4 = np.einsum("mab,cd->macbd", proj, IDENTITY_2).reshape(-1, 4, 4)
        measured += np.einsum("mij,jk,mkl->mil", k4, rho, k4)
    diff = rho[None, :, :] - measured
    return 2.0 * np.einsum("mij,mij->m", diff, diff.conj()).real


def discord_bruteforce(rho: np.ndarray, grid: DirectionGrid) -> float:
    """Geometric discord by direct minimization over projective measurements.

    Minimizes 2 ||rho - Pi_n(rho)||_2^2 over the Bloch axis n of a projective
    measurement on the first qubit, by coarse search over the antipodal half
    of the grid plus tangent-plane refinement. Grid search can only overshoot
    a minimum, so the result brackets the closed form from above.
    """
    rho = validate_state(rho)
    coarse = [_antipodal_half(grid.directions())]
    return _search(lambda dirs: _measurement_residual(rho, dirs), coarse, grid, -1.0)[0]


def _pair_covariance(moments, dirs_a, dirs_b):
    """cov(n, n') = <(s.n)(s.n')> - <s.n><s.n'> for direction batches, from
    the moments (T, x, y) of :func:`_moments`."""
    corr, x, y = moments
    return dirs_a @ corr @ dirs_b.T - np.outer(dirs_a @ x, dirs_b @ y)


def maxcorr_bruteforce(
    rho: np.ndarray, grid: DirectionGrid
) -> tuple[float, np.ndarray, np.ndarray]:
    """Maximum connected correlation by direct search over direction pairs.

    n runs over the antipodal half of the grid and n' over all of it, since
    cov(-n, -n') = cov(n, n'). Returns (value, n, n') with n, n' the
    maximizing measurement axes of the first and second qubit.
    """
    moments = _moments(validate_state(rho))
    dirs = grid.directions()
    value, (n, n_prime) = _search(lambda a, b: _pair_covariance(moments, a, b),
                                  [_antipodal_half(dirs), dirs], grid)
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
    # in place: fresh (576, 576) temporaries cost more than the arithmetic;
    # rounding can leave |T(b -+ b')|^2 slightly negative near b' = +-b
    for squared in (plus, minus):
        np.sqrt(np.maximum(squared, 0.0, out=squared), out=squared)
    return plus + minus


def chsh_gridopt(rho: np.ndarray, grid: DirectionGrid) -> float:
    """CHSH parameter maximized over all four measurement directions.

    The second party's two axes are grid-searched, each over the antipodal
    half of the grid, and refined; for each such pair the first party's axes
    are optimized exactly. The correlation matrix is measured entry-wise
    from the state.
    """
    corr = _moments(validate_state(rho))[0]
    dirs = _antipodal_half(grid.directions())
    return _search(lambda b, bp: _chsh_value(corr, b, bp), [dirs, dirs], grid)[0]


@lru_cache(maxsize=8)
def _mode_grid(r_bar: float, cutoff: float, width: float):
    """Static per-grid arrays: nodes, weighted envelope, resonant
    denominators and the separation phase."""
    kmax = _MODE_RANGE * cutoff
    npan = int(np.ceil(kmax / width))
    cuts = np.linspace(0.0, kmax, npan + 1)
    x, w = leggauss(_MODE_PANEL_ORDER)
    mid = 0.5 * (cuts[:-1] + cuts[1:])[:, None]
    half = 0.5 * (cuts[1:] - cuts[:-1])[:, None]
    om = (mid + half * x[None, :]).ravel()
    ww = (half * w[None, :]).ravel()
    base = om * np.exp(-om / cutoff) * ww
    # Gauss nodes never land exactly on the resonance om = 1
    inv_m = 1.0 / (om - 1.0)
    inv_p = 1.0 / (om + 1.0)
    return om, base, inv_m, inv_p, np.cos(om * r_bar)


def _mode_integrals_once(tau: float, r_bar: float, cutoff: float, width: float):
    om, base, inv_m, inv_p, cos_r = _mode_grid(r_bar, cutoff, width)
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
    pair_mode = complex(0.5 * np.sum(base * cos_r * inv_m * inv_p * numer))
    return u2, v2, pair_mode


def mode_sum_amplitudes(p: ModelParams, xi: float) -> tuple[float, float, complex]:
    """Emission weights u2, v2 and pair coherence L by a sum over field modes.

    u2 = 2K int_0^inf k e^{-k/cutoff} sin^2((k-1) tau/2) / (k-1)^2 dk and v2
    the same with k+1 in place of k-1 (tau = xi * r_bar); L is minus the
    mode sum of cos(k r_bar) times the product P conj(M) of the per-mode
    counter-rotating and rotating emission amplitudes. Fixed Gauss panels on
    (0, 40*cutoff) are halved, at most three times, until the result changes
    by at most 1e-9 relative. This is an independent route to the values
    that :func:`fermicorr.amplitudes.compute_amplitudes` gets by
    time-difference quadrature.
    """
    tau = xi * p.r_bar
    if tau <= 0.0:
        return 0.0, 0.0, 0.0j
    width = _MODE_PANEL_WIDTH
    prev = _mode_integrals_once(tau, p.r_bar, p.cutoff, width)
    for _ in range(_MODE_REFINE_ROUNDS):
        width *= 0.5
        cur = _mode_integrals_once(tau, p.r_bar, p.cutoff, width)
        scale = max(abs(prev[0]), abs(prev[1]), abs(prev[2]), 1e-30)
        err = max(abs(cur[0] - prev[0]), abs(cur[1] - prev[1]), abs(cur[2] - prev[2]))
        prev = cur
        if err <= _MODE_REFINE_RTOL * scale:
            break
    u2, v2, pair_mode = prev
    return p.coupling * u2, p.coupling * v2, -p.coupling * pair_mode
