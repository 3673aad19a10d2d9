"""Second-order amplitudes of two qubits coupled to a 1D vacuum field.

Everything is expressed in the dimensionless system hbar = v = Omega = 1:
``r_bar`` is the qubit separation times Omega/v, ``xi = v t / r`` the
dimensionless time (xi = 1 is the light cone), ``coupling`` the dimensionless
qubit-line coupling K, and ``cutoff`` the UV scale omega_c/Omega of the
exponential mode regularization exp(-k/omega_c).

All five amplitudes are double-time integrals of the regularized two-point
function, reduced exactly to the time difference and evaluated with one
composite Gauss-Legendre rule graded geometrically toward the eps-wide
light-cone peak, with capped widths far from it. Every panel takes 24 nodes;
each lies about one width from the pole, so the rule's accuracy does not
depend on the cutoff. The mode-sum evaluation of the emission weights and the
pair coherence lives in :mod:`fermicorr.oracles` as an independent check.

A whole xi grid is evaluated in one pass. The integrands are split into
node moments that do not depend on xi, so every xi sums a prefix of one
shared set of graded panels plus one tail panel of its own; the panels are
evaluated a fixed number of nodes at a time, so memory does not grow with the
grid. Each amplitude is linear (or, for the two-photon weight, quadratic) in
the coupling, and the amplitudes carry the coupling they were scaled to, so
a sweep computes the coupling-free integrals once, rescales them to an
(xi, coupling) stack and assembles that stack in one call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial.legendre import leggauss

from .states import POSITIVITY_ATOL, unwrap_scalar

DEFAULT_CUTOFF = 300.0

# Panels of the time-difference rule end at pole +- eps * _PANEL_GROWTH**k,
# and each is at most _PANEL_CAP wide, about a third of the period of cos(d).
_PANEL_GROWTH = 4.0
_PANEL_CAP = 2.0
# Gauss-Legendre nodes and weights of every panel.
_GAUSS = leggauss(24)
# Time-difference nodes per two_point evaluation: a default sweep fits in one
# such block per kernel, and a longer grid takes more of them, not larger ones.
_BLOCK_NODES = 1 << 14


class OutOfRegimeError(ValueError):
    """Second-order truncation broke down (vacuum-sector population <= 0, or
    an assembled state that is not positive semidefinite)."""


@dataclass(frozen=True)
class ModelParams:
    """Physical and numerical parameters of one problem instance."""

    r_bar: float
    coupling: float
    cutoff: float = DEFAULT_CUTOFF

    def __post_init__(self):
        if not 0 < self.r_bar < math.inf:
            raise ValueError(f"r_bar must be finite and > 0, got {self.r_bar}")
        if not 0 <= self.coupling < math.inf:
            raise ValueError(f"coupling must be finite and >= 0, got {self.coupling}")
        if not 10 <= self.cutoff < math.inf:
            raise ValueError(f"cutoff must be finite and >= 10, got {self.cutoff}")


@dataclass(frozen=True)
class PerturbativeAmplitudes:
    """Second-order amplitudes at one dimensionless time and coupling, or
    arrays of them over a stack of (xi, coupling) points.

    re_a            real part of the intra-qubit radiative correction
                    (norm loss; <= 0 for xi > 0)
    exchange        photon-exchange amplitude moving the excitation from the
                    first qubit to the second
    u2, v2          emission weights |U|^2 (rotating, resonant) and |V|^2
                    (counter-rotating) of the single-photon sector
    pair_coherence  vacuum matrix element raising both qubits at once; its
                    conjugate fills the ee-gg coherence
    g2              two-photon sector weight
    coupling        the coupling K the amplitudes are scaled to
    """

    xi: float
    re_a: float
    exchange: complex
    u2: float
    v2: float
    pair_coherence: complex
    g2: float
    coupling: float

    def scaled(self, factor):
        """The amplitudes at ``factor`` times this coupling: g2 scales with
        its square, the coupling and every other amplitude linearly.
        ``factor`` may be an array that broadcasts against the fields."""
        linear = ("coupling", "re_a", "exchange", "u2", "v2", "pair_coherence")
        return replace(self, g2=factor * factor * self.g2,
                       **{name: factor * getattr(self, name) for name in linear})


@dataclass(frozen=True)
class XStateCoefficients:
    """Unnormalized entries of the X-patterned reduced state plus their sum c
    (scalars, or arrays over a stack of states)."""

    rho11: float
    rho22: float
    rho33: float
    rho44: float
    rho14: complex
    rho23: complex
    c: float


def two_point(dx, dt, cutoff: float):
    """Regularized vacuum two-point function of the line field.

    Closed form of the mode sum
    ``int_0^inf dk k exp(-k/cutoff) [exp(ik dx) + exp(-ik dx)] exp(-ik dt)``:

        w(dx, dt) = (eps + i(dt - dx))^-2 + (eps + i(dt + dx))^-2,

    with eps = 1/cutoff. Accepts scalars or numpy arrays.
    """
    eps = 1.0 / cutoff
    return (eps + 1j * (dt - dx)) ** -2.0 + (eps + 1j * (dt + dx)) ** -2.0


def _integrate(tau: np.ndarray, pole: float, cutoff: float, moments):
    """Per-tau sums of the tau-free node ``moments(d, wd)`` over a composite
    Gauss-Legendre rule on [0, tau], for every tau > 0 of an array.

    The two-point function peaks in an eps-wide window at ``pole`` (the
    light-cone separation, or 0 for the equal-position kernel). Cuts at 0, the
    pole and pole +- eps*4**k make panel widths grow geometrically away from
    the peak, until they reach _PANEL_CAP; from there on each offset grows by
    the cap. Each panel then sits about one width from the complex pole of the
    integrand and spans at most about a third of the period of cos(d), so one
    Gauss order, _GAUSS, converges at the same rate on every panel, at any
    cutoff and at late times. The cuts below tau.max() are shared by the whole
    grid: each tau's rule is the shared panels up to its last cut below it
    plus one tail panel to tau itself, so each tau sums a prefix of the shared
    panel sums and its own tail. All panels are evaluated _BLOCK_NODES nodes
    at a time as (panels, order) arrays. Returns one array of per-tau sums per
    moment.
    """
    steps, end = [1.0 / cutoff], tau.max()  # the first offset is eps
    while steps[-1] < max(pole, end - pole):
        steps.append(min(steps[-1] * _PANEL_GROWTH, steps[-1] + _PANEL_CAP))
    steps = np.array(steps)
    cuts = np.concatenate(([0.0, pole], pole - steps, pole + steps))
    cuts = np.sort(cuts[(cuts >= 0.0) & (cuts < end)])
    cuts = cuts[np.concatenate(([True], np.diff(cuts) > 0.0))]  # each cut once
    last = np.searchsorted(cuts, tau) - 1  # each tau's last cut below it
    lower = np.concatenate((cuts[:-1], cuts[last]))[:, None]
    half = 0.5 * (np.concatenate((cuts[1:], tau))[:, None] - lower)
    x, w = _GAUSS
    step = _BLOCK_NODES // x.size  # panels per block
    blocks = []
    for start in range(0, half.size, step):
        h = half[start:start + step]
        d = lower[start:start + step] + h * (x + 1.0)
        blocks.append([v.sum(axis=1) for v in moments(d, h * w)])
    shared = cuts.size - 1
    return [np.concatenate(([0.0], np.cumsum(v[:shared])))[last] + v[shared:]
            for v in map(np.concatenate, zip(*blocks))]


def _unit_integrals(tau: np.ndarray, r_bar: float, cutoff: float):
    """Coupling-free double-time integrals, reduced to the difference variable.

    For integrands f(t1 - t2) on the square [0, tau]^2 the exact reduction is
    int_{-tau}^{tau} (tau - |d|) f(d) dd, taken as tau * sum(f) - sum(d f) so
    that the node moments do not depend on tau; for the pair amplitude the
    sum variable integrates in closed form, to
    2i e^{i tau} (sin tau sum(Re w cos d) - cos tau sum(Re w sin d)). The
    emission weights share the zero-separation moments of re_a, so
    u2 + v2 = -2 re_a moment by moment.
    Returns arrays (exchange, re_a, pair, u2, v2) at unit coupling, tau > 0.
    """
    def separated(d, wd):
        w = wd * two_point(r_bar, d, cutoff)
        f = np.cos(d) * w
        return f, d * f, np.sin(d) * w.real

    def local(d, wd):
        w = wd * two_point(0.0, d, cutoff)
        even, odd = np.cos(d) * w.real, np.sin(d) * w.imag
        return even, d * even, odd, d * odd

    f, df, sin_re = _integrate(tau, r_bar, cutoff, separated)
    even, d_even, odd, d_odd = _integrate(tau, 0.0, cutoff, local)
    even, odd = tau * even - d_even, tau * odd - d_odd
    turn = np.exp(1j * tau)
    pair = -0.5 * turn * (turn.imag * f.real - turn.real * sin_re)
    return 0.5 * (tau * f - df), -0.5 * even, pair, 0.5 * (even - odd), 0.5 * (even + odd)


def compute_amplitudes(p: ModelParams, xi) -> PerturbativeAmplitudes:
    """All second-order amplitudes at, and carrying, the coupling of ``p``,
    for one xi or an array of them (then every amplitude is an array of the
    same shape).

    With tau = xi * r_bar and w the two-point function, the amplitudes are
    double-time integrals over [0, tau]^2:

        exchange        X    = (K/4)  int int e^{i(t1-t2)}  w(r_bar, |t1-t2|)
        radiative       re_A = -(K/4) int int cos(t1-t2) Re w(0, |t1-t2|)
        pair coherence  L    = -(K/4) int int e^{i(t1+t2)}  w(r_bar, t1-t2)
        emission        u2   = (K/4)  int int e^{i(t1-t2)}  w(0, t1-t2)
                        v2   = (K/4)  int int e^{-i(t1-t2)} w(0, t1-t2)

    u2 and v2 are the normal-ordered forms of the mode integrals
    2K int_0^inf k e^{-k/cutoff} sin^2((k -+ 1) tau/2) / (k -+ 1)^2 dk.
    The mode-resolved two-photon amplitude factorizes into the product of
    single-photon emission amplitudes plus an interference term equal to the
    squared pair coherence, so g2 = u2*v2 + |L|^2.
    """
    xi = np.asarray(xi, dtype=float)
    bad = xi[~(np.isfinite(xi) & (xi >= 0))]
    if bad.size:
        raise ValueError(f"xi must be finite and >= 0, got {bad[0]}")
    tau = xi.reshape(-1) * p.r_bar
    live = tau > 0.0
    unit = [np.zeros(tau.shape, t) for t in (complex, float, complex, float, float)]
    if live.any():
        for out, value in zip(unit, _unit_integrals(tau[live], p.r_bar, p.cutoff)):
            out[live] = value
    ex, re_a, pair, u2, v2 = unit
    g2 = u2 * v2 + np.abs(pair) ** 2
    values = (unwrap_scalar(a.reshape(xi.shape)) for a in (xi, re_a, ex, u2, v2, pair, g2))
    amps = PerturbativeAmplitudes(*values, coupling=1.0)
    return amps.scaled(p.coupling)


def assemble(amps: PerturbativeAmplitudes) -> tuple[XStateCoefficients, np.ndarray]:
    """Assemble the X-patterned reduced density matrix from the amplitudes.

    Returns the unnormalized coefficients (with their sum c) and the
    c-normalized matrix: (4, 4) for scalar amplitudes, (..., 4, 4) for
    arrays, such as an (xi, coupling) stack. Raises ValueError naming the
    first non-finite amplitude field. Raises :class:`OutOfRegimeError`
    naming the xi and coupling of the first point, in array order, where the
    vacuum-sector population 1 + 2*re_a is not positive or where the smaller
    eigenvalue of either 2x2 X-block of the normalized state is below
    -POSITIVITY_ATOL; both signal a coupling too strong for the second-order
    truncation at this time.
    """
    for name in ("re_a", "exchange", "u2", "v2", "pair_coherence", "g2"):
        value = np.ravel(getattr(amps, name))
        bad = value[~np.isfinite(value)]
        if bad.size:
            raise ValueError(f"amplitude {name} must be finite, got {bad[0]}")
    rho11 = amps.v2
    rho22 = 1.0 + 2.0 * amps.re_a
    rho33 = np.abs(amps.exchange) ** 2 + amps.g2
    rho44 = amps.u2
    rho14 = np.conj(amps.pair_coherence)
    rho23 = np.conj(amps.exchange)
    c = rho11 + rho22 + rho33 + rho44
    with np.errstate(divide="ignore", invalid="ignore"):
        min_eig = np.minimum(*(
            0.5 * (a + b) - np.hypot(0.5 * (a - b), np.abs(z))
            for a, b, z in ((rho11, rho44, rho14), (rho22, rho33, rho23))
        )) / c
    failed = np.flatnonzero((rho22 <= 0.0) | (min_eig < -POSITIVITY_ATOL))
    if failed.size:  # name the first failing point in array order
        xi, k, r22, eig = (np.broadcast_to(v, np.shape(c)).flat[failed[0]]
                           for v in (amps.xi, amps.coupling, rho22, min_eig))
        where = f"at xi = {xi:g}, coupling = {k:g}: second-order truncation invalid"
        if r22 <= 0.0:
            raise OutOfRegimeError(f"rho22 = {r22:.6f} <= 0 {where}")
        raise OutOfRegimeError(f"state not positive: min eigenvalue = {eig:.3e} {where}")
    coeffs = XStateCoefficients(*(
        unwrap_scalar(v) for v in (rho11, rho22, rho33, rho44, rho14, rho23, c)
    ))
    rho = np.zeros(np.shape(c) + (4, 4), dtype=complex)
    rho[..., 0, 0], rho[..., 1, 1], rho[..., 2, 2], rho[..., 3, 3] = rho11, rho22, rho33, rho44
    rho[..., 0, 3], rho[..., 3, 0] = rho14, np.conj(rho14)
    rho[..., 1, 2], rho[..., 2, 1] = rho23, np.conj(rho23)
    rho /= np.asarray(c)[..., None, None]
    return coeffs, rho
