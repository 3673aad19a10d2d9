"""Second-order amplitudes of two qubits coupled to a 1D vacuum field.

Everything is expressed in the dimensionless system hbar = v = Omega = 1:
``r_bar`` is the qubit separation times Omega/v, ``xi = v t / r`` the
dimensionless time (xi = 1 is the light cone), ``coupling`` the dimensionless
qubit-line coupling K, and ``cutoff`` the UV scale omega_c/Omega of the
exponential mode regularization exp(-k/omega_c).

All five amplitudes are double-time integrals of the regularized two-point
function. They reduce exactly to integrals over the time difference, each
with an antiderivative in the exponential integral E1: a closed form whose
cost grows with neither time nor cutoff. Where tau <= 1/cutoff that form
cancels most of its digits, and one Gauss-Legendre panel sums the integrals
instead. A mode sum in :mod:`fermicorr.oracles` checks them independently.

Each amplitude is linear (or, for the two-photon weight, quadratic) in the
coupling, and the amplitudes carry the coupling they were scaled to, so a
sweep computes the coupling-free integrals of its whole xi grid in one pass,
rescales them to an (xi, coupling) stack and assembles its coefficients in one call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial.legendre import leggauss

from .states import POSITIVITY_ATOL, unwrap_scalar

DEFAULT_CUTOFF = 300.0

# Power-series terms of E1 for |z| <= 4 and continued-fraction levels beyond:
# both reach rounding at the arguments Re z = +-1/cutoff used here.
_SERIES_TERMS = 30
_FRACTION_DEPTH = 40
# Nodes and weights of the Gauss-Legendre panel for tau <= 1/cutoff.
_GAUSS = leggauss(24)


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
        with np.errstate(all="ignore"):  # assemble rejects what overflows
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

    def matrix(self) -> np.ndarray:
        """The c-normalized density matrix: (4, 4) for scalar coefficients,
        (..., 4, 4) for a stack of them."""
        rho = np.zeros(np.shape(self.c) + (4, 4), dtype=complex)
        rho[..., 0, 0], rho[..., 1, 1], rho[..., 2, 2], rho[..., 3, 3] = (
            self.rho11, self.rho22, self.rho33, self.rho44)
        rho[..., 0, 3], rho[..., 3, 0] = self.rho14, np.conj(self.rho14)
        rho[..., 1, 2], rho[..., 2, 1] = self.rho23, np.conj(self.rho23)
        rho /= np.asarray(self.c)[..., None, None]
        return rho

    @classmethod
    def from_matrix(cls, rho: np.ndarray) -> XStateCoefficients:
        """The coefficients of one normalized X-patterned 4x4 matrix, c = 1."""
        return cls(rho11=rho[0, 0].real, rho22=rho[1, 1].real,
                   rho33=rho[2, 2].real, rho44=rho[3, 3].real,
                   rho14=complex(rho[0, 3]), rho23=complex(rho[1, 2]), c=1.0)


def two_point(dx, dt, cutoff: float):
    """Regularized vacuum two-point function of the line field.

    Closed form of the mode sum
    ``int_0^inf dk k exp(-k/cutoff) [exp(ik dx) + exp(-ik dx)] exp(-ik dt)``:

        w(dx, dt) = (eps + i(dt - dx))^-2 + (eps + i(dt + dx))^-2,

    with eps = 1/cutoff. Accepts scalars or numpy arrays.
    """
    eps = 1.0 / cutoff
    return (eps + 1j * (dt - dx)) ** -2.0 + (eps + 1j * (dt + dx)) ** -2.0


def _exp1(z):
    """Exponential integral E1 of a complex array on the principal branch: the
    series -gamma - ln z + sum_k (-1)^(k+1) z^k / (k k!) for |z| <= 4, and the
    continued fraction e^-z / (z + 1 - 1/(z + 3 - 4/(z + 5 - ...))) beyond."""
    out = np.empty_like(z)
    near = np.abs(z) <= 4.0
    if near.any():
        x, acc = z[near], 0.0
        for k in range(_SERIES_TERMS, 0, -1):  # Horner
            acc *= x
            acc += (-1.0) ** (k + 1) / (k * math.factorial(k))
        out[near] = x * acc - np.euler_gamma - np.log(x)
    if not near.all():
        x, tail = z[~near], 0.0
        for k in range(_FRACTION_DEPTH, 0, -1):
            tail = k * k / (x + (2 * k + 1) - tail)
        out[~near] = np.exp(-x) / (x + 1.0 - tail)
    return out


def _closed_sums(tau: np.ndarray, r_bar: float, cutoff: float):
    """Integrals over d in [0, tau] of cos d w, d cos d w, sin d Re w (w the
    two-point function at separation r_bar), cos d Re w0, d cos d Re w0,
    sin d Im w0 and d sin d Im w0 (w0 at 0); the last five as real parts.

    w is the sum of q^-2, q = eps + i(d - r0), over the poles r0 = +-r_bar,
    and w0 is 2 q^-2 at r0 = 0. With a = r0 + i eps, d = a - iq, and the
    integrals of d^n e^{isd} q^-2 (s = +-1) have the antiderivatives
    -i e^{isa} B (n = 0) and -i e^{isa} (a B - i Ei(sq)) (n = 1), with
    B = s Ei(sq) - e^{sq}/q. Ei(sq) is -E1(-sq), continued for s = +1 across
    the cut that -q meets at d = r0: plus i pi sgn(Im q), real where q is.
    Cosine and sine integrals are the half sum and difference over s, and
    every factor but w or w0 is real.
    """
    eps = 1.0 / cutoff
    s = np.repeat([1.0, -1.0], 3)[:, None]  # rows: (s, r0) for r0 = r_bar, -r_bar, 0
    a = np.tile([r_bar, -r_bar, 0.0], 2)[:, None] + 1j * eps
    q = eps + 1j * (np.concatenate(([0.0], tau)) - a.real)  # columns: d = 0, then tau
    ei = -_exp1(-s * q)
    ei = np.where((s > 0.0) & (q.imag == 0.0), ei.real,
                  ei + 1j * math.pi * (s > 0.0) * np.sign(q.imag))
    b = s * ei - np.exp(s * q) / q
    k = -1j * np.exp(1j * s * a) * np.stack((b, a * b - 1j * ei))  # (n, row, d)
    k = (k[..., 1:] - k[..., :1]).reshape(2, 2, 3, tau.size)  # (n, s, r0, tau)
    k = np.stack((k[:, :, 0] + k[:, :, 1], 2.0 * k[:, :, 2]))  # (w or w0, n, s, tau)
    cos, sin = 0.5 * (k[:, :, 0] + k[:, :, 1]), -0.5j * (k[:, :, 0] - k[:, :, 1])
    return cos[0, 0], cos[0, 1], sin[0, 0], cos[1, 0], cos[1, 1], sin[1, 0].imag, sin[1, 1].imag


def _panel_sums(tau: np.ndarray, r_bar: float, cutoff: float):
    """The integrals of :func:`_closed_sums` on one Gauss-Legendre panel, for
    tau <= eps: the panel is no wider than its distance eps to every pole, so
    it converges to rounding. At tau = 0 every weight, so every sum, is 0."""
    x, w = _GAUSS
    half = 0.5 * tau[:, None]
    d, wd = half * (x + 1.0), half * w
    wr, w0 = wd * two_point(r_bar, d, cutoff), wd * two_point(0.0, d, cutoff)
    f, even, odd = np.cos(d) * wr, np.cos(d) * w0.real, np.sin(d) * w0.imag
    return [v.sum(axis=1) for v in (f, d * f, np.sin(d) * wr, even, d * even, odd, d * odd)]


def _unit_integrals(tau: np.ndarray, r_bar: float, cutoff: float):
    """Coupling-free double-time integrals, reduced to the difference variable.

    For integrands f(t1 - t2) on the square [0, tau]^2 the exact reduction is
    int_{-tau}^{tau} (tau - |d|) f(d) dd, taken as tau * int f - int d f;
    for the pair amplitude the sum variable integrates in closed form, to
    2i e^{i tau} (sin tau int Re w cos d - cos tau int Re w sin d). The
    emission weights share the zero-separation integrals of re_a, so
    u2 + v2 = -2 re_a. Returns (exchange, re_a, pair, u2, v2) at unit coupling.
    """
    early = tau <= 1.0 / cutoff
    sums = np.empty((7, tau.size), complex)
    sums[:, early] = _panel_sums(tau[early], r_bar, cutoff)
    sums[:, ~early] = _closed_sums(tau[~early], r_bar, cutoff)
    (f, df), (sin_re, even, d_even, odd, d_odd) = sums[:2], sums[2:].real
    re_a = 0.5 * (d_even - tau * even)  # +0.0, not -0.0, at tau = 0
    even, odd = tau * even - d_even, tau * odd - d_odd
    turn = np.exp(1j * tau)
    pair = 0.5 * turn * (turn.real * sin_re - turn.imag * f.real)
    return 0.5 * (tau * f - df), re_a, pair, 0.5 * (even - odd), 0.5 * (even + odd)


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
    with np.errstate(all="ignore"):  # _require_finite rejects what overflows
        ex, re_a, pair, u2, v2 = _unit_integrals(xi.reshape(-1) * p.r_bar, p.r_bar, p.cutoff)
        g2 = u2 * v2 + np.abs(pair) ** 2
    values = (unwrap_scalar(a.reshape(xi.shape)) for a in (xi, re_a, ex, u2, v2, pair, g2))
    amps = PerturbativeAmplitudes(*values, coupling=1.0)
    _require_finite(amps)
    amps = amps.scaled(p.coupling)
    _require_finite(amps)  # the scaling itself may overflow
    return amps


def _require_finite(amps: PerturbativeAmplitudes) -> None:
    """Raise ValueError naming the first non-finite amplitude field."""
    for name in ("re_a", "exchange", "u2", "v2", "pair_coherence", "g2"):
        value = np.ravel(getattr(amps, name))
        bad = value[~np.isfinite(value)]
        if bad.size:
            raise ValueError(f"amplitude {name} must be finite, got {bad[0]}")


def assemble(amps: PerturbativeAmplitudes) -> XStateCoefficients:
    """Assemble the X-patterned reduced state from the amplitudes.

    Returns its unnormalized coefficients with their sum c: scalars for
    scalar amplitudes, arrays for arrays, such as an (xi, coupling) stack;
    :meth:`XStateCoefficients.matrix` builds the c-normalized matrix.
    Raises ValueError naming the first non-finite amplitude field. Raises
    :class:`OutOfRegimeError` naming the xi and coupling of the first point,
    in array order, where the vacuum-sector population 1 + 2*re_a is not
    positive or where the smaller eigenvalue of either 2x2 X-block of the
    normalized state is below -POSITIVITY_ATOL; both signal a coupling too
    strong for the second-order truncation at this time.
    """
    _require_finite(amps)
    with np.errstate(all="ignore"):
        rho11 = amps.v2
        rho22 = 1.0 + 2.0 * amps.re_a
        rho33 = np.square(np.abs(amps.exchange)) + amps.g2
        rho44 = amps.u2
        rho14 = np.conj(amps.pair_coherence)
        rho23 = np.conj(amps.exchange)
        c = rho11 + rho22 + rho33 + rho44
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
            raise OutOfRegimeError(f"rho22 = {r22:.6g} <= 0 {where}")
        raise OutOfRegimeError(f"state not positive: min eigenvalue = {eig:.3e} {where}")
    return XStateCoefficients(*(
        unwrap_scalar(v) for v in (rho11, rho22, rho33, rho44, rho14, rho23, c)
    ))
