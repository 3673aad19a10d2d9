"""Second-order amplitudes of two qubits coupled to a 1D vacuum field.

Everything is expressed in the dimensionless system hbar = v = Omega = 1:
``r_bar`` is the qubit separation times Omega/v, ``xi = v t / r`` the
dimensionless time (xi = 1 is the light cone), ``coupling`` the dimensionless
qubit-line coupling K, and ``cutoff`` the UV scale omega_c/Omega of the
exponential mode regularization exp(-k/omega_c).

All five amplitudes are double-time integrals of the regularized two-point
function, reduced exactly to the time difference and evaluated with one
composite Gauss-Legendre rule graded geometrically toward the eps-wide
light-cone peak, so its accuracy does not depend on the cutoff. The mode-sum
evaluation of the emission weights and the pair coherence lives in
:mod:`fermicorr.oracles` as an independent check.

Each amplitude is linear (or, for the two-photon weight, quadratic) in the
coupling, so internally the reduced coupling-free integrals are cached per
(time, separation, cutoff, node budget) in a bounded cache and rescaled on
the way out. A sweep over many couplings therefore pays for the quadrature
once.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .states import POSITIVITY_ATOL

DEFAULT_CUTOFF = 300.0
DEFAULT_QUAD_POINTS = 256

# Panels of the time-difference rule end at pole +- eps * _PANEL_GROWTH**k.
_PANEL_GROWTH = 4.0
_MIN_PANEL_NODES = 8
# Cached reduced amplitudes. A sweep evaluates all its couplings at one xi
# back to back, so it needs one entry at a time at any grid size; the room
# lets repeated grids in one process (``figures`` sweeps its xi grid twice)
# and a few (cutoff, node budget) pairs reuse the quadrature.
_AMPLITUDE_CACHE_SIZE = 2048


class OutOfRegimeError(ValueError):
    """Second-order truncation broke down (vacuum-sector population <= 0, or
    an assembled state that is not positive semidefinite)."""


@dataclass(frozen=True)
class ModelParams:
    """Physical and numerical parameters of one problem instance."""

    r_bar: float
    coupling: float
    cutoff: float = DEFAULT_CUTOFF
    quad_points: int = DEFAULT_QUAD_POINTS
    include_two_photon: bool = True

    def __post_init__(self):
        if not 0 < self.r_bar < math.inf:
            raise ValueError(f"r_bar must be finite and > 0, got {self.r_bar}")
        if not 0 <= self.coupling < math.inf:
            raise ValueError(f"coupling must be finite and >= 0, got {self.coupling}")
        if not 10 <= self.cutoff < math.inf:
            raise ValueError(f"cutoff must be finite and >= 10, got {self.cutoff}")
        if not self.quad_points >= 32:
            raise ValueError(f"quad_points must be >= 32, got {self.quad_points}")


@dataclass(frozen=True)
class PerturbativeAmplitudes:
    """Second-order amplitudes at one dimensionless time.

    re_a            real part of the intra-qubit radiative correction
                    (norm loss; <= 0 for xi > 0)
    exchange        photon-exchange amplitude moving the excitation from the
                    first qubit to the second
    u2, v2          emission weights |U|^2 (rotating, resonant) and |V|^2
                    (counter-rotating) of the single-photon sector
    pair_coherence  vacuum matrix element raising both qubits at once; its
                    conjugate fills the ee-gg coherence
    g2              two-photon sector weight (0 when disabled)
    """

    xi: float
    re_a: float
    exchange: complex
    u2: float
    v2: float
    pair_coherence: complex
    g2: float
    two_photon_enabled: bool


@dataclass(frozen=True)
class XStateCoefficients:
    """Unnormalized entries of the X-patterned reduced state plus their sum c."""

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


@lru_cache(maxsize=64)
def _leggauss(n: int):
    return leggauss(n)


def _delta_nodes(tau: float, pole: float, cutoff: float, n: int):
    """Composite Gauss-Legendre rule on [0, tau] for the time-difference axis.

    The two-point function peaks in an eps-wide window at ``pole`` (the
    light-cone separation, or 0 for the equal-position kernel). With the pole
    first clipped into [0, tau], panels end at the pole and at
    pole +- eps*4**k, so their widths grow geometrically away from the peak.
    The node budget ``n`` is split evenly over the panels (at least 8 per
    panel), which keeps the accuracy of the rule independent of the cutoff.
    """
    eps = 1.0 / cutoff
    pole = min(max(pole, 0.0), tau)
    cuts = {0.0, pole, tau}
    step = eps
    while step < max(pole, tau - pole):
        cuts.update(c for c in (pole - step, pole + step) if 0.0 < c < tau)
        step *= _PANEL_GROWTH
    cuts = np.array(sorted(cuts))
    x, w = _leggauss(max(_MIN_PANEL_NODES, n // (len(cuts) - 1)))
    half = 0.5 * np.diff(cuts)[:, None]
    return (cuts[:-1, None] + half * (x + 1.0)).ravel(), (half * w).ravel()


@lru_cache(maxsize=_AMPLITUDE_CACHE_SIZE)
def _reduced_amplitudes(tau: float, r_bar: float, cutoff: float, n: int):
    """Coupling-free double-time integrals, reduced to the difference variable.

    For integrands f(t1 - t2) on the square [0, tau]^2 the exact reduction is
    int_{-tau}^{tau} (tau - |d|) f(d) dd; for the pair amplitude the sum
    variable integrates in closed form. The emission weights share the
    zero-separation nodes of re_a, so u2 + v2 = -2 re_a node by node.
    Returns (exchange, re_a, pair, u2, v2) at unit coupling.
    """
    if tau <= 0.0:
        return 0.0j, 0.0, 0.0j, 0.0, 0.0
    d, wd = _delta_nodes(tau, r_bar, cutoff, n)
    wr = two_point(r_bar, d, cutoff)
    exchange = complex(0.5 * np.sum(wd * (tau - d) * np.cos(d) * wr))
    pair = complex(
        (-0.25 / 1j)
        * np.sum(wd * wr.real * (np.exp(1j * (2.0 * tau - d)) - np.exp(1j * d)))
    )
    d0, wd0 = _delta_nodes(tau, 0.0, cutoff, n)
    kernel = wd0 * (tau - d0) * two_point(0.0, d0, cutoff)
    re_a = float(-0.5 * np.sum(np.cos(d0) * kernel.real))
    u2 = float(0.5 * np.sum((np.exp(1j * d0) * kernel).real))
    v2 = float(0.5 * np.sum((np.exp(-1j * d0) * kernel).real))
    return exchange, re_a, pair, u2, v2


def compute_amplitudes(p: ModelParams, xi: float) -> PerturbativeAmplitudes:
    """All second-order amplitudes at one (xi, coupling) point.

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
    squared pair coherence, so g2 = u2*v2 + |L|^2; it is 0, flagged as
    disabled, when the params switch it off.
    """
    if not (math.isfinite(xi) and xi >= 0):
        raise ValueError(f"xi must be finite and >= 0, got {xi}")
    k = p.coupling
    ex_1, re_a_1, pair_1, u2_1, v2_1 = _reduced_amplitudes(
        xi * p.r_bar, p.r_bar, p.cutoff, p.quad_points
    )
    g2 = k * k * (u2_1 * v2_1 + abs(pair_1) ** 2) if p.include_two_photon else 0.0
    return PerturbativeAmplitudes(
        xi=xi,
        re_a=k * re_a_1,
        exchange=k * ex_1,
        u2=k * u2_1,
        v2=k * v2_1,
        pair_coherence=k * pair_1,
        g2=g2,
        two_photon_enabled=p.include_two_photon,
    )


def assemble(
    p: ModelParams, amps: PerturbativeAmplitudes
) -> tuple[XStateCoefficients, np.ndarray]:
    """Assemble the X-patterned reduced density matrix from the amplitudes.

    Returns the unnormalized coefficients (with their sum c) and the
    c-normalized 4x4 matrix. Raises ValueError naming the first non-finite
    amplitude. Raises :class:`OutOfRegimeError` when the vacuum-sector
    population 1 + 2*re_a is not positive, or when the smaller eigenvalue of
    either 2x2 X-block of the normalized state is below -POSITIVITY_ATOL;
    both signal a coupling too strong for the second-order truncation at
    this time.
    """
    for name in ("re_a", "exchange", "u2", "v2", "pair_coherence", "g2"):
        value = getattr(amps, name)
        if not cmath.isfinite(value):
            raise ValueError(f"amplitude {name} must be finite, got {value}")
    rho11 = amps.v2
    rho22 = 1.0 + 2.0 * amps.re_a
    rho33 = abs(amps.exchange) ** 2 + amps.g2
    rho44 = amps.u2
    if rho22 <= 0.0:
        raise OutOfRegimeError(
            f"rho22 = {rho22:.6f} <= 0 at xi = {amps.xi:g}, "
            f"coupling = {p.coupling:g}: second-order truncation invalid"
        )
    rho14 = np.conj(amps.pair_coherence)
    rho23 = np.conj(amps.exchange)
    c = rho11 + rho22 + rho33 + rho44
    min_eig = min(
        0.5 * (a + b) - math.hypot(0.5 * (a - b), abs(z))
        for a, b, z in ((rho11, rho44, rho14), (rho22, rho33, rho23))
    ) / c
    if min_eig < -POSITIVITY_ATOL:
        raise OutOfRegimeError(
            f"state not positive: min eigenvalue = {min_eig:.3e} at xi = {amps.xi:g}, "
            f"coupling = {p.coupling:g}: second-order truncation invalid"
        )
    coeffs = XStateCoefficients(
        rho11=rho11, rho22=rho22, rho33=rho33, rho44=rho44,
        rho14=complex(rho14), rho23=complex(rho23), c=c,
    )
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0], rho[1, 1], rho[2, 2], rho[3, 3] = rho11, rho22, rho33, rho44
    rho[0, 3], rho[3, 0] = rho14, np.conj(rho14)
    rho[1, 2], rho[2, 1] = rho23, np.conj(rho23)
    return coeffs, rho / c


CSV_AMPLITUDE_HEADER = (
    "xi", "K", "r_bar", "cutoff", "re_A", "re_X", "im_X",
    "u2", "v2", "re_L", "im_L", "g2", "c",
)


def csv_amplitude_row(
    p: ModelParams, amps: PerturbativeAmplitudes, coeffs: XStateCoefficients
) -> dict:
    """Amplitude-dump values keyed by the fixed CSV header names."""
    return {
        "xi": amps.xi,
        "K": p.coupling,
        "r_bar": p.r_bar,
        "cutoff": p.cutoff,
        "re_A": amps.re_a,
        "re_X": amps.exchange.real,
        "im_X": amps.exchange.imag,
        "u2": amps.u2,
        "v2": amps.v2,
        "re_L": amps.pair_coherence.real,
        "im_L": amps.pair_coherence.imag,
        "g2": amps.g2,
        "c": coeffs.c,
    }
