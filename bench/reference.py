"""Independent evaluations that the benchmark's output checks compare against.

Nothing here calls fermicorr. The amplitudes are the integrals stated in the
docstrings of ``fermicorr.amplitudes``, at unit coupling, evaluated with
scipy's adaptive QUADPACK routines instead of the package's fixed Gauss rules:

    X    = (1/4)  int int_[0,tau]^2 e^{i(t1-t2)}  w(r, |t1-t2|)
    re_A = -(1/4) int int_[0,tau]^2 cos(t1-t2) Re w(0, |t1-t2|)
    L    = -(1/4) int int_[0,tau]^2 e^{i(t1+t2)}  w(r, t1-t2)
    u2   = 2 int_0^inf k e^{-k/cutoff} sin^2((k-1) tau/2) / (k-1)^2 dk
    v2   = the same with k+1 in place of k-1

with tau = xi r and w(dx, dt) = (eps + i(dt-dx))^-2 + (eps + i(dt+dx))^-2,
eps = 1/cutoff. The double-time integrals are reduced exactly to the time
difference d = t1 - t2; the eps-wide double pole of w at d = r (d = 0 for
re_A) is integrated in closed form through second order, and QUADPACK takes
the bounded remainder. The mode integrals for u2, v2 use QUADPACK's Fourier
routine (QAWF) on the oscillating tail.

The correlation measures are evaluated from their definitions on plain 4x4
matrices: negativity from the partial-transpose eigenvalues, the connected
correlation from the largest singular value of W = T - x y^T, and the
geometric discord by minimizing 2 ||rho - Pi_n(rho)||^2 over the measurement
axis n on the first qubit.
"""
from __future__ import annotations

import cmath
import math

import numpy as np
from scipy import integrate, optimize

_QUAD = dict(limit=200, epsabs=1e-15, epsrel=1e-11)
# Breakpoints around the double pole, in units of eps.
_POLE_STEPS = (0, 1, 4, 16, 64)
# Upper end of the resonant region of the mode integrals; beyond it the
# oscillating part goes to QAWF.
_MODE_SPLIT = 50.0


def _rquad(f, a, b, points=()):
    pts = sorted(p for p in points if a < p < b)
    return integrate.quad(f, a, b, points=pts or None, **_QUAD)[0]


def _cquad(f, a, b, points=()):
    return complex(
        _rquad(lambda d: f(d).real, a, b, points), _rquad(lambda d: f(d).imag, a, b, points)
    )


def _pole_integral(g, dg, r0, tau, eps):
    """int_0^tau g(d) (eps + i(d - r0))^-2 dd for smooth complex g.

    g(r0) and g'(r0) times the pole integrate in closed form; the remainder
    is bounded and goes to QUADPACK.
    """
    def q(d):
        return eps + 1j * (d - r0)

    p0 = 1j / q(tau) - 1j / q(0.0)
    p1 = (-cmath.log(q(tau)) - eps / q(tau)) - (-cmath.log(q(0.0)) - eps / q(0.0))
    g0, g1 = g(r0), dg(r0)
    pts = [r0 + s * k * eps for k in _POLE_STEPS for s in (1.0, -1.0)]
    rest = _cquad(lambda d: (g(d) - g0 - g1 * (d - r0)) / q(d) ** 2, 0.0, tau, pts)
    return g0 * p0 + g1 * p1 + rest


def _re_pole_integral(g, dg, r0, tau, eps):
    """int_0^tau g(d) Re[(eps + i(d - r0))^-2] dd for smooth complex g."""
    a = _pole_integral(g, dg, r0, tau, eps)
    b = _pole_integral(
        lambda d: g(d).conjugate(), lambda d: dg(d).conjugate(), r0, tau, eps
    )
    return 0.5 * (a + b.conjugate())


def _mode_weight(tau, cutoff, shift):
    """2 int_0^inf k e^{-k/cutoff} sin^2((k+shift) tau/2) / (k+shift)^2 dk."""
    eps = 1.0 / cutoff

    def resonant(k):
        return 2.0 * k * math.exp(-eps * k) * (0.5 * tau) ** 2 * np.sinc(
            0.5 * (k + shift) * tau / math.pi
        ) ** 2

    def envelope(k):
        return k * math.exp(-eps * k) / (k + shift) ** 2

    head = integrate.quad(resonant, 0.0, _MODE_SPLIT, limit=400, epsabs=0.0, epsrel=1e-12)[0]
    # beyond the split, 2 sin^2(x/2) = 1 - cos(x) with x = (k + shift) tau
    far = 50.0 * cutoff
    flat = (
        integrate.quad(envelope, _MODE_SPLIT, far, limit=400, epsabs=0.0, epsrel=1e-12)[0]
        + integrate.quad(envelope, far, np.inf, epsabs=0.0, epsrel=1e-12)[0]
    )
    c = integrate.quad(envelope, _MODE_SPLIT, np.inf, weight="cos", wvar=tau)[0]
    s = integrate.quad(envelope, _MODE_SPLIT, np.inf, weight="sin", wvar=tau)[0]
    return head + flat - (c * math.cos(shift * tau) - s * math.sin(shift * tau))


def amplitudes(xi: float, r_bar: float, cutoff: float) -> dict:
    """re_A, X, L, u2, v2 at unit coupling (X and L complex)."""
    tau = xi * r_bar
    if tau <= 0.0:
        return {"re_A": 0.0, "X": 0j, "L": 0j, "u2": 0.0, "v2": 0.0}
    eps = 1.0 / cutoff

    def gx(d):
        return complex(0.5 * (tau - d) * math.cos(d))

    def dgx(d):
        return complex(-0.5 * (math.cos(d) + (tau - d) * math.sin(d)))

    # X: 1/2 int (tau-d) cos d w(r, d); only the (d - r) pole meets [0, tau]
    x = _pole_integral(gx, dgx, r_bar, tau, eps) + _cquad(
        lambda d: gx(d) * (eps + 1j * (d + r_bar)) ** -2, 0.0, tau
    )
    # re_A: -1/2 int (tau-d) cos d Re w(0, d), with w(0, d) = 2 (eps + i d)^-2
    re_a = -2.0 * _re_pole_integral(gx, dgx, 0.0, tau, eps).real

    # L: the sum variable integrates to (e^{i(2 tau - d)} - e^{i d}) / 2i
    def gl(d):
        return (-0.25 / 1j) * (cmath.exp(1j * (2.0 * tau - d)) - cmath.exp(1j * d))

    def dgl(d):
        return 0.25 * (cmath.exp(1j * (2.0 * tau - d)) + cmath.exp(1j * d))

    pair = _re_pole_integral(gl, dgl, r_bar, tau, eps) + _re_pole_integral(
        gl, dgl, -r_bar, tau, eps
    )
    return {
        "re_A": re_a,
        "X": x,
        "L": pair,
        "u2": _mode_weight(tau, cutoff, -1.0),
        "v2": _mode_weight(tau, cutoff, 1.0),
    }


_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
_I2 = np.eye(2, dtype=complex)


def bloch(rho):
    """x_i = Tr rho (s_i x 1), y_j = Tr rho (1 x s_j), T_ij = Tr rho (s_i x s_j)."""
    x = np.array([np.trace(rho @ np.kron(s, _I2)).real for s in _PAULI])
    y = np.array([np.trace(rho @ np.kron(_I2, s)).real for s in _PAULI])
    t = np.array([[np.trace(rho @ np.kron(a, b)).real for b in _PAULI] for a in _PAULI])
    return x, y, t


def negativity(rho) -> float:
    """2 |sum of the negative eigenvalues of rho^{T_A}|."""
    pt = rho.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4)
    ev = np.linalg.eigvalsh(pt)
    return float(-2.0 * ev[ev < 0.0].sum())


def connected_correlation(rho) -> float:
    x, y, t = bloch(rho)
    return float(np.linalg.svd(t - np.outer(x, y), compute_uv=False)[0])


def _unit(angles):
    th, ph = angles
    return np.array([math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph), math.cos(th)])


def _measurement_distance(rho, n):
    """2 ||rho - sum_s (P_s x 1) rho (P_s x 1)||_2^2 for the axis n on qubit A."""
    axis = sum(c * s for c, s in zip(n, _PAULI))
    out = np.zeros((4, 4), dtype=complex)
    for sign in (1.0, -1.0):
        p = np.kron(0.5 * (_I2 + sign * axis), _I2)
        out += p @ rho @ p
    diff = rho - out
    return 2.0 * float(np.vdot(diff, diff).real)


def geometric_discord(rho, starts: int = 6) -> float:
    """min over unit n of 2 ||rho - Pi_n(rho)||^2, multi-start Nelder-Mead."""
    best = math.inf
    for k in range(starts):
        th0 = math.pi * (k + 0.5) / starts
        ph0 = 2.0 * math.pi * ((0.618034 * k) % 1.0)
        res = optimize.minimize(
            lambda a: _measurement_distance(rho, _unit(a)),
            x0=[th0, ph0],
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-15, "maxiter": 2000},
        )
        best = min(best, float(res.fun))
    return best
