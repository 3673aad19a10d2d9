"""Correlation measures: geometric discord, negativity, connected correlation,
Bell parameters, and their closed forms for the perturbative X-state.

Generic measures take a 4x4 density matrix. The X-state closed forms and the
Bell parameters take what ``assemble`` returns, XStateCoefficients: the closed
forms read the unnormalized entries, the Bell parameters normalize them by c.
Both take scalars or arrays over a stack of points, and return the same.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .amplitudes import XStateCoefficients
from .states import decompose, partial_transpose, unwrap_scalar, validate_state

BELL_CLASSICAL = 2.0
BELL_TSIRELSON = 2.0 * math.sqrt(2.0)

HIERARCHY_TOL = 1e-9


@dataclass(frozen=True)
class CorrelationReport:
    """All correlation quantifiers of one sweep point (X-state closed forms),
    or arrays of them over a stack of points."""

    sqrt_discord: float
    negativity: float
    connected_corr: float
    bell_chsh: float
    bell_opt: float
    hierarchy_ok: bool


def geometric_discord(rho: np.ndarray) -> float:
    """Normalized geometric discord under projective measurement of the
    first qubit: D = 2 Tr S - 2 lambda_max(S) with S = (x x^T + T T^T)/4."""
    x, _, t = decompose(rho)
    ev = np.linalg.eigvalsh(0.25 * (np.outer(x, x) + t @ t.T))
    return max(0.0, float(2.0 * np.sum(ev) - 2.0 * ev[-1]))


def negativity(rho: np.ndarray) -> float:
    """Trace-norm negativity ||rho^T_A||_1 - 1; 0 for separable states, 1 for
    maximally entangled ones. Computed from singular values."""
    pt = partial_transpose(validate_state(rho))
    sv = np.linalg.svd(pt, compute_uv=False)
    return max(0.0, float(np.sum(sv) - 1.0))


def connected_correlation(rho: np.ndarray) -> float:
    """Maximum covariance of local spin projections: the largest singular
    value of W = T - x y^T."""
    x, y, t = decompose(rho)
    w = t - np.outer(x, y)
    return float(np.linalg.svd(w, compute_uv=False)[0])


def sqrt_discord_xstate(coeffs: XStateCoefficients) -> float:
    """Second-order closed form of the square-root geometric discord on the
    unnormalized coefficients: sqrt((Re rho14)^2 + |rho23|^2)."""
    return unwrap_scalar(np.hypot(np.real(coeffs.rho14), np.abs(coeffs.rho23)))


def negativity_xstate(coeffs: XStateCoefficients) -> float:
    """Second-order closed form of the negativity on unnormalized coefficients:
    max{0, sqrt((rho44 - rho11)^2 + 4|rho23|^2) - rho44 - rho11}, positive
    exactly where exchange dominates emission, |rho23|^2 > rho11 rho44."""
    root = np.hypot(coeffs.rho44 - coeffs.rho11, 2.0 * np.abs(coeffs.rho23))
    return unwrap_scalar(np.maximum(0.0, root - coeffs.rho44 - coeffs.rho11))


def connected_correlation_xstate(coeffs: XStateCoefficients) -> float:
    """Second-order closed form of the maximum connected correlation on
    unnormalized coefficients: max{4(|rho23|^2 + |rho14|^2), 2(|rho23| + |rho14|)}.

    W = T - x y^T of the X-state is block diagonal. Its equatorial singular
    values are 2(|rho14| +- |rho23|)/c, and its longitudinal entry is
    W_zz = 4(rho11 rho44 - rho22 rho33)/c^2, whose rho11 rho44 cancels against
    that part of rho33 to leave -4(|rho23|^2 + |rho14|^2) at O(K^2). The first
    branch is that longitudinal magnitude; the O(K) equatorial branch
    carries the signal."""
    x, pair = np.abs(coeffs.rho23), np.abs(coeffs.rho14)
    return unwrap_scalar(np.maximum(4.0 * (x * x + pair * pair), 2.0 * (x + pair)))


def _normalized(coeffs: XStateCoefficients):
    # each part of a complex entry is divided on its own, as Python divides a
    # complex by a float: numpy multiplies by 1/c, so a stack would round
    # apart from its points
    c = coeffs.c
    return (
        coeffs.rho11 / c, coeffs.rho22 / c, coeffs.rho33 / c, coeffs.rho44 / c,
        *(z.real / c + 1j * (z.imag / c) for z in (coeffs.rho14, coeffs.rho23)),
    )


def bell_chsh(coeffs: XStateCoefficients) -> float:
    """CHSH parameter at fixed measurement settings:
    -sqrt(2) (rho11 + rho44 - rho22 - rho33 + 2 Re rho23 + 2 Re rho14),
    on c-normalized coefficients."""
    r11, r22, r33, r44, r14, r23 = _normalized(coeffs)
    return unwrap_scalar(
        -math.sqrt(2.0) * (r11 + r44 - r22 - r33 + 2.0 * np.real(r23) + 2.0 * np.real(r14))
    )


def bell_opt(coeffs: XStateCoefficients) -> float:
    """Setting-optimized Bell parameter for X-patterned states:
    2 sqrt(u1 + max(u2, u3)) with u1 = 4(|rho14| + |rho23|)^2,
    u2 = (rho11 + rho44 - rho22 - rho33)^2, u3 = 4(|rho14| - |rho23|)^2."""
    r11, r22, r33, r44, r14, r23 = _normalized(coeffs)
    # np.square: a Python float's ** 2 can round apart from numpy's x * x
    u1 = 4.0 * np.square(np.abs(r14) + np.abs(r23))
    u2 = np.square(r11 + r44 - r22 - r33)
    u3 = 4.0 * np.square(np.abs(r14) - np.abs(r23))
    return unwrap_scalar(2.0 * np.sqrt(u1 + np.maximum(u2, u3)))


def report(coeffs: XStateCoefficients) -> CorrelationReport:
    """Aggregate all quantifiers of one sweep point, or of a stack of them
    (then every field is an array), from the X-state closed forms.

    The input is :func:`~fermicorr.amplitudes.assemble`'s coefficients;
    ``assemble`` has already rejected every point whose state is not
    positive semidefinite.
    """
    sd = sqrt_discord_xstate(coeffs)
    n = negativity_xstate(coeffs)
    c = connected_correlation_xstate(coeffs)
    ok = (c >= sd - HIERARCHY_TOL) & (sd >= n - HIERARCHY_TOL)
    return CorrelationReport(
        sqrt_discord=sd,
        negativity=n,
        connected_corr=c,
        bell_chsh=bell_chsh(coeffs),
        bell_opt=bell_opt(coeffs),
        hierarchy_ok=ok,
    )
