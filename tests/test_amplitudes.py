"""Amplitudes: the regularized two-point function, the closed-form second-order
amplitudes, their cross-route consistency and the X-state assembly."""
import math

import mpmath
import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad
from scipy.special import exp1

from fermicorr import ModelParams, OutOfRegimeError, assemble, compute_amplitudes
from fermicorr.amplitudes import PerturbativeAmplitudes, _exp1, two_point
from fermicorr.cli import SWEEP_HEADER
from fermicorr.oracles import mode_sum_amplitudes
from fermicorr.states import validate_state

from conftest import double_truncation, halve_mode_panel_width

R_BAR = math.pi / 4.0


def params(coupling=0.04, cutoff=300.0):
    return ModelParams(r_bar=R_BAR, coupling=coupling, cutoff=cutoff)


# ---------------------------------------------------------------------------
# two-point function
# ---------------------------------------------------------------------------

def test_two_point_coincidence_limit():
    assert two_point(0.0, 0.0, 100.0) == pytest.approx(20000.0)
    assert two_point(0.0, 0.0, 100.0).imag == 0.0


def test_two_point_hermiticity():
    for dx, dt in ((0.3, 0.7), (1.2, -0.4), (0.0, 2.0), (0.5, 0.0)):
        assert two_point(dx, dt, 50.0) == pytest.approx(np.conj(two_point(dx, -dt, 50.0)))


def test_two_point_matches_mode_sum():
    # oracle: adaptive quadrature of the defining k-integral on (0, 40*cutoff)
    dx, dt, cutoff = 0.5, 0.3, 50.0

    def integrand_re(k):
        return k * math.exp(-k / cutoff) * 2.0 * math.cos(k * dx) * math.cos(k * dt)

    def integrand_im(k):
        return -k * math.exp(-k / cutoff) * 2.0 * math.cos(k * dx) * math.sin(k * dt)

    re, _ = quad(integrand_re, 0.0, 40.0 * cutoff, limit=2000)
    im, _ = quad(integrand_im, 0.0, 40.0 * cutoff, limit=2000)
    w = two_point(dx, dt, cutoff)
    assert abs(w - complex(re, im)) / abs(w) < 1e-6


# ---------------------------------------------------------------------------
# amplitudes: base values and cross-route checks
# ---------------------------------------------------------------------------

def test_all_amplitudes_vanish_at_xi_zero():
    a = compute_amplitudes(params(), 0.0)
    assert a.exchange == 0.0
    assert a.re_a == 0.0
    assert (a.u2, a.v2, a.pair_coherence) == (0.0, 0.0, 0.0)
    assert a.g2 == 0.0


def test_exchange_rejects_negative_time():
    for xi in (-0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="xi"):
            compute_amplitudes(params(), xi)


def test_exchange_quadrature_refinement(monkeypatch):
    # on the early panel (xi = 0.02 puts tau under 1/cutoff) and off it
    p = params(coupling=0.1, cutoff=50.0)
    xi = np.array([0.02, 2.0])
    a = compute_amplitudes(p, xi).exchange
    double_truncation(monkeypatch)
    b = compute_amplitudes(p, xi).exchange
    assert np.all(np.abs(a - b) / np.abs(b) < 1e-12)


def test_closed_form_converges_at_late_times(monkeypatch):
    # the continued fraction takes over from the series far from the poles,
    # and its depth is converged however late the time
    p = ModelParams(r_bar=5.0, coupling=0.0005)
    xi = np.array([30.0, 40.0, 1e4])
    a = compute_amplitudes(p, xi)
    double_truncation(monkeypatch)
    b = compute_amplitudes(p, xi)
    for name in ("re_a", "exchange", "u2", "v2", "pair_coherence"):
        gap, size = np.abs(getattr(a, name) - getattr(b, name)), np.abs(getattr(b, name))
        assert np.all(gap <= 1e-9 * size), (name, gap / size)


def _tensor_gauss_amplitudes(p, xi, n):
    """Independent oracle: plain 2D tensor-product Gauss-Legendre on [0,tau]^2.

    Adequate at moderate cutoff where the light-cone peak is wider than the
    node spacing.
    """
    tau = xi * p.r_bar
    x, w = leggauss(n)
    t = 0.5 * tau * (x + 1.0)
    ww = np.outer(0.5 * tau * w, 0.5 * tau * w)
    d = t[:, None] - t[None, :]
    wr = two_point(p.r_bar, d, p.cutoff)
    wr_ordered = np.where(d >= 0, wr, np.conj(wr))
    w0 = two_point(0.0, d, p.cutoff)
    k = p.coupling
    exchange = 0.25 * k * np.sum(ww * np.exp(1j * d) * wr_ordered)
    re_a = -0.25 * k * np.sum(ww * np.cos(d) * w0.real)
    pair = -0.25 * k * np.sum(ww * np.exp(1j * (t[:, None] + t[None, :])) * wr)
    return exchange, re_a, pair


@pytest.mark.parametrize("xi", [0.5, 1.5])
def test_time_amplitudes_match_tensor_oracle(xi):
    p = params(coupling=0.1, cutoff=50.0)
    ex_o, re_a_o, pair_o = _tensor_gauss_amplitudes(p, xi, 512)
    a = compute_amplitudes(p, xi)
    assert abs(a.exchange - ex_o) / abs(ex_o) < 1e-5
    assert abs(a.re_a - re_a_o) / abs(re_a_o) < 1e-5
    assert abs(a.pair_coherence - pair_o) / abs(pair_o) < 1e-5


def _ei(z, continued):
    """Ei(z) = -E1(-z). With ``continued``, the cut is moved so that the
    function stays analytic across the positive real axis: add i pi sgn(Im z),
    and take the real part at Im z = 0."""
    e = -exp1(-z)
    if continued:
        e = np.where(z.imag == 0.0, e.real, e + 1j * math.pi * np.sign(z.imag))
    return e


def _kernel_antiderivative(d, n, s, r0, eps):
    """Antiderivative in d of d^n e^{isd} q^-2, q = eps + i(d - r0), n in {0, 1}.

    With a = r0 + i eps, d = a - iq, so substituting q gives -i e^{isa} B for
    n = 0 and -i e^{isa} (a B - i Ei(sq)) for n = 1, B = s Ei(sq) - e^{sq}/q.
    The path of sq has Re(sq) = s eps: for s = +1 it crosses the positive real
    axis at d = r0, so Ei is continued there; for s = -1 it never meets a cut,
    and continuing it would put a false 2 pi i jump at d = r0.
    """
    a = r0 + 1j * eps
    q = eps + 1j * (d - r0)
    e = _ei(s * q, continued=s > 0)
    b = s * e - np.exp(s * q) / q
    return -1j * np.exp(1j * s * a) * (b if n == 0 else a * b - 1j * e)


def _cos_sin_integrals(tau, n, r, eps):
    """int_0^tau d^n (cos d, sin d) w(r, d) dd, with w(r, d) = q^-2 summed
    over r0 = r and -r, from K_n(s, r0) = int_0^tau d^n e^{isd} q^-2 dd."""
    k = {s: sum(_kernel_antiderivative(tau, n, s, r0, eps)
                - _kernel_antiderivative(np.zeros_like(tau), n, s, r0, eps) for r0 in (r, -r))
         for s in (1, -1)}
    return 0.5 * (k[1] + k[-1]), (k[1] - k[-1]) / 2j


def _exponential_integral_amplitudes(r_bar, cutoff, xi):
    """Independent oracle: the five amplitudes at unit coupling in closed form.

    Each is a combination of int_0^tau (tau - d) (cos d, sin d) w dd, or for
    the pair coherence the single integrals times e^{i tau}, as in
    ``_unit_integrals``; the Re w and Im w parts are the real and imaginary
    parts of the integrals of w, since the other factors are real. It loses
    digits roughly as 1e-16 (r_bar/tau)^2 at early times.
    """
    eps, tau = 1.0 / cutoff, xi * r_bar
    c0, s0 = _cos_sin_integrals(tau, 0, r_bar, eps)
    c1, _ = _cos_sin_integrals(tau, 1, r_bar, eps)
    l0, m0 = _cos_sin_integrals(tau, 0, 0.0, eps)
    l1, m1 = _cos_sin_integrals(tau, 1, 0.0, eps)
    even, odd = tau * l0.real - l1.real, tau * m0.imag - m1.imag
    return {
        "exchange": 0.5 * (tau * c0 - c1),
        "re_a": -0.5 * even,
        "pair_coherence": -0.5 * np.exp(1j * tau) * (np.sin(tau) * c0.real
                                                     - np.cos(tau) * s0.real),
        "u2": 0.5 * (even - odd),
        "v2": 0.5 * (even + odd),
    }


@pytest.mark.parametrize("cutoff", [50.0, 300.0, 1000.0, 3000.0, 1e4])
@pytest.mark.parametrize("r_bar", [R_BAR, 5.0], ids=["r_bar=pi/4", "r_bar=5"])
def test_amplitudes_match_exponential_integral_oracle(r_bar, cutoff):
    # the same closed form on scipy's E1 and in the tests' own algebra:
    # measured worst 1.2e-14 of the point's largest amplitude (cutoff 3000)
    xi = np.concatenate((np.linspace(0.01, 2.0, 200), [5.0, 10.0, 20.0, 30.0, 40.0]))
    amps = compute_amplitudes(ModelParams(r_bar=r_bar, coupling=1.0, cutoff=cutoff), xi)
    exact = _exponential_integral_amplitudes(r_bar, cutoff, xi)
    gap = np.max([np.abs(getattr(amps, name) - value) for name, value in exact.items()], axis=0)
    size = np.max([np.abs(value) for value in exact.values()], axis=0)
    assert np.all(gap <= 1e-12 * size), (xi[np.argmax(gap / size)], np.max(gap / size))


@pytest.mark.parametrize("cutoff", [10.0, 1e2, 1e3, 1e4, 1e5, 1e6])
def test_exp1_matches_scipy(cutoff):
    # the arguments of the closed form: Re z = +-1/cutoff, out to |Im z| = 1e7,
    # and on both sides of |z| = 4, where the series hands over to the
    # continued fraction (measured worst 1.7e-14)
    far = np.geomspace(1e-9, 1e7, 400)
    edge = np.sqrt(16.0 - cutoff**-2) * np.array([1.0 - 1e-12, 1.0 + 1e-12])  # |z| = 4
    im = np.concatenate((np.linspace(-4.5, 4.5, 901), far, -far, edge))
    z = np.concatenate((1.0 / cutoff + 1j * im, -1.0 / cutoff + 1j * im))
    assert np.any(np.abs(z) <= 4.0) and np.any(np.abs(z) > 4.0)
    gap = np.abs(_exp1(z) - exp1(z)) / np.abs(exp1(z))
    assert gap.max() <= 1e-13, z[np.argmax(gap)]


def _mpmath_amplitudes(r_bar, cutoff, tau):
    """Independent judge: the five amplitudes at unit coupling as the
    difference-variable integrals of ``_unit_integrals``, by mpmath.quad at
    30 digits, split at 0, eps, r_bar +- eps and tau."""
    with mpmath.workdps(30):
        r, eps, tau = mpmath.mpf(r_bar), 1 / mpmath.mpf(cutoff), mpmath.mpf(tau)
        cuts = sorted({mpmath.mpf(0), tau} | {c for c in (eps, r - eps, r + eps) if 0 < c < tau})

        def w(x, d):
            return (eps + 1j * (d - x)) ** -2 + (eps + 1j * (d + x)) ** -2

        def integral(f):
            return mpmath.quad(f, cuts)

        exchange = integral(lambda d: (tau - d) * mpmath.cos(d) * w(r, d)) / 2
        even = integral(lambda d: (tau - d) * mpmath.cos(d) * w(0, d).real)
        odd = integral(lambda d: (tau - d) * mpmath.sin(d) * w(0, d).imag)
        cos_re = integral(lambda d: mpmath.cos(d) * w(r, d).real)
        sin_re = integral(lambda d: mpmath.sin(d) * w(r, d).real)
        pair = -mpmath.exp(1j * tau) * (mpmath.sin(tau) * cos_re - mpmath.cos(tau) * sin_re) / 2
        values = {"exchange": exchange, "re_a": -even / 2, "pair_coherence": pair,
                  "u2": (even - odd) / 2, "v2": (even + odd) / 2}
        return {name: complex(value) for name, value in values.items()}


@pytest.mark.parametrize("r_bar, cutoff, tau", [
    (0.01, 10.0, 1e-9),  # tau = 1e-7 r_bar, deep in the early panel
    (5.0, 300.0, 5e-7),
    (R_BAR, 300.0, 1.0 / 300.0),  # tau = eps, the panel's last point
    (R_BAR, 300.0, (1.0 + 1e-9) / 300.0),  # just past it, the closed form's first
    (0.01, 1e4, 0.01),  # on the cone
    (R_BAR, 1e4, R_BAR),
    (5.0, 1e4, 5.0),  # measured worst: 2.7e-13
    (R_BAR, 10.0, 2.0 * R_BAR),
])
def test_amplitudes_match_mpmath(r_bar, cutoff, tau):
    amps = compute_amplitudes(ModelParams(r_bar=r_bar, coupling=1.0, cutoff=cutoff), tau / r_bar)
    exact = _mpmath_amplitudes(r_bar, cutoff, tau)
    size = max(abs(value) for value in exact.values())
    gap = {name: abs(getattr(amps, name) - value) / size for name, value in exact.items()}
    assert max(gap.values()) <= 1e-12, gap


def test_late_time_golden_rule_rate():
    # at late times the norm loss grows at the golden-rule rate of the
    # regularized field at the qubit frequency: the spectral weight
    # k e^{-k/cutoff} at k = 1 gives re_A / (K tau) -> -(pi/2) e^{-1/cutoff},
    # with a gap that shrinks as 1/xi
    xi = np.array([1e4, 1e5, 1e6])
    for cutoff in (50.0, 300.0):
        amps = compute_amplitudes(ModelParams(r_bar=R_BAR, coupling=1.0, cutoff=cutoff), xi)
        rate = -0.5 * math.pi * math.exp(-1.0 / cutoff)
        gap = np.abs(amps.re_a / (xi * R_BAR) - rate)
        assert np.all(np.isfinite(gap)) and gap[-1] <= 1e-5 * abs(rate), (cutoff, gap)
        assert np.all(gap[1:] <= 0.2 * gap[:-1]), (cutoff, gap)


def test_single_photon_dual_route():
    # mode-sum oracle vs the normal-ordered double-time-integral route
    p = params(coupling=0.1)
    for xi in (0.4, 1.0, 1.7):
        a = compute_amplitudes(p, xi)
        u2_m, v2_m, pair_m = mode_sum_amplitudes(p, xi)
        assert abs(u2_m - a.u2) / u2_m < 1e-5
        assert abs(v2_m - a.v2) / v2_m < 1e-5
        assert abs(pair_m - a.pair_coherence) / abs(pair_m) < 1e-5


def test_mode_sum_converged_at_fixed_width(monkeypatch):
    # the oracle's one panel width is converged: halving it moves u2, v2 and L
    # by 4.6e-16 of the largest at most (measured, cutoffs 50 and 300)
    spots = [(ModelParams(r_bar=R_BAR, coupling=1.0, cutoff=cutoff), xi)
             for cutoff in (50.0, 300.0) for xi in (0.1, 1.0, 2.0)]
    fixed = [mode_sum_amplitudes(p, xi) for p, xi in spots]
    halve_mode_panel_width(monkeypatch)
    for (p, xi), coarse in zip(spots, fixed):
        fine = mode_sum_amplitudes(p, xi)
        scale = max(abs(v) for v in coarse)
        assert max(abs(a - b) for a, b in zip(coarse, fine)) <= 1e-12 * scale, (p.cutoff, xi)


def test_radiative_correction_is_negative():
    p = params()
    for xi in np.linspace(0.05, 2.0, 40):
        assert compute_amplitudes(p, xi).re_a < 0.0


def test_unitarity_residual():
    # norm conservation ties the emission weights (from the mode sum) to the
    # radiative correction (from the time-difference closed form)
    for coupling in (0.05, 0.2):
        p = params(coupling=coupling, cutoff=50.0)
        for xi in np.linspace(0.0, 2.0, 11):
            u2, v2, _ = mode_sum_amplitudes(p, xi)
            resid = abs(u2 + v2 + 2.0 * compute_amplitudes(p, xi).re_a)
            assert resid <= 0.5 * coupling**2


def test_resonant_emission_dominates():
    for coupling in (0.05, 0.1, 0.2):
        p = params(coupling=coupling)
        for xi in np.linspace(0.1, 2.0, 20):
            a = compute_amplitudes(p, xi)
            assert a.u2 >= a.v2


def test_pair_coherence_bounded_by_emission():
    # |pair|^2 <= u2 v2 (Cauchy-Schwarz in the mode integrals)
    p = params(coupling=0.06)
    for xi in np.linspace(0.1, 2.0, 20):
        a = compute_amplitudes(p, xi)
        assert abs(a.pair_coherence) ** 2 <= a.u2 * a.v2 * (1.0 + 1e-6)


def test_two_photon_bounds():
    p = params(coupling=0.06)
    for xi in np.linspace(0.1, 2.0, 20):
        a = compute_amplitudes(p, xi)
        assert 0.0 <= a.g2 <= 10.0 * a.u2 * a.v2


def test_exchange_dominates_two_photon_weight_inside_cone():
    p = params(coupling=0.06)
    for xi in (1.1, 1.5, 2.0):
        amps = compute_amplitudes(p, xi)
        assert amps.g2 / (abs(amps.exchange) ** 2 + amps.g2) < 1.0


def test_linear_and_quadratic_coupling_scaling():
    k = 0.03
    a1 = compute_amplitudes(params(coupling=k), 1.3)
    a2 = compute_amplitudes(params(coupling=2 * k), 1.3)
    for lo, hi in ((a1.u2, a2.u2), (a1.v2, a2.v2), (abs(a1.re_a), abs(a2.re_a))):
        assert hi / lo == pytest.approx(2.0, rel=0.05)
    assert abs(a2.exchange) ** 2 / abs(a1.exchange) ** 2 == pytest.approx(4.0, rel=0.05)
    assert a2.g2 / a1.g2 == pytest.approx(4.0, rel=0.05)
    # the amplitudes carry their coupling, and rescaling moves it along
    assert (a1.coupling, a2.coupling) == (k, 2 * k)
    assert a1.scaled(3.0).coupling == 3.0 * k
    assert np.array_equal(a1.scaled(np.array([1.0, 2.0])).coupling, [k, 2 * k])


def test_amplitude_continuity():
    # no isolated spikes: each grid step compares to its neighborhood
    p = params(coupling=0.04)
    xis = np.linspace(0.0, 2.0, 400)
    amps = [compute_amplitudes(p, x) for x in xis]
    for series in (
        np.array([abs(a.exchange) for a in amps]),
        np.array([a.re_a for a in amps]),
        np.array([a.u2 for a in amps]),
        np.array([abs(a.pair_coherence) for a in amps]),
    ):
        steps = np.abs(np.diff(series))
        scale = np.max(np.abs(series))
        for i in range(len(steps)):
            window = np.concatenate([steps[max(0, i - 2):i], steps[i + 1:i + 3]])
            local = window.max() if window.size else 0.0
            assert steps[i] <= 5.0 * local + 1e-9 * scale


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def _manual_amps(**kw):
    base = dict(
        xi=1.0, re_a=0.0, exchange=0.0j, u2=0.0, v2=0.0,
        pair_coherence=0.0j, g2=0.0, coupling=0.04,
    )
    base.update(kw)
    return PerturbativeAmplitudes(**base)


def test_assemble_initial_state():
    coeffs, rho = assemble(_manual_amps(xi=0.0))
    assert coeffs.c == 1.0
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 1] = 1.0
    assert np.array_equal(rho, expected)


def test_assemble_arithmetic():
    # g2 = u2 v2 + |L|^2 keeps the exchange block positive
    amps = _manual_amps(u2=0.01, v2=0.004, re_a=-0.007, exchange=0.01j, g2=4e-5)
    coeffs, rho = assemble(amps)
    assert coeffs.c == pytest.approx(1.00014, abs=1e-15)
    assert coeffs.rho22 == pytest.approx(0.986)
    assert rho[1, 1].real == pytest.approx(0.986 / 1.00014)
    assert coeffs.rho23 == pytest.approx(-0.01j)


@pytest.mark.parametrize("field, value", [
    ("re_a", math.nan),
    ("exchange", complex(math.nan, 0.0)),
    ("exchange", complex(0.0, math.inf)),
    ("g2", math.inf),
])
def test_assemble_rejects_non_finite_amplitudes(field, value):
    with pytest.raises(ValueError, match=f"amplitude {field} must be finite") as info:
        assemble(_manual_amps(**{field: value}))
    assert not isinstance(info.value, OutOfRegimeError)


def test_assemble_out_of_regime():
    p = params(coupling=0.2)
    amps = compute_amplitudes(p, 2.0)
    with pytest.raises(OutOfRegimeError, match="xi = 2"):
        assemble(amps)
    # 1 + 2 re_A > 0 here, but the exchange block is no longer positive
    p = params(coupling=0.06, cutoff=1000.0)
    amps = compute_amplitudes(p, 2.0)
    assert 1.0 + 2.0 * amps.re_a > 0.0
    with pytest.raises(OutOfRegimeError, match=r"min eigenvalue = -1\.1\d+e-02"):
        assemble(amps)
    # an (xi, coupling) stack names its first failing point in array order:
    # the smallest failing xi, then the smallest failing coupling there
    unit = compute_amplitudes(params(coupling=1.0), np.array([[1.0], [2.0]]))
    with pytest.raises(OutOfRegimeError, match=r"at xi = 1, coupling = 0\.2:"):
        assemble(unit.scaled(np.array([0.02, 0.2, 0.3])))


def test_assembled_states_pass_invariants():
    p = params(coupling=0.06)
    for xi in np.linspace(0.0, 2.0, 41):
        amps = compute_amplitudes(p, xi)
        coeffs, rho = assemble(amps)
        validate_state(rho)
        assert coeffs.c == coeffs.rho11 + coeffs.rho22 + coeffs.rho33 + coeffs.rho44
        assert abs(coeffs.rho14) ** 2 <= coeffs.rho11 * coeffs.rho44 * (1.0 + 1e-6)
        assert abs(coeffs.rho23) ** 2 <= coeffs.rho22 * coeffs.rho33 * (1.0 + 1e-6)


def test_assemble_coupling_stack_matches_per_coupling_calls():
    # one call on an (xi, coupling) stack gives, bit for bit, the states of
    # one call per coupling
    unit = compute_amplitudes(params(coupling=1.0), np.linspace(0.0, 2.0, 41)[:, None])
    couplings = np.array([0.02, 0.04, 0.06])
    coeffs, rho = assemble(unit.scaled(couplings))
    assert rho.shape == (41, 3, 4, 4)
    for j, k in enumerate(couplings):
        one_coeffs, one_rho = assemble(unit.scaled(k))
        assert np.array_equal(rho[:, j], one_rho[:, 0])
        for name, value in vars(one_coeffs).items():
            assert np.array_equal(getattr(coeffs, name)[:, j], value[:, 0]), name


def test_model_params_validation():
    with pytest.raises(ValueError, match="r_bar"):
        ModelParams(r_bar=0.0, coupling=0.1)
    with pytest.raises(ValueError, match="coupling"):
        ModelParams(r_bar=1.0, coupling=-0.1)
    with pytest.raises(ValueError, match="cutoff"):
        ModelParams(r_bar=1.0, coupling=0.1, cutoff=5.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="r_bar"):
            ModelParams(r_bar=bad, coupling=0.1)
        with pytest.raises(ValueError, match="coupling"):
            ModelParams(r_bar=1.0, coupling=bad)
        with pytest.raises(ValueError, match="cutoff"):
            ModelParams(r_bar=1.0, coupling=0.1, cutoff=bad)


def test_csv_header_frozen():
    assert SWEEP_HEADER == (
        "xi", "K", "r_bar", "cutoff", "re_A", "re_X", "im_X",
        "u2", "v2", "re_L", "im_L", "g2", "c",
        "sqrtD", "negativity", "conn_corr", "bell_chsh", "bell_opt", "hierarchy_ok",
    )
