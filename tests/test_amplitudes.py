"""Amplitude quadrature: the regularized two-point function, the second-order
amplitudes, their cross-route consistency and the X-state assembly."""
import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

from fermicorr import (
    ModelParams,
    OutOfRegimeError,
    PerturbativeAmplitudes,
    assemble,
    compute_amplitudes,
    two_point,
    validate_state,
)
from fermicorr.cli import SWEEP_HEADER
from fermicorr.oracles import mode_sum_amplitudes

from conftest import double_panel_order

R_BAR = math.pi / 4.0


def params(coupling=0.04, cutoff=300.0, two_photon=True):
    return ModelParams(r_bar=R_BAR, coupling=coupling, cutoff=cutoff,
                       include_two_photon=two_photon)


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
    p = params(coupling=0.1, cutoff=50.0)
    a = compute_amplitudes(p, 2.0).exchange
    double_panel_order(monkeypatch)
    b = compute_amplitudes(p, 2.0).exchange
    assert abs(a - b) / abs(b) < 1e-5


def test_far_panels_converge_at_late_times(monkeypatch):
    # panels far from the pole stop growing at a fixed width, so the
    # oscillating factors stay resolved however late the time
    p = ModelParams(r_bar=5.0, coupling=0.0005)
    xi = np.array([30.0, 40.0])
    a = compute_amplitudes(p, xi)
    double_panel_order(monkeypatch)
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


def test_single_photon_dual_route():
    # mode-sum oracle vs the normal-ordered double-time-integral route
    p = params(coupling=0.1)
    for xi in (0.4, 1.0, 1.7):
        a = compute_amplitudes(p, xi)
        u2_m, v2_m, pair_m = mode_sum_amplitudes(p, xi)
        assert abs(u2_m - a.u2) / u2_m < 1e-5
        assert abs(v2_m - a.v2) / v2_m < 1e-5
        assert abs(pair_m - a.pair_coherence) / abs(pair_m) < 1e-5


def test_radiative_correction_is_negative():
    p = params()
    for xi in np.linspace(0.05, 2.0, 40):
        assert compute_amplitudes(p, xi).re_a < 0.0


def test_unitarity_residual():
    # norm conservation ties the emission weights (from the mode sum) to the
    # radiative correction (from the time-difference quadrature)
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


def test_causality_commutator_confinement():
    """The field commutator at the qubit separation is concentrated on the
    light cone; its weight strictly inside is a tiny fraction of the peak."""
    cutoff = 300.0
    eps = 1.0 / cutoff
    span = np.linspace(0.0, 2.0 * R_BAR, 400001)
    peak = np.max(np.abs(2.0 * two_point(R_BAR, span, cutoff).imag))

    def window_ratio(margin):
        inside = np.linspace(0.0, R_BAR - margin * eps, 40001)
        comm = 2.0 * two_point(R_BAR, inside, cutoff).imag
        return abs(np.trapezoid(comm, inside)) / peak

    # measured 1.97e-4 at a 5 eps margin; drops below 1e-4 from ~8 eps on
    assert window_ratio(5.0) < 2.5e-4
    assert window_ratio(8.0) < 1e-4
    assert window_ratio(20.0) < 2e-5


def test_two_photon_disabled_marker():
    out = compute_amplitudes(params(two_photon=False), 1.0)
    assert out.g2 == 0.0 and out.two_photon_enabled is False


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
        pair_coherence=0.0j, g2=0.0, two_photon_enabled=True, coupling=0.04,
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
