"""Correlation measures: generic Bloch-form quantities, the X-state closed
forms, Bell parameters and the hierarchy between them."""
import math

import numpy as np
import pytest

from fermicorr import (
    BELL_TSIRELSON,
    ModelParams,
    XStateCoefficients,
    assemble,
    bell_chsh,
    bell_opt,
    compute_amplitudes,
    connected_correlation,
    connected_correlation_xstate,
    decompose,
    geometric_discord,
    measures,
    negativity,
    negativity_xstate,
    partial_transpose,
    random_state,
    report,
    sqrt_discord_xstate,
    states,
)

from conftest import bell_projector, coeffs_from_state

R_BAR = math.pi / 4.0


def product_state(seed=0):
    rng = np.random.default_rng(seed)
    va = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    vb = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v = np.kron(va / np.linalg.norm(va), vb / np.linalg.norm(vb))
    return np.outer(v, v.conj())


def make_coeffs(rho11=0.0, rho22=1.0, rho33=0.0, rho44=0.0, rho14=0.0j, rho23=0.0j):
    """Unnormalized X-state coefficients with their sum c; the defaults are
    the initial state |eg>. Entries may be arrays over a stack of states."""
    return XStateCoefficients(rho11=rho11, rho22=rho22, rho33=rho33, rho44=rho44,
                              rho14=rho14, rho23=rho23, c=rho11 + rho22 + rho33 + rho44)


# ---------------------------------------------------------------------------
# geometric discord
# ---------------------------------------------------------------------------

def test_discord_product_state_is_zero():
    for seed in range(5):
        assert geometric_discord(product_state(seed)) < 1e-12


def test_discord_bell_projector():
    assert geometric_discord(bell_projector()) == pytest.approx(1.0, abs=1e-12)


def test_discord_classically_correlated():
    rho = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    assert geometric_discord(rho) == pytest.approx(0.0, abs=1e-14)


def test_sqrt_discord_xstate_examples():
    assert sqrt_discord_xstate(make_coeffs()) == 0.0
    assert sqrt_discord_xstate(make_coeffs(rho14=0.01 + 0.0j)) == pytest.approx(0.01)
    assert sqrt_discord_xstate(make_coeffs(rho23=-0.03j, rho14=0.04 - 0.7j)) == pytest.approx(0.05)


# ---------------------------------------------------------------------------
# negativity
# ---------------------------------------------------------------------------

def test_negativity_product_state_is_zero():
    for seed in range(5):
        assert negativity(product_state(seed)) < 1e-12


def test_negativity_bell_projector():
    assert negativity(bell_projector()) == pytest.approx(1.0, abs=1e-12)


def test_negativity_werner_state():
    p = 2.0 / 3.0
    rho = p * bell_projector() + (1.0 - p) * np.eye(4) / 4.0
    # oracle: direct eigendecomposition of the partial transpose
    ev = np.linalg.eigvalsh(partial_transpose(rho))
    assert ev[0] == pytest.approx((1.0 - 3.0 * p) / 4.0, abs=1e-12)
    assert negativity(rho) == pytest.approx((3.0 * p - 1.0) / 2.0, abs=1e-12)
    assert negativity(rho) == pytest.approx(0.5, abs=1e-12)


def test_negativity_xstate_examples():
    assert negativity_xstate(make_coeffs(rho23=0.01 + 0.0j)) == pytest.approx(0.02)
    # threshold case |rho23|^2 = rho11 rho44 gives exactly zero
    co = make_coeffs(rho23=math.sqrt(0.02 * 0.005) + 0.0j, rho44=0.02, rho11=0.005)
    assert negativity_xstate(co) == pytest.approx(0.0, abs=1e-15)
    co = make_coeffs(rho23=0.02 + 0.0j, rho44=0.01, rho11=0.01)
    assert negativity_xstate(co) == pytest.approx(math.sqrt(0.0016) - 0.02)


def test_entanglement_onset_agrees_with_negativity():
    # the closed form leaves zero exactly where exchange dominates the
    # emission weights, |rho23|^2 > rho11 rho44, on one stack of 10^4 states
    rng = np.random.default_rng(11)
    u2, v2, x = rng.uniform(0.0, 0.1, size=(3, 10_000))
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=x.size))
    co = make_coeffs(rho23=x * phase, rho44=u2, rho11=v2)
    assert np.array_equal(np.abs(co.rho23) ** 2 > u2 * v2, negativity_xstate(co) > 0.0)


# ---------------------------------------------------------------------------
# connected correlation
# ---------------------------------------------------------------------------

def test_connected_correlation_product_state():
    for seed in range(5):
        assert connected_correlation(product_state(seed)) < 1e-7


def test_connected_correlation_bell_projector():
    assert connected_correlation(bell_projector()) == pytest.approx(1.0, abs=1e-12)


def test_connected_correlation_classical_mixture():
    # classically correlated: C = 1 while discord and negativity vanish
    rho = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    assert connected_correlation(rho) == pytest.approx(1.0, abs=1e-12)
    assert geometric_discord(rho) == pytest.approx(0.0, abs=1e-14)
    assert negativity(rho) == pytest.approx(0.0, abs=1e-14)


def test_connected_correlation_xstate_examples():
    assert connected_correlation_xstate(make_coeffs()) == 0.0
    co = make_coeffs(rho23=0.01 + 0.0j, rho44=0.01, rho11=0.01, rho14=0.005 + 0.0j)
    assert connected_correlation_xstate(co) == pytest.approx(0.03)


# ---------------------------------------------------------------------------
# Bell parameters
# ---------------------------------------------------------------------------

def test_bell_chsh_initial_state():
    assert bell_chsh(make_coeffs()) == pytest.approx(math.sqrt(2.0))


def test_bell_chsh_bell_projector():
    co = coeffs_from_state(bell_projector())
    assert bell_chsh(co) == pytest.approx(-2.0 * math.sqrt(2.0))


def test_bell_opt_bell_projector():
    co = coeffs_from_state(bell_projector())
    assert bell_opt(co) == pytest.approx(BELL_TSIRELSON)


def test_bell_opt_initial_state():
    assert bell_opt(make_coeffs()) == pytest.approx(2.0)


def test_bell_opt_dominates_chsh_on_random_xstates():
    for seed in range(10_000):
        co = coeffs_from_state(random_state(seed, "xshape"))
        assert bell_opt(co) >= abs(bell_chsh(co)) - 1e-12


def test_bell_opt_range_on_random_xstates():
    for seed in range(2000):
        co = coeffs_from_state(random_state(seed, "xshape"))
        assert 0.0 <= bell_opt(co) <= BELL_TSIRELSON + 1e-9


# ---------------------------------------------------------------------------
# report and hierarchy
# ---------------------------------------------------------------------------

def test_closed_forms_take_arrays():
    # an xi grid in one call equals the points one by one; scalars stay Python types
    p = ModelParams(r_bar=R_BAR, coupling=0.04)
    xis = np.linspace(0.0, 2.0, 9)
    stack = compute_amplitudes(p, xis)
    coeffs, rho = assemble(stack)
    rep = report(coeffs)
    assert rho.shape == (9, 4, 4)
    for i, xi in enumerate(xis):
        amps = compute_amplitudes(p, float(xi))
        co, _ = assemble(amps)
        for fn in (sqrt_discord_xstate, negativity_xstate, connected_correlation_xstate,
                   bell_chsh, bell_opt):
            value = fn(co)
            assert type(value) is float
            assert fn(coeffs)[i] == pytest.approx(value, rel=1e-12, abs=0.0)
        # the negativity turns on exactly where |X|^2 > u2 v2
        onset = abs(amps.exchange) ** 2 > amps.u2 * amps.v2
        assert (negativity_xstate(coeffs)[i] > 0.0) == onset
        assert rep.hierarchy_ok[i] == report(co).hierarchy_ok

def test_report_initial_point():
    p = ModelParams(r_bar=R_BAR, coupling=0.04)
    amps = compute_amplitudes(p, 0.0)
    coeffs, _ = assemble(amps)
    rep = report(coeffs)
    assert rep.sqrt_discord == 0.0
    assert rep.negativity == 0.0
    assert rep.connected_corr == 0.0
    assert rep.bell_chsh == pytest.approx(math.sqrt(2.0))
    assert rep.bell_opt == pytest.approx(2.0)
    assert rep.hierarchy_ok is True


def test_hierarchy_on_random_states():
    for seed in range(2000):
        rho = random_state(seed, "mixed")
        c = connected_correlation(rho)
        sd = math.sqrt(geometric_discord(rho))
        n = negativity(rho)
        assert c >= sd - 1e-9
        assert sd >= n - 1e-9


def test_pure_state_saturation():
    for seed in range(200):
        rho = random_state(seed, "pure")
        c = connected_correlation(rho)
        sd = math.sqrt(geometric_discord(rho))
        n = negativity(rho)
        assert abs(c - sd) < 1e-8
        assert abs(sd - n) < 1e-8


def _random_local_unitary(rng):
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_local_unitary_invariance():
    rng = np.random.default_rng(17)
    for seed in range(30):
        rho = random_state(seed, "mixed")
        u = np.kron(_random_local_unitary(rng), _random_local_unitary(rng))
        rotated = u @ rho @ u.conj().T
        rotated = 0.5 * (rotated + rotated.conj().T)  # scrub rounding
        assert abs(geometric_discord(rotated) - geometric_discord(rho)) < 1e-10
        assert abs(negativity(rotated) - negativity(rho)) < 1e-10
        assert abs(connected_correlation(rotated) - connected_correlation(rho)) < 1e-10


def test_measure_ranges():
    for seed in range(300):
        rho = random_state(seed, "mixed")
        assert 0.0 <= geometric_discord(rho) <= 1.0
        assert 0.0 <= negativity(rho) <= 1.0
        assert 0.0 <= connected_correlation(rho) <= 1.0 + 1e-12


def test_generic_measures_validate_once(monkeypatch):
    calls = []
    check = states.validate_state

    def counted(*args, **kwargs):
        calls.append(args)
        return check(*args, **kwargs)

    # decompose looks the check up in states, negativity in measures
    monkeypatch.setattr(states, "validate_state", counted)
    monkeypatch.setattr(measures, "validate_state", counted)
    rho = random_state(4, "mixed")
    for measure in (geometric_discord, connected_correlation, negativity):
        calls.clear()
        measure(rho)
        assert len(calls) == 1, measure.__name__


# ---------------------------------------------------------------------------
# closed forms vs generic measures on assembled states
# ---------------------------------------------------------------------------

def _closed_vs_generic(coupling, xi):
    p = ModelParams(r_bar=R_BAR, coupling=coupling)
    amps = compute_amplitudes(p, xi)
    coeffs, rho = assemble(amps)
    b = decompose(rho)
    w = b.t - np.outer(b.x, b.y)
    equatorial = 2.0 * (abs(amps.exchange) + abs(amps.pair_coherence))
    return {
        "negativity": abs(negativity_xstate(coeffs) - negativity(rho)),
        # the generic maximum is either the coherence (equatorial) branch the
        # closed form keeps or the longitudinal covariance it truncates away
        "two_branch": abs(connected_correlation(rho) - max(equatorial, abs(w[2, 2]))),
        "conn_block": abs(np.linalg.svd(w[:2, :2], compute_uv=False)[0] - equatorial),
        # exact second-order reduction of the normalized geometric discord
        "sqrt_discord": abs(
            2.0 * math.hypot(abs(amps.pair_coherence), abs(amps.exchange))
            - math.sqrt(geometric_discord(rho))
        ),
    }


@pytest.mark.parametrize("xi", [0.6, 1.4])
def test_closed_forms_are_second_order_truncations(xi):
    # truncation-error coefficients carry the cutoff-enhanced emission
    # weights, so the absolute 2K^2 bound needs K below ~0.02 here
    k = 0.015
    gaps = _closed_vs_generic(k, xi)
    for gap in gaps.values():
        assert gap <= 2.0 * k**2
    # errors must shrink at least quadratically in the coupling
    gaps_double = _closed_vs_generic(2.0 * k, xi)
    for name in ("conn_block", "sqrt_discord"):
        assert gaps_double[name] / gaps[name] >= 3.0
