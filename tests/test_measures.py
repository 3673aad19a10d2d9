"""Correlation measures: generic Bloch-form quantities, the X-state closed
forms, Bell parameters and the hierarchy between them."""
import math

import numpy as np
import pytest

from fermicorr import (
    BELL_TSIRELSON,
    ModelParams,
    PerturbativeAmplitudes,
    XStateCoefficients,
    assemble,
    bell_chsh,
    bell_opt,
    compute_amplitudes,
    connected_correlation,
    connected_correlation_xstate,
    decompose,
    geometric_discord,
    negativity,
    negativity_xstate,
    partial_transpose,
    random_state,
    report,
    sqrt_discord_xstate,
)

from conftest import bell_projector

R_BAR = math.pi / 4.0


def product_state(seed=0):
    rng = np.random.default_rng(seed)
    va = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    vb = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v = np.kron(va / np.linalg.norm(va), vb / np.linalg.norm(vb))
    return np.outer(v, v.conj())


def make_amps(re_a=0.0, exchange=0.0j, u2=0.0, v2=0.0, pair=0.0j, g2=0.0):
    return PerturbativeAmplitudes(
        xi=1.0, re_a=re_a, exchange=exchange, u2=u2, v2=v2,
        pair_coherence=pair, g2=g2, two_photon_enabled=True, coupling=0.04,
    )


def coeffs_from_state(rho):
    """X-state coefficients read off a normalized X-patterned matrix."""
    return XStateCoefficients(
        rho11=rho[0, 0].real, rho22=rho[1, 1].real,
        rho33=rho[2, 2].real, rho44=rho[3, 3].real,
        rho14=complex(rho[0, 3]), rho23=complex(rho[1, 2]), c=1.0,
    )


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


def test_discord_party_switch():
    rho = random_state(3, "mixed")
    da = geometric_discord(rho, party="A")
    db = geometric_discord(rho, party="B")
    assert 0.0 <= da <= 1.0 and 0.0 <= db <= 1.0
    with pytest.raises(ValueError):
        geometric_discord(rho, party="C")


def test_sqrt_discord_xstate_examples():
    assert sqrt_discord_xstate(make_amps()) == 0.0
    assert sqrt_discord_xstate(make_amps(pair=0.01 + 0.0j)) == pytest.approx(0.01)
    assert sqrt_discord_xstate(make_amps(exchange=0.03j, pair=0.04 + 0.7j)) == pytest.approx(0.05)


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
    ev = np.linalg.eigvalsh(partial_transpose(rho, "A"))
    assert ev[0] == pytest.approx((1.0 - 3.0 * p) / 4.0, abs=1e-12)
    assert negativity(rho) == pytest.approx((3.0 * p - 1.0) / 2.0, abs=1e-12)
    assert negativity(rho) == pytest.approx(0.5, abs=1e-12)


def test_negativity_xstate_examples():
    assert negativity_xstate(make_amps(exchange=0.01 + 0.0j)) == pytest.approx(0.02)
    # threshold case |X|^2 = u2 v2 gives exactly zero
    amps = make_amps(exchange=math.sqrt(0.02 * 0.005) + 0.0j, u2=0.02, v2=0.005)
    assert negativity_xstate(amps) == pytest.approx(0.0, abs=1e-15)
    amps = make_amps(exchange=0.02 + 0.0j, u2=0.01, v2=0.01)
    assert negativity_xstate(amps) == pytest.approx(math.sqrt(0.0016) - 0.02)


def test_entanglement_onset_agrees_with_negativity():
    # the closed form leaves zero exactly where exchange dominates the
    # emission weights, |X|^2 > u2 v2
    rng = np.random.default_rng(11)
    for _ in range(10_000):
        u2, v2, x = rng.uniform(0.0, 0.1, size=3)
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        amps = make_amps(exchange=x * phase, u2=u2, v2=v2)
        assert (abs(amps.exchange) ** 2 > u2 * v2) == (negativity_xstate(amps) > 0.0)


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
    assert connected_correlation_xstate(make_amps()) == 0.0
    amps = make_amps(re_a=-0.02, exchange=0.01 + 0.0j, u2=0.01, v2=0.01, pair=0.005 + 0.0j)
    assert connected_correlation_xstate(amps) == pytest.approx(0.03)


# ---------------------------------------------------------------------------
# Bell parameters
# ---------------------------------------------------------------------------

def initial_coeffs():
    return XStateCoefficients(
        rho11=0.0, rho22=1.0, rho33=0.0, rho44=0.0, rho14=0.0j, rho23=0.0j, c=1.0
    )


def test_bell_chsh_initial_state():
    assert bell_chsh(initial_coeffs()) == pytest.approx(math.sqrt(2.0))


def test_bell_chsh_bell_projector():
    co = coeffs_from_state(bell_projector())
    assert bell_chsh(co) == pytest.approx(-2.0 * math.sqrt(2.0))


def test_bell_opt_bell_projector():
    co = coeffs_from_state(bell_projector())
    assert bell_opt(co) == pytest.approx(BELL_TSIRELSON)


def test_bell_opt_initial_state():
    assert bell_opt(initial_coeffs()) == pytest.approx(2.0)


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
    rep = report(rho, coeffs, stack)
    assert rho.shape == (9, 4, 4)
    for i, xi in enumerate(xis):
        amps = compute_amplitudes(p, float(xi))
        co, one_rho = assemble(amps)
        for fn, one, many in (
            (sqrt_discord_xstate, amps, stack),
            (negativity_xstate, amps, stack),
            (connected_correlation_xstate, amps, stack),
            (bell_chsh, co, coeffs),
            (bell_opt, co, coeffs),
        ):
            value = fn(one)
            assert type(value) is float
            assert fn(many)[i] == pytest.approx(value, rel=1e-12, abs=0.0)
        # the negativity turns on exactly where |X|^2 > u2 v2
        onset = abs(amps.exchange) ** 2 > amps.u2 * amps.v2
        assert (negativity_xstate(stack)[i] > 0.0) == onset
        assert rep.hierarchy_ok[i] == report(one_rho, co, amps).hierarchy_ok

def test_report_initial_point():
    p = ModelParams(r_bar=R_BAR, coupling=0.04)
    amps = compute_amplitudes(p, 0.0)
    coeffs, rho = assemble(amps)
    rep = report(rho, coeffs, amps)
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


# ---------------------------------------------------------------------------
# closed forms vs generic measures on assembled states
# ---------------------------------------------------------------------------

def _closed_vs_generic(coupling, xi):
    p = ModelParams(r_bar=R_BAR, coupling=coupling)
    amps = compute_amplitudes(p, xi)
    _, rho = assemble(amps)
    b = decompose(rho)
    w = b.t - np.outer(b.x, b.y)
    equatorial = 2.0 * (abs(amps.exchange) + abs(amps.pair_coherence))
    return {
        "negativity": abs(negativity_xstate(amps) - negativity(rho)),
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
