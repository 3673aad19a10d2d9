"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL verdict line (visible with ``pytest -s``).

The default sweep is built once per session by the ``default_sweep`` fixture;
its construction time is billed to criterion 4, which is the criterion that
owns the sweep. Stated runtime budgets are asserted alongside the numerics.
"""
import math
import time
from dataclasses import replace

import numpy as np

from fermicorr import (
    ModelParams,
    assemble,
    compute_amplitudes,
    connected_correlation,
    geometric_discord,
    negativity,
    random_state,
)
from fermicorr.cli import DEFAULT_COUPLINGS, DEFAULT_R_BAR, SweepSpec, oracle_check, run_sweep
from fermicorr.measures import BELL_TSIRELSON, negativity_xstate, sqrt_discord_xstate
from fermicorr.oracles import DirectionGrid, maxcorr_bruteforce, mode_sum_amplitudes
from fermicorr.states import decompose

from conftest import double_truncation, sweep_block, sweep_rows

GRID_STEP = 0.005


def _verdict(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {status} ({detail})")


def test_criterion_01_hierarchy(default_sweep):
    """Connected correlation >= sqrt discord >= negativity, everywhere."""
    start = time.perf_counter()
    worst_upper, worst_lower = np.inf, np.inf
    for seed in range(10_000):
        rho = random_state(seed, "mixed")
        c = connected_correlation(rho)
        sd = math.sqrt(geometric_discord(rho))
        n = negativity(rho)
        worst_upper = min(worst_upper, c - sd)
        worst_lower = min(worst_lower, sd - n)
    sweep_ok = all(r["hierarchy_ok"] for r in default_sweep["rows"])
    elapsed = time.perf_counter() - start
    ok = worst_upper >= -1e-9 and worst_lower >= -1e-9 and sweep_ok and elapsed < 30.0
    _verdict(1, "hierarchy", ok,
             f"min(C-sqrtD)={worst_upper:.2e}, min(sqrtD-N)={worst_lower:.2e}, "
             f"sweep rows ok={sweep_ok}, {elapsed:.1f}s")
    assert ok


def test_criterion_02_pure_state_saturation():
    """All three measures coincide on pure states."""
    start = time.perf_counter()
    worst = 0.0
    for seed in range(1000):
        rho = random_state(seed, "pure")
        c = connected_correlation(rho)
        sd = math.sqrt(geometric_discord(rho))
        n = negativity(rho)
        worst = max(worst, abs(c - sd), abs(sd - n))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 5.0
    _verdict(2, "pure-state saturation", ok, f"max gap={worst:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_03_oracle_equivalence():
    """Closed forms match the brute-force oracles on random states."""
    start = time.perf_counter()
    rep = oracle_check(100, seed=7, grid=DirectionGrid())
    dev = rep["max_deviation"]
    elapsed = time.perf_counter() - start
    ok = (
        dev["discord"] <= 1e-5
        and dev["conn_corr"] <= 1e-5
        and dev["bell_opt"] <= 1e-5
        and dev["negativity"] <= 1e-12
        and elapsed < 120.0
    )
    _verdict(3, "oracle equivalence", ok,
             f"discord={dev['discord']:.1e}, conn={dev['conn_corr']:.1e}, "
             f"neg={dev['negativity']:.1e}, bell={dev['bell_opt']:.1e}, {elapsed:.1f}s")
    assert ok


def test_criterion_04_light_cone_peak(default_sweep):
    """sqrt discord and connected correlation peak on the light cone."""
    start = time.perf_counter()
    offsets = []
    for coupling in DEFAULT_COUPLINGS:
        rows = sweep_block(default_sweep["rows"], coupling)
        xis = np.array([r["xi"] for r in rows])
        for column in ("sqrtD", "conn_corr"):
            values = np.array([r[column] for r in rows])
            offsets.append(abs(xis[int(np.argmax(values))] - 1.0))
    elapsed = time.perf_counter() - start + default_sweep["elapsed"]
    ok = max(offsets) <= GRID_STEP + 1e-12 and elapsed < 60.0
    _verdict(4, "light-cone peak", ok,
             f"max |argmax - 1| = {max(offsets):.4f}, sweep+check {elapsed:.1f}s")
    assert ok


def test_criterion_05_spacelike_correlations():
    """Discord is alive well before the light cone while negativity is not.

    The states are read where ``assemble`` accepts them, at the smallest
    default coupling, with the vacuum population 1 + 2 re_A above 0.5 as the
    regime margin. The closed forms are linear in K, so the ratio is the
    same at any coupling.
    """
    p = ModelParams(r_bar=DEFAULT_R_BAR, coupling=min(DEFAULT_COUPLINGS))
    amps = compute_amplitudes(p, np.array([0.5, 1.0]))
    coeffs, _ = assemble(amps)
    margin = coeffs.rho22.min()
    sd_half, sd_cone = sqrt_discord_xstate(coeffs)
    neg_half = negativity_xstate(coeffs)[0]
    ok = margin > 0.5 and sd_half >= 1e-3 * sd_cone and neg_half == 0.0
    _verdict(5, "space-like correlations", ok,
             f"K={p.coupling}, min(1+2reA)={margin:.3f}, "
             f"sqrtD(0.5)/sqrtD(1)={sd_half / sd_cone:.4f}, N(0.5)={neg_half}")
    assert ok


# At r_bar = 5 exchange overtakes the emission weights, |X|^2 > u2 v2, inside
# xi in [0, 6] (at xi = 2.795 for any K, since both sides scale as K^2); at the
# default r_bar = pi/4 it never does. Both couplings assemble on all of [0, 6].
ONSET_R_BAR = 5.0
ONSET_COUPLINGS = (0.0005, 0.002)
# the generic negativity reads a few 1e-16 where the state is separable
NEGATIVITY_NOISE = 1e-12


def _onset_agreement(rows, couplings):
    """Whether negativity > 0 exactly where |X|^2 > u2 v2 in every coupling
    block, and the first such xi per coupling (None where there is none)."""
    agree, onsets = True, {}
    for coupling in couplings:
        block = sweep_block(rows, coupling)
        neg_on = [r["negativity"] > 0.0 for r in block]
        cond_on = [r["re_X"] ** 2 + r["im_X"] ** 2 > r["u2"] * r["v2"] for r in block]
        agree &= neg_on == cond_on
        onsets[coupling] = next((r["xi"] for r, on in zip(block, cond_on) if on), None)
    return agree, onsets


def test_criterion_06_entanglement_onset(default_sweep):
    """Negativity turns on exactly where exchange beats the emission weights:
    on the default sweep, which has no onset, and at r_bar = 5, which has one.
    There the generic negativity of the assembled state is positive exactly
    where the closed form is, and the vacuum population 1 + 2 re_A stays
    positive (the regime margin)."""
    default_agree, default_onsets = _onset_agreement(default_sweep["rows"], DEFAULT_COUPLINGS)
    spec = SweepSpec(xi_min=0.0, xi_max=6.0, xi_steps=1201, couplings=ONSET_COUPLINGS,
                     r_bar=ONSET_R_BAR)
    rows = sweep_rows(run_sweep(spec))
    onset_agree, onsets = _onset_agreement(rows, ONSET_COUPLINGS)
    margins, generic_agree = {}, True
    for coupling in ONSET_COUPLINGS:
        block = sweep_block(rows, coupling)
        margins[coupling] = min(1.0 + 2.0 * r["re_A"] for r in block)
        amps = compute_amplitudes(ModelParams(r_bar=ONSET_R_BAR, coupling=coupling),
                                  np.array([r["xi"] for r in block[::10]]))
        coeffs, rho = assemble(amps)
        generic = np.array([negativity(m) for m in rho])
        generic_agree &= np.array_equal(generic > NEGATIVITY_NOISE, negativity_xstate(coeffs) > 0.0)
    ok = (default_agree and onset_agree and generic_agree and min(margins.values()) > 0.0
          and None not in onsets.values())
    detail = "; ".join(
        [f"r_bar=pi/4 K={k}: {'no onset' if x is None else f'onset at {x:.3f}'}"
         for k, x in default_onsets.items()]
        + [f"r_bar=5 K={k}: onset at {onsets[k]}, min(1+2reA)={margins[k]:.3f}"
           for k in ONSET_COUPLINGS]
        + [f"generic matches closed form={generic_agree}"]
    )
    _verdict(6, "entanglement onset", ok, detail)
    assert ok, detail


def test_criterion_07_bell_behavior(default_sweep):
    """Optimized Bell parameter bounds, and violations confined to the cone."""
    rows = default_sweep["rows"]
    dominance = all(r["bell_opt"] >= r["bell_chsh"] - 1e-12 for r in rows)
    tsirelson = all(r["bell_opt"] <= BELL_TSIRELSON + 1e-9 for r in rows)
    strong = sweep_block(rows, max(DEFAULT_COUPLINGS))
    window = [r["xi"] for r in strong if r["bell_opt"] > 2.0]
    if window:
        window_ok = (min(window) <= 1.0 + GRID_STEP + 1e-12
                     and max(window) >= 1.0 - GRID_STEP - 1e-12)
        window_text = f"violation window [{min(window):.3f}, {max(window):.3f}]"
    else:
        window_ok = True
        window_text = "no violation at strongest coupling"
    weak = sweep_block(rows, min(DEFAULT_COUPLINGS))
    weak_ok = all(r["bell_opt"] <= 2.0 + 1e-12 for r in weak)
    ok = dominance and tsirelson and window_ok and weak_ok
    _verdict(7, "Bell behavior", ok,
             f"opt>=chsh={dominance}, tsirelson={tsirelson}, {window_text}, "
             f"weak no violation={weak_ok}")
    assert ok


def test_criterion_08_unitarity():
    """Emission weights and radiative correction cancel to second order.

    The time-difference route makes u2 + v2 = -2 re_A node by node, so the
    emission weights come from the independent mode-sum oracle.
    """
    worst = 0.0
    for coupling in (0.05, 0.1, 0.2):
        p = ModelParams(r_bar=DEFAULT_R_BAR, coupling=coupling, cutoff=50.0)
        bound = 0.5 * coupling**2
        for xi in np.linspace(0.0, 2.0, 21):
            u2, v2, _ = mode_sum_amplitudes(p, xi)
            resid = abs(u2 + v2 + 2.0 * compute_amplitudes(p, xi).re_a)
            worst = max(worst, resid / bound)
    ok = worst <= 1.0
    _verdict(8, "unitarity", ok, f"max |u2+v2+2reA| / (K^2/2) = {worst:.2e}")
    assert ok


def test_criterion_09_quadrature_convergence(monkeypatch):
    """Stability as the truncation doubles (E1 series terms 30 to 60,
    continued-fraction levels 40 to 80, early-panel nodes 24 to 48) at several
    cutoffs, on and off the early panel, plus the coupling power laws."""
    spots = np.array((0.001, 0.2, 0.45, 0.7, 0.9, 1.0, 1.1, 1.35, 1.6, 1.8, 2.0, 40.0))
    fields = ("exchange", "re_a", "pair_coherence", "u2", "v2", "g2")
    params = [ModelParams(r_bar=DEFAULT_R_BAR, coupling=0.04, cutoff=cutoff)
              for cutoff in (300.0, 1000.0, 3000.0)]
    base = [compute_amplitudes(p, spots) for p in params]
    with monkeypatch.context() as m:
        double_truncation(m)
        doubled = [compute_amplitudes(p, spots) for p in params]
    worst = max(np.max(np.abs(getattr(a, name) - getattr(b, name)) / np.abs(getattr(b, name)))
                for a, b in zip(base, doubled) for name in fields)
    scaling_ok = True
    lo = compute_amplitudes(ModelParams(r_bar=DEFAULT_R_BAR, coupling=0.03), 1.3)
    hi = compute_amplitudes(ModelParams(r_bar=DEFAULT_R_BAR, coupling=0.06), 1.3)
    for a, b, power in (
        (lo.u2, hi.u2, 2.0),
        (lo.v2, hi.v2, 2.0),
        (abs(lo.re_a), abs(hi.re_a), 2.0),
        (abs(lo.exchange) ** 2, abs(hi.exchange) ** 2, 4.0),
        (lo.g2, hi.g2, 4.0),
    ):
        scaling_ok &= abs(b / a - power) <= 0.05 * power
    ok = worst < 1e-4 and scaling_ok
    _verdict(9, "truncation convergence", ok,
             f"max doubling change={worst:.1e}, scaling ok={scaling_ok}")
    assert ok


# On-cone couplings at which W_zz is compared with its O(K^2) form; each
# step halves K, so an O(K) relative gap halves along the ladder.
CONE_LADDER = (0.01, 0.005, 0.0025)


def _regime_boundary(xi):
    """K*(xi) = 1/(2|re_A1(xi)|): the coupling at which 1 + 2 re_A reaches 0
    (re_A is linear in K; re_A1 is its value at unit coupling)."""
    unit = compute_amplitudes(ModelParams(r_bar=DEFAULT_R_BAR, coupling=1.0), xi)
    return 1.0 / (2.0 * abs(unit.re_a))


def _longitudinal_gap(coupling):
    """Relative gap on the cone between W_zz of the assembled state and its
    second-order form -4(|X|^2 + |L|^2)/c^2."""
    p = ModelParams(r_bar=DEFAULT_R_BAR, coupling=coupling)
    amps = compute_amplitudes(p, 1.0)
    coeffs, rho = assemble(amps)
    x, y, t = decompose(rho)
    w_zz = t[2, 2] - x[2] * y[2]
    lead = -4.0 * (abs(amps.exchange) ** 2 + abs(amps.pair_coherence) ** 2) / coeffs.c**2
    return abs(w_zz - lead) / abs(lead)


def test_criterion_10_measurement_direction_switch():
    """Optimal correlation axes are equatorial before and on the cone.

    W = T - x y^T of the assembled X-state is block diagonal. Its equatorial
    singular values are 2(|rho14| +- |rho23|)/c, the larger one
    2(|L| + |X|)/c = O(K). Its longitudinal entry is
    W_zz = 4(rho11 rho44 - rho22 rho33)/c^2; with rho33 = |X|^2 + u2 v2 + |L|^2
    the u2 v2 parts cancel and W_zz = -4(|X|^2 + |L|^2) + O(K^3). Inside the
    second-order regime K < K*(xi) the maximizing axes are therefore
    equatorial (|n_z|, |n'_z| <= 0.1) at xi = 0.5 and on the cone, and W_zz
    converges to its O(K^2) form: the relative gap at least roughly halves
    with each halving of K.
    """
    coupling = min(DEFAULT_COUPLINGS)
    # largest coupling evaluated at each xi
    couplings = {0.5: coupling, 1.0: max(coupling, *CONE_LADDER)}
    margins = {xi: _regime_boundary(xi) - k for xi, k in couplings.items()}
    in_regime = min(margins.values()) > 0.0
    if not in_regime:
        _verdict(10, "measurement axes", False, f"outside the regime, K*(xi)-K = {margins}")
    assert in_regime, margins
    p = ModelParams(r_bar=DEFAULT_R_BAR, coupling=coupling)
    grid = DirectionGrid()
    nz = {}
    for xi in couplings:
        _, rho = assemble(compute_amplitudes(p, xi))
        _, n, nprime = maxcorr_bruteforce(rho, grid)
        nz[xi] = (abs(n[2]), abs(nprime[2]))
    equatorial = all(max(v) <= 0.1 for v in nz.values())
    gaps = [_longitudinal_gap(k) for k in CONE_LADDER]
    ratios = [b / a for a, b in zip(gaps, gaps[1:])]
    converging = all(r <= 0.55 for r in ratios)
    ok = equatorial and converging
    detail = (
        f"K={coupling}; K*(xi)-K: "
        + ", ".join(f"xi={xi}: {m:.4f}" for xi, m in margins.items())
        + "; |n_z|,|n'_z| (need <=0.1): "
        + ", ".join(f"xi={xi}: {a:.1e},{b:.1e}" for xi, (a, b) in nz.items())
        + "; on-cone W_zz gap at K="
        + "/".join(f"{k:g}" for k in CONE_LADDER)
        + ": " + "/".join(f"{g:.3f}" for g in gaps)
        + " (need ratios <=0.55)"
    )
    _verdict(10, "measurement axes", ok, detail)
    assert ok, detail


def test_criterion_11_micro_causality():
    """The exchange splits into re_X, carried by the anticommutator (vacuum
    fluctuations), and im_X, carried by the field commutator (the retarded
    signal). With tau = xi r_bar,

        im_X = (K/2) int_0^tau (tau - d) cos d Im w(r_bar, d) dd,

    and with eps = 1/cutoff, (eps + i s)^-2 = -1/(s - i eps)^2 tends to
    -P.f. 1/s^2 + i pi delta'(s). So as the cutoff goes to infinity Im w on
    [0, tau] becomes the field commutator pi delta'(d - r_bar) (the d + r_bar
    term lies outside), and integrating by parts gives, with r = r_bar and
    theta the unit step,

        im_X -> (pi K/2) [cos r + (tau - r) sin r] theta(tau - r).

    Off the cone Im w = -2 eps s / (eps^2 + s^2)^2 + O(eps^3) near the
    limit, so cutoff * (im_X - limit) tends to a constant, before the cone
    (where the limit is 0 and im_X is a regularization leak) and after it.
    In the measures, at K = 0.02, dropping im_X moves the generic sqrt
    discord before the cone by a share that falls as cutoff^-2, and after it
    by most of its value.

    On the cone itself (tau = r) the integral ends at the pole, and there
    the cutoff does not drop out. Near it, with s = d - r, the factor
    (tau - d) cos d = -s cos r + O(s^2), and Re w = (eps^2 - s^2) /
    (eps^2 + s^2)^2 tends to the Hadamard finite part of -1/s^2. Over
    s in (-A, 0), u = s/eps turns int -s cos r Re w ds into
    -cos r int u (1 - u^2)/(1 + u^2)^2 du = -cos r [ln(A cutoff) - 1] + o(1),
    so re_X + (K/2) cos r ln(cutoff) tends to a constant. The same
    substitution with Im w = -2 eps s / (eps^2 + s^2)^2 gives
    2 cos r int_{-inf}^0 u^2/(1 + u^2)^2 du = (pi/2) cos r, so on the cone
    im_X tends to (pi K/4) cos r, half its jump."""
    cutoffs = np.array((300.0, 1000.0, 3000.0, 1e4))
    grid = 0.125 * np.arange(1, 81)
    xi = np.append(grid[grid != 1.0], 0.9)  # off the cone, and 0.9 close before it
    gaps = []
    for r_bar in (DEFAULT_R_BAR, 2.0, 5.0):
        im_x = np.array([
            compute_amplitudes(ModelParams(r_bar=r_bar, coupling=1.0, cutoff=cutoff),
                               xi).exchange.imag
            for cutoff in cutoffs
        ])
        after = xi * r_bar - r_bar  # tau - r
        limit = 0.5 * math.pi * (math.cos(r_bar) + after * math.sin(r_bar)) * (after > 0.0)
        gaps.append(cutoffs[:, None] * (im_x - limit))
    gaps = np.concatenate(gaps, axis=1)
    spread = np.ptp(gaps, axis=0) / np.abs(gaps).max(axis=0)
    before = np.tile(xi < 1.0, 3)
    share = []  # of sqrt discord moved by dropping im_X, at xi = 0.5, 0.9, 1.5
    for cutoff in (300.0, 3000.0, 30000.0):
        amps = compute_amplitudes(ModelParams(r_bar=DEFAULT_R_BAR, coupling=0.02, cutoff=cutoff),
                                  np.array((0.5, 0.9, 1.5)))
        full, real = (np.sqrt([geometric_discord(rho) for rho in assemble(a)[1]])
                      for a in (amps, replace(amps, exchange=amps.exchange.real)))
        share.append(np.abs(real - full) / full)
    share = np.array(share)
    fall = (share[:-1, :2] / share[1:, :2]).min()  # per decade of cutoff
    log_moves, half_jump = [], []  # on the cone, per r_bar
    for r_bar in (DEFAULT_R_BAR, 2.0, 5.0):
        x = [compute_amplitudes(ModelParams(r_bar=r_bar, coupling=1.0, cutoff=cutoff),
                                1.0).exchange for cutoff in (1e4, 1e5)]
        law = [v.real + 0.5 * math.cos(r_bar) * math.log(c) for v, c in zip(x, (1e4, 1e5))]
        log_moves.append(abs(law[1] - law[0]))
        half_jump.append(abs(x[1].imag / (0.25 * math.pi * math.cos(r_bar)) - 1.0))
    ok = bool(spread[before].max() < 1e-3 and spread.max() < 2e-2
              and fall >= 90.0 and share[:, 2].min() >= 0.5
              and max(log_moves) <= 2e-4 and max(half_jump) <= 1e-3)
    _verdict(11, "micro-causality", ok,
             f"pre-cone cutoff*im_X spread={spread[before].max():.1e}, "
             f"cutoff*(im_X - limit) spread={spread.max():.1e}, "
             f"pre-cone sqrtD share of im_X falls {fall:.0f}x per decade, "
             f"post-cone share={share[:, 2].min():.2f}, "
             f"on-cone log law moves {max(log_moves):.1e} K, "
             f"im_X off half its jump by {max(half_jump):.1e}")
    assert ok
