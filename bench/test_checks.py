"""The benchmark's output checks pass on real outputs and fail on corrupted ones.

    python3 -m pytest bench/test_checks.py -q
"""
import copy
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
from fermicorr import random_state  # noqa: E402
from fermicorr import cli  # noqa: E402
from fermicorr.measures import connected_correlation, geometric_discord, negativity  # noqa: E402

# A small sweep with the default couplings and cutoff: 41 xi steps on [0, 2].
XI = np.linspace(0.0, 2.0, 41)
COUPLINGS = (0.02, 0.04, 0.06)
R_BAR = math.pi / 4.0
CUTOFF = 300.0
SAMPLE_XI = [0.5, 1.0, 1.65]


@pytest.fixture(scope="module")
def sweep_text(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep") / "sweep.csv"
    assert cli.main(["sweep", "--xi-steps", "41", "--out", str(out)]) == 0
    return out.read_text()


def _check_sweep(text):
    return checks.check_sweep(text, XI, COUPLINGS, R_BAR, CUTOFF, SAMPLE_XI)


def _edit(text, row, column, fn):
    lines = text.split("\n")
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    i = header.index(column)
    cells[i] = fn(cells[i])
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines)


def _scale(factor):
    return lambda cell: repr(float(cell) * factor)


def test_sweep_passes(sweep_text):
    assert _check_sweep(sweep_text) == []


@pytest.mark.parametrize("corrupt", [
    pytest.param(lambda t: _edit(t, 50, "u2", _scale(1.01)), id="one u2 x 1.01"),
    pytest.param(lambda t: _edit(t, 10, "hierarchy_ok", lambda c: "false"), id="hierarchy flag"),
    pytest.param(lambda t: t.replace("conn_corr", "conn", 1), id="header"),
    pytest.param(lambda t: t.rsplit("\n", 2)[0] + "\n", id="row dropped"),
    pytest.param(lambda t: _edit(t, 60, "re_A", lambda c: "nan"), id="non-finite"),
    pytest.param(lambda t: _edit(t, 30, "bell_opt", lambda c: "2.9"), id="above Tsirelson"),
    pytest.param(lambda t: _edit(t, 30, "bell_chsh", lambda c: "2.8"), id="chsh above opt"),
    pytest.param(lambda t: _edit(t, 70, "re_A", _scale(1.5)), id="unitarity"),
    # the same relative change in every block keeps linearity in K, so only
    # the reference quadrature can see it
    pytest.param(lambda t: _edit(_edit(_edit(t, 33, "im_X", _scale(1.01)),
                                       33 + 41, "im_X", _scale(1.01)),
                                 33 + 82, "im_X", _scale(1.01)), id="X x 1.01 in all blocks"),
])
def test_sweep_fails(sweep_text, corrupt):
    assert _check_sweep(corrupt(sweep_text))


def test_sweep_negativity_on_where_emission_dominates(sweep_text):
    # the default sweep has |X|^2 <= u2 v2 at every point, so no negativity
    on = _edit(sweep_text, 45, "negativity", lambda c: "0.01")
    assert any("negativity" in p for p in _check_sweep(on))


def test_sweep_peak_off_the_cone(sweep_text):
    late = _edit(sweep_text, 41 + 35, "sqrtD", lambda c: "1.0")
    assert any("peaks" in p for p in _check_sweep(late))


POINT = (1.37, 0.033, 700.0)


@pytest.fixture(scope="module")
def state_doc(tmp_path_factory):
    out = tmp_path_factory.mktemp("state") / "state.json"
    xi, k, cutoff = POINT
    argv = ["state", "--xi", repr(xi), "--coupling", repr(k), "--cutoff", repr(cutoff),
            "--out", str(out)]
    assert cli.main(argv) == 0
    return json.loads(out.read_text())


def test_state_passes(state_doc):
    assert checks.check_state(state_doc, *POINT) == []


def _set_matrix(doc, rho):
    doc["rho"]["matrix"] = [[[z.real, z.imag] for z in row] for row in rho]


def test_state_negative_eigenvalue(state_doc):
    doc = copy.deepcopy(state_doc)
    rho = checks._matrix(doc["rho"])
    ev, vec = np.linalg.eigh(rho)
    ev[0], ev[-1] = -0.01, ev[-1] + ev[0] + 0.01
    _set_matrix(doc, (vec * ev) @ vec.conj().T)
    assert any("eigenvalue" in p for p in checks.check_state(doc, *POINT))


def test_state_not_hermitian(state_doc):
    doc = copy.deepcopy(state_doc)
    doc["rho"]["matrix"][1][2][1] *= -1.0
    assert any("Hermitian" in p for p in checks.check_state(doc, *POINT))


def test_state_matrix_not_coefficients_over_c(state_doc):
    doc = copy.deepcopy(state_doc)
    doc["coefficients"]["c"] *= 1.001
    assert any("coefficients" in p for p in checks.check_state(doc, *POINT))


@pytest.mark.parametrize("field", ["u2", "v2", "re_A", "im_X", "im_L"])
def test_state_amplitude_off_reference(state_doc, field):
    doc = copy.deepcopy(state_doc)
    doc["amplitudes"][field] *= 1.01
    assert any("reference" in p for p in checks.check_state(doc, *POINT))


def test_state_wrong_point(state_doc):
    assert checks.check_state(state_doc, 1.38, POINT[1], POINT[2])


@pytest.fixture(scope="module")
def oracle_report():
    return json.loads(json.dumps(cli.oracle_check(1, 5, cli.DirectionGrid())))


def test_oracle_passes(oracle_report):
    assert checks.check_oracle_report(oracle_report, 1, 5) == []


@pytest.mark.parametrize("measure,deviation", [
    ("bell_opt", 2e-4),
    ("discord", 2e-5),
    ("negativity", 1e-11),
])
def test_oracle_deviation_above_readme_tolerance(oracle_report, measure, deviation):
    rep = copy.deepcopy(oracle_report)
    rep["max_deviation"][measure] = deviation
    assert checks.check_oracle_report(rep, 1, 5)


def test_oracle_wrong_count_or_not_ok(oracle_report):
    assert checks.check_oracle_report(oracle_report, 2, 5)
    assert checks.check_oracle_report({**oracle_report, "ok": False}, 1, 5)


@pytest.fixture(scope="module")
def measured():
    rhos = [random_state(s, "mixed") for s in range(4)]
    vals = [(connected_correlation(r), geometric_discord(r), negativity(r)) for r in rhos]
    return rhos, vals


def test_measures_pass(measured):
    rhos, vals = measured
    conn, disc, neg = map(list, zip(*vals))
    assert checks.check_hierarchy(conn, disc, neg) == []
    for rho, v in zip(rhos, vals):
        assert checks.check_measures(rho, *v) == []


def test_hierarchy_violation(measured):
    _, vals = measured
    conn, disc, neg = map(list, zip(*vals))
    conn[2] = math.sqrt(disc[2]) - 1e-6
    assert checks.check_hierarchy(conn, disc, neg)


@pytest.mark.parametrize("which", [0, 1, 2])
def test_measure_off_definition(measured, which):
    rhos, vals = measured
    v = list(vals[1])
    v[which] += 1e-6
    assert checks.check_measures(rhos[1], *v)


def test_tail():
    assert run.tail([5.0]) == 5.0
    values = list(range(100))
    assert run.tail(values) == 89  # ten samples above it
    assert run.tail(list(range(15))) == 7  # never below the median
