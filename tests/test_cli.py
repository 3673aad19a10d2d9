"""CLI surface: sweep CSV, state dumps, oracle checks, figure datasets,
exit codes and output determinism."""
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermicorr import ModelParams, assemble, cli, compute_amplitudes, report
from fermicorr.amplitudes import XStateCoefficients
from fermicorr.cli import (
    DEFAULT_COUPLINGS,
    DEFAULT_R_BAR,
    DEFAULT_XI_MAX,
    DEFAULT_XI_MIN,
    SWEEP_HEADER,
    SweepSpec,
    amplitude_fields,
    figures,
    main,
    oracle_check,
    run_sweep,
    state_dump,
    write_csv,
)
from fermicorr.measures import (
    bell_chsh,
    connected_correlation_xstate,
    negativity_xstate,
    sqrt_discord_xstate,
)
from fermicorr.oracles import DirectionGrid

from conftest import load_state_dump, sweep_rows

R_BAR = math.pi / 4.0
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def small_spec(couplings=(0.04, 0.02), steps=5, cutoff=50.0):
    return SweepSpec(xi_min=0.0, xi_max=2.0, xi_steps=steps, couplings=couplings,
                     r_bar=R_BAR, cutoff=cutoff)


def test_sweep_spec_validation():
    p = {"r_bar": R_BAR}
    with pytest.raises(ValueError, match="xi_min"):
        SweepSpec(xi_min=2.0, xi_max=1.0, xi_steps=5, couplings=(0.1,), **p)
    with pytest.raises(ValueError, match="xi_steps"):
        SweepSpec(xi_min=0.0, xi_max=1.0, xi_steps=1, couplings=(0.1,), **p)
    with pytest.raises(ValueError, match="couplings"):
        SweepSpec(xi_min=0.0, xi_max=1.0, xi_steps=5, couplings=(), **p)
    with pytest.raises(ValueError, match="couplings"):
        SweepSpec(xi_min=0.0, xi_max=1.0, xi_steps=5, couplings=(-0.1,), **p)
    with pytest.raises(ValueError, match="couplings must be distinct"):
        SweepSpec(xi_min=0.0, xi_max=1.0, xi_steps=5, couplings=(0.02, 0.04, 0.02), **p)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="couplings"):
            SweepSpec(xi_min=0.0, xi_max=1.0, xi_steps=5, couplings=(0.1, bad), **p)
        with pytest.raises(ValueError, match="xi_min"):
            SweepSpec(xi_min=0.0, xi_max=bad, xi_steps=5, couplings=(0.1,), **p)
    with pytest.raises(ValueError, match="r_bar"):
        SweepSpec(xi_min=0.0, xi_max=1.0, xi_steps=5, couplings=(0.1,), r_bar=-1.0)
    with pytest.raises(ValueError, match="cutoff"):
        SweepSpec(xi_min=0.0, xi_max=1.0, xi_steps=5, couplings=(0.1,), r_bar=R_BAR, cutoff=5.0)


def test_sweep_rows_ordered_and_initial_point():
    rows = sweep_rows(run_sweep(small_spec()))
    keys = [(r["K"], r["xi"]) for r in rows]
    assert keys == sorted(keys)
    for coupling in (0.02, 0.04):
        first = next(r for r in rows if r["K"] == coupling)
        assert first["xi"] == 0.0
        assert first["sqrtD"] == 0.0
        assert first["negativity"] == 0.0
        assert first["conn_corr"] == 0.0
        assert first["bell_opt"] == pytest.approx(2.0)


def test_sweep_csv_deterministic(tmp_path):
    spec = small_spec()
    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(path_a, SWEEP_HEADER, run_sweep(spec))
    write_csv(path_b, SWEEP_HEADER, run_sweep(spec))
    assert path_a.read_bytes() == path_b.read_bytes()


def test_sweep_csv_blocks_join_seamlessly(tmp_path, monkeypatch, default_sweep):
    # the default sweep's 1203 rows fit one block; 7-row blocks split them
    # into 172, the last one short
    columns = run_sweep(default_sweep["spec"])
    path_one, path_many = tmp_path / "one.csv", tmp_path / "many.csv"
    write_csv(path_one, SWEEP_HEADER, columns)
    monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", 7)
    write_csv(path_many, SWEEP_HEADER, columns)
    assert len(columns["xi"]) == 1203
    assert path_many.read_bytes() == path_one.read_bytes()


def test_sweep_csv_layout(tmp_path):
    spec = small_spec(couplings=(0.04,), steps=3)
    path = tmp_path / "sweep.csv"
    write_csv(path, SWEEP_HEADER, run_sweep(spec))
    lines = path.read_bytes().decode().split("\n")  # keeps the line endings as written
    assert lines[0] == (
        "xi,K,r_bar,cutoff,re_A,re_X,im_X,u2,v2,re_L,im_L,g2,c,"
        "sqrtD,negativity,conn_corr,bell_chsh,bell_opt,hierarchy_ok"
    )
    assert lines[1].endswith("true")
    # 17-significant-digit floats round-trip exactly
    fields = lines[2].split(",")
    assert float(fields[0]) == 1.0
    assert float(fields[2]) == R_BAR


def test_sweep_assembles_and_reports_once(monkeypatch):
    # the couplings are one axis of the stack, not a loop of calls
    calls = []
    for name in ("assemble", "report"):
        def counted(*args, _name=name, _fn=getattr(cli, name)):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(cli, name, counted)
    run_sweep(small_spec(couplings=(0.06, 0.02, 0.04)))
    assert calls == ["assemble", "report"]


def test_sweep_and_figures_build_no_matrix(tmp_path, monkeypatch):
    # the CSV columns come from the coefficients alone
    def refuse(self):
        raise AssertionError("matrix built")
    monkeypatch.setattr(XStateCoefficients, "matrix", refuse)
    run_sweep(small_spec())
    figures(str(tmp_path), small_spec())


def test_report_keys_are_the_sweep_columns():
    coeffs = assemble(compute_amplitudes(ModelParams(r_bar=R_BAR, coupling=0.04), 1.0))
    assert tuple(report(coeffs)) == SWEEP_HEADER[-6:]


def test_sweep_rows_match_point_route():
    # the whole grid, a high cutoff, and a near-cone grid
    specs = (
        small_spec(couplings=(0.04, 0.02), steps=9, cutoff=300.0),
        small_spec(couplings=(0.04, 0.02), steps=9, cutoff=10000.0),
        replace(small_spec(couplings=(0.04, 0.02), steps=41, cutoff=300.0),
                xi_min=0.999, xi_max=1.001),
    )
    assert {0.0, 1.0} <= set(specs[0].xi_grid().tolist())
    for spec in specs:
        rows = iter(sweep_rows(run_sweep(spec)))
        for k in (0.02, 0.04):
            p = replace(spec.params, coupling=k)
            for xi in spec.xi_grid():
                amps = compute_amplitudes(p, float(xi))
                coeffs = assemble(amps)
                rep = report(coeffs)
                expected = {
                    **amplitude_fields(amps), "K": k, "r_bar": p.r_bar, "cutoff": p.cutoff,
                    "c": coeffs.c, **rep,
                }
                row = next(rows)
                assert row["hierarchy_ok"] is rep["hierarchy_ok"]
                for name in SWEEP_HEADER[:-1]:
                    assert row[name] == expected[name], (name, spec.params.cutoff, xi)


def test_sweep_matches_golden_csv():
    # tests/data/sweep_xi41.csv is `fermicorr sweep --xi-steps 41` with the
    # default parameters, written while every xi still evaluated all of its
    # own quadrature panels.
    # Entries below 1e-13 of their column's maximum (the exact zeros at
    # xi = 0, and re_L at xi = 2) are judged absolutely against that maximum.
    golden = Path(__file__).parent / "data" / "sweep_xi41.csv"
    header, *lines = golden.read_text().strip().split("\n")
    assert tuple(header.split(",")) == SWEEP_HEADER
    expected = dict(zip(SWEEP_HEADER, zip(*(line.split(",") for line in lines))))
    spec = SweepSpec(
        xi_min=DEFAULT_XI_MIN, xi_max=DEFAULT_XI_MAX, xi_steps=41, couplings=DEFAULT_COUPLINGS,
        r_bar=DEFAULT_R_BAR,
    )
    columns = run_sweep(spec)
    assert columns["hierarchy_ok"].tolist() == [v == "true" for v in expected["hierarchy_ok"]]
    for name in SWEEP_HEADER[:-1]:
        want = np.array(expected[name], dtype=float)
        got = columns[name]
        floor = 1e-13 * np.abs(want).max()
        small = np.abs(want) < floor
        assert np.all(np.abs(got - want)[small] <= floor), name
        assert np.all(np.abs(got - want)[~small] <= 1e-9 * np.abs(want)[~small]), name
    onset = np.array(expected["negativity"], dtype=float) > 0
    assert (columns["negativity"] > 0).tolist() == onset.tolist()


@pytest.mark.parametrize("argv, message", [
    (["--coupling", "0.3", "--coupling", "0.2", "--cutoff", "300", "--xi-steps", "5"],
     "rho22 = -0.922245 <= 0 at xi = 0.5, coupling = 0.2"),
    (["--coupling", "0.06", "--coupling", "0.07", "--cutoff", "1000",
      "--xi-min", "1.9", "--xi-max", "2", "--xi-steps", "3"],
     "min eigenvalue = -6.122e-04 at xi = 1.9, coupling = 0.06"),
], ids=["vacuum-population", "positivity"])
def test_sweep_names_first_failing_point(tmp_path, capsys, argv, message):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", *argv, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_sweep_cli_out_of_regime(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main([
        "sweep", "--coupling", "0.2", "--cutoff", "300",
        "--xi-steps", "5", "--out", str(out),
    ])
    assert rc == 2
    assert not out.exists()
    # 1 + 2 re_A stays positive here; the states stop being positive first
    rc = main([
        "sweep", "--coupling", "0.06", "--cutoff", "1000",
        "--xi-min", "1.9", "--xi-max", "2", "--xi-steps", "3", "--out", str(out),
    ])
    assert rc == 2
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep", "figures"])
@pytest.mark.parametrize("argv,name", [
    (["--coupling", "0.02", "--coupling", "inf"], "couplings"),
    (["--coupling", "0.02", "--coupling", "nan"], "couplings"),
    (["--coupling", "nan"], "couplings"),
    (["--xi-max", "inf"], "xi_max"),
], ids=["inf-coupling", "nan-coupling", "single-nan-coupling", "inf-xi-max"])
def test_sweep_cli_rejects_non_finite_arguments(tmp_path, capsys, command, argv, name):
    out = tmp_path / "out"
    assert main([command, *argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert name in err
    assert "amplitude" not in err
    assert not out.exists()


def test_sweep_cli_smoke(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main([
        "sweep", "--coupling", "0.05", "--cutoff", "50",
        "--xi-steps", "5", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 6


def test_sweep_and_state_leave_masked_arrays_and_random_unimported(tmp_path):
    # a fresh interpreter, since any earlier test may have imported them; the
    # cut dedup avoids np.unique, which imports numpy.ma, and only
    # random_state needs numpy.random. The import alone must not load
    # numpy.random (10-20 ms): oracle-check pays it at its first random state,
    # while at import time every command would pay it. A well-formed line
    # builds no argparse parser, whose first message imports locale
    modules = ("numpy.ma", "numpy.random", "locale")
    code = (
        "import sys\n"
        "from fermicorr.cli import main\n"
        f"print([m for m in {modules!r} if m in sys.modules])\n"
        f"assert main(['sweep', '--xi-steps', '41', '--out', {str(tmp_path / 'a.csv')!r}]) == 0\n"
        f"assert main(['state', '--out', {str(tmp_path / 'b.json')!r}]) == 0\n"
        f"print([m for m in {modules!r} if m in sys.modules])\n"
    )
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    lines = proc.stdout.splitlines()
    assert lines[0] == lines[-1] == "[]", proc.stdout


def test_usage_error_exit_code(tmp_path, capsys):
    assert main(["sweep", "--xi-steps", "nope"]) == 1
    assert main(["no-such-command"]) == 1
    # the amplitudes take no node count, and g2 is always kept: without it the
    # exchange block has determinant 2 re_A |X|^2 < 0
    for command in ("sweep", "state", "figures"):
        for option in (["--quad-points", "256"], ["--two-photon"], ["--no-two-photon"]):
            assert main([command, *option]) == 1, (command, option)
    capsys.readouterr()


def _parse_outcome(parse, argv):
    # repr tells nan, -0.0 and int from float apart, and makes nan equal itself
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            result = {name: repr(value) for name, value in vars(parse(argv)).items()}
        except SystemExit as exc:
            result = exc.code
    return result, stdout.getvalue(), stderr.getvalue()


@pytest.mark.parametrize("argv", [
    ["sweep"], ["state"], ["oracle-check"], ["figures"],
    ["state", "--xi", "1.3", "--coupling", "0.03", "--out", "s.json"],
    ["state", "--xi=1.3", "--coupling=0.03", "--out=s.json"],
    ["sweep", "--coupl", "0.02", "--xi-st", "5"],
    ["sweep", "--coupling", "0.02", "--coupling", "0.04"],
    ["state", "--coupling", "0.02", "--coupling", "0.06"],
    ["sweep", "--xi-steps", "x"], ["state", "--xi"],
    ["state", "--bogus", "1"], ["state", "extra"], ["state", "--", "--xi", "1"],
    ["sweep", "--coupling", "0.02", "extra", "--xi-min", "0"],
    ["sweep", "-h"], ["state", "-h"], ["oracle-check", "-h"], ["figures", "-h"],
    ["--help"], [], ["bogus"], ["--", "state"],
    ["sweep", "--xi-min", "-1"], ["state", "--out", "-"], ["state", "--xi", "1", "--xi", "2"],
    ["sweep", "--coupling", "0.01", "--coupling", "0.02", "--coupling", "0.03"],
    ["state", "--xi-steps", "5"],
])
def test_command_parser_matches_full_parser(argv):
    """The table route parses as the full tree does: the same namespace, or
    the same exit code, stdout and stderr."""
    reference = _parse_outcome(lambda a: cli._full_parser().parse_args(a), argv)
    assert _parse_outcome(cli._parse, argv) == reference


_FLAGS = sorted({flag for _, options in cli._COMMANDS.values() for flag, _ in options})
_VALUES = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.floats().map(repr),
    st.sampled_from(["nan", "inf", "-inf", "-0", " 5 ", "", "-", "1_000", "0x10", "1e999"]),
    st.text("-=.e0123456789abx ", max_size=5),
)
_TOKENS = st.one_of(
    st.sampled_from([*_FLAGS, "-h", "--help", "--"]),
    st.sampled_from(_FLAGS).flatmap(lambda f: st.integers(3, len(f) - 1).map(lambda k: f[:k])),
    st.tuples(st.sampled_from(_FLAGS), _VALUES).map("=".join),
    _VALUES,
)


@st.composite
def _command_lines(draw):
    # flag-value pairs of the command, drawn from a few of its flags so that
    # flags repeat, with any other tokens put in at one place
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    flags = [flag for flag, _ in cli._COMMANDS[command][1]]
    used = draw(st.lists(st.sampled_from(flags), min_size=1, max_size=3, unique=True))
    value = st.one_of(st.integers(0, 10**6).map(str), st.floats(0).map(repr), _VALUES)
    pair = st.tuples(st.sampled_from(used), value)
    line = [token for flag_value in draw(st.lists(pair, max_size=4)) for token in flag_value]
    at = draw(st.integers(0, len(line)))
    others = draw(st.just([]) | st.lists(_TOKENS, min_size=1, max_size=2))
    return [command, *line[:at], *others, *line[at:]]


@PROPERTY
@given(_command_lines())
def test_table_route_matches_full_parser(argv):
    reference = _parse_outcome(lambda a: cli._full_parser().parse_args(a), argv)
    assert _parse_outcome(cli._parse, argv) == reference


def test_main_builds_no_parser_for_a_well_formed_line(tmp_path, monkeypatch, capsys):
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    assert main(["state", "--xi", "1.3", "--out", str(tmp_path / "s.json")]) == 0
    assert built == []
    assert main(["--help"]) == 0
    assert len(built) == 1 + len(cli._COMMANDS)
    capsys.readouterr()


def test_main_reads_sys_argv(tmp_path, monkeypatch, capsys):
    out = tmp_path / "s.json"
    monkeypatch.setattr(sys, "argv", ["fermicorr", "state", "--out", str(out)])
    assert main() == 0
    assert json.loads(out.read_text())["params"]["coupling"] == DEFAULT_COUPLINGS[0]
    monkeypatch.setattr(sys, "argv", ["fermicorr"])
    assert main() == 1
    assert "the following arguments are required: command" in capsys.readouterr().err


def test_state_dump_initial_time():
    p = ModelParams(r_bar=R_BAR, coupling=0.05, cutoff=50.0)
    doc = state_dump(p, 0.0)
    rho = np.array([[complex(re, im) for re, im in row] for row in doc["rho"]["matrix"]])
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 1] = 1.0
    assert np.array_equal(rho, expected)
    assert list(doc.keys()) == ["params", "amplitudes", "coefficients", "rho"]
    assert list(doc["params"]) == ["r_bar", "coupling", "cutoff"]


def test_state_dump_roundtrip_and_consistency():
    p = ModelParams(r_bar=R_BAR, coupling=0.05, cutoff=50.0)
    doc = json.loads(json.dumps(state_dump(p, 1.5)))
    params, amps, coeffs, rho = load_state_dump(doc)
    assert params == p
    # definitional identity of the normalization
    total = coeffs.rho11 + coeffs.rho22 + coeffs.rho33 + coeffs.rho44
    assert abs(coeffs.c - total) < 1e-15
    # the amplitudes survive the dump exactly; re-evaluated measures match
    # the direct pipeline
    assert amps == compute_amplitudes(p, 1.5)
    direct = assemble(amps)
    assert abs(sqrt_discord_xstate(coeffs) - sqrt_discord_xstate(direct)) < 1e-12
    assert abs(negativity_xstate(coeffs) - negativity_xstate(direct)) < 1e-12
    assert abs(connected_correlation_xstate(coeffs) - connected_correlation_xstate(direct)) < 1e-12
    assert abs(bell_chsh(coeffs) - bell_chsh(direct)) == 0.0


def test_state_cli_exit_codes(capsys):
    assert main(["state", "--xi", "nan"]) == 1
    assert main(["state", "--xi", "-0.5"]) == 1
    assert main(["state", "--cutoff", "inf"]) == 1
    assert main(["state", "--cutoff", "1000", "--coupling", "0.06", "--xi", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "min eigenvalue = -1.14" in err
    assert main(["state", "--coupling", "0.02", "--coupling", "0.06"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: fermicorr state")
    assert "argument --coupling: may be given only once" in err


@pytest.mark.parametrize("argv, code, message", [
    (["state", "--xi", "1e308"], 1, "error: amplitude re_a must be finite"),
    (["state", "--cutoff", "1e308", "--xi", "1"], 1, "error: amplitude re_a must be finite"),
    (["state", "--xi", "1e160"], 2, "out of regime: rho22 = "),
    (["state", "--r-bar", "1e300", "--xi", "2"], 2, "out of regime: rho22 = "),
    (["state", "--xi", "1e308", "--coupling", "0"], 1, "error: amplitude re_a must be finite"),
    (["sweep", "--coupling", "1e200", "--xi-steps", "5"], 1, "error: amplitude g2 must be finite"),
], ids=["xi", "cutoff", "xi-regime", "r-bar", "coupling-0", "sweep-coupling"])
def test_extreme_inputs_fail_without_warnings(capsys, tmp_path, argv, code, message):
    # overflow inside the amplitudes, their scaling or the assembly surfaces
    # as a non-finite amplitude or an out-of-regime state, never as a numpy
    # warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, "--out", str(tmp_path / "out")]) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(message)
    assert len(err) < 120, err


def test_state_cli_takes_one_coupling(capsys):
    assert main(["state", "--help"]) == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert "dimensionless coupling K (default: 0.02)" in help_text
    assert "repeatable" not in help_text
    assert main(["state", "--xi", "1.3"]) == 0
    default = capsys.readouterr().out
    assert main(["state", "--xi", "1.3", "--coupling", "0.02"]) == 0
    assert capsys.readouterr().out == default


def test_state_cli_writes_json(tmp_path):
    out = tmp_path / "state.json"
    rc = main([
        "state", "--coupling", "0.05", "--cutoff", "50",
        "--xi", "1.0", "--out", str(out),
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["rho"]["basis"] == ["ee", "eg", "ge", "gg"]


def test_oracle_check_rejects_zero_count():
    with pytest.raises(ValueError, match="count"):
        oracle_check(0, 7, DirectionGrid())


def test_oracle_check_passes_and_is_deterministic():
    grid = DirectionGrid()
    rep1 = oracle_check(3, 7, grid)
    rep2 = oracle_check(3, 7, grid)
    assert rep1 == rep2
    assert rep1["ok"] is True
    assert rep1["max_deviation"]["negativity"] < 1e-12


def test_oracle_check_cli_exit_codes(tmp_path):
    assert main(["oracle-check", "--count", "0"]) == 1
    out = tmp_path / "report.json"
    rc = main(["oracle-check", "--count", "2", "--seed", "7", "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["ok"] is True
    # a near-degenerate state that a fixed round count left 1.2e-5 off
    assert main(["oracle-check", "--count", "1", "--seed", "2636"]) == 0
    assert main(["oracle-check", "--refine-rounds", "3"]) == 1


def test_figures_outputs(tmp_path):
    spec = small_spec(couplings=(0.02, 0.04, 0.06), steps=21)
    paths = figures(str(tmp_path), spec)
    assert sorted(p.split("/")[-1] for p in paths) == ["fig1.csv", "fig4.csv", "fig5.csv"]

    fig1 = (tmp_path / "fig1.csv").read_text().strip().split("\n")
    assert fig1[0] == "xi,K,sqrtD,negativity,conn_corr"
    rows = [dict(zip(fig1[0].split(","), map(float, line.split(",")))) for line in fig1[1:]]
    # stronger coupling never weakens the correlations at fixed xi
    by_xi = {}
    for r in rows:
        by_xi.setdefault(r["xi"], []).append((r["K"], r["sqrtD"], r["conn_corr"]))
    for entries in by_xi.values():
        entries.sort()
        ks, sds, ccs = zip(*entries)
        assert all(a <= b + 1e-15 for a, b in zip(sds, sds[1:]))
        assert all(a <= b + 1e-15 for a, b in zip(ccs, ccs[1:]))

    fig5 = (tmp_path / "fig5.csv").read_text().strip().split("\n")
    assert fig5[0] == "xi,K,bell_chsh,bell_opt,bell_classical"
    for line in fig5[1:]:
        vals = dict(zip(fig5[0].split(","), map(float, line.split(","))))
        assert vals["bell_opt"] >= vals["bell_chsh"] - 1e-12
        assert vals["bell_classical"] == 2.0

    fig4 = (tmp_path / "fig4.csv").read_text().strip().split("\n")
    assert fig4[0] == "xi,K,conn_corr,sqrtD,negativity"
    assert len(fig4) == 1 + 9 * 21


def test_figures_one_coupling_writes_each_block_once(tmp_path):
    # the dense grid from one coupling to itself holds that coupling once
    figures(str(tmp_path), small_spec(couplings=(0.02,), steps=5))
    fig1, fig4 = ((tmp_path / name).read_text() for name in ("fig1.csv", "fig4.csv"))
    assert len(fig4.splitlines()) == 1 + 5
    assert fig4.splitlines()[1:] == [
        ",".join(row.split(",")[i] for i in (0, 1, 4, 2, 3)) for row in fig1.splitlines()[1:]
    ]


def test_figures_runs_one_sweep(tmp_path, monkeypatch):
    # fig1, fig4 and fig5 come from one amplitude pass over the union of the
    # given couplings and the dense coupling grid
    calls = []

    def counted(*args, _fn=cli.compute_amplitudes):
        calls.append(args)
        return _fn(*args)

    monkeypatch.setattr(cli, "compute_amplitudes", counted)
    figures(str(tmp_path), small_spec(couplings=(0.02, 0.04, 0.06), steps=21))
    assert len(calls) == 1


def test_figures_cli_creates_out_dir(tmp_path):
    out = tmp_path / "datasets"
    rc = main(["figures", "--cutoff", "50", "--xi-steps", "3", "--out", str(out)])
    assert rc == 0
    assert sorted(p.name for p in out.iterdir()) == ["fig1.csv", "fig4.csv", "fig5.csv"]


def test_negativity_onset_matches_condition_on_grid():
    # the first grid time with positive negativity coincides with the first
    # crossing of the exchange-dominance condition (both may be absent)
    rows = sweep_rows(run_sweep(small_spec(couplings=(0.05,), steps=41)))
    p = ModelParams(r_bar=R_BAR, coupling=0.05, cutoff=50.0)
    onset_neg = [r["xi"] for r in rows if r["negativity"] > 0.0]
    point = [compute_amplitudes(p, r["xi"]) for r in rows]
    onset_cond = [a.xi for a in point if abs(a.exchange) ** 2 > a.u2 * a.v2]
    assert bool(onset_neg) == bool(onset_cond)
    if onset_neg:
        assert abs(onset_neg[0] - onset_cond[0]) <= 0.05 + 1e-12


def test_pre_light_cone_signal():
    # read where assemble accepts the states, with 1 + 2 re_A above 0.5; the
    # closed forms are linear in K, so the ratios hold at any coupling
    p = ModelParams(r_bar=R_BAR, coupling=0.02)
    amps = compute_amplitudes(p, np.append(np.linspace(0.25, 0.85, 13), 1.0))
    coeffs = assemble(amps)
    assert coeffs.rho22.min() > 0.5
    sd, cc = sqrt_discord_xstate(coeffs), connected_correlation_xstate(coeffs)
    assert sd[:-1].max() >= 1e-3 * sd[-1]
    assert cc[:-1].max() >= 1e-3 * cc[-1]
