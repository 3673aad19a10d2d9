"""Command-line front end: parameter sweeps, state dumps, oracle cross-checks
and plot-ready figure datasets.

Each command's options are declared once, in ``_COMMANDS``. A command followed
by exact ``--flag value`` pairs is read straight from that table; any other
line goes to the argparse tree built from it, which writes all help, usage and
error text.

Exit codes: 0 success, 1 validation or usage error, 2 out-of-regime
parameters, 3 oracle tolerance breach.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, replace

import numpy as np

from .amplitudes import (
    DEFAULT_CUTOFF,
    ModelParams,
    OutOfRegimeError,
    PerturbativeAmplitudes,
    XStateCoefficients,
    assemble,
    compute_amplitudes,
)
from .measures import (
    BELL_CLASSICAL,
    bell_opt,
    connected_correlation,
    geometric_discord,
    negativity,
    report,
)
from .oracles import (
    DirectionGrid,
    chsh_gridopt,
    discord_bruteforce,
    maxcorr_bruteforce,
    negativity_eig,
)
from .states import random_state, state_to_json

DEFAULT_R_BAR = math.pi / 4.0
DEFAULT_COUPLINGS = (0.02, 0.04, 0.06)
DEFAULT_XI_MIN = 0.0
DEFAULT_XI_MAX = 2.0
DEFAULT_XI_STEPS = 401

SWEEP_HEADER = (
    "xi", "K", "r_bar", "cutoff", "re_A", "re_X", "im_X", "u2", "v2", "re_L", "im_L", "g2", "c",
    "sqrtD", "negativity", "conn_corr", "bell_chsh", "bell_opt", "hierarchy_ok",
)
# The one map from amplitude fields to their CSV and state-JSON names; a
# complex field is written as its real and imaginary parts. The coupling has
# no entry: the CSV writes it as K, the state JSON keeps it in its params.
AMPLITUDE_NAMES = {
    "xi": "xi", "re_a": "re_A", "exchange": ("re_X", "im_X"), "u2": "u2", "v2": "v2",
    "pair_coherence": ("re_L", "im_L"), "g2": "g2",
}

# Rows formatted per write, so the text of a long sweep is never all in memory.
_CSV_BLOCK_ROWS = 4096

ORACLE_TOLERANCES = {
    "discord": 1e-5,
    "conn_corr": 1e-5,
    "negativity": 1e-12,
    "bell_opt": 1e-5,
}


@dataclass(frozen=True)
class SweepSpec:
    """A (xi, coupling) sweep: grid ranges, coupling list, separation and cutoff.

    The couplings live in ``couplings`` alone; ``params`` gives the unit
    coupling that the sweep's one amplitude pass runs at.
    """

    xi_min: float
    xi_max: float
    xi_steps: int
    couplings: tuple
    r_bar: float
    cutoff: float = DEFAULT_CUTOFF

    def __post_init__(self):
        self.params  # rejects a bad r_bar or cutoff
        if not (0.0 <= self.xi_min < self.xi_max < math.inf):
            raise ValueError(
                f"need 0 <= xi_min < xi_max < inf, got [{self.xi_min}, {self.xi_max}]"
            )
        if self.xi_steps < 2:
            raise ValueError(f"xi_steps must be >= 2, got {self.xi_steps}")
        if not self.couplings:
            raise ValueError("couplings must be non-empty")
        if not all(0.0 <= k < math.inf for k in self.couplings):
            raise ValueError(f"couplings must all be finite and >= 0, got {self.couplings}")
        if len(set(self.couplings)) < len(self.couplings):
            raise ValueError(f"couplings must be distinct, got {self.couplings}")

    @property
    def params(self) -> ModelParams:
        return ModelParams(self.r_bar, 1.0, self.cutoff)

    def xi_grid(self) -> np.ndarray:
        return np.linspace(self.xi_min, self.xi_max, self.xi_steps)


def write_csv(path: str, header, columns) -> None:
    """Comma-separated values from equal-length columns keyed by header name:
    LF line endings, 17 significant digits, booleans as true/false."""
    values = [np.asarray(columns[name]) for name in header]
    values = [np.where(v, "true", "false") if v.dtype == bool else v for v in values]
    template = ",".join("%s" if v.dtype.kind == "U" else "%.17g" for v in values) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(values[0]), _CSV_BLOCK_ROWS):
            rows = zip(*(v[start:start + _CSV_BLOCK_ROWS].tolist() for v in values))
            fh.writelines(template % row for row in rows)


def run_sweep(spec: SweepSpec) -> dict:
    """Sweep columns keyed by SWEEP_HEADER name, with rows ordered by
    (coupling, xi) ascending; deterministic.

    The coupling-free amplitudes are taken once over the whole xi grid and
    rescaled to an (xi, coupling) stack, which is assembled and measured in
    one call each; ``assemble``'s regime check is the stack's positivity
    check. When points are out of regime, the error names the first failing
    point in the stack's order: the smallest failing xi, and the smallest
    failing coupling at that xi.
    """
    unit = compute_amplitudes(spec.params, spec.xi_grid()[:, None])
    amps = unit.scaled(np.array(sorted(spec.couplings)))
    coeffs = assemble(amps)
    columns = {**amplitude_fields(amps), "K": amps.coupling, "r_bar": spec.r_bar,
               "cutoff": spec.cutoff, "c": coeffs.c, **report(coeffs)}
    shape = np.shape(coeffs.c)
    return {name: np.broadcast_to(columns[name], shape).T.ravel() for name in SWEEP_HEADER}


def amplitude_fields(amps: PerturbativeAmplitudes) -> dict:
    """Amplitude values keyed by their output names, in output order."""
    out = {}
    for attr, name in AMPLITUDE_NAMES.items():
        value = getattr(amps, attr)
        if isinstance(name, tuple):
            out[name[0]], out[name[1]] = value.real, value.imag
        else:
            out[name] = value
    return out


def state_dump(params: ModelParams, xi: float) -> dict:
    """JSON document for one state: params, amplitudes, coefficients, matrix."""
    amps = compute_amplitudes(params, xi)
    coeffs = assemble(amps)
    return {
        "params": asdict(params),
        "amplitudes": amplitude_fields(amps),
        "coefficients": {
            name: [value.real, value.imag] if isinstance(value, complex) else value
            for name, value in asdict(coeffs).items()
        },
        "rho": state_to_json(coeffs.matrix()),
    }


def oracle_check(count: int, seed: int, grid: DirectionGrid) -> dict:
    """Compare the generic measures and bell_opt with brute-force oracles.

    Runs `count` random mixed states through the generic discord, connected
    correlation and negativity and `count` random X-shaped states through
    bell_opt (no other closed form is compared); reports per-measure
    maximum deviations against the documented tolerances.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    dev = {k: 0.0 for k in ORACLE_TOLERANCES}
    failures = []
    for i in range(count):
        rho = random_state(seed + i, "mixed")
        d = abs(discord_bruteforce(rho, grid) - geometric_discord(rho))
        c = abs(maxcorr_bruteforce(rho, grid)[0] - connected_correlation(rho))
        n = abs(negativity_eig(rho) - negativity(rho))
        rho_x = random_state(seed + i, "xshape")
        b = abs(chsh_gridopt(rho_x, grid) - bell_opt(XStateCoefficients.from_matrix(rho_x)))
        for name, value in (("discord", d), ("conn_corr", c), ("negativity", n), ("bell_opt", b)):
            dev[name] = max(dev[name], value)
            if value > ORACLE_TOLERANCES[name]:
                failures.append({"seed": seed + i, "measure": name, "deviation": value})
    return {
        "count": count,
        "seed": seed,
        "max_deviation": dev,
        "tolerance": dict(ORACLE_TOLERANCES),
        "failures": failures,
        "ok": not failures,
    }


FIG1_COLUMNS = ("xi", "K", "sqrtD", "negativity", "conn_corr")
FIG4_COLUMNS = ("xi", "K", "conn_corr", "sqrtD", "negativity")
FIG5_COLUMNS = ("xi", "K", "bell_chsh", "bell_opt", "bell_classical")


def figures(out_dir: str, spec: SweepSpec) -> list[str]:
    """Emit fig1.csv / fig4.csv / fig5.csv plot-ready datasets into out_dir,
    creating it if needed.

    fig1: the three correlation measures vs xi for the given couplings.
    fig4: the same measures on nine evenly spaced couplings from the smallest
    to the largest given one, each once (surface data).
    fig5: both Bell parameters vs xi plus the classical threshold column.
    One sweep over both coupling sets gives the rows of all three.
    """
    dense = set(np.linspace(min(spec.couplings), max(spec.couplings), 9).tolist())
    union = sorted(set(spec.couplings) | dense)
    swept = run_sweep(replace(spec, couplings=tuple(union)))

    def rows(couplings):
        blocks = [union.index(k) for k in sorted(couplings)]
        return {name: v.reshape(len(union), -1)[blocks].ravel() for name, v in swept.items()}

    columns = rows(spec.couplings)
    columns["bell_classical"] = np.full(columns["xi"].size, BELL_CLASSICAL)
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for name, header, data in (("fig1.csv", FIG1_COLUMNS, columns),
                               ("fig4.csv", FIG4_COLUMNS, rows(dense)),
                               ("fig5.csv", FIG5_COLUMNS, columns)):
        paths.append(os.path.join(out_dir, name))
        write_csv(paths[-1], header, data)
    return paths


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(_fail(f"error: {message}", 1))


class _Once(argparse.Action):
    # argparse seeds the namespace with the default object itself, so any
    # value already parsed is a different object
    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not self.default:
            raise argparse.ArgumentError(self, "may be given only once")
        setattr(namespace, self.dest, values)


def _fail(message: str, code: int) -> int:
    print(message, file=sys.stderr)
    return code


def _sweep_spec(args) -> SweepSpec:
    couplings = tuple(args.coupling or DEFAULT_COUPLINGS)
    return SweepSpec(xi_min=args.xi_min, xi_max=args.xi_max, xi_steps=args.xi_steps,
                     couplings=couplings, r_bar=args.r_bar, cutoff=args.cutoff)


_MODEL_OPTIONS = (
    ("--r-bar", dict(type=float, default=DEFAULT_R_BAR,
                     help="qubit separation in units of v/Omega (default: pi/4)")),
    ("--cutoff", dict(type=float, default=DEFAULT_CUTOFF,
                      help="UV cutoff omega_c/Omega (default: %(default)s)")),
)
_GRID_OPTIONS = (
    ("--coupling", dict(type=float, action="append", default=None,
                        help="dimensionless coupling K (repeatable; default: 0.02 0.04 0.06)")),
    ("--xi-min", dict(type=float, default=DEFAULT_XI_MIN)),
    ("--xi-max", dict(type=float, default=DEFAULT_XI_MAX)),
    ("--xi-steps", dict(type=int, default=DEFAULT_XI_STEPS)),
)

# Each command's help line and its (flag, add_argument keywords) options, read
# by both parse routes. No default is a string that argparse would convert.
_COMMANDS = {
    "sweep": ("run a (xi, K) sweep and write CSV", _MODEL_OPTIONS + _GRID_OPTIONS + (
        ("--out", dict(default="sweep.csv", help="output CSV path")),
    )),
    "state": ("dump one assembled state as JSON", _MODEL_OPTIONS + (
        ("--coupling", dict(type=float, action=_Once, default=DEFAULT_COUPLINGS[0],
                            help="dimensionless coupling K (default: %(default)s)")),
        ("--xi", dict(type=float, default=1.0, help="dimensionless time")),
        ("--out", dict(default=None, help="output path (default: stdout)")),
    )),
    "oracle-check": ("closed forms vs brute-force oracles", (
        ("--count", dict(type=int, default=100)),
        ("--seed", dict(type=int, default=7)),
        ("--out", dict(default=None, help="write the JSON report here")),
    )),
    "figures": ("emit plot-ready CSV datasets", _MODEL_OPTIONS + _GRID_OPTIONS + (
        ("--out", dict(default=".", help="output directory")),
    )),
}


def _full_parser() -> _Parser:
    parser = _Parser(prog="fermicorr",
                     description="Two-qubit correlation dynamics in a 1D vacuum field")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_line)
        for flag, kwargs in options:
            command.add_argument(flag, **kwargs)
    return parser


def _parse_table(argv: list[str]) -> argparse.Namespace | None:
    """The namespace of a command followed by exact ``--flag value`` pairs,
    read from _COMMANDS as argparse would read it; None for any other line.

    A value that starts with "-" is left to argparse's negative-number rules,
    and a value its type rejects, or a repeated once-only flag, to its error.
    """
    if not argv or argv[0] not in _COMMANDS or len(argv) % 2 == 0:
        return None
    options = dict(_COMMANDS[argv[0]][1])
    values = {flag: kwargs.get("default") for flag, kwargs in options.items()}
    for flag, text in zip(argv[1::2], argv[2::2]):
        kwargs = options.get(flag)
        if kwargs is None or text.startswith("-"):
            return None
        try:
            value = kwargs.get("type", str)(text)
        except ValueError:
            return None
        if kwargs.get("action") == "append":
            value = [*(values[flag] or ()), value]
        elif kwargs.get("action") is _Once and values[flag] is not kwargs["default"]:
            return None
        values[flag] = value
    return argparse.Namespace(
        command=argv[0], **{flag[2:].replace("-", "_"): v for flag, v in values.items()})


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse a command line from the option table; the full argparse tree takes
    every line the table route does not, and writes all help, usage and errors."""
    args = _parse_table(argv)
    return _full_parser().parse_args(argv) if args is None else args


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1

    try:
        if args.command == "sweep":
            write_csv(args.out, SWEEP_HEADER, run_sweep(_sweep_spec(args)))
            print(f"wrote {args.out}")
            return 0
        if args.command == "state":
            doc = state_dump(ModelParams(args.r_bar, args.coupling, args.cutoff), args.xi)
            text = json.dumps(doc, indent=2)
            if args.out:
                with open(args.out, "w", newline="\n") as fh:
                    fh.write(text + "\n")
                print(f"wrote {args.out}")
            else:
                print(text)
            return 0
        if args.command == "oracle-check":
            rep = oracle_check(args.count, args.seed, DirectionGrid())
            text = json.dumps(rep, indent=2)
            if args.out:
                with open(args.out, "w", newline="\n") as fh:
                    fh.write(text + "\n")
            print(text)
            if not rep["ok"]:
                return _fail("oracle tolerance breach", 3)
            return 0
        # figures: the subparsers admit no other command
        for path in figures(args.out, _sweep_spec(args)):
            print(f"wrote {path}")
        return 0
    except OutOfRegimeError as exc:
        return _fail(f"out of regime: {exc}", 2)
    except (ValueError, OSError) as exc:
        return _fail(f"error: {exc}", 1)


if __name__ == "__main__":
    sys.exit(main())
