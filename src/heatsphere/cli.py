"""Command-line surface.

Three subcommands: `compute` emits coefficient records as JSON lines or
CSV, or a markdown table with one row per n and one column per d
(`compute --n 0..6 --d 1..8 --format markdown`); `verify` runs one of the
exact verification sweeps, or with `verify all` every sweep at its default
box and then the `asympt` probes; `asympt` runs the numeric remainder-order
cross-check.  Exit codes: 0 success, 1 a verification or deviation
failure, 2 usage or input errors.

Each command is declared once, in `COMMANDS`, and an argv that names one is
parsed by that command's parser alone.  Each command computes its results and
its exit code before anything is written, and returns the code with its lines;
`main` alone writes them to stdout.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from collections.abc import Iterable
from fractions import Fraction

from . import asymptotics, identities, invariants, legendre, opercalc
from .exactnum import pi_half_float
from .verification import VerificationReport

CSV_HEADER = "n,d,omega,route,num,den,pi_half,float\r\n"


def _parse_span(text: str) -> tuple[int, int]:
    """"3" -> (3, 3); "1..8" -> (1, 8)."""
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
            if hi < lo:
                raise ValueError
            return (lo, hi)
        return (int(text), int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected INT or LO..HI, got {text!r}") from None


def _parse_range(text: str) -> list[int]:
    """"3" -> [3]; "1..8" -> [1, 2, ..., 8]."""
    lo, hi = _parse_span(text)
    try:
        return list(range(lo, hi + 1))
    # longer than a list can be, or than memory can hold: raised before any element is made
    except (OverflowError, MemoryError):
        raise argparse.ArgumentTypeError(f"range too long: {text!r}") from None


def _parse_rationals(text: str) -> list[Fraction]:
    try:
        return [Fraction(part) for part in text.split(",") if part.strip()]
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected comma-separated rationals, got {text!r}") from None


# One record as the bytes of json.dumps(record), built straight from the integers: routes are
# ASCII identifiers, num/den decimal digits, pi_half_float raises OverflowError rather than
# return inf, and log10_abs (from the exact integers, so that magnitudes beyond a double survive)
# is finite or null, so nothing needs escaping or a NaN rule; str() of a float is its repr().
def _json_line(result: invariants.HeatInvariantResult) -> str:
    n, d, omega, route, (coeff, pi_half) = result
    num, den = coeff.numerator, coeff.denominator
    try:
        double = pi_half_float(num, den, pi_half)
    except OverflowError:
        double = "null"
    log10_abs = "null"
    if num:
        log10_abs = math.log10(abs(num)) - math.log10(den) + pi_half * math.log10(math.pi) / 2
    return (
        f'{{"n": {n}, "d": {d}, "omega_used": {"null" if omega is None else omega}, '
        f'"route": "{route}", "value": {{"num": "{num}", "den": "{den}", "pi_half": {pi_half}}}, '
        f'"float_value": {double}, "log10_abs": {log10_abs}}}\n'
    )


# One record as the bytes csv.writer writes, "\r\n" and all. Nothing needs quoting: every field is
# an int, an ASCII route name, a float's repr() or empty, so none holds a comma, quote or line end.
def _csv_line(result: invariants.HeatInvariantResult) -> str:
    n, d, omega, route, (coeff, pi_half) = result
    num, den = coeff.numerator, coeff.denominator
    try:
        double = pi_half_float(num, den, pi_half)
    except OverflowError:
        double = ""
    return f"{n},{d},{'' if omega is None else omega},{route},{num},{den},{pi_half},{double}\r\n"


def _compute_results(args: argparse.Namespace) -> list[invariants.HeatInvariantResult]:
    """Every requested cell, n outer and d inner, all computed before any is printed.

    Each d is one row (`heat_invariant_row`, with the box's omega and formula),
    which costs what its cells cost; the first invalid input raises the same
    error as the cell-by-cell order would.
    """
    rows = [invariants.heat_invariant_row(args.n, d, args.omega, args.formula) for d in args.d]
    return [result for cells in zip(*rows) for result in cells]


def _markdown_lines(
    args: argparse.Namespace, results: list[invariants.HeatInvariantResult]
) -> list[str]:
    """One row per n and one column per d: the results (n outer, d inner) in chunks of len(d)."""
    cells, width = [str(result.value) for result in results], len(args.d)
    table = [["n \\ d", *map(str, args.d)]]
    table += [[str(n), *cells[i * width : (i + 1) * width]] for i, n in enumerate(args.n)]
    widths = [max(map(len, column)) for column in zip(*table)]
    head, *body = [" | ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in table]
    return [f"{line}\n" for line in (head, "-|-".join("-" * w for w in widths), *body)]


def cmd_compute(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    results = _compute_results(args)
    if args.format == "json":
        return 0, map(_json_line, results)  # formatted as written: no second copy of a big box
    if args.format == "markdown":
        return 0, _markdown_lines(args, results)
    return 0, itertools.chain([CSV_HEADER], map(_csv_line, results))


# verify target -> (runner, the flags it takes).  Each flag is passed as the
# runner keyword of the same name, and only when given, so a default box is
# written once: in the runner's signature.  Runners look their sweep up on
# its module when called, so a function replaced there (by a tracer, say) is
# the one that runs.
SUITES = {
    "s1": (lambda **box: identities.verify_identity("s1", box), ("n", "offset")),
    "s1g": (lambda **box: identities.verify_identity("s1g", box), ("n", "offset", "x")),
    "s3": (lambda **box: identities.verify_identity("s3", box), ("n", "offset")),
    "vychet": (lambda **box: identities.verify_identity("vychet", box), ("j_max",)),
    "lemmas": (lambda **kw: opercalc.verify_lemmas(**kw), ("t_max", "s_max", "slack")),
    "bernoulli-link": (lambda **kw: opercalc.check_bernoulli_link(**kw), ("t_max",)),
    "legendre": (lambda **kw: legendre.verify_expansion(**kw), ("j_max", "d")),
    "crosscheck": (lambda **kw: invariants.verify_crosscheck(**kw), ("n", "d")),
    "omega-stability": (lambda **kw: invariants.verify_omega_stability(**kw), ("n", "d")),
    "sharpness": (lambda: invariants.verify_sharpness(), ()),
}

# the verify arguments that are not part of a sweep's box
_NOT_BOX = ("command", "target", "format")

# (d, n_terms) of the asympt probes `verify all` runs after the suites, each at the default t0
_PROBES = [(d, n_terms) for d in (2, 3, 5) for n_terms in (2, 3, 4)]


def _box(args: argparse.Namespace) -> dict:
    """The sweep keywords given on the command line; `all` takes none."""
    takes = SUITES[args.target][1] if args.target in SUITES else ()
    box = {k: v for k, v in vars(args).items() if v is not None and k not in _NOT_BOX}
    unknown = [f"--{flag.replace('_', '-')}" for flag in box if flag not in takes]
    if unknown:
        raise ValueError(f"verify {args.target} does not take {', '.join(unknown)}")
    return box


def _report_lines(report: VerificationReport, fmt: str) -> list[str]:
    """One sweep's report as `verify <target>` prints it, in `verify all` too."""
    if fmt == "json":
        return [json.dumps(report.as_dict()) + "\n"]
    box = ", ".join(f"{name} in {span}" for name, span in report.parameter_box)
    status = "PASS" if report.passed else "FAIL"
    lines = [f"{status} {report.identity_name}: {report.points_checked} points ({box})"]
    for witness in report.failures:
        at = ", ".join(f"{k}={v}" for k, v in witness.parameters.items())
        lines.append(f"  witness {at}: computed {witness.computed}, expected {witness.expected}")
    return [f"{line}\n" for line in lines + [f"  note: {note}" for note in report.notes]]


def _deviates(estimate: asymptotics.RemainderEstimate, max_dev: float) -> bool:
    """An "ok" estimate whose deviation is above the gate; no other status has one."""
    return estimate.status == "ok" and estimate.relative_deviation > max_dev


def _verify_all(fmt: str) -> tuple[int, list[str]]:
    """Every suite at its default box, then every probe; 1 if any of them fails."""
    failed, lines = 0, []
    for runner, _ in SUITES.values():
        report = runner()
        lines += _report_lines(report, fmt)
        failed += not report.passed
    for d, n_terms in _PROBES:
        estimate = asymptotics.remainder_order(d, n_terms)
        passed = estimate.status == "ok" and not _deviates(estimate, asymptotics.MAX_DEVIATION)
        lines.append(
            json.dumps(estimate._asdict()) + "\n"
            if fmt == "json"
            else f"{'PASS' if passed else 'FAIL'} asympt d={d} n_terms={n_terms}: "
            f"status={estimate.status} observed={estimate.observed_order:.4f} "
            f"expected={estimate.expected_order}\n"
        )
        failed += not passed
    return (1 if failed else 0), lines


def cmd_verify(args: argparse.Namespace) -> tuple[int, list[str]]:
    box = _box(args)
    if args.target == "all":
        return _verify_all(args.format)
    report = SUITES[args.target][0](**box)
    if report.points_checked == 0:
        raise ValueError(f"verify {args.target}: the box holds no points")
    return (0 if report.passed else 1), _report_lines(report, args.format)


def cmd_asympt(args: argparse.Namespace) -> tuple[int, list[str]]:
    if not 0 <= args.max_dev < math.inf:
        raise ValueError(f"--max-dev must be finite and >= 0, got {args.max_dev}")
    estimate = asymptotics.remainder_order(args.d, args.n_terms, args.t0)
    return (1 if _deviates(estimate, args.max_dev) else 0), [json.dumps(estimate._asdict()) + "\n"]


def _check_machine_sized(args: argparse.Namespace) -> None:
    """An integer flag or range end above sys.maxsize is an input error naming the flag."""
    for dest, value in vars(args).items():
        top = value[-1] if isinstance(value, (tuple, list)) and value else value  # spans ascend
        if type(top) is int and top > sys.maxsize:
            flag = "--" + dest.replace("_", "-")
            raise ValueError(f"{flag} {top} is above the largest supported integer {sys.maxsize}")


# command -> (help, arguments, runner), each argument the flag and keywords of one add_argument
# call: _parser builds the whole tree from it, and _command_parser the parser of one command.
COMMANDS = {
    "compute": (
        "compute coefficients a(n, d)",
        {
            "--n": {"type": _parse_range, "required": True, "metavar": "INT|LO..HI"},
            "--d": {"type": _parse_range, "required": True, "metavar": "INT|LO..HI"},
            "--omega": {"type": int},
            "--formula": {"choices": invariants.FORMULAS, "default": "auto"},
            "--format": {"choices": ("json", "csv", "markdown"), "default": "json"},
        },
        cmd_compute,
    ),
    "verify": (
        "run an exact verification sweep, or all of them and the asympt probes",
        {
            "target": {"choices": [*SUITES, "all"]},
            **dict.fromkeys(("--n", "--d"), {"type": _parse_span, "metavar": "INT|LO..HI"}),
            "--offset": {
                "type": _parse_span,
                "metavar": "INT|LO..HI",
                "help": "omega = 2n + offset (negative offsets probe below the bound)",
            },
            "--x": {"type": _parse_rationals, "metavar": "Q[,Q...]"},
            **dict.fromkeys(("--j-max", "--t-max", "--s-max", "--slack"), {"type": int}),
            "--format": {"choices": ("text", "json"), "default": "text"},
        },
        cmd_verify,
    ),
    "asympt": (
        "numeric remainder-order cross-check",
        {
            "--d": {"type": int, "required": True},
            "--n-terms": {"type": int, "required": True},
            "--t0": {"type": float, "default": asymptotics.DEFAULT_T0},
            "--max-dev": {"type": float, "default": asymptotics.MAX_DEVIATION},
        },
        cmd_asympt,
    ),
}


def _add_arguments(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    for flag, keywords in COMMANDS[name][1].items():
        parser.add_argument(flag, **keywords)
    parser.set_defaults(command=name)  # as the tree's subparsers set it
    return parser


@functools.cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    return _add_arguments(argparse.ArgumentParser(prog=f"heatsphere {name}"), name)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heatsphere",
        description="Exact heat-trace coefficients of round spheres and their verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=help_text), name)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv as the whole tree parses it, which is built only for what its top level reports
    itself: no command, an unknown one, its -h, and a command parser's leftovers but a lone "--"."""
    if argv and argv[0] in COMMANDS:
        args, rest = _command_parser(argv[0]).parse_known_args(argv[1:])
        if not rest or rest == ["--"] and argv.count("--") == 1:
            return args
    return _parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:  # Python 3.11+: str() of a valid coefficient may pass
        sys.set_int_max_str_digits(0)  # the default 4300 digits; lifted for main only
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        _check_machine_sized(args)
        code, lines = COMMANDS[args.command][2](args)
        sys.stdout.writelines(lines)
        sys.stdout.flush()
    except SystemExit as exc:  # argparse exits with an int: 0 for --help, 2 for a usage error
        return exc.code
    except BrokenPipeError:  # a reader that has left (`... | head`) ends the output only:
        # stdout goes to os.devnull, as the Python docs advise, so the flush at exit does not
        # raise again; no traceback, and the exit code is the one the command computed
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    except (ValueError, OverflowError, asymptotics.TruncationCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    return code


if __name__ == "__main__":
    sys.exit(main())
