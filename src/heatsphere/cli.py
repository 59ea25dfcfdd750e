"""Command-line surface.

Three subcommands: `compute` emits coefficient records as JSON lines or
CSV, `verify` runs one of the exact verification sweeps, `asympt` runs the
numeric remainder-order cross-check.  Exit codes: 0 success, 1 a
verification or deviation failure, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import json
import math
import os
import sys
from fractions import Fraction

from . import asymptotics, identities, invariants, legendre, opercalc
from .exactnum import ExactValue
from .verification import VerificationReport

CSV_HEADER = ["n", "d", "omega", "route", "num", "den", "pi_half", "float"]


@contextlib.contextmanager
def tolerate_closed_stdout():
    """Write to stdout in this block; a reader that has left ends the output only.

    On a closed pipe (`... | head`) stdout is pointed at os.devnull, as the
    Python docs advise, so that later writes and the flush at exit do not
    raise again: no traceback, and the exit code stays the one the program
    computed before it wrote.
    """
    try:
        yield
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


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


def _float_or_none(value: ExactValue) -> float | None:
    """The rounded double, or None when the value is beyond double range."""
    try:
        return float(value)
    except OverflowError:
        return None


def _log10_abs(value: ExactValue) -> float | None:
    """log10 |value| from the exact integers, so that magnitudes a double
    cannot hold (or rounds to zero or a subnormal) survive; None for zero."""
    coeff = value.coeff
    if coeff == 0:
        return None
    logs = math.log10(abs(coeff.numerator)) - math.log10(coeff.denominator)
    return logs + value.pi_half * math.log10(math.pi) / 2


def _record_dict(result: invariants.HeatInvariantResult) -> dict:
    value = result.value
    return {
        "n": result.n,
        "d": result.d,
        "omega_used": result.omega_used,
        "route": result.route,
        "value": {
            "num": str(value.coeff.numerator),
            "den": str(value.coeff.denominator),
            "pi_half": value.pi_half,
        },
        "float_value": _float_or_none(value),
        "log10_abs": _log10_abs(value),
    }


def _compute_results(args: argparse.Namespace) -> list[invariants.HeatInvariantResult]:
    """Every requested cell, n outer and d inner, all computed before any is printed.

    Each d is one row (`heat_invariant_row`, with the box's omega and formula),
    which costs what its cells cost; the first invalid input raises the same
    error as the cell-by-cell order would.
    """
    rows = [invariants.heat_invariant_row(args.n, d, args.omega, args.formula) for d in args.d]
    return [result for cells in zip(*rows) for result in cells]


def cmd_compute(args: argparse.Namespace) -> int:
    records = map(_record_dict, _compute_results(args))
    with tolerate_closed_stdout():
        if args.format == "json":
            for record in records:
                print(json.dumps(record))
        else:
            # csv writes None as an empty field and a float as its repr
            writer = csv.writer(sys.stdout)
            writer.writerow(CSV_HEADER)
            writer.writerows(
                [r["n"], r["d"], r["omega_used"], r["route"], *r["value"].values(), r["float_value"]]
                for r in records
            )
    return 0


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
_NOT_BOX = ("command", "func", "target", "format")


def _run_verify(args: argparse.Namespace) -> VerificationReport:
    runner, takes = SUITES[args.target]
    box = {k: v for k, v in vars(args).items() if v is not None and k not in _NOT_BOX}
    unknown = [f"--{flag.replace('_', '-')}" for flag in box if flag not in takes]
    if unknown:
        raise ValueError(f"verify {args.target} does not take {', '.join(unknown)}")
    return runner(**box)


def cmd_verify(args: argparse.Namespace) -> int:
    report = _run_verify(args)
    if report.points_checked == 0:
        raise ValueError(f"verify {args.target}: the box holds no points")
    with tolerate_closed_stdout():
        if args.format == "json":
            print(json.dumps(report.as_dict()))
        else:
            box = ", ".join(f"{name} in {span}" for name, span in report.parameter_box)
            status = "PASS" if report.passed else "FAIL"
            print(f"{status} {report.identity_name}: {report.points_checked} points ({box})")
            for witness in report.failures:
                params = ", ".join(f"{k}={v}" for k, v in witness.parameters.items())
                print(f"  witness {params}: computed {witness.computed}, expected {witness.expected}")
            for note in report.notes:
                print(f"  note: {note}")
    return 0 if report.passed else 1


def cmd_asympt(args: argparse.Namespace) -> int:
    if not 0 <= args.max_dev < math.inf:
        raise ValueError(f"--max-dev must be finite and >= 0, got {args.max_dev}")
    estimate = asymptotics.remainder_order(args.d, args.n_terms, args.t0)
    with tolerate_closed_stdout():
        print(json.dumps(dataclasses.asdict(estimate)))
    if estimate.status == "ok" and estimate.relative_deviation > args.max_dev:
        return 1
    return 0


def _check_machine_sized(args: argparse.Namespace) -> None:
    """An integer flag or range end above sys.maxsize is an input error naming the flag."""
    for dest, value in vars(args).items():
        top = value[-1] if isinstance(value, (tuple, list)) and value else value  # spans ascend
        if type(top) is int and top > sys.maxsize:
            flag = "--" + dest.replace("_", "-")
            raise ValueError(f"{flag} {top} is above the largest supported integer {sys.maxsize}")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heatsphere",
        description="Exact heat-trace coefficients of round spheres and their verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="compute coefficients a(n, d)")
    compute.add_argument("--n", type=_parse_range, required=True, metavar="INT|LO..HI")
    compute.add_argument("--d", type=_parse_range, required=True, metavar="INT|LO..HI")
    compute.add_argument("--omega", type=int, default=None)
    compute.add_argument("--formula", choices=invariants.FORMULAS, default="auto")
    compute.add_argument("--format", choices=("json", "csv"), default="json")
    compute.set_defaults(func=cmd_compute)

    verify = sub.add_parser("verify", help="run an exact verification sweep")
    verify.add_argument("target", choices=list(SUITES))
    verify.add_argument("--n", type=_parse_span, default=None, metavar="INT|LO..HI")
    verify.add_argument("--d", type=_parse_span, default=None, metavar="INT|LO..HI")
    verify.add_argument(
        "--offset",
        type=_parse_span,
        default=None,
        metavar="INT|LO..HI",
        help="omega = 2n + offset (negative offsets probe below the bound)",
    )
    verify.add_argument("--x", type=_parse_rationals, default=None, metavar="Q[,Q...]")
    verify.add_argument("--j-max", dest="j_max", type=int, default=None)
    verify.add_argument("--t-max", dest="t_max", type=int, default=None)
    verify.add_argument("--s-max", dest="s_max", type=int, default=None)
    verify.add_argument("--slack", type=int, default=None)
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.set_defaults(func=cmd_verify)

    asympt = sub.add_parser("asympt", help="numeric remainder-order cross-check")
    asympt.add_argument("--d", type=int, required=True)
    asympt.add_argument("--n-terms", dest="n_terms", type=int, required=True)
    asympt.add_argument("--t0", type=float, default=asymptotics.DEFAULT_T0)
    asympt.add_argument("--max-dev", dest="max_dev", type=float, default=asymptotics.MAX_DEVIATION)
    asympt.set_defaults(func=cmd_asympt)

    return parser


def main(argv: list[str] | None = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # Python 3.11+: str() of a valid
        sys.set_int_max_str_digits(0)  # coefficient may pass the default 4300 digits
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        _check_machine_sized(args)
        return args.func(args)
    except (ValueError, OverflowError, asymptotics.TruncationCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
