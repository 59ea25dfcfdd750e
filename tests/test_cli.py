import csv
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from heatsphere import asymptotics, cli, invariants, opercalc
from heatsphere.cli import COMMANDS, SUITES, _command_parser, _parser, main
from heatsphere.exactnum import SQRT_PI
from heatsphere.invariants import heat_invariant, heat_invariant_row
from heatsphere.verification import VerificationReport


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_single_json(capsys):
    code, out, err = run_cli(capsys, "compute", "--n", "1", "--d", "3")
    assert code == 0 and err == ""
    record = json.loads(out)
    assert record.pop("log10_abs") == pytest.approx(math.log10(0.443113462726379), abs=1e-14)
    assert record == {
        "n": 1,
        "d": 3,
        "omega_used": None,
        "route": "odd",
        "value": {"num": "1", "den": "4", "pi_half": 1},
        "float_value": 0.443113462726379,
    }


def test_compute_json_round_trips_exactly(capsys):
    code, out, _ = run_cli(capsys, "compute", "--n", "0..4", "--d", "2..5")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 20
    for line in lines:
        record = json.loads(line)
        value = heat_invariant(record["n"], record["d"]).value
        assert Fraction(record["value"]["num"]) / Fraction(record["value"]["den"]) == value.coeff
        assert record["value"]["pi_half"] == value.pi_half


def test_compute_iterates_n_outer_d_inner(capsys):
    _, out, _ = run_cli(capsys, "compute", "--n", "1..2", "--d", "3..4")
    keys = [(r["n"], r["d"]) for r in map(json.loads, out.strip().splitlines())]
    assert keys == [(1, 3), (1, 4), (2, 3), (2, 4)]


def test_compute_csv_shape(capsys):
    code, out, _ = run_cli(capsys, "compute", "--n", "0..2", "--d", "2..4", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "d", "omega", "route", "num", "den", "pi_half", "float"]
    assert len(rows) == 10
    # spot row: a(1, 2) = 1/3, even route, no omega (n is the outer loop)
    assert rows[4] == ["1", "2", "", "even", "1", "3", "0", "0.3333333333333333"]


def test_compute_markdown_shape(capsys):
    code, out, _ = run_cli(capsys, "compute", "--n", "1..4", "--d", "2..4", "--format", "markdown")
    assert code == 0
    head, rule, *rows = out.splitlines()
    assert [cell.strip() for cell in head.split(" | ")] == ["n \\ d", "2", "3", "4"]
    assert set(rule) == {"-", "|"} and len(rule) == len(head)
    # one row per n and one column per d, each cell the exact value
    assert [[cell.strip() for cell in row.split(" | ")] for row in rows] == [
        [str(n), *(str(heat_invariant(n, d).value) for d in (2, 3, 4))] for n in range(1, 5)
    ]


def reference_float(value) -> float | None:
    """float_value as the formatter once computed it, through ExactValue.__float__."""
    num, den, k = value.coeff.numerator, value.coeff.denominator, value.pi_half
    try:
        if k > 0:
            return num * SQRT_PI.numerator**k / (den * SQRT_PI.denominator**k)
        if k < 0:
            return num * SQRT_PI.denominator**-k / (den * SQRT_PI.numerator**-k)
        return num / den
    except OverflowError:
        return None


def reference_log10_abs(value) -> float | None:
    """log10_abs as the formatter once computed it: from the exact integers, None for zero."""
    coeff = value.coeff
    if coeff == 0:
        return None
    logs = math.log10(abs(coeff.numerator)) - math.log10(coeff.denominator)
    return logs + value.pi_half * math.log10(math.pi) / 2


def record_dict(result) -> dict:
    """A compute record as a dict, built from the result by the reference helpers above,
    for json.dumps to encode."""
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
        "float_value": reference_float(value),
        "log10_abs": reference_log10_abs(value),
    }


def box_results(box):
    n, d, *flags = box
    args = _parser().parse_args(["compute", "--n", n, "--d", d, *flags])
    return [
        heat_invariant(n_, d_, omega=args.omega, formula=args.formula)
        for n_ in args.n
        for d_ in args.d
    ]


# each branch of the JSON and CSV line formatters: see test_compute_boxes_reach_every_branch
COMPUTE_BOXES = [
    ("5", "1..6"),
    ("0..3", "7..9"),
    ("0..6", "1..12"),
    ("0..4", "1..9", "--omega", "9"),
    ("0..4", "1..9", "--formula", "general"),
    ("0..4", "2..3", "--formula", "closed"),
    ("0..6", "9", "--formula", "odd"),
    ("0..6", "4", "--formula", "even"),
    ("290..300", "2"),
    ("1", "1001"),
    ("0..1", "272"),
    ("6..9", "3", "--omega", "20"),
    ("980", "2"),
]


@pytest.mark.parametrize("box", COMPUTE_BOXES, ids="-".join)
def test_compute_prints_what_the_cell_path_prints(capsys, box, no_int_digit_limit):
    n, d, *flags = box
    code, out, _ = run_cli(capsys, "compute", "--n", n, "--d", d, *flags)
    assert code == 0
    # byte for byte what json.dumps prints for the record of each cell's own result
    assert out == "".join(json.dumps(record_dict(r)) + "\n" for r in box_results(box))


def csv_fields(result) -> tuple:
    """A CSV row's fields for csv.writer, built from the result by the reference helpers above:
    None, which csv.writer writes as an empty field, for no omega and for no double."""
    value = result.value
    coeff = value.coeff
    return (
        *(result.n, result.d, result.omega_used, result.route),
        *(coeff.numerator, coeff.denominator, value.pi_half, reference_float(value)),
    )


@pytest.mark.parametrize("box", COMPUTE_BOXES, ids="-".join)
def test_compute_csv_is_what_csv_writer_writes(capsys, box, no_int_digit_limit):
    n, d, *flags = box
    code, out, _ = run_cli(capsys, "compute", "--n", n, "--d", d, *flags, "--format", "csv")
    assert code == 0
    # byte for byte what the standard library's writer writes, "\r\n" line ends and all
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(["n", "d", "omega", "route", "num", "den", "pi_half", "float"])
    writer.writerows(map(csv_fields, box_results(box)))
    assert out == expected.getvalue()


def test_compute_prints_the_table_box_as_the_reference_does(capsys):
    # the benchmark's table box, byte for byte, against its rows by the reference helpers
    code, out, _ = run_cli(capsys, "compute", "--n", "0..32", "--d", "1..72")
    assert code == 0
    rows = [heat_invariant_row(range(33), d) for d in range(1, 73)]
    assert out == "".join(json.dumps(record_dict(r)) + "\n" for cells in zip(*rows) for r in cells)


@pytest.fixture
def no_int_digit_limit():
    """str() of any int, as main allows it (3.11 and later cap it at 4300 digits by default)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    yield
    if limit is not None:
        sys.set_int_max_str_digits(limit)


def test_compute_boxes_reach_every_branch(no_int_digit_limit):
    records = [record_dict(r) for box in COMPUTE_BOXES for r in box_results(box)]
    assert {r["route"] for r in records} == {"weyl", "odd", "even", "general", "closed"}
    assert {r["omega_used"] is None for r in records} == {True, False}
    floats = [r["float_value"] for r in records]
    assert None in floats and 0.0 in floats and any(f and f < 0 for f in floats)
    # a subnormal and a double past 1e16, both of which repr writes with an exponent
    assert any(f and abs(f) < sys.float_info.min for f in floats)
    assert any(f and abs(f) >= 1e16 for f in floats)
    assert any(r["value"]["num"] == "0" and r["log10_abs"] is None for r in records)
    assert any(r["log10_abs"] is not None and r["log10_abs"] < 0 for r in records)
    assert max(len(r["value"]["num"]) for r in records) == 4330


def test_compute_invalid_cell_prints_nothing(capsys):
    boxes = {
        ("--n", "0..3", "--d", "0..2"): "dimension must be positive, got 0",
        ("--formula", "closed", "--n", "0..3", "--d", "1..8"): (
            "no closed form for d=4; supported: 1, 2, 3, 5, 7"
        ),
        ("--formula", "odd", "--n", "0..3", "--d", "1..3"): "odd route needs odd d, got 2",
        ("--omega", "3", "--n", "0..3", "--d", "3..4"): "omega=3 below the validity bound 2n=4",
    }
    for argv, message in boxes.items():
        code, out, err = run_cli(capsys, "compute", *argv)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"


def test_compute_magnitude_of_tiny_and_zero_values(capsys):
    _, out, _ = run_cli(capsys, "compute", "--n", "1", "--d", "1001")
    record = json.loads(out)
    # a(1, 1001) underflows a double, but its magnitude survives
    assert record["float_value"] == 0.0
    assert record["log10_abs"] == pytest.approx(-1429.6455, abs=1e-4)
    _, out, _ = run_cli(capsys, "compute", "--n", "6", "--d", "5")
    record = json.loads(out)
    assert record["value"]["num"] == "0" and record["log10_abs"] is None


@pytest.mark.parametrize("n, d", [("300", "2"), ("400", "4")])
def test_compute_beyond_double_range(n, d):
    proc = subprocess.run(
        [sys.executable, "-m", "heatsphere", "compute", "--n", n, "--d", d],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    (line,) = proc.stdout.splitlines()
    record = json.loads(line)
    assert record["float_value"] is None
    num, den = int(record["value"]["num"]), int(record["value"]["den"])
    assert record["log10_abs"] == pytest.approx(math.log10(abs(num)) - math.log10(den))
    assert record["log10_abs"] > 308


def test_compute_prints_integers_past_the_default_digit_limit():
    # a_(980,2) has more digits than str(int) allows by default (4300)
    argv = [sys.executable, "-m", "heatsphere", "compute", "--n", "980", "--d", "2", "--format"]
    procs = [
        subprocess.Popen([*argv, fmt], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for fmt in ("json", "csv")
    ]
    (json_out, json_err), (csv_out, csv_err) = (proc.communicate() for proc in procs)
    assert [proc.returncode for proc in procs] == [0, 0] and json_err == csv_err == ""
    value = json.loads(json_out)["value"]
    assert max(len(value["num"]), len(value["den"])) > 4300
    (_, row) = csv.reader(io.StringIO(csv_out))
    assert row[4:6] == [value["num"], value["den"]]


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="Python 3.11+")
@pytest.mark.parametrize("limit", [None, 4321])
@pytest.mark.parametrize(
    "argv, expected",
    [(["compute", "--n", "980", "--d", "2"], 0), (["compute", "--n", "3..1", "--d", "2"], 2)],
)
def test_main_lifts_the_digit_limit_for_itself_only(capsys, argv, expected, limit):
    before = sys.get_int_max_str_digits()
    try:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
        setting = sys.get_int_max_str_digits()
        code, out, _ = run_cli(capsys, *argv)
        assert code == expected
        assert (len(out) > 4300) == (expected == 0)
        assert sys.get_int_max_str_digits() == setting
    finally:
        sys.set_int_max_str_digits(before)


def test_compute_csv_leaves_an_unrepresentable_float_empty(capsys):
    code, out, _ = run_cli(capsys, "compute", "--n", "295..296", "--d", "2", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert [row[-1] == "" for row in rows[1:]] == [False, True]


def test_compute_with_omega_forces_general_route(capsys):
    _, out, _ = run_cli(capsys, "compute", "--n", "2", "--d", "2", "--omega", "5")
    record = json.loads(out)
    assert record["route"] == "general" and record["omega_used"] == 5


def test_compute_takes_the_general_route_where_it_is_cheaper(capsys):
    # a = 499 roots against n = 11: "auto" runs the general route at omega = 2n, and a
    # named parity route still runs the odd kernel, to the same value
    _, out, _ = run_cli(capsys, "compute", "--n", "11", "--d", "999")
    record = json.loads(out)
    assert record["route"] == "general" and record["omega_used"] == 22
    _, out, _ = run_cli(capsys, "compute", "--n", "11", "--d", "999", "--formula", "odd")
    forced = json.loads(out)
    assert forced["route"] == "odd" and forced["omega_used"] is None
    assert forced["value"] == record["value"]


def test_compute_table_keeps_the_parity_routes(capsys):
    # the benchmark's table box: every row asks n up to 32, so no d <= 72 is large enough
    code, out, _ = run_cli(capsys, "compute", "--n", "0..32", "--d", "1..72")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 33 * 72
    for r in records:
        expected = "weyl" if r["n"] == 0 else ("odd" if r["d"] % 2 else "even")
        assert (r["route"], r["omega_used"]) == (expected, None), (r["n"], r["d"])


def test_compute_omega_below_bound_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "compute", "--n", "2", "--d", "3", "--omega", "1")
    assert code == 2 and out == ""
    assert "below the validity bound" in err


def test_compute_omega_with_closed_formula_rejected(capsys):
    code, _, err = run_cli(capsys, "compute", "--n", "1", "--d", "3",
                           "--omega", "4", "--formula", "closed")
    assert code == 2 and "incompatible" in err


def test_compute_bad_range_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "compute", "--n", "3..1", "--d", "2")
    assert code == 2
    code, _, _ = run_cli(capsys, "compute", "--n", "x", "--d", "2")
    assert code == 2


@pytest.mark.parametrize("argv", [("--n", "0..100000000000000000000", "--d", "3"),
                                  ("--n", "1", "--d", "1..100000000000000000000")])
def test_compute_range_longer_than_a_list_is_usage_error(argv):
    # both lengths exceed ssize_t, so they fail before any allocation
    proc = subprocess.run(
        [sys.executable, "-m", "heatsphere", "compute", *argv], capture_output=True, text=True
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "range too long" in proc.stderr and "Traceback" not in proc.stderr


def test_compute_range_longer_than_memory_is_usage_error():
    # 10^18 + 1 cells fit ssize_t, but not the child's 1 GiB of address space:
    # list() asks for the whole array at once and gets MemoryError, not a traceback
    limit = 1 << 30
    argv = ["compute", "--n", "0..1000000000000000000", "--d", "3"]
    proc = subprocess.run(
        [sys.executable, "-m", "heatsphere", *argv],
        capture_output=True,
        text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "range too long" in proc.stderr and "Traceback" not in proc.stderr


BIG = "100000000000000000000"  # 10^20, above sys.maxsize
OVERSIZED = [  # (argv, the flag its error names)
    (("asympt", "--d", "3", "--n-terms", BIG), "--n-terms"),
    (("compute", "--n", "0", "--d", BIG), "--d"),
    (("verify", "s1", "--n", "1", f"--offset={BIG}..{BIG}"), "--offset"),
    (("verify", "crosscheck", "--n", "1", "--d", BIG), "--d"),
    (("asympt", "--d", BIG, "--n-terms", "2"), "--d"),
    (("verify", "vychet", "--j-max", BIG), "--j-max"),
    (("compute", "--n", "1", "--d", "3", "--omega", BIG), "--omega"),
]


@pytest.mark.parametrize("argv, flag", OVERSIZED, ids=[f"argv{i}" for i in range(len(OVERSIZED))])
def test_integer_flag_beyond_a_machine_size_is_input_error(argv, flag):
    # rejected before any work: the last three once ran for minutes (a K-table of 5e19
    # roots, a sweep to j = 1e20, a general route to omega = 1e20)
    proc = subprocess.run(
        [sys.executable, "-m", "heatsphere", *argv], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"error: {flag} {BIG} is above the largest supported integer {sys.maxsize}\n"


def test_a_huge_negative_offset_still_runs():
    # only the upper side is checked: omega = 2n + offset is clamped at 0 below
    proc = subprocess.run(
        [sys.executable, "-m", "heatsphere", "verify", "s1", "--n", "1", f"--offset=-{BIG}..0"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1 and proc.stdout.startswith("FAIL s1:") and proc.stderr == ""


def test_unknown_flag_is_usage_error(capsys):
    # a leftover argument is reported by the top level, with its usage line
    code, out, err = run_cli(capsys, "compute", "--n", "1", "--d", "2", "--bogus")
    assert code == 2 and out == ""
    assert err.startswith("usage: heatsphere [-h] {compute,verify,asympt} ...\n")
    assert err.endswith("heatsphere: error: unrecognized arguments: --bogus\n")


def test_verify_s1_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "s1")
    assert code == 0
    assert out.startswith("PASS s1:")


def test_verify_s1_below_bound_fails_with_witness(capsys):
    # the equals form keeps argparse from reading the leading "-" as a flag
    code, out, _ = run_cli(capsys, "verify", "s1", "--n", "1", "--offset=-1..-1")
    assert code == 1
    assert out.startswith("FAIL s1:")
    assert "witness n=1, omega=1: computed -1/12, expected 0" in out


def test_verify_json_format(capsys):
    code, out, _ = run_cli(capsys, "verify", "sharpness", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["identity"] == "sharpness"
    assert report["passed"] is True and report["points_checked"] == 3
    assert len(report["notes"]) == 3


def test_verify_each_target_runs(capsys):
    # small boxes to keep this quick; every target must exit 0
    cases = [
        ("s1", "--n", "1..2"),
        ("s1g", "--n", "1..2", "--offset", "0..1", "--x", "0,1/2"),
        ("s3", "--n", "1..2"),
        ("vychet", "--j-max", "5"),
        ("lemmas", "--t-max", "2", "--s-max", "1", "--slack", "1"),
        ("bernoulli-link", "--t-max", "4"),
        ("legendre", "--j-max", "3", "--d", "2..4"),
        ("crosscheck", "--n", "1..3", "--d", "2..5"),
        ("omega-stability", "--n", "1..2", "--d", "1..4"),
        ("sharpness",),
    ]
    assert {case[0] for case in cases} == set(SUITES)
    for case in cases:
        code, out, err = run_cli(capsys, "verify", *case)
        assert code == 0, f"{case[0]} failed: {out}{err}"
        assert out.startswith(f"PASS {case[0]}:")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("sharpness", "--n", "3"), "--n"),
        (("lemmas", "--n", "2"), "--n"),
        (("s1", "--x", "1"), "--x"),
        (("vychet", "--n", "1"), "--n"),
        (("crosscheck", "--j-max", "2"), "--j-max"),
        (("all", "--n", "3"), "--n"),
    ],
)
def test_verify_flag_the_target_does_not_take_is_usage_error(capsys, argv, flag):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert f"does not take {flag}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("lemmas", "--t-max", "-1"),
        ("vychet", "--j-max", "-3"),
        ("legendre", "--j-max", "-1"),
        # no s: no t builds its terms, however many t there are
        ("lemmas", "--s-max", "-1", "--t-max", "100000"),
    ],
)
def test_verify_empty_box_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert "no points" in err


@pytest.mark.parametrize(
    "argv, span",
    [
        (("s1", "--n=-3..-1"), "-3..-1"),
        (("s1g", "--n=-1..2", "--offset=0..0"), "-1..2"),
        (("s3", "--n=0..2", "--offset=-1..0"), "0..2"),
    ],
)
def test_verify_n_below_one_names_the_given_range(capsys, argv, span):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert f"need n >= 1, got {span}" in err


# text and JSON output of each identity sweep down to omega = 2n - 3, witnesses
# included, as the Fraction transcriptions of the sums printed them
VERIFY_OFFSETS = json.loads((Path(__file__).parent / "data" / "verify_offsets.json").read_text())


@pytest.mark.parametrize("target", ["s1", "s1g", "s3"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_identity_output_is_pinned_below_and_above_the_bound(capsys, target, fmt):
    code, out, err = run_cli(capsys, "verify", target, "--offset=-3..4", "--format", fmt)
    assert code == 1 and err == ""
    assert out == VERIFY_OFFSETS[target][fmt]


# text and JSON output and exit code of every target at its default box, of
# `verify all`, and of four widened boxes, recorded before the sweeps shared
# their per-box work across points
VERIFY_PINS = json.loads((Path(__file__).parent / "data" / "verify_pins.json").read_text())


@pytest.mark.parametrize("command", list(VERIFY_PINS))
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_output_is_pinned(capsys, command, fmt):
    code, out, err = run_cli(capsys, *command.split(), "--format", fmt)
    assert err == ""
    assert (code, out) == (VERIFY_PINS[command]["code"], VERIFY_PINS[command][fmt])


# sha256 of compute's stdout (float_value and log10_abs included), recorded when
# float() still went through the Fraction product coeff * SQRT_PI**pi_half
COMPUTE_DIGESTS = json.loads((Path(__file__).parent / "data" / "compute_digests.json").read_text())


@pytest.mark.parametrize("command", list(COMPUTE_DIGESTS))
def test_compute_output_is_pinned(capsys, command):
    code, out, err = run_cli(capsys, *command.split())
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == COMPUTE_DIGESTS[command]


def test_verify_all_reports_every_suite(capsys):
    proc = subprocess.run(
        [sys.executable, "-m", "heatsphere", "verify", "all"], capture_output=True, text=True
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    # every suite at its default box, in registry order, as `verify <target>` prints it
    expected = "".join(run_cli(capsys, "verify", name)[1] for name in SUITES).splitlines()
    assert lines[: len(expected)] == expected
    heads = [line.split(": ", 1) for line in expected if not line.startswith("  ")]
    assert [head for head, _ in heads] == [f"PASS {name}" for name in SUITES]
    assert [int(tail.split()[0]) for _, tail in heads] == [50, 100, 20, 121, 144, 8, 80, 80, 360, 3]
    # then the asympt probes
    assert lines[len(expected):] == [
        "PASS asympt d=2 n_terms=2: status=ok observed=1.0070 expected=1.0",
        "PASS asympt d=2 n_terms=3: status=ok observed=2.0092 expected=2.0",
        "PASS asympt d=2 n_terms=4: status=ok observed=3.0134 expected=3.0",
        "PASS asympt d=3 n_terms=2: status=ok observed=0.5121 expected=0.5",
        "PASS asympt d=3 n_terms=3: status=ok observed=1.5091 expected=1.5",
        "PASS asympt d=3 n_terms=4: status=ok observed=2.5072 expected=2.5",
        "PASS asympt d=5 n_terms=2: status=ok observed=-0.4635 expected=-0.5",
        "PASS asympt d=5 n_terms=3: status=ok observed=0.5242 expected=0.5",
        "PASS asympt d=5 n_terms=4: status=ok observed=1.5142 expected=1.5",
    ]


def test_verify_all_json(capsys):
    code, out, err = run_cli(capsys, "verify", "all", "--format", "json")
    assert code == 0 and err == ""
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 19
    suites, probes = records[: len(SUITES)], records[len(SUITES):]
    assert [r["identity"] for r in suites] == list(SUITES)
    assert all(r["passed"] for r in suites)
    assert [(r["d"], r["n_terms"]) for r in probes] == [(d, k) for d in (2, 3, 5) for k in (2, 3, 4)]
    assert all(r["status"] == "ok" and r["relative_deviation"] <= 0.2 for r in probes)


def test_verify_all_fails_on_any_failing_suite_or_probe(capsys, monkeypatch):
    # a failing suite does not stop the rest: every suite and probe still reports
    failing = VerificationReport("lemmas", [])
    failing.record({"t": 0}, 1, 2)
    monkeypatch.setattr(opercalc, "verify_lemmas", lambda: failing)
    code, out, _ = run_cli(capsys, "verify", "all")
    assert code == 1
    assert "FAIL lemmas: 1 points ()" in out.splitlines()
    assert len([line for line in out.splitlines() if line.startswith("PASS ")]) == 9 + 9
    # a probe's deviation is held to MAX_DEVIATION with <=, as `asympt` holds it:
    # at a gate equal to the d = 2 probe's deviation it passes, and d = 5's fails
    monkeypatch.undo()
    gate = asymptotics.remainder_order(2, 2).relative_deviation
    monkeypatch.setattr(asymptotics, "MAX_DEVIATION", gate)
    code, out, _ = run_cli(capsys, "verify", "all")
    lines = out.splitlines()
    assert code == 1
    assert lines[-9].startswith("PASS asympt d=2 n_terms=2:")
    assert lines[-3].startswith("FAIL asympt d=5 n_terms=2:")
    assert run_cli(capsys, "asympt", "--d", "2", "--n-terms", "2", f"--max-dev={gate!r}")[0] == 0


def test_verify_unknown_target_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "verify", "s2")
    assert code == 2


def test_asympt_ok(capsys):
    code, out, _ = run_cli(capsys, "asympt", "--d", "3", "--n-terms", "3")
    assert code == 0
    record = json.loads(out)
    assert record["status"] == "ok"
    assert record["expected_order"] == 1.5
    assert record["relative_deviation"] < 0.2
    # terms summed at t0 and at t0/2: the smaller time needs more
    first, second = record["terms"]
    assert 0 < first < second
    # the keys come in the estimate's field order
    assert list(record) == [
        "d", "n_terms", "t_values", "observed_order", "expected_order", "relative_deviation",
        "status", "terms",
    ]


def test_asympt_circle(capsys):
    code, out, _ = run_cli(capsys, "asympt", "--d", "1", "--n-terms", "2")
    assert code == 0
    record = json.loads(out)
    assert record["status"] == "beyond-all-orders" and record["terms"] == []


def test_asympt_impossible_deviation_fails(capsys):
    code, _, _ = run_cli(capsys, "asympt", "--d", "3", "--n-terms", "3", "--max-dev", "0.0001")
    assert code == 1


@pytest.mark.parametrize("max_dev", ["nan", "inf", "-inf", "-0.1"])
def test_asympt_max_dev_must_be_finite_and_nonnegative(capsys, max_dev):
    code, out, err = run_cli(capsys, "asympt", "--d", "3", "--n-terms", "3", f"--max-dev={max_dev}")
    assert code == 2 and out == ""
    assert "--max-dev" in err


def test_asympt_bad_t0_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "asympt", "--d", "2", "--n-terms", "2", "--t0", "1.5")
    assert code == 2 and "error:" in err


def test_asympt_bad_truncation_cap_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("HEATSPHERE_MAX_K", "abc")
    code, _, err = run_cli(capsys, "asympt", "--d", "2", "--n-terms", "2")
    assert code == 2 and "HEATSPHERE_MAX_K" in err


def test_asympt_coefficient_beyond_double_range_is_input_error():
    # a_{296,2} is the first coefficient of d = 2 that a double cannot hold
    proc = subprocess.run(
        [sys.executable, "-m", "heatsphere", "asympt", "--d", "2", "--n-terms", "300"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: a_(n,d) overflows a double at d=2, n=296\n"


@pytest.mark.parametrize("d, n_terms, t0, t", [(160, 5, "0.0002", "0.0001"), (400, 1, "0.01", "0.01")])
def test_asympt_power_of_t_beyond_double_range_is_input_error(d, n_terms, t0, t):
    proc = subprocess.run(
        [sys.executable, "-m", "heatsphere", "asympt", "--d", str(d), "--n-terms", str(n_terms),
         "--t0", t0],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"error: t^(n-d/2) overflows a double at d={d}, n=0, t={t}\n"


def test_asympt_high_dimension_prints_a_verdict():
    proc = subprocess.run(
        [sys.executable, "-m", "heatsphere", "asympt", "--d", "200", "--n-terms", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode in (0, 1)
    assert "Traceback" not in proc.stderr
    (line,) = proc.stdout.splitlines()
    assert json.loads(line)["d"] == 200


def tree_parsers() -> dict:
    """command -> the parser that the whole tree holds for it."""
    return _parser()._subparsers._group_actions[0].choices


def test_formula_choices_are_the_route_table():
    for compute in (_command_parser("compute"), tree_parsers()["compute"]):
        (formula,) = [action for action in compute._actions if action.dest == "formula"]
        assert tuple(formula.choices) == invariants.FORMULAS == ("auto", *invariants.ROUTES)


@pytest.mark.parametrize("name", list(COMMANDS))
def test_command_parser_is_the_trees(name):
    assert list(tree_parsers()) == list(COMMANDS)
    alone, in_tree = _command_parser(name), tree_parsers()[name]
    assert alone.format_help() == in_tree.format_help()
    assert alone.format_usage() == in_tree.format_usage()


def test_a_command_builds_no_tree(capsys, monkeypatch):
    builds = []
    monkeypatch.setattr(cli, "_parser", lambda: builds.append(1) or _parser())
    assert run_cli(capsys, "compute", "--n", "1", "--d", "3")[0] == 0
    assert run_cli(capsys, "verify", "sharpness")[0] == 0
    assert len(builds) == 0
    assert run_cli(capsys, "compute", "--n", "1", "--d", "3", "--bogus")[0] == 2
    assert len(builds) == 1


# argvs whose namespace or error the parser of one command and the whole tree must agree on
PARSE_CORPUS = [
    ("compute", "--n", "0..32", "--d", "1..72"),
    ("compute", "--n=0..3", "--d", "2", "--omega", "9", "--formula", "general", "--format", "csv"),
    ("verify", "s1g", "--n", "1..2", "--offset=-1..1", "--x", "0,1/2", "--format", "json"),
    ("verify", "all"),
    ("asympt", "--d", "3", "--n-terms", "3", "--t0", "0.01", "--max-dev", "0.5"),
    ("--help",),
    ("-h", "compute"),
    ("compute", "--help"),
    ("verify", "s1", "-h"),
    ("asympt", "--help", "--bogus"),
    ("compute", "--n", "1"),
    ("asympt", "--n-terms", "3"),
    ("verify",),
    ("compute", "--n", "1", "--d", "3", "--format", "xml"),
    ("verify", "s2"),
    ("compute", "--n", "3..1", "--d", "2"),
    ("verify", "s1", "--n", "x"),
    ("compute", "--n", "1", "--d", "2", "--bogus"),
    ("verify", "s1", "extra"),
    ("asympt", "--d", "3", "--n-terms", "3", "--t0"),
    (),
    ("bogus", "--n", "1"),
    ("comp", "--n", "1", "--d", "3"),
    ("--", "compute", "--n", "1", "--d", "3"),
    ("compute", "--n", "1", "--d", "3", "--"),
    ("asympt", "--d", "3", "--n-terms", "2", "--"),
    ("verify", "sharpness", "--"),
    ("verify", "sharpness", "--", "--"),
    ("verify", "--", "sharpness", "--"),
    ("asympt", "--d", "3", "--n-terms", "2", "--", "--"),
    ("compute", "--", "--n", "1", "--d", "3"),
    ("compute", "--n", "1", "--d", "3", "--", "4"),
    ("compute", "--n", "1", "--d", "3", "--form", "csv"),
    ("compute", "--n", "1", "--d", "3", "--o", "4"),
    ("verify", "vychet", "--j-m", "5"),
    ("asympt", "--d", "3", "--n-t", "3"),
    ("compute", "--n", "1", "--d", "3", "--f", "csv"),
    ("compute", "--n", "0", "--d", BIG),
]


def parsed_by_main(argv, capsys, monkeypatch) -> tuple:
    """The namespaces main hands the runners of argv, its exit code and its output."""
    seen = []
    for name, (help_text, arguments, _) in COMMANDS.items():
        runner = lambda args: seen.append(args) or (0, [])  # noqa: E731
        monkeypatch.setitem(COMMANDS, name, (help_text, arguments, runner))
    code = main(list(argv))
    return (seen, code, *capsys.readouterr())


def tree_parse(argv):
    # the tree reports a "--" that a command's parser leaves over, where _parse takes an argv's
    # one "--", at its end, as the end of the options: the tree is asked about argv without it
    lone_trailing = argv[-1:] == ["--"] and argv.count("--") == 1
    return _parser().parse_args(argv[:-1] if lone_trailing else argv)


@pytest.mark.parametrize("argv", PARSE_CORPUS, ids=lambda argv: " ".join(argv) or "none")
def test_command_parser_reads_argv_as_the_tree_does(argv, capsys, monkeypatch):
    alone = parsed_by_main(argv, capsys, monkeypatch)
    monkeypatch.setattr(cli, "_parse", tree_parse)
    assert alone == parsed_by_main(argv, capsys, monkeypatch)


@pytest.mark.parametrize(
    "command",
    [("compute", "--n", "1", "--d", "3"), ("asympt", "--d", "3", "--n-terms", "2")],
    ids=lambda command: command[0],
)
def test_a_trailing_double_dash_ends_the_options(capsys, command):
    code, out, err = run_cli(capsys, *command, "--")
    assert code == 0 and (code, out, err) == run_cli(capsys, *command)
    # a "--" before the flags still makes them positionals, which no command takes
    code, out, err = run_cli(capsys, command[0], "--", *command[1:])
    assert code == 2 and out == "" and "error:" in err


def test_one_process_runs_commands_back_to_back(capsys):
    # each command's parser is built once per process; no call may see another's flags
    assert all(_command_parser(name) is _command_parser(name) for name in COMMANDS)
    code, out, _ = run_cli(capsys, "compute", "--n", "1", "--d", "3")
    assert code == 0 and json.loads(out)["value"] == {"num": "1", "den": "4", "pi_half": 1}
    code, out, _ = run_cli(capsys, "verify", "s1", "--n", "1..2", "--offset", "0")
    assert code == 0 and out.startswith("PASS s1: 4 points (n in 1..2, omega in 2n+0..2n+0)")
    code, out, _ = run_cli(capsys, "asympt", "--d", "3", "--n-terms", "3")
    assert code == 0 and json.loads(out)["status"] == "ok"
    code, out, _ = run_cli(capsys, "verify", "s1")
    assert code == 0 and out.startswith("PASS s1: 50 points (n in 1..5, omega in 2n+0..2n+4)")
    code, out, _ = run_cli(capsys, "compute", "--n", "0..1", "--d", "2", "--format", "csv")
    assert code == 0 and out.splitlines()[2].startswith("1,2,,even,1,3,")


def exits_cleanly_into_a_closed_pipe(argv, first):
    """Run the CLI, read its first line, close the pipe; it must still exit 0."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "heatsphere", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    assert proc.stdout.readline().startswith(first)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0
    assert "Traceback" not in err and "BrokenPipeError" not in err


CLOSED_PIPE_BOX = ["compute", "--n", "0..200", "--d", "1..20", "--format"]
# each compute format -> the start of its first line
FIRST_LINES = {"json": '{"n": 0, ', "csv": "n,d,omega,route,", "markdown": "n \\ d "}


@pytest.mark.parametrize("fmt", FIRST_LINES)
def test_compute_into_a_closed_pipe_exits_cleanly(fmt):
    # every cell is computed before the first line, so a reader leaving early
    # cuts the output only: no traceback, exit 0
    exits_cleanly_into_a_closed_pipe([*CLOSED_PIPE_BOX, fmt], FIRST_LINES[fmt])


def test_verify_all_into_a_closed_pipe_exits_cleanly():
    # every suite runs before anything is written, and all of them pass
    exits_cleanly_into_a_closed_pipe(["verify", "all"], f"PASS {next(iter(SUITES))}: ")


def main_into_a_closed_stdout(argv, monkeypatch):
    # stdout is a pipe whose reader has already left, so the write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as closed:
        monkeypatch.setattr(sys, "stdout", closed)
        return main(argv)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["verify", "s1", "--n", "1", "--offset=-1..-1"], 1),
        (["asympt", "--d", "3", "--n-terms", "3", "--max-dev", "0.0001"], 1),
        (["compute", "--n", "0..3", "--d", "2"], 0),
        (["compute", "--n", "0..3", "--d", "2", "--format", "csv"], 0),
    ],
    ids=["verify", "asympt", "compute", "compute-csv"],
)
def test_exit_code_survives_a_closed_stdout(argv, expected, monkeypatch):
    # main still returns the code the command computed, raising nothing
    assert main_into_a_closed_stdout(argv, monkeypatch) == expected


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open fds from /proc")
def test_a_closed_stdout_leaks_no_file_descriptor(monkeypatch):
    argv = ["compute", "--n", "0..3", "--d", "2"]
    assert main_into_a_closed_stdout(argv, monkeypatch) == 0  # imports and caches settle
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(5):
        assert main_into_a_closed_stdout(argv, monkeypatch) == 0
    assert len(os.listdir("/proc/self/fd")) == before


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "heatsphere", "compute", "--n", "1", "--d", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["route"] == "odd"
