import hashlib
import json
import operator
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import heatsphere
from heatsphere.asymptotics import RemainderEstimate
from heatsphere.exactnum import ExactValue, Polynomial
from heatsphere.invariants import HeatInvariantResult
from heatsphere.verification import VerificationReport, Witness

TESTS = Path(__file__).resolve().parent


def test_every_public_name_resolves_once():
    names = heatsphere.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(heatsphere, name)]
    assert missing == []


# each record type with its repr, as the frozen dataclasses before them printed it
RECORDS = {
    "ExactValue(coeff=Fraction(1, 2), pi_half=1)": ExactValue(Fraction(1, 2), 1),
    "Polynomial(coefficients=(Fraction(1, 1), Fraction(-2, 3)))": Polynomial(
        (Fraction(1), Fraction(-2, 3))
    ),
    "HeatInvariantResult(n=2, d=3, omega_used=None, route='closed', "
    "value=ExactValue(coeff=Fraction(1, 8), pi_half=1))": HeatInvariantResult(
        2, 3, None, "closed", ExactValue(Fraction(1, 8), 1)
    ),
    "RemainderEstimate(d=3, n_terms=3, t_values=(0.05, 0.025), observed_order=1.5, "
    "expected_order=1.5, relative_deviation=0.01, status='ok', terms=(40, 57))": RemainderEstimate(
        3, 3, (0.05, 0.025), 1.5, 1.5, 0.01, "ok", (40, 57)
    ),
    "Witness(parameters={'n': 1}, computed=Fraction(1, 1), expected=0)": Witness(
        {"n": 1}, Fraction(1), 0
    ),
}


@pytest.mark.parametrize("text", list(RECORDS))
def test_a_record_prints_its_fields_and_cannot_change(text):
    record = RECORDS[text]
    assert repr(record) == text
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], 0)
    with pytest.raises(AttributeError):
        record.extra = 0
    assert repr(record) == text


@pytest.mark.parametrize("text", [text for text in RECORDS if not text.startswith("Witness")])
def test_equal_records_hash_equal(text):
    # a witness holds a dict of parameters, so it is unhashable
    record = RECORDS[text]
    twin = type(record)(**record._asdict())
    assert twin == record and twin is not record and hash(twin) == hash(record)


@pytest.mark.parametrize("a, b", [
    (ExactValue(1), ExactValue(2, 1)),
    (ExactValue(1), ExactValue(1)),
    (Polynomial((Fraction(1),)), Polynomial((Fraction(2),))),
])
def test_exact_values_and_polynomials_have_no_order(a, b):
    # a tuple order would rank 1 below 2*sqrt(pi) by coefficient alone
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            compare(a, b)


def test_exact_value_normalizes_positional_and_keyword_construction():
    for value in (ExactValue(3), ExactValue(coeff=3)):
        assert type(value.coeff) is Fraction and value.coeff == Fraction(3) and value.pi_half == 0
    for value in (ExactValue(0, 1), ExactValue(coeff=0, pi_half=1), ExactValue(pi_half=1, coeff=0)):
        assert value.pi_half == 0 and value == ExactValue(Fraction(0))
    assert ExactValue(pi_half=2, coeff="1/2") == ExactValue(Fraction(1, 2), 2)
    # as dataclasses.replace did, the named tuple's _replace normalizes its result
    assert ExactValue(Fraction(1), 2)._replace(coeff=0) == ExactValue(Fraction(0))
    assert type(ExactValue(Fraction(1), 2)._replace(coeff=3).coeff) is Fraction


def test_verification_reports_never_share_their_lists():
    first, second = VerificationReport("a", []), VerificationReport("b", [])
    first.record({"n": 1}, 1, 2)
    first.notes.append("only in the first")
    assert second.failures == [] and second.notes == [] and second.points_checked == 0
    assert first.failures == [Witness({"n": 1}, 1, 2)] and first.notes == ["only in the first"]


# modules a bare `import heatsphere.cli` must not load beyond what the standard
# library it needs loads by itself, on any Python the package supports
SLOW_IMPORTS = {"dataclasses", "inspect", "typing", "ast", "dis", "tokenize", "csv"}

BARE_IMPORT = """
import sys
import argparse, fractions, json, threading
baseline = set(sys.modules)
import heatsphere.cli
print(" ".join(sorted(set(sys.modules) - baseline)))
"""


def run_bare_python(*args):
    """The stdout bytes of `python -S ARGS` with the package from src/, which must exit 0."""
    env = {**os.environ, "PYTHONPATH": str(TESTS.parent / "src")}
    command = [sys.executable, "-S", *args]
    return subprocess.run(command, env=env, capture_output=True, check=True).stdout


def test_importing_the_cli_loads_no_slow_module():
    added = set(run_bare_python("-c", BARE_IMPORT).decode().split())
    assert "heatsphere.cli" in added
    assert added & SLOW_IMPORTS == set()


def test_a_bare_interpreter_prints_the_pinned_csv():
    # no command imports csv: the rows are formatted by the package, and their bytes,
    # "\r\n" line ends and all, stay the pinned ones
    command = "compute --n 0..32 --d 1..72 --format csv"
    digests = json.loads((TESTS / "data" / "compute_digests.json").read_text())
    out = run_bare_python("-m", "heatsphere", *command.split())
    assert hashlib.sha256(out).hexdigest() == digests[command]


BARE_CSV = """
import sys
import heatsphere.cli
code = heatsphere.cli.main(["compute", "--n", "0..3", "--d", "1..4", "--format", "csv"])
print(code, sorted({"csv", "_csv"} & set(sys.modules)))
"""


def test_compute_csv_loads_no_csv_module():
    out = run_bare_python("-c", BARE_CSV).decode()
    rows, _, last = out.rpartition("\r\n")
    assert rows.startswith("n,d,omega,route,num,den,pi_half,float") and rows.count("\r\n") == 16
    assert last == "0 []\n"
