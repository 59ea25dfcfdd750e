"""Every value the benchmark checks, against the digests it checks them with.

`bench/reference.json` holds sha256("num/den/pi_half")[:16] for the table
cells a_{0..32, 1..72} and for the deep pool; it was recorded once and is
only read here.  Table cells are computed by rows, as `compute` does.  Deep
keys go through `heat_invariant(n, d)`, so the pool's general-route cells
are checked on their parity route, which agrees with the general route
exactly.
"""

import hashlib
import json
from pathlib import Path

import pytest

from heatsphere.invariants import heat_invariant, heat_invariant_row

REFERENCE = json.loads((Path(__file__).resolve().parents[1] / "bench" / "reference.json").read_text())


def digest(value):
    text = f"{value.coeff.numerator}/{value.coeff.denominator}/{value.pi_half}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def cells(key):
    return [tuple(map(int, cell.split(","))) for cell in REFERENCE[key]]


def test_table_cells_by_rows():
    by_d = {}
    for n, d in cells("table"):
        by_d.setdefault(d, []).append(n)
    assert len(by_d) == 72 and sum(map(len, by_d.values())) == 2376
    for d, ns in by_d.items():
        for result in heat_invariant_row(ns, d):
            assert digest(result.value) == REFERENCE["table"][f"{result.n},{d}"], (result.n, d)


@pytest.mark.parametrize("n, d", cells("deep"))
def test_deep_pool_cell(n, d):
    assert digest(heat_invariant(n, d).value) == REFERENCE["deep"][f"{n},{d}"]
