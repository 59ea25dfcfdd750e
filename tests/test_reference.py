"""Every value the benchmark checks, against the digests it checks them with.

`bench/reference.json` holds sha256("num/den/pi_half")[:16] for the table
cells a_{0..32, 1..72} and for the deep pool; it was recorded once and is
only read here.  Table cells are computed by rows, as `compute` does.  Deep
keys go through `heat_invariant(n, d)` with no omega.  There "auto" keeps
the pool's even cells and its general-route cells on their parity route,
which agrees with the general route exactly, and takes the odd cells at
d >= 301 to the general route at omega = 2n; so each odd cell is checked
with `formula="odd"` as well.
"""

import hashlib
import json
import math
import random
from itertools import zip_longest
from pathlib import Path

import pytest

from heatsphere import exactnum, invariants
from heatsphere.exactnum import bernoulli, bernoulli_series
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
    result = heat_invariant(n, d)
    assert digest(result.value) == REFERENCE["deep"][f"{n},{d}"]
    if d % 2 and d >= 301:
        # the odd cells: "auto" runs the general route; the odd route must give the digest too
        assert (result.route, result.omega_used) == ("general", 2 * n)
        assert digest(heat_invariant(n, d, formula="odd").value) == REFERENCE["deep"][f"{n},{d}"]
    else:
        assert (result.route, result.omega_used) == ("odd" if d % 2 else "even", None)


def exact_f(top):
    # F_p = (-1)^(p-1) B_2p (2 - 4^p) / (2p), p = 1..top
    return [(-1) ** (p - 1) * bernoulli(2 * p) * (2 - 4**p) / (2 * p) for p in range(1, top + 1)]


def test_even_rows_and_a_taller_cell_share_the_cached_bernoulli_series(monkeypatch):
    # start from an empty series; ask tops ascending, descending and between the rows
    monkeypatch.setattr(exactnum, "_series", [1])

    def check_series(top):
        lcm, w = bernoulli_series(top)
        f = exact_f(top)
        assert len(w) == top and all(wp == lcm * fp for wp, fp in zip(w, f)), top
        assert lcm % math.lcm(*(fp.denominator for fp in f)) == 0, top

    def check_rows():
        for d in range(2, 73, 2):
            for result in heat_invariant_row(range(33), d):
                assert digest(result.value) == REFERENCE["table"][f"{result.n},{d}"], (result.n, d)

    def check_tall_cell():
        assert digest(heat_invariant(240, 354).value) == REFERENCE["deep"]["240,354"]

    for top in (1, 2, 17, 32):
        check_series(top)
    check_rows()
    check_tall_cell()
    for top in (240, 120, 32, 1):
        check_series(top)
    check_rows()
    for top in (7, 241, 0, 250):
        check_series(top)
        check_rows()
    check_tall_cell()


def test_deep_even_cells_read_the_kept_k_table_in_any_order(monkeypatch):
    # the deep pool's even strata (d >= 80 and n >= d/2 + 20, which no general cell meets
    # with an even d); each pass starts from an empty kept even
    # product: descending, the first cell grows it and every later one is built apart below
    # it; ascending, every cell grows it; between the table's even rows, the rows ask cut
    # tables and whole ones that grow it or fall below it
    even = sorted((d, n) for n, d in cells("deep") if d % 2 == 0 and d >= 80 and n >= d // 2 + 20)
    assert len(even) == 30
    rows = list(range(2, 73, 2))

    def check(d, n):
        assert digest(heat_invariant(n, d).value) == REFERENCE["deep"][f"{n},{d}"], (n, d)

    def check_row(d):
        for result in heat_invariant_row(range(33), d):
            assert digest(result.value) == REFERENCE["table"][f"{result.n},{d}"], (result.n, d)

    monkeypatch.setattr(invariants, "_even_product", [1])
    for cell in reversed(even):
        check(*cell)
    monkeypatch.setattr(invariants, "_even_product", [1])
    for cell in even:
        check(*cell)
    monkeypatch.setattr(invariants, "_even_product", [1])
    shuffled = random.Random(30).sample(even, len(even))
    for d, cell in zip_longest(rows, shuffled):
        check_row(d)
        if cell:
            check(*cell)
