import random
import re
import sys
import threading
import tracemalloc
from fractions import Fraction
from itertools import chain
from math import comb, factorial, lcm, perm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatsphere.exactnum import ExactValue, bernoulli, gamma_half, omega_sum
from heatsphere import invariants
from heatsphere.invariants import (
    HeatInvariantResult,
    _binomial_sum,
    _even_values,
    _general_inners,
    _general_pairs,
    _general_sums,
    _odd_values,
    heat_invariant,
    heat_invariant_closed,
    heat_invariant_even,
    heat_invariant_general,
    heat_invariant_odd,
    heat_invariant_row,
    k_table_even,
    k_table_odd,
    verify_crosscheck,
    verify_omega_stability,
    verify_sharpness,
)
from heatsphere.spectrum import eigenvalue, multiplicity, weyl_leading_term


def sqrtpi(num, den=1):
    return ExactValue(Fraction(num, den), 1)


def parity(d):
    return "odd" if d % 2 else "even"


def auto_route(ns, d):
    # the rule heat_invariant_row states for "auto", restated: the general route at omega = 2n
    # when its estimated steps are fewer than those of the parity route's cut K-table
    distinct, a = set(ns) - {0}, d // 2
    if distinct and sum(3 * n * n + a + 8 for n in distinct) < a * (min(max(distinct), a - 1) + 1):
        return "general"
    return parity(d)


def assert_auto_records(results, ns, d):
    # each record of one "auto" request carries the route the rule picks for that request
    route = auto_route(ns, d)
    assert len(results) == len(ns)
    for n, res in zip(ns, results):
        expected = ("weyl", None) if n == 0 else (route, 2 * n if route == "general" else None)
        assert (res.n, res.d, res.route, res.omega_used) == (n, d, *expected), (n, d)


def test_k_table_odd():
    # ascending coefficients of prod (u - b^2); K_s = c[s], no constant term
    assert k_table_odd(1) == [0, 1]
    assert k_table_odd(2) == [0, -1, 1]
    assert k_table_odd(3) == [0, 4, -5, 1]


def test_k_table_odd_is_monic():
    for alpha in range(1, 8):
        assert k_table_odd(alpha)[alpha] == 1


def product_coefficients(roots):
    # in-test oracle: ascending coefficients of prod (u - r), multiplied out one root at a time
    c = [1]
    for r in roots:
        c = [(c[k - 1] if k else 0) - r * (c[k] if k < len(c) else 0) for k in range(len(c) + 1)]
    return c


def fresh_even(nu):
    return product_coefficients((2 * i + 1) ** 2 for i in range(nu - 1))


def test_k_table_even(monkeypatch):
    # K_t = c[nu-1-t] / 4^t: K = 1; K = 1, -1/4; K = 1, -5/2, 9/16
    monkeypatch.setattr(invariants, "_even_product", [1])
    assert k_table_even(1) == [1]
    assert k_table_even(2) == [-1, 1]
    assert k_table_even(3) == [9, -10, 1]
    # the whole tables are one kept product that only grows; one below it is built apart
    assert k_table_even(9) == fresh_even(9) and invariants._even_product == fresh_even(9)
    for nu in (8, 3, 1, 9, 2):
        assert k_table_even(nu) == fresh_even(nu)
    assert invariants._even_product == fresh_even(9)
    # every table handed out is a copy: mutating one changes neither the kept product
    # nor the tables after it
    for nu in (9, 4, 12):
        c = k_table_even(nu)
        c[0] += 1
        c.append(7)
        assert k_table_even(nu) == fresh_even(nu)
    assert k_table_even(13) == fresh_even(13)


def test_k_table_even_leading_entry():
    for nu in range(1, 8):
        assert k_table_even(nu)[nu - 1] == 1


def test_k_table_top_is_the_top_of_the_full_table(monkeypatch):
    # the product is monic, so its highest coefficients are built alone; a top at or past
    # the whole table returns the whole table.  Each size asks its cut tops between whole
    # ones, and from an empty kept product, with sizes ascending, descending and shuffled,
    # whole even tables grow it, read it or fall below it
    ascending = list(range(1, 61))
    truth = {n: (product_coefficients(b * b for b in range(n)), fresh_even(n)) for n in ascending}
    for sizes in (ascending, ascending[::-1], random.Random(60).sample(ascending, 60)):
        monkeypatch.setattr(invariants, "_even_product", [1])
        for size in sizes:
            odd, even = truth[size]
            assert k_table_odd(size) == odd and k_table_even(size) == even
            for top in range(size + 2):
                assert k_table_odd(size, top) == odd[-1 - top:]
                assert k_table_even(size, top) == even[-1 - top:]
        assert invariants._even_product == fresh_even(60)


def test_a_cut_even_table_leaves_the_kept_product_alone(monkeypatch):
    # a cut table of a huge nu is built apart, so it stays linear in nu
    monkeypatch.setattr(invariants, "_even_product", [1])
    k_table_even(5)
    for nu, top in ((20_001, 3), (40, 38), (6, 4)):
        c = k_table_even(nu, top)
        assert len(c) == top + 1 and c[-1] == 1
        assert invariants._even_product == fresh_even(5)


def test_k_table_even_growth_is_thread_safe(monkeypatch):
    truth = {nu: fresh_even(nu) for nu in range(1, 61)}
    results = []
    start = threading.Barrier(8)

    def worker(seed):
        # all threads at once, each up its own ascending sizes, whole and cut tables mixed, so
        # growth overlaps growth; after each call the thread notes the kept size it sees
        rng = random.Random(seed)
        sizes = sorted(rng.sample(sorted(truth), 15))
        asks = [(nu, rng.choice([None, nu - 1, nu, nu // 2])) for nu in sizes]
        start.wait(timeout=30)
        got = []
        for nu, top in asks:
            got.append((nu, top, k_table_even(nu, top), len(invariants._even_product)))
        results.append(got)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(20):
            monkeypatch.setattr(invariants, "_even_product", [1])
            threads = [threading.Thread(target=worker, args=(8 * round_ + i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            # a lost or doubled extension leaves the kept product off a fresh one
            whole = [nu for nu, top, *_ in chain(*results[-8:]) if top is None or top >= nu - 1]
            assert invariants._even_product == truth[max(whole)]
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 160
    for asked in results:
        # the kept product only grows: one stored after a longer one would shrink it
        kept = [size for *_, size in asked]
        assert kept == sorted(kept), kept
        for nu, top, c, _ in asked:
            assert c == truth[nu][-1 - (nu - 1 if top is None else top):], (nu, top)


@pytest.mark.parametrize("k_table, root_sum", [
    (k_table_odd, lambda a: (a - 1) * a * (2 * a - 1) // 6),  # sum of b^2, b < alpha
    (k_table_even, lambda nu: (nu - 1) * (2 * nu - 3) * (2 * nu - 1) // 3),  # of (2i+1)^2, i < nu-1
])
def test_k_table_memory_follows_top_not_the_dimension(k_table, root_sum):
    # the roots are generated, never listed: a list of these 20000 roots alone took ~800 kB
    tracemalloc.start()
    try:
        c = k_table(20_000, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64_000
    assert len(c) == 3 and c[-1] == 1 and c[-2] == -root_sum(20_000)


def test_k_table_validation(monkeypatch):
    monkeypatch.setattr(invariants, "_even_product", [1])
    with pytest.raises(ValueError):
        k_table_odd(0)
    with pytest.raises(ValueError):
        k_table_even(0)
    with pytest.raises(ValueError, match="top must be nonnegative, got -1"):
        k_table_odd(3, -1)
    for nu, top in ((3, -2), (1, -1), (50, -3)):
        with pytest.raises(ValueError, match=f"top must be nonnegative, got {top}"):
            k_table_even(nu, top)
    assert invariants._even_product == [1]


class Index:  # an integer type that is not int, as numpy's are
    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


@pytest.mark.parametrize("table, name", [(k_table_odd, "alpha"), (k_table_even, "nu")])
def test_k_tables_apply_the_integer_rule(monkeypatch, table, name):
    # the size is named before its range check, and a given top before any work
    monkeypatch.setattr(invariants, "_even_product", [1])
    for args, message in (
        ((True,), f"{name} must be an integer, not bool: {name}=True"),
        ((3.0,), f"{name} must be an integer, not float: {name}=3.0"),
        ((0.5, -1), f"{name} must be an integer, not float: {name}=0.5"),
        ((3, 1.0), "top must be an integer, not float: top=1.0"),
        ((3, True), "top must be an integer, not bool: top=True"),
        ((3, "1"), "top must be an integer, not str: top='1'"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            table(*args)
    assert invariants._even_product == [1]
    assert table(Index(4), Index(1)) == table(4, 1) and table(Index(4)) == table(4)


def test_verify_sweeps_apply_the_integer_rule_to_their_box():
    # each span end and sharpness point is an integer before any point is evaluated
    for call, message in (
        (lambda: verify_crosscheck(n=(1.0, 2)), "n must be an integer, not float: n=1.0"),
        (lambda: verify_crosscheck(n=(True, 2)), "n must be an integer, not bool: n=True"),
        (lambda: verify_crosscheck(d=(2, "3")), "d must be an integer, not str: d='3'"),
        (lambda: verify_omega_stability(n=(1.5, 2)), "n must be an integer, not float: n=1.5"),
        (lambda: verify_omega_stability(d=(1, True)), "d must be an integer, not bool: d=True"),
        (lambda: verify_sharpness(((1.0, 1),)), "n must be an integer, not float: n=1.0"),
        (lambda: verify_sharpness(((1, 1), (2, 1.0))), "d must be an integer, not float: d=1.0"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()
    spans = (Index(1), Index(3)), (Index(2), Index(4))
    for sweep in (verify_crosscheck, verify_omega_stability):
        assert sweep(*spans).as_dict() == sweep((1, 3), (2, 4)).as_dict()
    points = ((Index(2), Index(3)),)
    assert verify_sharpness(points).as_dict() == verify_sharpness(((2, 3),)).as_dict()


def test_general_route_values():
    assert heat_invariant_general(1, 3, 2) == sqrtpi(1, 4)
    assert heat_invariant_general(2, 1, 4) == ExactValue(Fraction(0))
    assert heat_invariant_general(2, 5, 4) == sqrtpi(1, 6)


def test_general_route_rejects_small_omega():
    with pytest.raises(ValueError):
        heat_invariant_general(2, 3, 3)
    with pytest.raises(ValueError):
        heat_invariant_general(0, 3, 2)
    # the integer rule comes first, as in the dispatcher
    for args, message in (
        ((1, 2.5, 2), "d must be an integer, not float: d=2.5"),
        ((True, 3, 2), "n must be an integer, not bool: n=True"),
        ((1, 3, 2.0), "omega must be an integer, not float: omega=2.0"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            heat_invariant_general(*args)


@pytest.mark.parametrize(
    "route, name", [(heat_invariant_odd, "alpha"), (heat_invariant_even, "nu")]
)
@pytest.mark.parametrize("n, index", [(0, 1), (1, 0)])
def test_parity_routes_reject_nonpositive_arguments(route, name, n, index):
    with pytest.raises(ValueError, match=f"need n >= 1 and {name} >= 1, got n={n}, {name}={index}"):
        route(n, index)
    # a non-integer is named before the range check, a bool included
    with pytest.raises(ValueError, match=re.escape("n must be an integer, not bool: n=True")):
        route(True, 1)
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, not float: {name}=1.0")):
        route(n, 1.0)


def test_odd_route_values():
    assert heat_invariant_odd(1, 1) == sqrtpi(1, 4)
    assert heat_invariant_odd(1, 2) == sqrtpi(5, 48)
    # 4^0 * (6-3) / (3 * 3!) = 1/6
    assert heat_invariant_odd(3, 2) == sqrtpi(1, 6)


def test_even_route_values():
    assert heat_invariant_even(1, 1) == ExactValue(Fraction(1, 3))
    assert heat_invariant_even(2, 1) == ExactValue(Fraction(1, 15))
    assert heat_invariant_even(1, 2) == heat_invariant_general(1, 4, 2)


def test_closed_route_values():
    assert heat_invariant_closed(4, 5) == sqrtpi(1, 9)
    assert heat_invariant_closed(1, 7) == sqrtpi(7, 384)  # 945/51840 reduced
    assert heat_invariant_closed(5, 1) == ExactValue(Fraction(0))
    assert heat_invariant_closed(0, 5) == weyl_leading_term(5)


def test_closed_route_rejects_unsupported_dimension():
    with pytest.raises(ValueError):
        heat_invariant_closed(1, 4)
    with pytest.raises(ValueError, match="n must be nonnegative, got -1"):
        heat_invariant_closed(-1, 3)
    with pytest.raises(ValueError, match=re.escape("d must be an integer, not float: d=3.0")):
        heat_invariant_closed(1, 3.0)
    with pytest.raises(ValueError, match=re.escape("n must be an integer, not str: n='1'")):
        heat_invariant_closed("1", 5)


def test_closed_matches_weyl_at_zero():
    # the d = 2, 3, 5, 7 one-liners extend to n = 0
    for d in (2, 3, 5, 7):
        n1 = heat_invariant_closed(1, d)
        assert heat_invariant_closed(0, d) == weyl_leading_term(d)
        assert n1  # sanity: nonzero where expected


def test_closed_d5_vanishes_at_n6():
    assert heat_invariant_closed(6, 5) == ExactValue(Fraction(0))
    assert heat_invariant_odd(6, 2) == ExactValue(Fraction(0))


def test_dispatcher_routes():
    res = heat_invariant(0, 5)
    assert (res.route, res.value, res.omega_used) == ("weyl", sqrtpi(1, 32), None)
    res = heat_invariant(1, 3)
    assert (res.route, res.value) == ("odd", sqrtpi(1, 4))
    res = heat_invariant(2, 2, omega=4)
    assert (res.route, res.omega_used) == ("general", 4)
    assert res.value == ExactValue(Fraction(1, 15))
    res = heat_invariant(3, 4)
    assert res.route == "even"
    res = heat_invariant(2, 7, formula="closed")
    assert res.route == "closed"
    res = heat_invariant(4, 1)
    assert (res.route, res.value) == ("odd", ExactValue(Fraction(0)))


def test_dispatcher_general_defaults_to_minimal_omega():
    res = heat_invariant(3, 4, formula="general")
    assert res.omega_used == 6
    assert res.value == heat_invariant_general(3, 4, 6)


def test_dispatcher_weyl_takes_precedence_at_zero():
    # n = 0 comes before every route check, in a cell and in a row
    cells = [
        heat_invariant(0, 3, omega=7),
        heat_invariant(0, 2, formula="odd"),
        heat_invariant(0, 3, formula="even"),
        heat_invariant(0, 4, formula="closed"),
        heat_invariant(0, 5, formula="general"),
        heat_invariant(0, 3, omega=-5),
    ]
    for res in cells + heat_invariant_row([0, 0], 4, formula="closed"):
        assert res.route == "weyl" and res.omega_used is None
        assert res.value == weyl_leading_term(res.d)


def test_dispatcher_validation():
    with pytest.raises(ValueError):
        heat_invariant(1, 2, formula="odd")
    with pytest.raises(ValueError):
        heat_invariant(1, 3, formula="even")
    with pytest.raises(ValueError):
        heat_invariant(1, 3, omega=2, formula="odd")
    with pytest.raises(ValueError):
        heat_invariant(1, 3, formula="nope")
    with pytest.raises(ValueError):
        heat_invariant(-1, 3)
    with pytest.raises(ValueError):
        heat_invariant(1, 0)
    with pytest.raises(ValueError):
        heat_invariant(True, 3)
    with pytest.raises(ValueError):
        heat_invariant(2, True)


def test_result_is_frozen():
    res = heat_invariant(1, 3)
    assert isinstance(res, HeatInvariantResult)
    with pytest.raises(AttributeError):
        res.route = "other"


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=6), st.integers(min_value=2, max_value=9))
def test_pi_half_tracks_parity(n, d):
    # zeros normalize pi_half away; a(6, 5) = 0 really does occur in this box
    value = heat_invariant(n, d).value
    assert value.pi_half == (d % 2 if value else 0)


def test_cross_formula_equality_small_box():
    for n in range(1, 5):
        for alpha in range(1, 4):
            assert heat_invariant_general(n, 2 * alpha + 1, 2 * n) == heat_invariant_odd(n, alpha)
        for nu in range(1, 4):
            assert heat_invariant_general(n, 2 * nu, 2 * n) == heat_invariant_even(n, nu)
    # every entry of the route table, at each d it serves, and today's error at the others
    ns = list(range(1, 10))
    refusals = {
        "odd": "odd route needs odd d, got {d}",
        "even": "even route needs even d, got {d}",
        "closed": "no closed form for d={d}; supported: 1, 2, 3, 5, 7",
    }
    for d in range(1, 14):
        general = [heat_invariant_general(n, d, 2 * n) for n in ns]
        assert invariants.ROUTES["general"](ns, d) == general
        serves = {"general", parity(d)} | ({"closed"} if d in (1, 2, 3, 5, 7) else set())
        for name, kernel in invariants.ROUTES.items():
            if name in serves:
                assert list(kernel(ns, d)) == general, (name, d)
            else:
                with pytest.raises(ValueError, match=re.escape(refusals[name].format(d=d))):
                    list(kernel(ns, d))


@pytest.mark.parametrize(
    "n, d",
    [
        (20, 40),  # even, n = nu: the correction's binomial is C(0, 0)
        (25, 30),  # even, n > nu
        (12, 40),  # even, n < nu: no correction at all
        (14, 61),  # odd, alpha > n: the K-table sum starts at s = alpha - n
        (9, 101),  # odd, alpha > n
    ],
)
def test_parity_route_matches_general_route_on_mid_cells(n, d):
    # named: "auto" takes (9, 101) to the general route itself
    assert heat_invariant(n, d, formula=parity(d)).value == heat_invariant_general(n, d, 2 * n)


def test_omega_stability_small_box():
    for n in range(1, 4):
        for d in range(1, 5):
            base = heat_invariant_general(n, d, 2 * n)
            for omega in range(2 * n, 3 * n + 5):
                assert heat_invariant_general(n, d, omega) == base


def test_sharpness_below_bound():
    points = ((1, 1), (2, 1), (2, 3), (3, 4), (4, 7), (5, 10))
    for n, d in points:
        assert _general_sums(n, d, [2 * n - 1]) != [heat_invariant_general(n, d, 2 * n)]
    # verify_sharpness reads the general route's core directly, below its bound
    assert verify_sharpness(points).passed


def test_omega_sweep_witnesses_are_the_exact_values(monkeypatch):
    # the sweep compares the route's integer pairs; a point that fails still files the two
    # ExactValues, with the text the sweep printed when it compared those values themselves
    original = invariants._general_inners

    def wrong_h3(n, d, omega):
        for j, h in enumerate(original(n, d, omega)):
            yield h + 1 if j == 3 else h

    monkeypatch.setattr(invariants, "_general_inners", wrong_h3)
    report = verify_omega_stability((1, 3), (1, 4))
    assert report.points_checked == 72 and len(report.failures) == 72
    texts = {tuple(w.parameters.values()): (str(w.computed), str(w.expected)) for w in report.failures}
    assert texts[1, 1, 3] == ("-5/64*sqrt(pi)", "0")
    assert texts[2, 1, 5] == ("99/512*sqrt(pi)", "9/128*sqrt(pi)")
    assert texts[1, 2, 4] == ("-11/12", "1/3")
    for w in report.failures:
        n, d, omega = w.parameters["n"], w.parameters["d"], w.parameters["omega"]
        assert [w.computed, w.expected] == _general_sums(n, d, [omega, 2 * n])
    assert all(isinstance(side, ExactValue) for w in report.failures for side in w[1:])


@pytest.mark.parametrize("n", range(1, 6))
def test_one_inner_pass_serves_every_omega(n):
    # omega = 2n - 1 included, where the value differs from the rest
    omegas = range(2 * n - 1, 3 * n + 5)
    for d in range(1, 7):
        assert _general_sums(n, d, omegas) == [_general_sums(n, d, [omega])[0] for omega in omegas]


def test_mckean_singer_oracle():
    # a_1 = d(d-1)/6 * a_0, classically; independent of every route here
    for d in range(2, 9):
        expected = weyl_leading_term(d) * Fraction(d * (d - 1), 6)
        assert heat_invariant(1, d).value == expected


def test_verify_sweeps_pass():
    assert verify_crosscheck((1, 4), (2, 8)).passed
    assert verify_omega_stability((1, 3), (1, 5)).passed
    report = verify_sharpness()
    assert report.passed and len(report.notes) == 3


def test_closed_d2_bernoulli_sum_spot_values():
    # n = 3 by hand: (1/(6*64)) * [r=0: 2 ... ] = 4/63... keep to the
    # cross-check instead: equality with the even route
    for n in range(1, 11):
        assert heat_invariant_closed(n, 2) == heat_invariant_even(n, 1)


@pytest.mark.parametrize(
    "n, d",
    [
        (3, 61), (5, 201),  # odd: only the top of the K-table is built
        (4, 60), (6, 90),  # even with n < nu: the same, and no correction
        (14, 20), (18, 24),  # even with n >= nu: the Bernoulli correction runs
    ],
)
def test_parity_equals_general_where_the_kernels_cut_work(n, d):
    # named: "auto" takes the four cut cells to the general route
    general = heat_invariant_general(n, d, 2 * n)
    assert heat_invariant(n, d, formula=parity(d)).value == general
    assert heat_invariant_row([n], d, formula=parity(d))[0].value == general


def test_general_sum_big_cell_is_exact():
    # one deep cell exercised directly so regressions in the integer core
    # cannot hide behind the sweeps
    value = heat_invariant_general(8, 11, 16)
    assert value == heat_invariant_odd(8, 5)
    assert value.pi_half == 1 and value.coeff != 0


def paper_inners(n, d, omega):
    # the double sum's inner sum as the paper writes it, before any identity:
    # inner_j = sum_{k=1..j} (-1)^k C(2j+d-1, j-k) mu_k lambda_k^(j+n)
    return [
        sum(
            (-1) ** k * comb(2 * j + d - 1, j - k) * multiplicity(k, d) * eigenvalue(k, d) ** (j + n)
            for k in range(1, j + 1)
        )
        for j in range(omega + 1)
    ]


@pytest.mark.parametrize("n", range(1, 11))
def test_general_inners_are_the_papers_double_sum(n):
    # the route yields the paper's inner_j without its factor (2j+d-1)!/(d-1)!
    for d in range(1, 26):
        yielded = _general_inners(n, d, 3 * n + 4)
        scaled = [h * perm(2 * j + d - 1, 2 * j) for j, h in enumerate(yielded)]
        assert scaled == paper_inners(n, d, 3 * n + 4)


def one_eigenvalue_inners(n, d, omega):
    # the general route's signed h_j with h stepped by one eigenvalue per j, one pass over m each
    h, inners = [1] + [0] * n, [0]
    for j in range(1, omega + 1):
        lam, acc = j * (j + d - 1), 1
        for m in range(1, n + 1):
            h[m] = acc = h[m] + lam * acc
        inners.append(-h[n] if j % 2 else h[n])
    return inners


def plain_horner_pairs(n, d, omegas):
    # the general route's pairs with T as one ascending Horner pass, the whole weight on each term
    inners, pairs = one_eigenvalue_inners(n, d, max(omegas)), []
    for omega in omegas:
        total, weight = 0, 1
        for j in range(omega + 1):
            total = total * ((j + n) * (2 * j + d)) + inners[j] * weight
            weight *= (omega - j) * (2 * j + d)
        pairs.append(((-1) ** n * total, 2**omega * factorial(omega) * factorial(omega + n)))
    return pairs


def test_general_kernel_references():
    # lambda_j = j (j + 2) at d = 3: 3, 8, 15
    assert one_eigenvalue_inners(1, 3, 3) == [0, -3, 11, -26]  # -h_1(3), h_1(3, 8), -h_1(3, 8, 15)
    assert one_eigenvalue_inners(2, 3, 2) == [0, -9, 97]  # -h_2(3), h_2(3, 8) = 9 + 24 + 64
    # T = -3 * 2 * 3 * (3 * 7) + 11 * 2 * 1 * (3 * 5) = -48, and a_{1,3} = weyl(3) 48/48
    assert plain_horner_pairs(1, 3, [2]) == [(48, 48)]


@pytest.mark.parametrize("n", range(1, 9))
def test_paired_inners_and_blocked_horner_equal_the_references(n):
    # every omega 1..40: both parities of the pairs' start, one block, whole and cut blocks
    for d in (1, 2, 5, 24):
        for omega in range(1, 41):
            assert list(_general_inners(n, d, omega)) == one_eigenvalue_inners(n, d, omega)
            assert _general_pairs(n, d, [omega]) == plain_horner_pairs(n, d, [omega])
        for top in (39, 40):  # one inner pass of either parity serves every lower omega
            omegas = range(1, top + 1)
            assert _general_pairs(n, d, omegas) == plain_horner_pairs(n, d, omegas)


@pytest.mark.parametrize("n, d, omega", [(79, 21, 158), (60, 421, 120), (31, 333, 62)])
def test_paired_inners_and_blocked_horner_at_deep_cells(n, d, omega):
    omegas = [omega, omega + 1, omega + 5]  # both parities; the last block cut short
    for w in omegas:
        assert list(_general_inners(n, d, w)) == one_eigenvalue_inners(n, d, w)
    assert _general_pairs(n, d, omegas) == plain_horner_pairs(n, d, omegas)


def gamma_form(n, d, omega):
    # the general route as the paper writes it, before the duplication formula:
    # 2 (-1)^n Gamma(omega + d/2 + 1) sum_j inner_j / ((omega-j)! (j+n)! (2j+d)!)
    total = omega_sum(omega, n, d, paper_inners(n, d, omega))
    return 2 * (-1) ** n * gamma_half(2 * omega + d + 2) * total


@pytest.mark.parametrize("n", range(1, 9))
def test_general_sums_equal_the_gamma_form(n):
    omegas = range(2 * n - 1, 3 * n + 5)
    for d in range(1, 61):
        assert _general_sums(n, d, omegas) == [gamma_form(n, d, omega) for omega in omegas]


@pytest.mark.parametrize("n, d", [(1, 1201), (3, 20001), (11, 999)])
def test_general_sums_equal_the_gamma_form_at_large_d(n, d):
    assert _general_sums(n, d, [2 * n]) == [gamma_form(n, d, 2 * n)]


def test_inner_sum_weights_are_the_divided_difference_weights():
    # mu_k (d-1)! prod_{i<=j, i!=k} (lambda_k - lambda_i) = (-1)^(j-k) (j-k)! (j+k+d-1)!,
    # which makes inner_j a divided difference of x^(j+n) over lambda_0..lambda_j
    for d in range(1, 21):
        for j in range(1, 15):
            for k in range(1, j + 1):
                lam = eigenvalue(k, d)
                gaps = prod(lam - eigenvalue(i, d) for i in range(j + 1) if i != k)
                expected = (-1) ** (j - k) * factorial(j - k) * factorial(j + k + d - 1)
                assert multiplicity(k, d) * factorial(d - 1) * gaps == expected


# the parity cells of the benchmark's deep pool: anchors (n, d) with the
# variants (n + i, d + 2i), i = 0, 1, 2; even cells reach the Bernoulli
# correction, odd cells the top of a long K-table
DEEP_EVEN = (
    (60, 80), (75, 100), (90, 126), (105, 150), (120, 170),
    (135, 196), (150, 220), (170, 250), (200, 290), (238, 350),
)
DEEP_ODD = (
    (20, 301), (30, 331), (40, 361), (50, 391), (60, 421),
    (50, 461), (40, 511), (30, 581), (20, 701), (10, 997),
)


@pytest.mark.parametrize("n, d", DEEP_EVEN + DEEP_ODD)
def test_general_route_checks_every_deep_parity_cell(n, d):
    for i in range(3):
        cell = n + i, d + 2 * i
        parity_value = heat_invariant(*cell, formula=parity(cell[1])).value
        assert heat_invariant_general(*cell, 2 * cell[0]) == parity_value


def test_row_matches_cells_exactly():
    # d = 1 and d = 2 are edge rows; n < nu, n = nu and n > nu all occur.  A row and each of
    # its cells are separate requests: a cell may take the general route where its row takes
    # the parity route, so the values agree and each record names its own request's route
    ns = range(41)
    switched = 0
    for d in range(1, 61):
        row = heat_invariant_row(ns, d)
        cells = [heat_invariant(n, d) for n in ns]
        assert [r.value for r in row] == [c.value for c in cells], d
        assert_auto_records(row, ns, d)
        for n, cell in zip(ns, cells):
            assert_auto_records([cell], [n], d)
        switched += sum(r.route != c.route for r, c in zip(row, cells))
    assert switched > 0


@pytest.mark.parametrize("d", [2, 4])
def test_tall_row_matches_cells(d):
    assert heat_invariant_row(range(121), d) == [heat_invariant(n, d) for n in range(121)]


@pytest.mark.parametrize("d", [1, 2, 3, 8, 9, 40, 61])
def test_sparse_row_matches_cells(d):
    # at d = 61 the cell n = 7 takes the general route, and the row the odd route
    ns = [31, 0, 7, 7]
    row = heat_invariant_row(ns, d)
    cells = [heat_invariant(n, d) for n in ns]
    assert [r.value for r in row] == [c.value for c in cells]
    assert_auto_records(row, ns, d)
    for n, cell in zip(ns, cells):
        assert_auto_records([cell], [n], d)


def test_row_validation():
    assert heat_invariant_row([], 4) == []
    assert heat_invariant_row([0, 0], 3) == [heat_invariant(0, 3)] * 2
    for ns, d in (([1, -1], 3), ([1, 2], 0), ([1, True], 3), ([1, 2], True)):
        with pytest.raises(ValueError):
            heat_invariant_row(ns, d)
    # every non-integer n, d or omega is rejected by name before any work, not only bool
    for n, d, omega, message in (
        (1, 2.5, None, "d must be an integer, not float: d=2.5"),
        (1, 3.0, None, "d must be an integer, not float: d=3.0"),
        (2, 3, 4.0, "omega must be an integer, not float: omega=4.0"),
        (2, 3, True, "omega must be an integer, not bool: omega=True"),
        (0.0, 3, None, "n must be an integer, not float: n=0.0"),
        (Fraction(2), 3, None, "n must be an integer, not Fraction: n=Fraction"),
        ("1", 3, None, "n must be an integer, not str: n='1'"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            heat_invariant(n, d, omega)

    assert heat_invariant(Index(2), Index(3), Index(5)) == heat_invariant(2, 3, 5)
    assert heat_invariant_row([Index(0), Index(1)], Index(4)) == heat_invariant_row([0, 1], 4)
    # d is checked before any n, so an empty row rejects it too
    for d, formula, message in (
        (0, "auto", "dimension must be positive, got 0"),
        (True, "auto", "not bool: d=True"),
        (-5, "closed", "dimension must be positive, got -5"),
    ):
        with pytest.raises(ValueError, match=message):
            heat_invariant_row([], d, formula=formula)


@pytest.mark.parametrize("d", [1, 2, 9, 40])
def test_row_builds_its_k_table_once(d, monkeypatch, capsys):
    from heatsphere.cli import main

    built = []
    for name in ("k_table_odd", "k_table_even"):
        original = getattr(invariants, name)
        monkeypatch.setattr(
            invariants, name, lambda *args, original=original: built.append(args) or original(*args)
        )
    assert main(["compute", "--n", "0..32", "--d", str(d)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 33
    assert len(built) == (0 if d == 1 else 1)


# Reference for the even route: the Bernoulli correction transcribed per p in
# Fraction arithmetic, each term over its own factorials, with the K-table
# expanded in Fractions from its roots b = 1/2, ..., nu - 3/2.  The module's
# kernel steps lcm-scaled integers along n; the two must agree exactly.


def reference_even(n, nu):
    k = [Fraction(1)]  # K_t: coefficient of z^(2nu-2-2t) in prod_b (z^2 - b^2)
    for i in range(nu - 1):
        b2 = Fraction(2 * i + 1, 2) ** 2
        k = [hi - b2 * lo for hi, lo in zip(k + [0], [0] + k)]
    h2 = Fraction(2 * nu - 1, 2) ** 2
    total = sum(
        factorial(nu - 1 - t) * k[t] * h2 ** (n - t) / factorial(n - t) for t in range(min(n, nu - 1) + 1)
    )
    correction = Fraction(0)
    for p in range(1, n + 1):
        # (-1)^(p-1) B_2p (2 - 4^p) / (2p) = T_(2p-1) (2 - 4^p) / (4^p (4^p - 1))
        bern = (-1) ** (p - 1) * bernoulli(2 * p) * (2 - 4**p) / (2 * p * 4**p)
        for t in range(max(0, nu - p), min(nu - 1, n - p) + 1):
            j = n - p - t
            correction += (-1) ** t * k[t] * h2**j * bern / (factorial(j) * factorial(p + t - nu))
    total += (-1) ** nu * 2 * correction
    return ExactValue(total / factorial(2 * nu - 1), 0)


def test_even_reference_matches_the_general_route():
    for n, d in ((1, 2), (3, 2), (2, 4), (5, 4), (4, 6), (6, 8), (5, 10)):
        assert reference_even(n, d // 2) == heat_invariant_general(n, d, 2 * n)


@pytest.mark.parametrize("d", [2, 4])
def test_even_kernel_equals_the_reference_on_tall_rows(d):
    row = heat_invariant_row(range(1, 201), d)
    assert [r.value for r in row] == [reference_even(n, d // 2) for n in range(1, 201)]
    for n in (1, 2, 3, 97, 200):
        assert heat_invariant_even(n, d // 2) == row[n - 1].value


def test_even_kernel_equals_the_reference_on_a_wide_row():
    ns = [170, 176, 177, 178, 203, 240]  # nu = 177: below, at and past nu
    row = heat_invariant_row([240, 170, 178, 177, 203, 176, 178], 354)
    expected = {n: reference_even(n, 177) for n in ns}
    assert [r.value for r in row] == [expected[n] for n in (240, 170, 178, 177, 203, 176, 178)]
    assert heat_invariant_even(203, 177) == expected[203]


@pytest.mark.parametrize("nu", [1, 2, 3, 7, 20])
def test_even_kernel_equals_the_reference_around_nu(nu):
    for n in {max(1, nu - 2), max(1, nu - 1), nu, nu + 1, nu + 5}:
        assert heat_invariant_even(n, nu) == reference_even(n, nu)


def test_crosscheck_at_large_d_runs_the_odd_kernel(monkeypatch):
    # "auto" would take every cell of this box at odd d to the general route; the crosscheck
    # names the parity route, so a wrong odd kernel must make it fail
    assert verify_crosscheck(n=(1, 4), d=(301, 304)).passed

    def wrong(alpha, ns):
        return [ExactValue(Fraction(1), 1) for _ in ns]

    monkeypatch.setattr(invariants, "_odd_values", wrong)
    report = verify_crosscheck(n=(1, 4), d=(301, 304))
    assert not report.passed
    assert {failure.parameters["d"] for failure in report.failures} == {301, 303}
    # the route table looks each kernel up on the module, for the dispatcher too
    monkeypatch.setattr(invariants, "_even_values", wrong)
    report = verify_crosscheck(n=(1, 4), d=(301, 304))
    assert {failure.parameters["d"] for failure in report.failures} == {301, 302, 303, 304}
    for d in (301, 302):
        row = heat_invariant_row([0, 1, 2], d, formula=parity(d))
        assert [r.value for r in row[1:]] == wrong(d // 2, [1, 2])


@pytest.mark.parametrize("n", range(1, 9))
def test_auto_equals_both_named_routes_on_small_cells(n):
    # d up to 200 puts the cell on either side of the rule's switch (d = 24 at n = 1)
    routes = set()
    for d in range(1, 201):
        auto = heat_invariant(n, d)
        routes.add(auto.route)
        assert auto.route == auto_route([n], d)
        assert auto.value == heat_invariant(n, d, formula=parity(d)).value, d
        assert auto.value == heat_invariant(n, d, formula="general").value, d
    assert routes == {"odd", "even", "general"}


def test_crosscheck_raises_the_general_routes_error_first():
    # the parity side goes by rows, the general side still by cells, and it runs first
    with pytest.raises(ValueError, match="general route needs n >= 1, got -1"):
        verify_crosscheck((-1, 2), (0, 1))
    with pytest.raises(ValueError, match="dimension must be positive, got 0"):
        verify_crosscheck((1, 2), (0, 1))


# The parity routes' weights as they were first written, each from factorials at its
# own index; the routes now step them from index to index, and must agree exactly.


def factorial_weights_odd(alpha, ns):
    top = min(ns[-1], alpha - 1)
    c = k_table_odd(alpha, top)
    u = [factorial(k) * c[-1 - k] * perm(2 * (alpha - k), alpha - k) << 2 * k for k in range(top + 1)]
    scale = 4**alpha * factorial(2 * alpha)
    return [ExactValue(Fraction(_binomial_sum(n, u, alpha * alpha), scale * factorial(n)), 1) for n in ns]


def factorial_weights_even(nu, ns):
    c = k_table_even(nu, min(nu - 1, ns[-1]))
    u = [factorial(t) * factorial(nu - 1 - t) * c[-1 - t] for t in range(len(c))]
    q = (2 * nu - 1) ** 2
    # F_p = (-1)^(p-1) B_2p (2 - 4^p) / (2p) as integers over their lcm L
    f = [(-1) ** (p - 1) * bernoulli(2 * p) * (2 - 4**p) / (2 * p) for p in range(1, ns[-1] + 1)]
    den = lcm(*(fp.denominator for fp in f))
    w = [0] + [int(fp * den) for fp in f]
    values = []
    for n in ns:
        m, correction = n - nu, 0
        for i in range(len(c) if m >= 0 else 0):
            # L [x^(m+1+i)] (1 + qx)^m F(x)
            w_i = sum(comb(m, j) * q**j * w[m + 1 + i - j] for j in range(m + 1))
            correction += (-1) ** i * c[i] * w_i
        total = _binomial_sum(n, u, q) * den - 2 * perm(n, nu) * correction
        values.append(ExactValue(Fraction(total, 4**n * factorial(n) * factorial(2 * nu - 1) * den), 0))
    return values


@pytest.mark.parametrize("index", range(1, 41))
def test_stepped_weights_equal_the_factorial_weights(index):
    # rows to 2 index + 3 reach t = nu - 1; single cells up to n = index cut top short of
    # alpha - 1 and nu - 1, and then meet it
    ns = list(range(1, 2 * index + 4))
    assert list(_odd_values(index, ns)) == factorial_weights_odd(index, ns)
    assert list(_even_values(index, ns)) == factorial_weights_even(index, ns)
    for n in range(1, index + 1):
        assert list(_odd_values(index, [n])) == factorial_weights_odd(index, [n]), n
        assert list(_even_values(index, [n])) == factorial_weights_even(index, [n]), n
