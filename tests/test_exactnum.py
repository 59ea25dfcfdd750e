import math
import random
import re
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from heatsphere import exactnum
from heatsphere.exactnum import (
    ExactValue,
    Polynomial,
    alternating_binomial_sum,
    bernoulli,
    bernoulli_series,
    gamma_half,
    omega_sum,
)

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20
)


def test_gamma_half_values():
    assert gamma_half(1) == ExactValue(Fraction(1), 1)
    assert gamma_half(2) == ExactValue(Fraction(1), 0)
    assert gamma_half(5) == ExactValue(Fraction(3, 4), 1)
    assert gamma_half(9) == ExactValue(Fraction(105, 16), 1)  # Gamma(9/2)


def test_gamma_half_rejects_nonpositive():
    with pytest.raises(ValueError):
        gamma_half(0)


@pytest.mark.parametrize(
    "call, value, message",
    [
        (bernoulli, True, "m must be an integer, not bool: m=True"),
        (bernoulli, 2.0, "m must be an integer, not float: m=2.0"),
        (bernoulli, "2", "m must be an integer, not str: m='2'"),
        (gamma_half, True, "m must be an integer, not bool: m=True"),
        (gamma_half, 3.0, "m must be an integer, not float: m=3.0"),
        (gamma_half, None, "m must be an integer, not NoneType: m=None"),
        (bernoulli_series, 2.0, "top must be an integer, not float: top=2.0"),
        (bernoulli_series, False, "top must be an integer, not bool: top=False"),
    ],
)
def test_bernoulli_and_gamma_half_take_only_integers(call, value, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call(value)


class Index:
    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_bernoulli_and_gamma_half_take_an_index_type():
    assert bernoulli(Index(4)) == Fraction(-1, 30)
    assert gamma_half(Index(5)) == ExactValue(Fraction(3, 4), 1)
    assert bernoulli_series(Index(3)) == bernoulli_series(3)


@given(st.integers(min_value=1, max_value=2000))
def test_gamma_half_recurrence(m):
    # Gamma(m/2 + 1) = (m/2) Gamma(m/2)
    assert gamma_half(m + 2) == gamma_half(m) * Fraction(m, 2)


def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert all(bernoulli(m) == 0 for m in range(3, 25, 2))


def akiyama_tanigawa(n):
    # second, in-test oracle; this triangle scheme produces B_1 = +1/2,
    # everything else agrees with the recurrence convention
    row = [Fraction(1, m + 1) for m in range(n + 1)]
    for j in range(1, n + 1):
        row = [(row[m] - row[m + 1]) * (m + 1) for m in range(n + 1 - j)]
    return row[0]


def test_bernoulli_rejects_negative_index():
    with pytest.raises(ValueError, match="bernoulli of negative index -1"):
        bernoulli(-1)


def test_bernoulli_against_akiyama_tanigawa():
    for m in range(25):
        expected = -akiyama_tanigawa(1) if m == 1 else akiyama_tanigawa(m)
        assert bernoulli(m) == expected


def brent_harvey(size):
    # the one-shot Brent-Harvey loop: T_1..T_(2 size - 1) at table[1..size], and the last
    # column of the triangle, c_size(k) = table[size] after pass k, at column[k - 1]
    table = [0] + [math.factorial(k) for k in range(size)]
    column = [table[size]]
    for k in range(2, size + 1):
        for j in range(k, size + 1):
            table[j] = (j - k) * table[j - 1] + (j - k + 2) * table[j]
        column.append(table[size])
    return table, column


REFERENCE, _ = brent_harvey(260)


def fresh_tangents(monkeypatch):
    # the tangent table and its kept column are one state: a reset starts both over
    monkeypatch.setattr(exactnum, "_tangents", [0, 1])
    monkeypatch.setattr(exactnum, "_column", [1])


def assert_tangent_state():
    # the kept table is a prefix of the reference, and its column is the last one built
    table, column = exactnum._tangents, exactnum._column
    assert table == REFERENCE[: len(table)]
    assert column == brent_harvey(len(table) - 1)[1]


def test_brent_harvey_reference():
    assert REFERENCE[:6] == [0, 1, 2, 16, 272, 7936]  # T_1, T_3, T_5, T_7, T_9
    assert brent_harvey(3) == ([0, 1, 2, 16], [2, 8, 16])
    for p in range(1, 60):
        assert Fraction((-1) ** (p - 1) * 2 * p * REFERENCE[p], 4**p * (4**p - 1)) == (
            akiyama_tanigawa(2 * p)
        )


@pytest.mark.parametrize(
    "tops",
    [
        list(range(1, 130)),  # one column at a time
        [3, 2, 17, 64, 65, 63, 129, 254, 255],  # in jumps, and below the top
        [62, 77, 91, 107, 121, 136, 152, 170, 202, 240],  # the deep workload's tops
        [240, None, 81, 2, 160],  # None resets: then out of order
    ],
    ids=["one-column", "jumps", "deep-tops", "after-reset"],
)
def test_tangent_table_grows_to_the_reference(monkeypatch, tops):
    fresh_tangents(monkeypatch)
    for top in tops:
        if top is None:
            fresh_tangents(monkeypatch)
            continue
        built = len(exactnum._tangents) - 1
        with exactnum._tangent_lock:
            exactnum._grow_tangents(top)
        assert len(exactnum._tangents) == max(built, top) + 1  # grown to exactly the top
        assert_tangent_state()


def test_an_interrupted_growth_leaves_table_and_column_whole(monkeypatch):
    # an exception in the middle of a column (here a KeyboardInterrupt raised from a line
    # trace of _grow_tangents) must publish neither a half-built column nor its T
    fresh_tangents(monkeypatch)
    bernoulli(40)
    lines = 0

    def tracer(frame, event, arg):
        nonlocal lines
        if frame.f_code is not exactnum._grow_tangents.__code__:
            return None
        if event == "line":
            lines += 1
            if lines == 5000:
                raise KeyboardInterrupt
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        with pytest.raises(KeyboardInterrupt):
            bernoulli(160)
    finally:
        sys.settrace(previous)
    assert len(exactnum._tangents) == 21
    assert_tangent_state()
    assert bernoulli(160) == akiyama_tanigawa(160)
    assert_tangent_state()


def test_bernoulli_table_growth(monkeypatch):
    # start from an empty tangent table so each call below has to grow it
    fresh_tangents(monkeypatch)
    assert bernoulli(24) == akiyama_tanigawa(24)
    for m in (60, 100):
        assert bernoulli(m) == akiyama_tanigawa(m)
    assert len(exactnum._tangents) == 51
    bernoulli_series(4)
    assert exactnum._tangents[:5] == [0, 1, 2, 16, 272]  # T_1, T_3, T_5, T_7
    assert_tangent_state()


@pytest.mark.parametrize("call, name", [(bernoulli_series, "top")])
@pytest.mark.parametrize("value", [-1, -3])
def test_a_negative_count_raises_after_the_tables_grew(call, name, value):
    # a negative slice bound read a tail of the grown tables before
    bernoulli_series(10)
    with pytest.raises(ValueError, match=f"{name} must be nonnegative, got {value}"):
        call(value)
    assert bernoulli_series(0)[1] == []


def test_tangent_table_growth_is_thread_safe(monkeypatch):
    truth = {m: akiyama_tanigawa(m) for m in range(0, 81, 2)}
    results = []

    def worker(seed):
        # each thread asks in its own order, so growth interleaves with reads
        order = random.Random(seed).sample(sorted(truth), len(truth))
        results.append({m: bernoulli(m) for m in order})

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(20):
            fresh_tangents(monkeypatch)
            threads = [threading.Thread(target=worker, args=(8 * round_ + i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert_tangent_state()  # a lost or doubled column leaves table and column apart
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 160 and all(got == truth for got in results)


def test_bernoulli_series_growth_is_thread_safe(monkeypatch):
    # F_p = (-1)^(p-1) B_2p (2 - 4^p) / (2p), from the in-test oracle
    f = [(-1) ** (p - 1) * akiyama_tanigawa(2 * p) * (2 - 4**p) / (2 * p) for p in range(1, 41)]
    lcm = math.lcm(*(fp.denominator for fp in f))
    results = []

    def worker(seed):
        # each thread asks its own tops in its own order, so growth interleaves with reads
        tops = random.Random(seed).sample(range(41), 12)
        results.append([(top, *bernoulli_series(top)) for top in tops])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(20):
            fresh_tangents(monkeypatch)
            monkeypatch.setattr(exactnum, "_series", [1])
            threads = [threading.Thread(target=worker, args=(8 * round_ + i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            # a lost or doubled extension leaves the kept series off its exact form
            built = len(exactnum._series) - 1
            assert_tangent_state()
            assert exactnum._series[0] == math.lcm(*(fp.denominator for fp in f[:built]))
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 160
    for asked in results:
        for top, got_lcm, w in asked:
            assert len(w) == top and [Fraction(wp, got_lcm) for wp in w] == f[:top], top
            assert got_lcm % math.lcm(*(fp.denominator for fp in f[:top])) == 0
    assert bernoulli_series(40) == (lcm, [fp.numerator * (lcm // fp.denominator) for fp in f])


def test_exact_value_zero_normalizes():
    assert ExactValue(Fraction(0), 3) == ExactValue(Fraction(0), 0)
    assert not ExactValue(Fraction(0), 3)


@pytest.mark.parametrize("coeff", [3, 0.375, "3/7", Fraction(-6, 14)])
def test_exact_value_coefficient_is_a_fraction(coeff):
    value = ExactValue(coeff, 1)
    assert type(value.coeff) is Fraction and value.coeff == Fraction(coeff)


@pytest.mark.parametrize("fraction", [Fraction(-3, 7), Fraction(5), Fraction(0)])
def test_exact_value_from_a_fraction_equals_its_int_pair(fraction):
    kept = ExactValue(fraction, 2)
    built = ExactValue(f"{fraction.numerator}/{fraction.denominator}", 2)
    assert kept.coeff is fraction
    assert kept == built and hash(kept) == hash(built)
    assert kept.pi_half == (2 if fraction else 0)


def test_exact_value_addition_rules():
    half_pi = ExactValue(Fraction(1, 2), 2)
    assert half_pi + half_pi == ExactValue(Fraction(1), 2)
    assert half_pi + ExactValue(Fraction(0), 0) == half_pi
    with pytest.raises(ValueError):
        half_pi + ExactValue(Fraction(1), 1)


def test_exact_value_division_subtracts_exponents():
    a = ExactValue(Fraction(3), 4)
    b = ExactValue(Fraction(2), 1)
    assert a / b == ExactValue(Fraction(3, 2), 3)
    assert (a / a).as_rational() == 1
    with pytest.raises(ValueError):
        b.as_rational()


exact_values = st.builds(
    ExactValue, rationals, st.integers(min_value=-3, max_value=3)
)


@given(exact_values, exact_values)
def test_exact_value_multiplication_commutes(a, b):
    assert a * b == b * a


@given(exact_values, exact_values, exact_values)
def test_exact_value_multiplication_associates(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(rationals, rationals, st.integers(min_value=-3, max_value=3))
def test_exact_value_addition_matches_rational_addition(x, y, p):
    total = ExactValue(x, p) + ExactValue(y, p)
    assert total.coeff == x + y


def test_float_conversion():
    assert float(ExactValue(Fraction(1), 2)) == pytest.approx(math.pi, rel=1e-15)
    assert float(ExactValue(Fraction(1), 1)) == pytest.approx(math.sqrt(math.pi), rel=1e-15)
    assert float(ExactValue(Fraction(-3, 4), 0)) == -0.75


def test_str_rendering():
    assert str(ExactValue(Fraction(1, 4), 1)) == "1/4*sqrt(pi)"
    assert str(ExactValue(Fraction(2), 2)) == "2*pi"
    assert str(ExactValue(Fraction(0), 0)) == "0"


polynomials = st.lists(
    st.fractions(min_value=-4, max_value=4, max_denominator=8), max_size=6
).map(Polynomial.from_coefficients)


@given(polynomials, polynomials, rationals)
def test_product_evaluates_to_the_product_of_values(a, b, x):
    product = a * b
    assert product.evaluate(x) == a.evaluate(x) * b.evaluate(x)
    # no degree is dropped, and no trailing zero is kept
    assert product.coefficients[-1:] != (0,)
    if a.coefficients and b.coefficients:
        assert product.degree == a.degree + b.degree


@given(polynomials, st.integers(min_value=0, max_value=5))
def test_power_is_repeated_product(a, m):
    acc = Polynomial((Fraction(1),))
    for _ in range(m):
        acc = acc * a
    assert a**m == acc


def test_power_rejects_negative_and_modular_exponents():
    a = Polynomial.from_coefficients([1, 1])
    with pytest.raises(ValueError):
        a**-1
    with pytest.raises(TypeError):
        pow(a, 3, 2)


def comb_transcription(m, values, start):
    return sum((-1) ** i * math.comb(m, i) * v for i, v in enumerate(values, start))


@pytest.mark.parametrize("m", range(41))
def test_alternating_binomial_sum_is_the_comb_transcription(m):
    rng = random.Random(m)
    for start in range(m + 1):
        ints = [rng.randint(-(10**9), 10**9) for _ in range(m + 1 - start)]
        fractions = [Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in ints]
        # a full pass, one past i = m (C(m, i) = 0 there), a short pass and no values
        for values in (ints, fractions, ints + [5], fractions[: len(ints) // 2], []):
            got = alternating_binomial_sum(m, iter(values), start)
            assert got == comb_transcription(m, values, start)
            assert isinstance(got, int) == all(isinstance(v, int) for v in values)


@pytest.mark.parametrize("m", range(1, 41))
def test_alternating_binomial_sum_is_the_mth_finite_difference(m):
    # zero on polynomials in i of degree below m, (-1)^m m! on i^m
    assert alternating_binomial_sum(m, (i ** (m - 1) for i in range(m + 1))) == 0
    top = alternating_binomial_sum(m, (i**m for i in range(m + 1)))
    assert top == (-1) ** m * math.factorial(m)


def omega_sum_transcription(omega, n, c, inners, ratio):
    # sum_j inner_j / (ratio^j (omega-j)! (j+n)! (2j+c)!), 1/m! = 0 for m < 0
    return sum(
        Fraction(inners[j], ratio**j * math.factorial(omega - j))
        / (math.factorial(j + n) * math.factorial(2 * j + c))
        for j in range(max(0, -n), omega + 1)
    )


@pytest.mark.parametrize("ratio", [1, 4, 9])
@pytest.mark.parametrize("c", [1, 2, 3, 6])
def test_omega_sum_is_the_transcription_at_every_n(c, ratio):
    # down to n = -omega - 2: below j = -n every term is 1/(j+n)! = 0
    rng = random.Random(100 * c + ratio)
    inners = [rng.randint(-(10**9), 10**9) for _ in range(15)]
    for omega in range(len(inners)):
        prefix = inners[: omega + 1]
        for n in range(-omega - 2, 7):
            expected = omega_sum_transcription(omega, n, c, prefix, ratio)
            assert omega_sum(omega, n, c, inners, ratio) == expected
            assert omega_sum(omega, n, c, prefix, ratio) == expected
            if omega + n >= 0:
                with pytest.raises(IndexError):
                    omega_sum(omega, n, c, inners[:omega], ratio)


@pytest.mark.parametrize("ratio", [1, 9])
@pytest.mark.parametrize("n", [-3, 0, 2])
def test_omega_sum_reads_its_own_prefix(n, ratio):
    rng = random.Random(10 * n + ratio)
    inners = [rng.randint(-(10**9), 10**9) for _ in range(12)]
    for omega in range(len(inners)):
        prefix = inners[: omega + 1]
        expected = omega_sum_transcription(omega, n, 1, prefix, ratio)
        assert omega_sum(omega, n, 1, inners, ratio) == expected
        assert omega_sum(omega, n, 1, prefix, ratio) == expected
        if omega + n >= 0:
            with pytest.raises(IndexError):
                omega_sum(omega, n, 1, inners[:omega], ratio)
