"""Power series in the differentiation symbol D, as polynomials.

The series P(D) = 2 sinh(D/2) / D drives everything: its even coefficients
are 1/(4^i (2i+1)!), its powers act on monomials through
`apply_to_monomial`, and its multiplicative inverse carries the Bernoulli
numbers.  A series is an `exactnum.Polynomial`: `p_series` and
`invert_series` stop at the order they are given, and the polynomial
products themselves never truncate, so the vanishing mechanism
(1 - P(D)^2)^(omega-n+1) = O(D^(2omega-2n+2)) can be checked literally on
them.  `check_lemma` writes P(D) = Q(D^2)/N with integers
Q_i = 4^(t-i) (2t+1)!/(2i+1)! and N = 4^t (2t+1)!, and sums
(-1)^j (2j+2t+e)! [D^(2t)] Q^(2j+e) over the one common denominator
N^(2omega'+e) omega'! (omega'+t-s)! (2omega'+1+e)! (`exactnum.omega_sum`).
Those terms depend on (t, e) alone: `verify_lemmas` steps Q's integer powers
once per (t, e), up to the box's largest omega', and omega_sum reads a prefix.

Sign convention: "1/P" in this module always means the multiplicative
inverse.  The alternative normalization D/(e^(-D/2) - e^(D/2)) is its
negative; `check_bernoulli_link` records how the Bernoulli formula reads
under each.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .exactnum import Polynomial, Rational, bernoulli, integer, omega_sum
from .verification import VerificationReport


def p_series(order: int) -> Polynomial:
    """2 sinh(D/2) / D up to D^order: coefficient of D^(2i) is 1/(4^i (2i+1)!)."""
    order = integer("order", order)
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    coeffs = [Fraction(0)] * (order // 2 * 2 + 1)
    for i in range(order // 2 + 1):
        coeffs[2 * i] = Fraction(1, 4**i * math.factorial(2 * i + 1))
    return Polynomial(tuple(coeffs))


def invert_series(s: Polynomial, order: int) -> Polynomial:
    """Inverse up to D^order by long division; needs a nonzero constant term."""
    order = integer("order", order)
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    a0 = s.coefficient(0)
    if a0 == 0:
        raise ValueError("series with zero constant term has no inverse")
    out = [1 / a0]
    for m in range(1, order + 1):
        out.append(-sum(c * out[m - i] for i, c in enumerate(s.coefficients[1 : m + 1], 1)) / a0)
    return Polynomial.from_coefficients(out)


def apply_to_monomial(s: Polynomial, m: int) -> Rational:
    """(s(D) x^m) evaluated at x = 0, i.e. m! times the D^m coefficient."""
    m = integer("m", m)
    if m < 0:
        raise ValueError(f"monomial degree must be nonnegative, got {m}")
    return math.factorial(m) * s.coefficient(m)


def check_bernoulli_link(t_max: int = 8) -> VerificationReport:
    """(2t)! times the D^(2t) coefficient of 1/P against Bernoulli numbers.

    With 1/P the multiplicative inverse the exact statement is
    (2t)! P_{2t} = 2 (B_{2t}/2^(2t) - B_{2t}/2); under the negated
    normalization the right side flips sign.  Both readings go in the
    notes so nobody has to rediscover which one this module uses.
    """
    t_max = integer("t_max", t_max)
    if t_max < 1:
        raise ValueError(f"t_max must be positive, got {t_max}")
    report = VerificationReport("bernoulli-link", [("t", f"1..{t_max}")])
    inverse = invert_series(p_series(2 * t_max), 2 * t_max)
    for t in range(1, t_max + 1):
        computed = apply_to_monomial(inverse, 2 * t)
        b = bernoulli(2 * t)
        expected = 2 * (b / 4**t - b / 2)
        report.record({"t": t}, computed, expected)
    report.notes.append(
        "convention: 1/P is the multiplicative inverse, so the match is "
        "(2t)! P_{2t} = +2(B_{2t}/2^{2t} - B_{2t}/2); the normalization "
        "D/(e^{-D/2} - e^{D/2}) = -1/P carries the opposite sign"
    )
    return report


def check_lemma(which: str, t: int, s: int, omega_prime: int) -> bool:
    """Exact check of one lemma instance.

    which = "ff1_bb": the alternating sum over P(D)^(2j) applied to x^(2t)
    vanishes; stated for omega_prime >= 2t + s, t >= 1.
    which = "ff2_e2": the analogous sum over P(D)^(2j+1) equals a closed
    multiple of (1/P)(x^(2t)); stated for omega_prime >= 2t + s, t >= 0.

    omega_prime below the stated bound is evaluated as asked: probing
    where the hypotheses stop holding is part of the test surface.
    """
    t, s, omega_prime = integer("t", t), integer("s", s), integer("omega_prime", omega_prime)
    if which not in ("ff1_bb", "ff2_e2"):
        raise ValueError(f"unknown lemma {which!r}")
    if s < 0:
        raise ValueError(f"need s >= 0, got {s}")
    if omega_prime < 0:
        raise ValueError(f"need omega_prime >= 0, got {omega_prime}")
    e = 0 if which == "ff1_bb" else 1  # the sum runs over P^(2j+e)
    if t < 1 - e:
        raise ValueError(f"{which} needs t >= {1 - e}, got {t}")
    return _lemma_holds(which, t, s, omega_prime, _lemma_inners(t, e, omega_prime))


def _lemma_inners(t: int, e: int, omega_max: int) -> list[int]:
    """(-1)^j (2j+2t+e)! [D^(2t)] Q^(2j+e) for j = 0..omega_max; fixed by (t, e)."""
    # only the D^(2t) coefficient is read, so Q's powers stop at degree t
    q = [math.perm(2 * t + 1, 2 * (t - i)) << 2 * (t - i) for i in range(t + 1)]
    q_squared = _times(q, q)
    powers = [q if e else [1] + [0] * t]  # Q^e, then Q^(2j+e) for j = 1..omega_max
    for _ in range(omega_max):
        powers.append(_times(powers[-1], q_squared))
    return [(-1) ** j * math.factorial(2 * j + 2 * t + e) * qp[t] for j, qp in enumerate(powers)]


def _lemma_holds(which: str, t: int, s: int, omega_prime: int, inners: list[int]) -> bool:
    # check_lemma past its validation, on the inners of (t, e) up to omega_prime or beyond
    e = 0 if which == "ff1_bb" else 1
    big_n = math.factorial(2 * t + 1) << 2 * t
    total = omega_sum(omega_prime, t - s, 1 + e, inners, big_n * big_n)
    total = total * math.factorial(2 * t) / big_n**e
    if which == "ff1_bb":
        return total == 0
    rising = math.prod(range(t - s, t))  # (t-s)_s, an int: the Fraction keeps `/` exact
    return total == Fraction(
        math.factorial(2 * t) * rising, 2 * math.factorial(omega_prime + 1) * math.factorial(t)
    ) * _inverse_p_at_monomial(2 * t)


@functools.cache
def _inverse_p_at_monomial(m: int) -> Rational:
    """(1/P)(x^m) at x = 0, the series part of the ff2_e2 right side, once per m."""
    return apply_to_monomial(invert_series(p_series(m), m), m)


def _times(a: list[int], b: list[int]) -> list[int]:
    """Product of two integer coefficient lists of one length, cut at that length."""
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]


def verify_lemmas(t_max: int = 4, s_max: int = 3, slack: int = 3) -> VerificationReport:
    """Both lemmas on their stated boxes, plus the below-bound probe.

    The probe at omega_prime = 2t + s - 1 is informational: the stated
    bound is a hypothesis, not claimed sharp, so probe outcomes go into
    the notes instead of the pass/fail tally.
    """
    t_max, s_max, slack = integer("t_max", t_max), integer("s_max", s_max), integer("slack", slack)
    report = VerificationReport(
        "lemmas",
        [("t", f"0..{t_max}"), ("s", f"0..{s_max}"), ("omega'", f"2t+s..2t+s+{slack}")],
    )
    probe_failures = 0
    probe_points = 0
    for t in range(t_max + 1 if s_max >= 0 else 0):  # without an s, no t has a point
        # the inners depend on (t, e) only: built once, up to the largest omega', probe's too
        top = 2 * t + s_max + max(slack, -1)
        ff1, ff2 = (_lemma_inners(t, e, top) for e in (0, 1))
        for s in range(s_max + 1):
            for extra in range(slack + 1):
                omega_prime = 2 * t + s + extra
                if t >= 1:
                    report.record(
                        {"lemma": "ff1_bb", "t": t, "s": s, "omega'": omega_prime},
                        _lemma_holds("ff1_bb", t, s, omega_prime, ff1),
                        True,
                    )
                report.record(
                    {"lemma": "ff2_e2", "t": t, "s": s, "omega'": omega_prime},
                    _lemma_holds("ff2_e2", t, s, omega_prime, ff2),
                    True,
                )
            if t >= 1:
                probe_points += 1
                if not _lemma_holds("ff1_bb", t, s, 2 * t + s - 1, ff1):
                    probe_failures += 1
    report.notes.append(
        f"ff1_bb probe at omega' = 2t+s-1: fails at {probe_failures} of "
        f"{probe_points} points (bound not claimed sharp; informational)"
    )
    return report
