"""Exact evaluation of the combinatorial identities behind the coefficients.

`s1_sum` is the symmetrized circle sum (inner index running over -j..j);
it vanishes for every rational x once omega >= 2n, and its one-sided twin
(inner index from 0) is exactly half of the x = 0 value.  `s3_sum` is the
three-sphere analogue with a nonzero right side.  `alternating_power_sum`
is the residue-style sum that collapses to 0 or (2j)!.

Each sum is one integer over one common denominator (`exactnum.omega_sum`):
for x = a/b, `s1_sum` and its one-sided twin (a = 0, b = 1) over
b^(2omega+2n) omega! (omega+n)! (2omega+1)!, and `s3_sum` over
omega! (omega+n)! (2omega+3)!, times Gamma(omega + 5/2).

Evaluation below omega = 2n is deliberately allowed everywhere here: the
bound is itself one of the claims under test.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction

from .exactnum import ExactValue, Rational, binomial, factorial, gamma_half, omega_sum
from .verification import VerificationReport

__all__ = [
    "VerificationReport",
    "s1_sum",
    "s1_sum_one_sided",
    "s3_sum",
    "s3_expected",
    "alternating_power_sum",
    "verify_identity",
]


def s1_sum(n: int, omega: int, x: Rational | int) -> Rational:
    """Symmetrized double sum at rational x; zero whenever omega >= 2n."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if omega < 0:
        raise ValueError(f"need omega >= 0, got {omega}")
    x = Fraction(x)
    b = x.denominator
    return omega_sum(omega, n, 1, _s1_inners(omega, n, x.numerator, b), b * b) / b ** (2 * n)


def s1_sum_one_sided(n: int, omega: int) -> Rational:
    """Inner sum from k = 0 only; half of s1_sum(n, omega, 0).

    (The k = 0 term is 0^(2j+2n) = 0, so symmetrizing exactly doubles.)
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if omega < 0:
        raise ValueError(f"need omega >= 0, got {omega}")
    return omega_sum(omega, n, 1, _s1_inners(omega, n, 0, 1, one_sided=True))


def _s1_inners(omega: int, n: int, a: int, b: int, one_sided: bool = False) -> Iterator[int]:
    # inner_j = sum_k (-1)^k C(2j, j+k) (a+kb)^(2j+2n) over k = -j..j, or 0..j one-sided
    for j in range(omega + 1):
        lo = 0 if one_sided else -j
        inner, binom = 0, binomial(2 * j, j + lo)
        for k in range(lo, j + 1):
            term = binom * (a + k * b) ** (2 * j + 2 * n)
            inner += -term if k % 2 else term
            binom = binom * (j - k) // (j + k + 1)
        yield inner


def s3_sum(n: int, omega: int) -> ExactValue:
    """Left side of the three-sphere identity; equals s3_expected(n) for
    omega >= 2n."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if omega < 0:
        raise ValueError(f"need omega >= 0, got {omega}")
    front = gamma_half(2 * omega + 5)  # Gamma(omega + 5/2)
    return ExactValue(front.coeff * omega_sum(omega, n, 3, _s3_inners(omega, n)), front.pi_half)


def _s3_inners(omega: int, n: int) -> Iterator[int]:
    # inner_j = sum_l (-1)^l l^2 C(2j+2, j+1+l) (l^2-1)^(j+n), binomials stepped from l = j+1
    for j in range(omega + 1):
        inner, binom = 0, 1
        for l in range(j + 1, 0, -1):  # l = 0 has l^2 = 0
            term = binom * l * l * (l * l - 1) ** (j + n)
            inner += -term if l % 2 else term
            binom = binom * (j + 1 + l) // (j + 2 - l)
        yield inner


def s3_expected(n: int) -> ExactValue:
    """Right side (-1)^(n+1) sqrt(pi) / (8 n!)."""
    sign = 1 if n % 2 else -1
    return ExactValue(Fraction(sign, 8 * factorial(n)), 1)


def alternating_power_sum(j: int, s: int) -> int:
    """sum_p (-1)^p C(2j, p) (p-j)^s: zero for s < 2j, (2j)! at s = 2j.

    Uses the 0^0 = 1 convention at p = j, s = 0.
    """
    if j < 0 or s < 0:
        raise ValueError(f"need j, s >= 0, got j={j}, s={s}")
    total = 0
    for p in range(2 * j + 1):
        term = binomial(2 * j, p) * (p - j) ** s
        total += -term if p % 2 else term
    return total


_X_DEFAULT = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(7, 3))


def verify_identity(name: str, box: dict | None = None) -> VerificationReport:
    """Sweep one identity over a parameter box and report every witness.

    Box keys (all optional):
      s1 / s1g / s3: n=(lo, hi), offset=(lo, hi) with omega = 2n + offset;
      s1g additionally x=<iterable of rationals>;
      vychet: j_max=<int>.
    """
    box = dict(box or {})
    if name == "s1":
        n_lo, n_hi, off_lo, off_hi = _omega_box(box, (0, 4))
        _reject_leftovers(name, box)
        report = VerificationReport(
            "s1", [("n", f"{n_lo}..{n_hi}"), ("omega", f"2n{off_lo:+d}..2n{off_hi:+d}")]
        )
        for n in range(n_lo, n_hi + 1):
            for off in range(off_lo, off_hi + 1):
                omega = 2 * n + off
                if omega < 0:
                    continue
                # below omega = 2n this fails, and the witness is the point:
                # that is how the sharpness of the bound shows up here
                one_sided = s1_sum_one_sided(n, omega)
                report.record({"n": n, "omega": omega}, one_sided, Fraction(0))
                report.record(
                    {"n": n, "omega": omega, "relation": "factor-2"},
                    s1_sum(n, omega, 0),
                    2 * one_sided,
                )
        report.notes.append("symmetrized x = 0 sum checked against twice the one-sided sum")
        return report
    if name == "s1g":
        n_lo, n_hi, off_lo, off_hi = _omega_box(box, (0, 4))
        xs = tuple(Fraction(x) for x in box.pop("x", _X_DEFAULT))
        _reject_leftovers(name, box)
        report = VerificationReport(
            "s1g",
            [
                ("n", f"{n_lo}..{n_hi}"),
                ("omega", f"2n{off_lo:+d}..2n{off_hi:+d}"),
                ("x", ",".join(str(x) for x in xs)),
            ],
        )
        for n in range(n_lo, n_hi + 1):
            for off in range(off_lo, off_hi + 1):
                omega = 2 * n + off
                if omega < 0:
                    continue
                for x in xs:
                    report.record({"n": n, "omega": omega, "x": x},
                                  s1_sum(n, omega, x), Fraction(0))
        return report
    if name == "s3":
        n_lo, n_hi, off_lo, off_hi = _omega_box(box, (0, 3))
        _reject_leftovers(name, box)
        report = VerificationReport(
            "s3", [("n", f"{n_lo}..{n_hi}"), ("omega", f"2n{off_lo:+d}..2n{off_hi:+d}")]
        )
        for n in range(n_lo, n_hi + 1):
            for off in range(off_lo, off_hi + 1):
                omega = 2 * n + off
                if omega < 0:
                    continue
                report.record({"n": n, "omega": omega}, s3_sum(n, omega), s3_expected(n))
        return report
    if name == "vychet":
        j_max = box.pop("j_max", 10)
        _reject_leftovers(name, box)
        report = VerificationReport("vychet", [("j", f"0..{j_max}"), ("s", "0..2j")])
        for j in range(j_max + 1):
            for s in range(2 * j):
                report.record({"j": j, "s": s}, alternating_power_sum(j, s), 0)
            report.record({"j": j, "s": 2 * j}, alternating_power_sum(j, 2 * j), factorial(2 * j))
        return report
    raise ValueError(f"unknown identity {name!r}; expected s1, s1g, s3 or vychet")


def _omega_box(box: dict, offset: tuple[int, int]) -> tuple[int, int, int, int]:
    """Pop n and offset; the n range is checked before any point is evaluated."""
    n_lo, n_hi = box.pop("n", (1, 5))
    if n_lo < 1:
        raise ValueError(f"need n >= 1, got {n_lo}..{n_hi}")
    return n_lo, n_hi, *box.pop("offset", offset)


def _reject_leftovers(name: str, box: dict) -> None:
    if box:
        raise ValueError(f"unsupported box keys for {name!r}: {sorted(box)}")
