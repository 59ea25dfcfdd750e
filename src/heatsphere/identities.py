"""Exact evaluation of the combinatorial identities behind the coefficients.

`s1_sum` is the symmetrized circle sum (inner index running over -j..j);
it vanishes for every rational x once omega >= 2n, and its one-sided twin
(inner index from 0) is exactly half of the x = 0 value.  `s3_sum` is the
three-sphere analogue with a nonzero right side.  `alternating_power_sum`
is the residue-style sum that collapses to 0 or (2j)!; it and the inner sums
of s1 and s3 run one kernel, `exactnum.alternating_binomial_sum`.

Each sum is one integer over one common denominator (`exactnum.omega_sum`):
for x = a/b, `s1_sum` and its one-sided twin (a = 0, b = 1) over
b^(2omega+2n) omega! (omega+n)! (2omega+1)!, and `s3_sum` over
omega! (omega+n)! (2omega+3)!, times Gamma(omega + 5/2).

Evaluation below omega = 2n is deliberately allowed everywhere here: the
bound is itself one of the claims under test.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from fractions import Fraction

from .exactnum import ExactValue, Rational, alternating_binomial_sum, gamma_half, integer, omega_sum
from .verification import VerificationReport


def _check_n_omega(n: int, omega: int) -> tuple[int, int]:
    n, omega = integer("n", n), integer("omega", omega)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if omega < 0:
        raise ValueError(f"need omega >= 0, got {omega}")
    return n, omega


def s1_sum(n: int, omega: int, x: Rational | int) -> Rational:
    """Symmetrized double sum at rational x; zero whenever omega >= 2n."""
    n, omega = _check_n_omega(n, omega)
    return _s1_sums(n, [omega], x)[0]


def s1_sum_one_sided(n: int, omega: int) -> Rational:
    """Inner sum from k = 0 only; half of s1_sum(n, omega, 0).

    (The k = 0 term is 0^(2j+2n) = 0, so symmetrizing exactly doubles.)
    """
    n, omega = _check_n_omega(n, omega)
    return _s1_sums(n, [omega], 0, one_sided=True)[0]


def _s1_sums(n: int, omegas: list[int], x: Rational | int, one_sided=False) -> list[Rational]:
    # inner_j depends on (j, n, x), not on omega: one pass serves every omega
    a, b = Fraction(x).as_integer_ratio()
    inners = list(_s1_inners(max(omegas), n, a, b, one_sided))
    return [omega_sum(omega, n, 1, inners, b * b) / b ** (2 * n) for omega in omegas]


def _s1_inners(omega: int, n: int, a: int, b: int, one_sided: bool = False) -> Iterator[int]:
    # inner_j = sum_k (-1)^k C(2j, j+k) (a+kb)^(2j+2n) over k = -j..j, or 0..j one-sided
    for j in range(omega + 1):
        lo = 0 if one_sided else -j
        # i = j + k, so (-1)^k = (-1)^j (-1)^i
        powers = ((a + k * b) ** (2 * j + 2 * n) for k in range(lo, j + 1))
        inner = alternating_binomial_sum(2 * j, powers, j + lo)
        yield -inner if j % 2 else inner


def s3_sum(n: int, omega: int) -> ExactValue:
    """Left side of the three-sphere identity; equals s3_expected(n) for
    omega >= 2n."""
    n, omega = _check_n_omega(n, omega)
    return _s3_sums(n, [omega])[0]


def _s3_sums(n: int, omegas: list[int]) -> list[ExactValue]:
    # inner_j depends on (j, n), not on omega: one pass serves every omega
    inners = list(_s3_inners(max(omegas), n))
    return [gamma_half(2 * w + 5) * omega_sum(w, n, 3, inners) for w in omegas]


def _s3_inners(omega: int, n: int) -> Iterator[int]:
    # inner_j = sum_l (-1)^l l^2 C(2j+2, j+1+l) (l^2-1)^(j+n); i = j + 1 - l, from l = j + 1 down
    for j in range(omega + 1):
        terms = (l * l * (l * l - 1) ** (j + n) for l in range(j + 1, 0, -1))  # l = 0 has l^2 = 0
        inner = alternating_binomial_sum(2 * j + 2, terms)
        yield inner if j % 2 else -inner


def s3_expected(n: int) -> ExactValue:
    """Right side (-1)^(n+1) sqrt(pi) / (8 n!)."""
    n = integer("n", n)
    sign = 1 if n % 2 else -1
    return ExactValue(Fraction(sign, 8 * math.factorial(n)), 1)


def alternating_power_sum(j: int, s: int) -> int:
    """sum_p (-1)^p C(2j, p) (p-j)^s: zero for s < 2j, (2j)! at s = 2j.

    Uses the 0^0 = 1 convention at p = j, s = 0.
    """
    j, s = integer("j", j), integer("s", s)
    if j < 0 or s < 0:
        raise ValueError(f"need j, s >= 0, got j={j}, s={s}")
    return alternating_binomial_sum(2 * j, ((p - j) ** s for p in range(2 * j + 1)))


_X_DEFAULT = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(7, 3))


def _omega_grid(
    name: str, n: tuple[int, int], offset: tuple[int, int], *labels: tuple[str, str]
) -> tuple[VerificationReport, list[tuple[int, list[int]]]]:
    """A sweep's empty report and its points by n: (n, [omega = 2n + offset >= 0]), if any.

    Each span end is an integer (`integer`) and n >= 1, checked before any point is evaluated.
    """
    n_lo, n_hi = [integer("n", end) for end in n]
    off_lo, off_hi = [integer("offset", end) for end in offset]
    if n_lo < 1:
        raise ValueError(f"need n >= 1, got {n_lo}..{n_hi}")
    report = VerificationReport(
        name, [("n", f"{n_lo}..{n_hi}"), ("omega", f"2n{off_lo:+d}..2n{off_hi:+d}"), *labels]
    )
    groups = ((k, range(max(off_lo, -2 * k), off_hi + 1)) for k in range(n_lo, n_hi + 1))
    return report, [(k, [2 * k + off for off in offs]) for k, offs in groups if offs]


def _s1(n=(1, 5), offset=(0, 4)) -> VerificationReport:
    report, groups = _omega_grid("s1", n, offset)
    for k, omegas in groups:
        one_sided = _s1_sums(k, omegas, 0, one_sided=True)
        for omega, half, full in zip(omegas, one_sided, _s1_sums(k, omegas, 0)):
            # below omega = 2n this fails, and the witness is the point:
            # that is how the sharpness of the bound shows up here
            report.record({"n": k, "omega": omega}, half, Fraction(0))
            report.record({"n": k, "omega": omega, "relation": "factor-2"}, full, 2 * half)
    report.notes.append("symmetrized x = 0 sum checked against twice the one-sided sum")
    return report


def _s1g(n=(1, 5), offset=(0, 4), x=_X_DEFAULT) -> VerificationReport:
    if isinstance(x, str):  # one rational's text is not an iterable of rationals
        raise ValueError(f"x must be an iterable of rationals, not str: x={x!r}")
    xs = tuple(map(Fraction, x))
    report, groups = _omega_grid("s1g", n, offset, ("x", ",".join(map(str, xs))))
    for k, omegas in groups:
        by_x = [_s1_sums(k, omegas, value) for value in xs]
        for omega, values in zip(omegas, zip(*by_x)):
            for value, computed in zip(xs, values):
                report.record({"n": k, "omega": omega, "x": value}, computed, Fraction(0))
    return report


def _s3(n=(1, 5), offset=(0, 3)) -> VerificationReport:
    report, groups = _omega_grid("s3", n, offset)
    for k, omegas in groups:
        for omega, value in zip(omegas, _s3_sums(k, omegas)):
            report.record({"n": k, "omega": omega}, value, s3_expected(k))
    return report


def _vychet(j_max=10) -> VerificationReport:
    j_max = integer("j_max", j_max)
    report = VerificationReport("vychet", [("j", f"0..{j_max}"), ("s", "0..2j")])
    for j in range(j_max + 1):
        for s in range(2 * j):
            report.record({"j": j, "s": s}, alternating_power_sum(j, s), 0)
        report.record({"j": j, "s": 2 * j}, alternating_power_sum(j, 2 * j), math.factorial(2 * j))
    return report


# identity name -> its sweep; a sweep's keywords are its box, defaults included
_SWEEPS = {"s1": _s1, "s1g": _s1g, "s3": _s3, "vychet": _vychet}


def verify_identity(name: str, box: dict | None = None) -> VerificationReport:
    """Sweep one identity over a parameter box and report every witness.

    Box keys (all optional) are the keywords of the sweep: s1, s1g and s3
    take n=(lo, hi) and offset=(lo, hi) with omega = 2n + offset, s1g also
    x=<iterable of rationals>; vychet takes j_max=<int>.  A key that is not
    one of the sweep's parameter names, read off its code object, is a
    ValueError before any point is evaluated.
    """
    if name not in _SWEEPS:
        raise ValueError(f"unknown identity {name!r}; expected s1, s1g, s3 or vychet")
    sweep, box = _SWEEPS[name], box or {}
    code = sweep.__code__
    unknown = sorted(set(box) - set(code.co_varnames[: code.co_argcount]))
    if unknown:
        raise ValueError(f"unsupported box keys for {name!r}: {unknown}")
    return sweep(**box)
