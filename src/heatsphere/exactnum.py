"""Exact arithmetic foundation.

Everything downstream of this module is computed over arbitrary-precision
rationals.  Values carrying a half-integer power of pi are wrapped in
:class:`ExactValue`, which tracks the exponent separately so that no
irrational quantity is ever rounded before the caller asks for a float.
:class:`Polynomial` is the one exact polynomial type: its ring operations
never truncate, so a caller that needs a cut power series cuts it itself.
Both are immutable named tuples that compare and hash by their fields, but
refuse `<` and its kin: a tuple order would rank values across powers of pi.

It holds only what `math` and `fractions` lack: factorials, binomials and
rising factorials are `math.factorial`, `math.comb`, `math.perm`, `math.prod`.
"""

from __future__ import annotations

import math
import operator
import threading
from collections import namedtuple
from collections.abc import Iterable, Sequence
from fractions import Fraction

Rational = Fraction

# sqrt(pi) to 60 decimal digits.  float(ExactValue) is one integer division,
# which Python rounds correctly: the double handed out is the one nearest
# coeff * SQRT_PI**pi_half, which is the one nearest the true value unless that
# lies within about 1e-60 (relative) of a halfway point between two doubles.
SQRT_PI = Fraction("1.77245385090551602729816748334114518279754945612238712821381")
_SQRT_PI_NUM, _SQRT_PI_DEN = SQRT_PI.numerator, SQRT_PI.denominator


def integer(name: str, value: object) -> int:
    """value as an int, numpy ints too; a bool, float, str or None is a ValueError naming it."""
    if type(value) is int:
        return value
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError(f"{name} must be an integer, not {type(value).__name__}: {name}={value!r}")
    return operator.index(value)


def pi_half_float(num: int, den: int, k: int) -> float:
    """The double nearest num/den * SQRT_PI**k, or OverflowError beyond double range: one
    correctly rounded int / int division, as float() of the reduced Fraction product gives."""
    if k > 0:
        return num * _SQRT_PI_NUM**k / (den * _SQRT_PI_DEN**k)
    if k < 0:
        return num * _SQRT_PI_DEN**-k / (den * _SQRT_PI_NUM**-k)
    return num / den


def _unordered(self, other):
    return NotImplemented  # from both sides, so `<` raises TypeError


class ExactValue(namedtuple("ExactValue", "coeff pi_half")):
    """A rational multiple of pi^(pi_half/2): the immutable named tuple (coeff, pi_half).

    The coefficient is made a Fraction, and the zero value is normalized to
    ``pi_half == 0`` so that equality and hashing behave; addition is only
    defined between values with matching exponent (or with zero),
    multiplication adds exponents.
    """

    __slots__ = ()
    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    def __new__(cls, coeff: Rational, pi_half: int = 0) -> ExactValue:
        if type(coeff) is not Fraction:
            coeff = Fraction(coeff)
        if pi_half != 0 and coeff == 0:
            pi_half = 0
        return tuple.__new__(cls, (coeff, pi_half))

    @classmethod
    def _make(cls, iterable) -> ExactValue:  # _replace builds through it: normalize there too
        return cls(*iterable)

    def __bool__(self) -> bool:
        return self.coeff != 0

    def __add__(self, other: ExactValue) -> ExactValue:
        if not isinstance(other, ExactValue):
            return NotImplemented
        if self.coeff == 0:
            return other
        if other.coeff == 0:
            return self
        if self.pi_half != other.pi_half:
            raise ValueError(
                f"cannot add pi^({self.pi_half}/2) and pi^({other.pi_half}/2) terms"
            )
        return ExactValue(self.coeff + other.coeff, self.pi_half)

    def __mul__(self, other: ExactValue | Rational | int) -> ExactValue:
        if isinstance(other, ExactValue):
            return ExactValue(self.coeff * other.coeff, self.pi_half + other.pi_half)
        return ExactValue(self.coeff * other, self.pi_half)

    __rmul__ = __mul__

    def __truediv__(self, other: ExactValue | Rational | int) -> ExactValue:
        if isinstance(other, ExactValue):
            if other.coeff == 0:
                raise ZeroDivisionError("division by exact zero")
            return ExactValue(self.coeff / other.coeff, self.pi_half - other.pi_half)
        return ExactValue(self.coeff / Fraction(other), self.pi_half)

    def as_rational(self) -> Rational:
        if self.pi_half != 0:
            raise ValueError(f"value carries pi^({self.pi_half}/2), not rational")
        return self.coeff

    def __float__(self) -> float:
        """The double nearest coeff * SQRT_PI**pi_half (`pi_half_float`)."""
        return pi_half_float(self.coeff.numerator, self.coeff.denominator, self.pi_half)

    def __str__(self) -> str:
        if self.pi_half == 0:
            return str(self.coeff)
        if self.pi_half == 1:
            tag = "sqrt(pi)"
        elif self.pi_half % 2 == 0:
            tag = f"pi^{self.pi_half // 2}" if self.pi_half != 2 else "pi"
        else:
            tag = f"pi^({self.pi_half}/2)"
        return f"{self.coeff}*{tag}"


class Polynomial(namedtuple("Polynomial", "coefficients")):
    """Polynomial with Fraction coefficients, index = degree, no trailing zeros:
    the immutable named tuple (coefficients,), coefficients a tuple.

    An exact ring: `+`, `-`, `*` (by a polynomial or a scalar) and `**` with a
    nonnegative integer exponent, none of which drops a degree.
    """

    __slots__ = ()
    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    @staticmethod
    def from_coefficients(coeffs) -> Polynomial:
        cs = [Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        return Polynomial(tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1  # -1 for the zero polynomial

    def coefficient(self, i: int) -> Rational:
        return self.coefficients[i] if i < len(self.coefficients) else Fraction(0)

    def evaluate(self, x: Rational | int) -> Rational:
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def __add__(self, other: Polynomial) -> Polynomial:
        n = max(len(self.coefficients), len(other.coefficients))
        return Polynomial.from_coefficients(
            [self.coefficient(i) + other.coefficient(i) for i in range(n)]
        )

    def __sub__(self, other: Polynomial) -> Polynomial:
        return self + other * -1

    def __mul__(self, other: Polynomial | Rational | int) -> Polynomial:
        if not isinstance(other, Polynomial):
            c = Fraction(other)
            return Polynomial(tuple(a * c for a in self.coefficients) if c else ())
        a, b = self.coefficients, other.coefficients
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    if y:
                        out[j] += x * y
        while out and not out[-1]:
            out.pop()
        return Polynomial(tuple(out))

    __rmul__ = __mul__

    def __pow__(self, m: int) -> Polynomial:
        """self^m by repeated squaring, for m >= 0."""
        if m < 0:
            raise ValueError(f"need power m >= 0, got {m}")
        acc, base = Polynomial((Fraction(1),)), self
        while m:
            if m & 1:
                acc = acc * base
            m >>= 1
            if m:
                base = base * base
        return acc


def alternating_binomial_sum(m: int, values: Iterable, start: int = 0) -> int | Rational:
    """sum_i (-1)^i C(m, i) v_i over i = start, start + 1, ..., one v_i per item of `values`
    (ints or Fractions): over i = 0..m, the m-th finite difference of v, zero when v is a
    polynomial in i of degree below m.  Each signed binomial is stepped from the one before."""
    total, weight = 0, (-1) ** start * math.comb(m, start)
    for i, value in enumerate(values, start):
        total += weight * value
        weight = -weight * (m - i) // (i + 1)  # exact, so floor division is safe below zero
    return total


def omega_sum(omega: int, n: int, c: int, inners: Sequence[int], ratio: int = 1) -> Rational:
    """sum_j inner_j / (ratio^j (omega-j)! (j+n)! (2j+c)!) over j = 0..omega, 1/m! = 0 for m < 0,
    as one integer over ratio^omega omega! (omega+n)! (2omega+c)!, reading inners[0..omega]."""
    if omega + n < 0:
        return Fraction(0)
    # ascending Horner: term j gets ratio^(omega-j) omega!/(omega-j)! (omega+n)!/(j+n)!
    # (2omega+c)!/(2j+c)!; the factor j + n = 0 at j = -n clears every term below it
    total, perm = 0, 1  # perm = omega!/(omega-j)!
    for j in range(omega + 1):
        total = total * (ratio * (j + n) * (2 * j + c - 1) * (2 * j + c)) + inners[j] * perm
        perm *= omega - j
    denominator = math.factorial(omega) * math.factorial(omega + n) * math.factorial(2 * omega + c)
    return Fraction(total, ratio**omega * denominator)


def gamma_half(m: int) -> ExactValue:
    """Gamma(m/2) for a positive integer m, in closed form.

    Gamma(k) = (k-1)! for even m = 2k, and Gamma(k+1/2) = (2k)!/(4^k k!) sqrt(pi)
    for odd m = 2k+1.  pi_half is 1 iff m is odd.
    """
    m = integer("m", m)
    if m <= 0:
        raise ValueError(f"gamma_half needs a positive integer, got {m}")
    k = m // 2
    if m % 2 == 0:
        return ExactValue(Fraction(math.factorial(k - 1)), 0)
    return ExactValue(Fraction(math.perm(2 * k, k), 4**k), 1)


# _tangents[k] = T_(2k-1), from tan z = sum T_(2k-1) z^(2k-1)/(2k-1)!, with a
# placeholder at k = 0, by Brent & Harvey's integer algorithm (arXiv:1108.0286), whose
# column j is built from column j - 1: _column is the last one built, about twice the
# memory of the table; _series = [L, L F_1, ..., L F_k] for the k built so far, over one
# common denominator L (bernoulli_series).  All only grow, under one lock, so
# concurrent callers never see a half-built table.
_tangents: list[int] = [0, 1]
_column: list[int] = [1]
_series: list[int] = [1]
_tangent_lock = threading.Lock()


def _grow_tangents(count: int) -> None:
    # the caller holds _tangent_lock.  Column j is c(k) = (j-k) c'(k) + (j-k+2) c(k-1) for k < j
    # over the last column c' and c(0) = 0, so c(1) = (j-1)!, and T_(2j-1) = c(j) = 2 c(j-1).
    # Built on copies and published together, so an exception midway leaves table and column whole
    if len(_tangents) <= count:
        table, column = _tangents[:], _column[:]
        for j in range(len(table), count + 1):
            acc = 0
            for k, a in enumerate(range(j - 1, 0, -1)):  # a = j - (k+1): column[k] is c(k+1)
                acc = column[k] = a * column[k] + (a + 2) * acc
            column.append(2 * acc)
            table.append(2 * acc)
        _tangents[:], _column[:] = table, column


def bernoulli_series(top: int) -> tuple[int, list[int]]:
    """(L, w): F_p = T_(2p-1) (2-4^p) / (4^p (4^p-1)) for p = 1..top as the integers
    w[p-1] = L F_p over one common denominator L, which is a multiple of the lcm of
    their denominators.  The series is kept and grows: a longer top builds only the
    new F_p, and rescales the old entries once if L grows; a shorter one is a prefix
    over the same L."""
    top = integer("top", top)
    if top < 0:
        raise ValueError(f"top must be nonnegative, got {top}")
    with _tangent_lock:
        built = len(_series) - 1
        if built < top:
            _grow_tangents(top)
            f = [
                Fraction(_tangents[p] * (2 - 4**p), 4**p * (4**p - 1))
                for p in range(built + 1, top + 1)
            ]
            lcm = math.lcm(_series[0], *(fp.denominator for fp in f))
            if lcm != _series[0]:
                scale = lcm // _series[0]
                _series[:] = [entry * scale for entry in _series]
            _series.extend(fp.numerator * (lcm // fp.denominator) for fp in f)
        return _series[0], _series[1 : top + 1]


def bernoulli(m: int) -> Rational:
    """Bernoulli number B_m under the B_1 = -1/2 convention (z/(e^z - 1)),
    with B_2p = (-1)^(p-1) 2p T_(2p-1) / (4^p (4^p - 1)) from the tangent numbers."""
    m = integer("m", m)
    if m < 0:
        raise ValueError(f"bernoulli of negative index {m}")
    if m % 2:
        return Fraction(-1, 2) if m == 1 else Fraction(0)
    if m == 0:
        return Fraction(1)
    p = m // 2
    sign = 1 if p % 2 else -1
    with _tangent_lock:
        _grow_tangents(p)
        tangent = _tangents[p]
    return Fraction(sign * m * tangent, 4**p * (4**p - 1))
