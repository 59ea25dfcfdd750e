"""Heat-trace coefficients a_{n,d} of the round sphere along the four routes of `ROUTES`.

Route "general" is the omega-parametrized double sum over the spectrum, valid
for every omega >= 2n (and only there: omega = 2n-1 provably gives a different
number, see `verify_sharpness`); each inner sum is a divided difference,
computed as h_n of the eigenvalues.  Routes "odd" and "even" are the
dimension-parity reductions driven by coefficient tables of the even polynomial
prod(z^2 - beta^2); route "closed" covers the one-line formulas for d in
{1, 2, 3, 5, 7}; route "weyl" is the n = 0 leading term, ahead of every other.

All routes agree exactly where they overlap, which is the point: each one
serves as an independent oracle for the others (`verify_crosscheck`).
Formula "auto" takes the general route or the parity route of d, whichever
`_general_is_cheaper` estimates cheaper for the request.
"""

from __future__ import annotations

import math
import operator
import threading
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction

from .exactnum import (
    ExactValue,
    Rational,
    alternating_binomial_sum,
    bernoulli,
    bernoulli_series,
    integer,
)
from .spectrum import multiplicity, weyl_leading_term  # noqa: F401 (bench traces it)
from .verification import VerificationReport

CLOSED_FORM_DIMENSIONS = frozenset({1, 2, 3, 5, 7})
_PARITY = ("even", "odd")  # the parity route of d, by d % 2


# one cell: n, d, the omega of the route (int, or None for a closed form), the route's
# name, and the coefficient as an ExactValue
HeatInvariantResult = namedtuple("HeatInvariantResult", "n d omega_used route value")


def _expand_even_product(roots: Iterable[int], top: int, start: Sequence[int] = (1,)) -> list[int]:
    # Ascending coefficients of start * prod (u - r) over the integer roots r, only the top + 1
    # highest of them (all, for top >= the degree); a monic, whole `start` lets a kept product
    # continue where it stopped.  A generator of roots keeps memory to top, not to their number.
    # Built from the top down, desc[k] the coefficient of u^(degree - k): the product is monic,
    # so the top entries never read one below them, and a full desc grows by one a step.
    if top < 0:
        raise ValueError(f"top must be nonnegative, got {top}")
    desc = list(reversed(start))
    for r in roots:
        if len(desc) <= top:
            desc.append(0)
        desc = [lo - r * hi for lo, hi in zip(desc, [0] + desc)]
    return desc[::-1]


def k_table_odd(alpha: int, top: int | None = None) -> list[int]:
    """Ascending coefficients c of prod_{b<alpha} (u - b^2), u = z^2: K_s = c[s], c[0] = 0.

    With `top`, only c[alpha-top..alpha] (K_s for s >= alpha - top) is built and
    returned, so read it from the end: K_(alpha-k) = c[-1-k] for k <= top.
    """
    alpha, top = integer("alpha", alpha), None if top is None else integer("top", top)
    if alpha < 1:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return _expand_even_product((b * b for b in range(alpha)), alpha if top is None else top)


# _even_product = prod_{i<N} (U - (2i+1)^2), ascending, for the N roots kept so far.  Every
# whole even K-table is a prefix product of it, so it only grows, under the lock, and
# stays for the process, as exactnum's Bernoulli series does (about 40 KB at nu = 177).
_even_product: list[int] = [1]
_even_lock = threading.Lock()


def k_table_even(nu: int, top: int | None = None) -> list[int]:
    """Ascending coefficients c of prod_{i<nu-1} (U - (2i+1)^2), U = 4z^2: the roots
    b = 1/2, ..., nu-3/2 scaled by 4, so K_t (of z^(2nu-2-2t)) is c[nu-1-t] / 4^t.

    With `top`, only c[nu-1-top..nu-1] (K_0..K_top) is built and returned, so read
    it from the end: K_t = c[-1-t] / 4^t for t <= top.

    The whole tables are one kept product that only grows and stays for the process:
    a whole table (top >= nu - 1) at or above it continues it through the new roots and
    returns a copy.  A cut table, or a whole one below the kept product, is built apart,
    so a cut table of a huge nu stays linear in nu and leaves the kept product alone.
    """
    nu = integer("nu", nu)
    if nu < 1:
        raise ValueError(f"nu must be positive, got {nu}")
    top = nu - 1 if top is None else integer("top", top)
    if top >= nu - 1:
        with _even_lock:
            built = len(_even_product) - 1
            if nu - 1 >= built:
                roots = ((2 * i + 1) ** 2 for i in range(built, nu - 1))
                table = _expand_even_product(roots, top, _even_product)
                _even_product[:] = table
                return table
    return _expand_even_product(((2 * i + 1) ** 2 for i in range(nu - 1)), top)


def _general_sums(n: int, d: int, omegas: Iterable[int]) -> list[ExactValue]:
    # the general route's values at each omega: weyl(d) times each pair of _general_pairs
    return [weyl_leading_term(d) * Fraction(*pair) for pair in _general_pairs(n, d, omegas)]


def _general_pairs(n: int, d: int, omegas: Iterable[int]) -> list[tuple[int, int]]:
    # Core of the general route: heat_invariant_general adds omega >= 2n, which the sharpness
    # probe skips on purpose.  inner_j does not depend on omega: one pass serves every omega.
    # The paper's 2 (-1)^n Gamma(omega+d/2+1) sum_j inner_j/((omega-j)! (j+n)! (2j+d)!) has no
    # factorial of size d left once (2j+d-1)!/(2j+d)! = 1/(2j+d) and, by Legendre's duplication,
    # Gamma(omega+d/2+1)/(d-1)! = weyl(d) prod_{i<=omega} (d+2i)/2^(omega+1): a_{n,d} is weyl(d)
    # (-1)^n T/(2^omega omega! (omega+n)!), T = sum_j h_j omega!/(omega-j)! (omega+n)!/(j+n)!
    # prod_{i!=j} (d+2i) for the signed h_j of _general_inners, by ascending Horner in blocks of
    # 16 terms, whose weights (step, rho) stay a few machine digits; one big x big product folds a
    # block into total.  At (79, 21, 158), on CPython 3.11 and a 2-core x86 host, blocks of 8..16
    # terms take 0.10-0.11 ms, of 24 or 32 terms 0.11-0.12 ms, and the unblocked pass 0.27 ms.
    # Each omega gives the pair ((-1)^n T, 2^omega omega! (omega+n)!).
    if n < 1:
        raise ValueError(f"general route needs n >= 1, got {n}")
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    omegas = list(omegas)
    inners = list(_general_inners(n, d, max(omegas)))
    values = []
    for omega in omegas:
        total, weight = 0, 1
        for block in range(0, omega + 1, 16):
            part, step, rho = 0, 1, 1
            for j in range(block, min(block + 16, omega + 1)):
                e = 2 * j + d
                part = part * (r := (j + n) * e) + inners[j] * step
                rho *= r
                step *= (omega - j) * e
            total, weight = total * rho + part * weight, weight * step
        scale = 2**omega * math.factorial(omega) * math.factorial(omega + n)
        values.append((-total if n % 2 else total, scale))
    return values


def _general_inners(n: int, d: int, omega: int) -> Iterator[int]:
    # inner_j = sum_{k=1..j} (-1)^k C(2j+d-1, j-k) mu_k lambda_k^(j+n); by mu_k (d-1)!
    # prod_{i<=j, i!=k} (lambda_k - lambda_i) = (-1)^(j-k) (j-k)! (j+k+d-1)! it is (2j+d-1)!/(d-1)!
    # times h_j = (-1)^j h_n(lambda_0..lambda_j), a divided difference of x^(j+n).  This yields h_j,
    # two eigenvalues a pass over m; odd omega pairs from j = 0, where lambda_0 = 0 yields inner_0.
    h = [1] + [0] * n  # h[m] = h_m of the nodes so far
    if omega % 2 == 0:
        yield 0  # j = 0: no k
    for j in range(1 - omega % 2, omega + 1, 2):
        lam1, lam2 = j * (j + d - 1), (j + 1) * (j + d)  # eigenvalues; the route has checked d
        a1 = a2 = 1  # h[m - 1] with lam1 counted, and with lam2 too, from h[0] = 1
        for m in range(1, n + 1):
            a1 = h[m] + lam1 * a1
            h[m] = a2 = a1 + lam2 * a2
        yield from (-a1, a2) if j % 2 else (a1, -a2)


def heat_invariant_general(n: int, d: int, omega: int) -> ExactValue:
    """General-route value; requires omega >= 2n, where it is omega-independent."""
    n, d, omega = integer("n", n), integer("d", d), integer("omega", omega)
    if omega < 2 * n:
        raise ValueError(f"omega={omega} below the validity bound 2n={2 * n}")
    return _general_sums(n, d, [omega])[0]


def _binomial_sum(n: int, u: list[int], x: int) -> int:
    """sum_k C(n, k) u[k] x^(n-k), by Horner in x.

    This is n! times the t^n coefficient of e^(xt) sum_k u[k] t^k / k!: every
    parity-route sum is such a Cauchy product, with x = rho^2 (odd d) or
    (2 rho)^2 (even d), rho = (d-1)/2, and a series u that does not depend
    on n (Cahn-Wolf).
    """
    top = min(n, len(u) - 1)
    acc, binom = 0, 1
    for k in range(top + 1):
        acc = acc * x + u[k] * binom
        binom = binom * (n - k) // (k + 1)
    return acc * x ** (n - top)


def _odd_values(alpha: int, ns: list[int]) -> Iterator[ExactValue]:
    # a_{n, 2 alpha + 1} for the ascending ns >= 1.  The K_s term is
    # alpha^(2m) Gamma(s+1/2) / m! with m = n - alpha + s; it vanishes for m < 0
    # (reciprocal gamma).  Gamma(s+1/2) = sqrt(pi) (2s)!/(4^s s!) puts every term over
    # the one denominator 4^alpha n! (2 alpha)!; with k = alpha - s the numerator is
    # _binomial_sum(n, u, alpha^2), u[k] = c[s] g_k with g_k = k! (2s)!/s! 4^k, stepped
    # from g_0 = (2 alpha)!/alpha! by g_k = g_(k-1) 2k / (2s + 1), exactly.  c[0] = 0 drops
    # k = alpha.
    top = min(ns[-1], alpha - 1)
    c = k_table_odd(alpha, top)
    g = math.perm(2 * alpha, alpha)
    u = [c[-1] * g]
    for k in range(1, top + 1):
        g = g * 2 * k // (2 * (alpha - k) + 1)
        u.append(c[-1 - k] * g)
    scale = 4**alpha * math.factorial(2 * alpha)
    for n in ns:
        yield ExactValue(Fraction(_binomial_sum(n, u, alpha * alpha), scale * math.factorial(n)), 1)


def heat_invariant_odd(n: int, alpha: int) -> ExactValue:
    """a_{n, 2*alpha+1} as a single sum over the odd K-table."""
    n, alpha = integer("n", n), integer("alpha", alpha)
    if n < 1 or alpha < 1:
        raise ValueError(f"need n >= 1 and alpha >= 1, got n={n}, alpha={alpha}")
    (value,) = _odd_values(alpha, [n])
    return value


def _even_values(nu: int, ns: list[int]) -> Iterator[ExactValue]:
    # a_{n, 2 nu} for the ascending ns >= 1.  c is the K-table to K_min(nu-1, top).  A row
    # reaching n >= nu - 1 asks the whole table: at or above the kept product (k_table_even)
    # it continues that one growing product; below the kept product it is built apart, as
    # the cut table of a shorter row is.  With h = nu - 1/2 and q = (2h)^2, the polynomial part
    # sum_t (nu-1-t)! h^(2n-2t) K_t / (n-t)! is _binomial_sum(n, u, q) over 4^n n!,
    # u[t] = c[nu-1-t] f_t with f_t = t! (nu-1-t)!, stepped from f_0 = (nu-1)! by
    # f_t = f_(t-1) t / (nu - t), exactly, t < nu.  For n >= nu, with m = n - nu,
    # B_2p from T_(2p-1) and 1/((n-t-p)! (p-nu+t)!) = C(m, n-t-p)/m!, the Bernoulli
    # correction times 4^n n! is 2 (-1)^nu n!/m! sum_t (-1)^t c[nu-1-t] [x^(n-t)] W,
    # W = (1 + qx)^m F(x), F_p = T_(2p-1) (2-4^p) / (4^p (4^p-1)) as integers over
    # one common denominator L (bernoulli_series, which keeps them and grows L as the
    # tops asked grow; a lower top reads a prefix over the same L).
    # Only W's coefficients from x^(m+1) up are read, at this m and every later one,
    # so w[i] holds that of x^(m+1+i): one step of m is one pass that drops w[0], and
    # the correction is -2 n!/m! sum_i (-1)^i c[i] w[i] / L.
    top = ns[-1]
    c = k_table_even(nu, min(nu - 1, top))
    f = math.factorial(nu - 1)
    u = [c[-1] * f]
    for t in range(1, len(c)):
        f = f * t // (nu - t)
        u.append(c[-1 - t] * f)
    q = (2 * nu - 1) ** 2
    scale = math.factorial(2 * nu - 1)
    if top >= nu:
        lcm, w = bernoulli_series(top)
        signed_c = [-ci if i % 2 else ci for i, ci in enumerate(c)]
        m = 0
    for n in ns:
        total = _binomial_sum(n, u, q)
        if n < nu:
            yield ExactValue(Fraction(total, 4**n * math.factorial(n) * scale), 0)
            continue
        for _ in range(n - nu - m):
            w = [hi + q * lo for lo, hi in zip(w, w[1:])]
        m = n - nu
        correction = 2 * math.perm(n, nu) * sum(map(operator.mul, signed_c, w))
        denominator = 4**n * math.factorial(n) * scale * lcm
        yield ExactValue(Fraction(total * lcm - correction, denominator), 0)


def heat_invariant_even(n: int, nu: int) -> ExactValue:
    """a_{n, 2*nu}: polynomial part plus Bernoulli correction.

    The correction is empty when nu > n; its sign convention makes this route
    agree with the general route exactly (the ledger is
    opercalc.check_bernoulli_link).  It is one integer sum over the K-table and
    the coefficients of (1 + (2nu-1)^2 x)^(n-nu) F(x), where F carries the
    Bernoulli numbers over one common denominator; a row steps that
    polynomial along n, and a cell is the row at one n.
    """
    n, nu = integer("n", n), integer("nu", nu)
    if n < 1 or nu < 1:
        raise ValueError(f"need n >= 1 and nu >= 1, got n={n}, nu={nu}")
    (value,) = _even_values(nu, [n])
    return value


def _closed_d2(n: int) -> Rational:
    # Bernoulli form of a_{n,2}: sum_r (-1)^r C(n, r) (2 - 4^r) B_2r over n! 4^n, i = r
    total = alternating_binomial_sum(n, ((2 - 4**r) * bernoulli(2 * r) for r in range(n + 1)))
    return total / (math.factorial(n) * 4**n)


def heat_invariant_closed(n: int, d: int) -> ExactValue:
    """One-line closed forms for d in {1, 2, 3, 5, 7}; n = 0 falls back to weyl."""
    n, d = integer("n", n), integer("d", d)
    if d not in CLOSED_FORM_DIMENSIONS:
        supported = ", ".join(map(str, sorted(CLOSED_FORM_DIMENSIONS)))
        raise ValueError(f"no closed form for d={d}; supported: {supported}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n == 0:
        return weyl_leading_term(d)
    if d == 1:
        return ExactValue(Fraction(0))
    if d == 2:
        return ExactValue(_closed_d2(n))
    if d == 3:
        return ExactValue(Fraction(1, 4 * math.factorial(n)), 1)
    if d == 5:
        return ExactValue(Fraction(4) ** (n - 3) * (6 - n) / (3 * math.factorial(n)), 1)
    poly = 16 * n * n - 286 * n + 1215
    return ExactValue(Fraction(3) ** (2 * n - 6) * poly / (640 * math.factorial(n)), 1)


def _parity_values(route: str, ns: list[int], d: int) -> Iterable[ExactValue]:
    # the "odd" or "even" entry of ROUTES: its kernel at a d of its parity, else an error
    if route != _PARITY[d % 2]:
        raise ValueError(f"{route} route needs {route} d, got {d}")
    if d == 1:
        return [ExactValue(Fraction(0))] * len(ns)  # alpha = 0: an empty sum
    return _odd_values(d // 2, ns) if d % 2 else _even_values(d // 2, ns)


# route name -> row kernel: the ascending distinct ns >= 1 of one d -> their values, or a
# ValueError for a d the route does not serve; the general route takes an omega, 2n by default.
# Each entry looks its kernel up on this module when called, so a replaced one (by a test or
# a tracer) is the one that runs.
ROUTES = {
    "general": lambda ns, d, omega=None: [
        heat_invariant_general(n, d, 2 * n if omega is None else omega) for n in ns
    ],
    "odd": lambda ns, d: _parity_values("odd", ns, d),
    "even": lambda ns, d: _parity_values("even", ns, d),
    "closed": lambda ns, d: [heat_invariant_closed(n, d) for n in ns],
}
FORMULAS = ("auto", *ROUTES)  # heat_invariant's formula: "auto" picks a route, the rest name one


def _general_is_cheaper(ns: list[int], d: int) -> bool:
    """The "auto" rule for the ascending distinct ns >= 1 of one d: the general route
    (omega = 2n) when sum over ns of (3n^2 + a + 8) < a (min(max ns, a - 1) + 1), a = d // 2,
    else the parity route of d.  That is 2n^2 h-steps per n, weighted 3/2, and a + 8 per cell
    (fitted while the general route formed factorials of size d), against a K-table of a roots
    cut to top + 1; for one n, from d = 24 at n = 1 and from d = 6n + 2 on for n >= 9."""
    a = d // 2
    return bool(ns) and sum(3 * n * n + a + 8 for n in ns) < a * (min(ns[-1], a - 1) + 1)


def heat_invariant(
    n: int, d: int, omega: int | None = None, formula: str = "auto"
) -> HeatInvariantResult:
    """One cell: the row of one, `heat_invariant_row([n], d, omega, formula)`."""
    (result,) = heat_invariant_row([n], d, omega, formula)
    return result


def heat_invariant_row(
    ns: Iterable[int], d: int, omega: int | None = None, formula: str = "auto"
) -> list[HeatInvariantResult]:
    """The dispatcher over `ROUTES`: [a_{n,d} for n in ns], recording which route ran.

    d, omega and every n (integers), the formula name and the omega/formula
    pairing are validated before anything is computed.  n = 0 is always the
    Weyl term (no formula covers it), ahead of both `omega` and `formula`.
    A named formula runs its route, and an explicit omega the general route
    at that omega.  "auto" takes, once per request, the route that
    `_general_is_cheaper` picks; the records say which ran, so a row and its
    cells may differ in route, never in value.

    The route's kernel runs once over the distinct n >= 1, ascending: both
    parity routes are a Cauchy product of e^(rho^2 t), rho = (d-1)/2, with
    an n-independent series (Cahn-Wolf), so the K-table and the series are
    built once up to max(ns).
    """
    d = integer("d", d)
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    omega = None if omega is None else integer("omega", omega)
    ns = [integer("n", n) for n in ns]
    for n in ns:
        if n < 0:
            raise ValueError(f"n must be nonnegative, got {n}")
    if formula not in FORMULAS:
        raise ValueError(f"unknown formula {formula!r}")
    if omega is not None and formula not in ("auto", "general"):
        raise ValueError(f"omega is incompatible with formula {formula!r}; it is the general route's")

    distinct = sorted(set(ns) - {0})
    if formula == "auto":  # an explicit omega forces the general route
        general = omega is not None or _general_is_cheaper(distinct, d)
        formula = "general" if general else _PARITY[d % 2]
    if formula == "general":  # the one route with an omega: 2n unless one is given
        omegas = [2 * n if omega is None else omega for n in distinct]
        values = ROUTES["general"](distinct, d, omega)
    else:  # a request with no n >= 1 asks no route to serve d
        omegas = [None] * len(distinct)
        values = ROUTES[formula](distinct, d) if distinct else ()
    results = {n: HeatInvariantResult(n, d, w, formula, v) for n, w, v in zip(distinct, omegas, values)}
    if 0 in ns:
        results[0] = HeatInvariantResult(0, d, None, "weyl", weyl_leading_term(d))
    return [results[n] for n in ns]


def verify_crosscheck(
    n: tuple[int, int] = (1, 8), d: tuple[int, int] = (2, 11)
) -> VerificationReport:
    """The general entry of `ROUTES` against the parity entry of each d, cell by
    cell, so that the parity route runs even where `auto` would not take it."""
    (n_lo, n_hi), (d_lo, d_hi) = [integer("n", end) for end in n], [integer("d", end) for end in d]
    report = VerificationReport(
        "crosscheck", [("n", f"{n_lo}..{n_hi}"), ("d", f"{d_lo}..{d_hi}")]
    )
    ns = range(n_lo, n_hi + 1)
    for d in range(d_lo, d_hi + 1):
        # the general side first: a bad n or d raises its error, as cell by cell did
        for k, general, parity in zip(ns, ROUTES["general"](ns, d), ROUTES[_PARITY[d % 2]](ns, d)):
            report.record({"n": k, "d": d}, general, parity)
    return report


def verify_omega_stability(
    n: tuple[int, int] = (1, 6), d: tuple[int, int] = (1, 8)
) -> VerificationReport:
    """Value must not move anywhere on omega in [2n, 3n+4]."""
    (n_lo, n_hi), (d_lo, d_hi) = [integer("n", end) for end in n], [integer("d", end) for end in d]
    report = VerificationReport(
        "omega-stability",
        [("n", f"{n_lo}..{n_hi}"), ("d", f"{d_lo}..{d_hi}"), ("omega", "2n..3n+4")],
    )
    for d in range(d_lo, d_hi + 1):
        for n in range(n_lo, n_hi + 1):
            base, *pairs = _general_pairs(n, d, range(2 * n, 3 * n + 5))
            for omega, pair in enumerate(pairs, 2 * n + 1):
                # both values are weyl(d) != 0 times their pair: equal iff the pairs cross-multiply
                if pair[0] * base[1] == base[0] * pair[1]:
                    report.points_checked += 1
                else:
                    values = (weyl_leading_term(d) * Fraction(*p) for p in (pair, base))
                    report.record({"n": n, "d": d, "omega": omega}, *values)
    return report


def verify_sharpness(
    points: tuple[tuple[int, int], ...] = ((1, 1), (2, 1), (2, 3))
) -> VerificationReport:
    """omega = 2n - 1 must give a different number than omega = 2n."""
    points = [(integer("n", n), integer("d", d)) for n, d in points]
    report = VerificationReport(
        "sharpness", [("(n,d)", ",".join(f"({n},{d})" for n, d in points))]
    )
    for n, d in points:
        below, at_bound = _general_pairs(n, d, [2 * n - 1, 2 * n])
        differ = below[0] * at_bound[1] != at_bound[0] * below[1]  # as in verify_omega_stability
        report.record({"n": n, "d": d}, differ, True)
        if differ:
            below, at_bound = (weyl_leading_term(d) * Fraction(*p) for p in (below, at_bound))
            report.notes.append(
                f"(n={n}, d={d}): omega={2 * n - 1} gives {below}, omega={2 * n} gives {at_bound}"
            )
    return report
