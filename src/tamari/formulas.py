"""Closed product formulas for interval and face counts, with identity checks.

Every hypergeometric closed form is written once, as a term (c, factors):
c times the product of Gamma(alpha·n + beta·k + gamma)^e over its factors
(alpha, beta, gamma, e), e = ±1.  term_value evaluates a term at one
(n, k), pairing numerator and denominator Gammas into falling factorials;
term_row steps a row k < n from its first cell by the term ratio read off
the same factors, one small product and one exact division per cell.
`table a` and `table b` print term_row(A, n) and term_row(B, n); a_formula,
b_formula and the other count formulas evaluate one cell and are the
public API.

internal_rows reads the internal f-vector off the face rows b(n, k) by a
recursion over coefficient lists in y, multiplied by the one dense kernel
polys._add_product; it enumerates nothing.

Everything here is exact big-integer arithmetic: formulas multiply first and
divide last, and every division asserts exactness — a remainder anywhere is
a bug, never a rounding concern.

Conventions: C(p, q) = 0 whenever q < 0 or q > p (in particular for p < 0),
so sums can run over convenient ranges; count formulas return 0 outside
their combinatorial support instead of raising.
"""
from __future__ import annotations

from fractions import Fraction
from functools import partial, reduce
from itertools import repeat, zip_longest
from math import comb, perm
from operator import mul

from .equations import eta_polynomials
from .polys import ZPolynomial, _add_product


def binomial(p: int, q: int) -> int:
    """C(p, q) with out-of-range arguments giving 0."""
    if q < 0 or p < 0 or q > p:
        return 0
    return comb(p, q)


def _exact_div(numerator: int, denominator: int, what: str) -> int:
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        # the operands' sizes, not their digits: formatting an int past
        # 4,300 digits raises ValueError, and the message stays short
        raise ArithmeticError(
            f"non-exact division in {what}: a {numerator.bit_length()}-bit"
            f" numerator over a {denominator.bit_length()}-bit denominator")
    return quotient


# ===================================================================
# terms: c · prod Gamma(alpha·n + beta·k + gamma)^e
# ===================================================================

# a(n, k) = 2 (n-1)! (3n)! / ((k+2)! (n-k-1)! k! (3n-k)!)
A = (2, ((1, 0, 0, 1), (3, 0, 1, 1), (0, 1, 3, -1), (1, -1, 0, -1),
         (0, 1, 1, -1), (3, -1, 1, -1)))
# b(n, k) = 2 (n-1)! (4n-k+1)! (3n)! / (k! (n-k-1)! (n+1)! (3n-k)! (3n+2)!)
B = (2, ((1, 0, 0, 1), (4, -1, 2, 1), (3, 0, 1, 1), (0, 1, 1, -1),
         (1, -1, 0, -1), (1, 0, 2, -1), (3, -1, 1, -1), (3, 0, 3, -1)))
# by ell, at j = k+2: (j-1) (4n-2j+1)! (2j)! / ((3n-j+2)! (n-j+1)! j! j!)
REFINED = (1, ((0, 1, 2, 1), (0, 1, 1, -1), (4, -2, -2, 1), (0, 2, 5, 1),
               (3, -1, 1, -1), (1, -1, 0, -1), (0, 1, 3, -1), (0, 1, 3, -1)))
# by des, at q = k+1: (n+q-1)! (2n-q)! / (q! (n+1-q)! (2q-1)! (2n-2q+1)!)
SEPARATED = (1, ((1, 1, 1, 1), (2, -1, 0, 1), (0, 1, 2, -1), (1, -1, 1, -1),
                 (0, 2, 2, -1), (2, -2, 0, -1)))
# 2 (3n)! / ((n+1)! (2n+1)!)
SYNCHRONIZED = (2, ((3, 0, 1, 1), (1, 0, 2, -1), (2, 0, 2, -1)))


def term_value(term, n: int, k: int = 0) -> int:
    """The term at (n, k), every Gamma argument positive.

    The arguments of each side sorted largest first, the numerator and
    denominator Gammas of one rank make one falling factorial, an unpaired
    one a factorial (Gamma(1) = 1 pads the shorter side); one exact
    division at the end.
    """
    over, under = (sorted((a * n + b * k + g for a, b, g, e in term[1]
                           if e == sign), reverse=True) for sign in (1, -1))
    top, bottom = term[0], 1
    for p, q in zip_longest(over, under, fillvalue=1):
        if p >= q:
            top *= perm(p - 1, p - q)
        else:
            bottom *= perm(q - 1, q - p)
    return _exact_div(top, bottom, "term_value")


def term_row(term, n: int) -> list:
    """[term(n, k) for k < n], n >= 1: term_value at k = 0, then each cell
    from the last by the term ratio, one exact division per cell.

    Stepping k by one moves x = alpha·n + beta·k + gamma to x + beta, and
    Gamma(x + beta)/Gamma(x) is x(x+1)...(x+beta-1) for beta > 0 and
    1/((x-1)(x-2)...(x+beta)) for beta < 0: each factor gives |beta|
    linear factors in k, over or under by the signs of beta and e.
    """
    over, under = [], []
    for a, b, g, e in term[1]:
        x = a * n + g
        side = over if (b > 0) == (e > 0) else under
        side += [range(y, y + b * (n - 1), b)
                 for y in range(min(x, x + b), max(x, x + b))]
    row = [term_value(term, n)]
    for p, q in zip(*(reduce(partial(map, mul), side, repeat(1, n - 1))
                      for side in (over, under))):
        row.append(_exact_div(row[-1] * p, q, "term_row"))
    return row


# ===================================================================
# counting formulas
# ===================================================================

def _cell(term, n: int, k: int) -> int:
    """The term at (n, k) on its support 0 <= k < n, else 0; n >= 1."""
    if n < 1:
        raise ValueError("n must be positive")
    return term_value(term, n, k) if 0 <= k < n else 0


def catalan(n: int) -> int:
    """C_n = (2n)!/(n!(n+1)!), the Fuss-Catalan number at m = 1."""
    return fuss_catalan(1, n)


def fuss_catalan(m: int, n: int) -> int:
    """Number of lattice elements: C((m+1)n, n)/(mn+1)."""
    if m < 1 or n < 0:
        raise ValueError("need m >= 1 and n >= 0")
    return term_value(
        (1, ((m + 1, 0, 1, 1), (1, 0, 1, -1), (m, 0, 2, -1))), n)


def a_formula(n: int, k: int) -> int:
    """Intervals of size n with des(lower) + asc(upper) = k."""
    return _cell(A, n, k)


def b_formula(n: int, k: int) -> int:
    """k-dimensional faces of the diagonal on n+1 leaves."""
    return _cell(B, n, k)


def face_count_formula(n: int) -> int:
    """All faces of the diagonal on n+1 leaves: sum over k of b(n, k)."""
    return sum(term_row(B, n))


def interval_count_formula(n: int) -> int:
    """Total interval count 2 C(4n+1, n+1) / ((3n+1)(3n+2))."""
    return b_formula(n, 0)


def synchronized_variants(n: int) -> tuple:
    """The synchronized-interval count in its four printed disguises."""
    return (
        a_formula(n, n - 1),  # first: it refuses n < 1
        _exact_div(2 * comb(3 * n, n - 1), n * (n + 1), "sync via C(3n,n-1)"),
        _exact_div(2 * comb(3 * n, n), (n + 1) * (2 * n + 1),
                   "sync via C(3n,n)"),
        _exact_div(2 * comb(3 * n + 2, n + 1), (3 * n + 1) * (3 * n + 2),
                   "sync via C(3n+2,n+1)"),
    )


def synchronized_formula(n: int) -> int:
    return _cell(SYNCHRONIZED, n, 0)  # the list does not read k


def new_interval_formula(n: int) -> int:
    """Intervals new at size n; also the internal vertices of the diagonal.

    3·2^(n-2)/(n(n+1))·C(2n-2, n-1) for n >= 2; the single interval at
    n = 1 is new by convention.  Written by hand: 2^(n-2) is no Gamma of
    an integer-linear argument.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return 1
    return _exact_div(3 * 2 ** (n - 2) * comb(2 * n - 2, n - 1),
                      n * (n + 1), "new_interval_formula")


def m_tamari_intervals_formula(m: int, n: int) -> int:
    """Intervals of the slope-m lattice: (m+1)/(n(mn+1))·C((m+1)²n+m, n-1)."""
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    return term_value((m + 1, (((m + 1) ** 2, 0, m + 1, 1), (m, 0, 1, 1),
                               (1, 0, 1, -1), (m, 0, 2, -1),
                               (m * (m + 2), 0, m + 2, -1))), n)


def refined_formulas(n: int, i: int) -> int:
    """Intervals of size n whose lower tree has i interior axis contacts."""
    return _cell(REFINED, n, i)


def separated_formula(n: int, p: int) -> int:
    """Intervals of size n with des(lower) = p (and asc(upper) = n-1-p)."""
    return _cell(SEPARATED, n, p)


def interval_row_polynomial(n: int) -> ZPolynomial:
    """Row n of the interval table as a polynomial in z."""
    return ZPolynomial(tuple(term_row(A, n)))


# ===================================================================
# internal faces from the face rows
# ===================================================================

def internal_row_products(nmax: int) -> int:
    """The coefficient products internal_rows(nmax) makes, exactly:
    (nmax-1)·nmax·(nmax+1)·(nmax²+5·nmax+26)/120."""
    return _exact_div((nmax - 1) * nmax * (nmax + 1)
                      * (nmax * nmax + 5 * nmax + 26), 120,
                      "internal_row_products")


def internal_rows(nmax: int) -> list:
    """Rows 1..nmax of the internal f-vector, from b(n, k) alone.

    With B_n(y) = sum_k b(n, k) y^k and T(x) = x + sum_{n>=1} B_n(y) x^(n+1),
    the internal rows are the unique I_n(y) with
    x = T - sum_{a>=2} I_{a-1}(y) T^a: a face lies in the relative interior
    of one face of the associahedron, on which the diagonal is the product
    of the diagonals of its factors (the face property of the operadic
    diagonal; at y = 0, Chapoton's relation between intervals and new
    intervals).  Reading off [x^(n+1)],

        I_n = B_n - sum_{a=2}^{n} I_{a-1} · [x^(n+1-a)] (T/x)^a.

    power holds [x^j] (T/x)^a for j <= nmax+1-a, one coefficient list in y
    each, and is multiplied by T/x = 1 + sum_i B_i x^i once per a.  Row
    a-1 is final when a is reached, since a only subtracts from rows n >= a.
    """
    face = [[1]] + [term_row(B, n) for n in range(1, nmax + 1)]
    rows = [list(row) for row in face[1:]]
    power = face[:nmax]
    for a in range(2, nmax + 1):
        top = nmax + 1 - a
        raised = [[1]] + [list(power[j]) for j in range(1, top + 1)]
        for j in range(1, top + 1):
            for i in range(1, j + 1):
                _add_product(raised[j], power[j - i], face[i])
        power = raised
        for n in range(a, nmax + 1):
            _add_product(rows[n - 1], rows[a - 2], power[n + 1 - a], -1)
    return rows


# ===================================================================
# identity checkers
# ===================================================================

def chu_vandermonde_sides(n: int, k: int, r: int) -> tuple:
    """Both sides of the contracted Chu-Vandermonde identity.

    lhs = sum_{l=k}^{n-1} C(n+1, l+2) C(r, l) C(l, k)
    rhs = n(n+1)/((r+1)(r+2)) · C(n-1, k) · C(r+n+1-k, n+1)
    """
    if n < 0 or k < 0 or r < 0:
        raise ValueError("n, k, r must be nonnegative")
    lhs = sum(binomial(n + 1, l + 2) * binomial(r, l) * binomial(l, k)
              for l in range(k, n))
    rhs = (Fraction(n * (n + 1), (r + 1) * (r + 2))
           * binomial(n - 1, k) * binomial(r + n + 1 - k, n + 1))
    return (lhs, rhs)


def chu_vandermonde_check(n: int, k: int, r: int) -> bool:
    lhs, rhs = chu_vandermonde_sides(n, k, r)
    return lhs == rhs


def specialization_suite(n: int) -> dict:
    """All the printed specializations of the count formulas at one n."""
    checks = [
        ("a(n,0) = 1", a_formula(n, 0) == 1),  # first: it refuses n < 1
        ("a(n,1) = n(n-1)", a_formula(n, 1) == n * (n - 1)),
        ("a(n,n-3) = C(3n,n-3)",
         a_formula(n, n - 3) == binomial(3 * n, n - 3)),
        ("a(n,n-2) = (2/n)C(3n,n-2)",
         n * a_formula(n, n - 2) == 2 * binomial(3 * n, n - 2)),
        ("synchronized count forms agree",
         len(set(synchronized_variants(n))) == 1),
        ("synchronized = b(n,n-1)",
         synchronized_formula(n) == b_formula(n, n - 1)),
        ("sum of a-row = b(n,0)",
         sum(a_formula(n, k) for k in range(n)) == b_formula(n, 0)),
        ("b(n,k) is the binomial transform of the a-row",
         all(b_formula(n, k) ==
             sum(a_formula(n, l) * binomial(l, k) for l in range(n))
             for k in range(n))),
    ]
    failures = [name for name, ok in checks if not ok]
    return {"n": n, "checked": len(checks), "failures": failures,
            "ok": not failures}


def two_term_recurrence_check(n_max: int) -> dict:
    """Both printed two-term recurrences against a_formula.

    The relations stay written out by hand, so they check the A list that
    a_formula evaluates instead of restating its term ratio:

    k(k+2)x(n,k) = (3n+1-k)(n-k)x(n,k-1)             for 1 <= k <= n-1,
    (3n-k-2)(3n-k-1)(3n-k)(n-k-1)x(n,k)
        = 3n(n-1)(3n-1)(3n-2)x(n-1,k)                for 0 <= k <= n-2.
    """
    failures = []
    checked = 0
    for n in range(2, n_max + 1):
        for k in range(1, n):
            checked += 1
            lhs = k * (k + 2) * a_formula(n, k)
            rhs = (3 * n + 1 - k) * (n - k) * a_formula(n, k - 1)
            if lhs != rhs:
                failures.append({"relation": "in-row", "n": n, "k": k,
                                 "lhs": lhs, "rhs": rhs})
        for k in range(0, n - 1):
            checked += 1
            lhs = ((3 * n - k - 2) * (3 * n - k - 1) * (3 * n - k)
                   * (n - k - 1) * a_formula(n, k))
            rhs = (3 * n * (n - 1) * (3 * n - 1) * (3 * n - 2)
                   * a_formula(n - 1, k))
            if lhs != rhs:
                failures.append({"relation": "cross-row", "n": n, "k": k,
                                 "lhs": lhs, "rhs": rhs})
    return {"n_max": n_max, "checked": checked, "failures": failures,
            "ok": not failures}


def telescoped_recurrence_check(n_max: int) -> dict:
    """The order-2 telescoped recurrence on interval rows, both weightings.

    For each n, eta0(n)·a~_n + eta1(n)·a~_{n+1} + eta2(n)·a~_{n+2} must be
    the zero z-polynomial; the face-count side applies the same etas with
    z shifted by one to the rows sum_k b(n, k) z^k of the face formula,
    which equal a~_n(z + 1).  Each row is built once: a window holds the
    (interval, face) rows n, n+1 and n+2, and slides by one row per n.
    """
    def rows(n):
        return interval_row_polynomial(n), ZPolynomial(tuple(term_row(B, n)))

    failures = []
    checked = 0
    window = [rows(1), rows(2)]
    for n in range(1, n_max + 1):
        window.append(rows(n + 2))
        interval, face = zip(*window)
        del window[0]
        etas = eta_polynomials(n)
        sides = (
            ("interval", etas, interval),
            ("face", [eta.shift_z(1) for eta in etas], face),
        )
        for side, (eta0, eta1, eta2), (row0, row1, row2) in sides:
            residual = eta0 * row0 + eta1 * row1 + eta2 * row2
            checked += 1
            if not residual.is_zero:
                failures.append({"side": side, "n": n,
                                 "residual_degree": residual.degree()})
    return {"n_max": n_max, "checked": checked, "failures": failures,
            "ok": not failures}
