"""Closed product formulas for interval and face counts, with identity checks.

`table a` and `table b` print a_row and b_row, which step each row by its
term ratio from the first cell, one small product and one exact division
per cell.  a_formula and b_formula evaluate each cell on its own from two
binomials; they are the public API and the oracle every verify route and
the ratio-row tests read.

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
from math import comb, factorial

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
        raise ArithmeticError(f"non-exact division in {what}: "
                              f"{numerator}/{denominator}")
    return quotient


# ===================================================================
# counting formulas
# ===================================================================

def catalan(n: int) -> int:
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _exact_div(comb(2 * n, n), n + 1, "catalan")


def fuss_catalan(m: int, n: int) -> int:
    """Number of lattice elements: C((m+1)n, n)/(mn+1)."""
    if m < 1 or n < 0:
        raise ValueError("need m >= 1 and n >= 0")
    return _exact_div(comb((m + 1) * n, n), m * n + 1, "fuss_catalan")


def a_formula(n: int, k: int) -> int:
    """Intervals of size n with des(lower) + asc(upper) = k."""
    if n < 1:
        raise ValueError("n must be positive")
    if k < 0 or k >= n:
        return 0
    return _exact_div(2 * binomial(n + 1, k + 2) * binomial(3 * n, k),
                      n * (n + 1), "a_formula")


def b_formula(n: int, k: int) -> int:
    """k-dimensional faces of the diagonal on n+1 leaves."""
    if n < 1:
        raise ValueError("n must be positive")
    if k < 0 or k >= n:
        return 0
    return _exact_div(2 * binomial(n - 1, k) * binomial(4 * n + 1 - k, n + 1),
                      (3 * n + 1) * (3 * n + 2), "b_formula")


def a_row(n: int) -> list:
    """[a(n, k) for k < n] from a(n, 0) = 1 by the in-row term ratio
    a(n, k+1)/a(n, k) = (n-k-1)(3n-k) / ((k+3)(k+1)), each step exact."""
    if n < 1:
        raise ValueError("n must be positive")
    row = [1]
    for k in range(n - 1):
        row.append(_exact_div(row[-1] * (n - k - 1) * (3 * n - k),
                              (k + 3) * (k + 1), "a_row"))
    return row


def b_row(n: int) -> list:
    """[b(n, k) for k < n] from b(n, 0) by the in-row term ratio
    b(n, k+1)/b(n, k) = (n-1-k)(3n-k) / ((k+1)(4n+1-k)), each step exact."""
    row = [b_formula(n, 0)]
    for k in range(n - 1):
        row.append(_exact_div(row[-1] * (n - 1 - k) * (3 * n - k),
                              (k + 1) * (4 * n + 1 - k), "b_row"))
    return row


def face_count_formula(n: int) -> int:
    """All faces of the diagonal on n+1 leaves: sum over k of b(n, k)."""
    return sum(b_formula(n, k) for k in range(n))


def interval_count_formula(n: int) -> int:
    """Total interval count 2 C(4n+1, n+1) / ((3n+1)(3n+2))."""
    return b_formula(n, 0)


def synchronized_variants(n: int) -> tuple:
    """The synchronized-interval count in its four printed disguises."""
    if n < 1:
        raise ValueError("n must be positive")
    return (
        a_formula(n, n - 1),
        _exact_div(2 * comb(3 * n, n - 1), n * (n + 1), "sync via C(3n,n-1)"),
        _exact_div(2 * comb(3 * n, n), (n + 1) * (2 * n + 1),
                   "sync via C(3n,n)"),
        _exact_div(2 * comb(3 * n + 2, n + 1), (3 * n + 1) * (3 * n + 2),
                   "sync via C(3n+2,n+1)"),
    )


def synchronized_formula(n: int) -> int:
    return synchronized_variants(n)[2]


def new_interval_formula(n: int) -> int:
    """Intervals new at size n; also the internal vertices of the diagonal.

    3·2^(n-2)/(n(n+1))·C(2n-2, n-1) for n >= 2; the single interval at
    n = 1 is new by convention.
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
    return _exact_div((m + 1) * comb((m + 1) ** 2 * n + m, n - 1),
                      n * (m * n + 1), "m_tamari_intervals_formula")


def refined_formulas(n: int, i: int) -> int:
    """Intervals of size n whose lower tree has i interior axis contacts.

    Product formula evaluated at j = i + 2:
    (j-1)·(4n-2j+1)!/((3n-j+2)!(n-j+1)!)·C(2j, j).
    """
    if n < 1:
        raise ValueError("n must be positive")
    if i < 0 or i >= n:
        return 0
    j = i + 2
    numerator = (j - 1) * factorial(4 * n - 2 * j + 1) * comb(2 * j, j)
    denominator = factorial(3 * n - j + 2) * factorial(n - j + 1)
    return _exact_div(numerator, denominator, "refined_formulas")


def separated_formula(n: int, p: int) -> int:
    """Intervals of size n with des(lower) = p (and asc(upper) = n-1-p).

    Product formula evaluated at q = p + 1:
    (n+q-1)!(2n-q)! / (q!(n+1-q)!(2q-1)!(2n-2q+1)!).
    """
    if n < 1:
        raise ValueError("n must be positive")
    if p < 0 or p >= n:
        return 0
    q = p + 1
    numerator = factorial(n + q - 1) * factorial(2 * n - q)
    denominator = (factorial(q) * factorial(n + 1 - q)
                   * factorial(2 * q - 1) * factorial(2 * n - 2 * q + 1))
    return _exact_div(numerator, denominator, "separated_formula")


def interval_row_polynomial(n: int) -> ZPolynomial:
    """Row n of the interval table as a polynomial in z."""
    return ZPolynomial(tuple(a_formula(n, k) for k in range(n)))


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
    face = [[1]] + [[b_formula(n, k) for k in range(n)]
                    for n in range(1, nmax + 1)]
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
    if n < 1:
        raise ValueError("n must be positive")
    checks = [
        ("a(n,0) = 1", a_formula(n, 0) == 1),
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
    which equal a~_n(z + 1).
    """
    failures = []
    checked = 0
    for n in range(1, n_max + 1):
        etas = eta_polynomials(n)
        sides = (
            ("interval", etas,
             [interval_row_polynomial(n + i) for i in range(3)]),
            ("face", [eta.shift_z(1) for eta in etas],
             [ZPolynomial(tuple(b_formula(n + i, k) for k in range(n + i)))
              for i in range(3)]),
        )
        for side, (eta0, eta1, eta2), (row0, row1, row2) in sides:
            residual = eta0 * row0 + eta1 * row1 + eta2 * row2
            checked += 1
            if not residual.is_zero:
                failures.append({"side": side, "n": n,
                                 "residual_degree": residual.degree()})
    return {"n_max": n_max, "checked": checked, "failures": failures,
            "ok": not failures}
