"""Truncated power-series kernel and functional-equation verification.

A TruncatedSeries is a series in t, truncated at a stated order, whose
t-coefficients are exact z-polynomials (ZPolynomial).  All arithmetic is
exact modulo t^(order+1); there is no floating point in this module.
Binary operations truncate to the smaller order; d/dt lowers the order
by one.  The truncation order is part of the value, not a convention.

An equation P(t, z, X) = 0 is a MonomialPolynomial in (t, z, X), and
substitute evaluates it at a series X.  On top of that:

  * newton_solve finds the unique root with zero constant term of a regular
    equation, with a built-in residual self-check;
  * lagrange_coeff evaluates the z-row [t^n] S^r = (r/n) [s^(n-r)] phi(s, z)^n
    for S = t·phi(S, z), the root newton_solve finds of X - t·phi(X, z),
    from one power of phi;
  * verify_parametrization clears the denominator of the rational curve
    t = s/((s+1)(sz+1)^3), X = s - zs^2 - zs^3 in the quartic;
  * catalytic_equation_check builds the contact-graded interval series
    from the rows of lattice.contact_cells it is given and checks its
    quadratic functional equation;
  * verify_pde applies the three annihilating differential operators;
  * canopy_cells solves the two-equation canopy system of Fusy and
    Humbert degree by degree, each homogeneous part of each series made
    once as rows of coefficient lists through polys' dense kernel, reads F
    off the two unknowns with no division, and checks its answer once in
    the system as printed, on truncated MonomialPolynomials;
    canopy_rows reads its cells as the (des, asc) rows that `table
    refined-pq` prints, and `table face-dims` at (x + 1, y + 1);
  * fusy_humbert_check compares those rows with the (des, asc) rows of
    paths.cover_table it is given, plus the system's one-variable
    specialization.

The two checks against enumeration take their rows as arguments: the
verify suites of tamari.cli enumerate them, so this module only solves
and checks, and no function here takes a budget.

The other multivariate systems (the catalytic equation, the Lagrange
powers) are truncated MonomialPolynomial expressions written as printed;
`polys` decides how every polynomial is stored and multiplied.
"""
from __future__ import annotations

from fractions import Fraction

from .equations import QUARTIC, pde_operators
from .formulas import binomial
from .polys import MonomialPolynomial, ZPolynomial, _add_product


def _as_zpoly(value) -> ZPolynomial:
    if isinstance(value, ZPolynomial):
        return value
    return ZPolynomial.constant(value)


# ===================================================================
# truncated series in t over Q[z]
# ===================================================================

class TruncatedSeries:
    """Series sum_{n <= order} c_n(z) t^n, exact mod t^(order+1)."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs, order: int):
        if order < 0:
            raise ValueError("order must be nonnegative")
        padded = [_as_zpoly(c) for c in coeffs][:order + 1]
        padded.extend([ZPolynomial.zero()] * (order + 1 - len(padded)))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(padded))

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    # ------------------------------------------------ constructors
    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls((), order)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls((ZPolynomial.one(),), order)

    @classmethod
    def t(cls, order: int) -> "TruncatedSeries":
        return cls((ZPolynomial.zero(), ZPolynomial.one()), order)

    @classmethod
    def from_polynomial(cls, poly: dict, order: int) -> "TruncatedSeries":
        """Series from a {(t_exp, z_exp): coeff} polynomial dict."""
        rows: list = [dict() for _ in range(order + 1)]
        for (i, j), value in poly.items():
            if i <= order:
                rows[i][j] = rows[i].get(j, 0) + value
        return cls(tuple(ZPolynomial.from_pairs(row.items())
                         for row in rows), order)

    # ------------------------------------------------ queries
    def coefficient(self, n: int) -> ZPolynomial:
        if not 0 <= n <= self.order:
            raise IndexError(f"t^{n} is beyond truncation order {self.order}")
        return self.coeffs[n]

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coeffs)

    def valuation(self):
        """t-adic valuation, or None for the (truncated) zero series."""
        for n, c in enumerate(self.coeffs):
            if not c.is_zero:
                return n
        return None

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        common = min(self.order, other.order)
        return self.coeffs[:common + 1] == other.coeffs[:common + 1]

    def __hash__(self):
        raise TypeError("unhashable: equality is order-relative")

    def __repr__(self):
        return f"TruncatedSeries(order={self.order}, {self!s})"

    def __str__(self):
        parts = []
        for n, poly in enumerate(self.coeffs):
            for k in range(poly.degree() + 1):
                c = poly.coefficient(k)
                if c:
                    parts.append(f"{c}*t^{n}*z^{k}")
        return " + ".join(parts) if parts else "0"

    # ------------------------------------------------ ring operations
    def _common(self, other) -> int:
        if not isinstance(other, TruncatedSeries):
            raise TypeError("expected a TruncatedSeries")
        return min(self.order, other.order)

    def __add__(self, other):
        order = self._common(other)
        return TruncatedSeries(
            tuple(a + b for a, b in
                  zip(self.coeffs[:order + 1], other.coeffs[:order + 1])),
            order)

    def __neg__(self):
        return TruncatedSeries(tuple(-c for c in self.coeffs), self.order)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        order = self._common(other)
        out: list = []
        for n in range(order + 1):
            acc: list = []
            for i in range(n + 1):
                _add_product(acc, self.coeffs[i].coeffs,
                             other.coeffs[n - i].coeffs)
            out.append(ZPolynomial(acc))
        return TruncatedSeries(out, order)

    def scale(self, factor) -> "TruncatedSeries":
        """Multiply by a scalar or a z-polynomial (no t content)."""
        factor = _as_zpoly(factor)
        return TruncatedSeries(tuple(c * factor for c in self.coeffs),
                               self.order)

    def mul_t(self, power: int = 1) -> "TruncatedSeries":
        """Multiply by t^power, keeping the truncation order."""
        if power < 0:
            raise ValueError("power must be nonnegative")
        shifted = (ZPolynomial.zero(),) * power + self.coeffs
        return TruncatedSeries(shifted[:self.order + 1], self.order)

    def div_by_unit(self, den: "TruncatedSeries") -> "TruncatedSeries":
        """Divide by a series whose constant term is a nonzero rational.

        A head of 1 or -1 is its own inverse, so integer series stay int.
        """
        order = self._common(den)
        head = den.coeffs[0]
        if head.is_zero or head.degree() > 0:
            raise ValueError(
                "division requires a unit: nonzero constant term free of z")
        inverse_head = head.constant_term
        if inverse_head not in (1, -1):
            inverse_head = Fraction(1) / inverse_head
        out: list = []
        for k in range(order + 1):
            acc = list(self.coeffs[k].coeffs)
            for i in range(k):
                _add_product(acc, out[i].coeffs, den.coeffs[k - i].coeffs, -1)
            out.append(ZPolynomial([c * inverse_head for c in acc]))
        return TruncatedSeries(out, order)

    # ------------------------------------------------ substitutions
    def substitute_z_shift(self, shift) -> "TruncatedSeries":
        """z -> z + shift in every coefficient."""
        return TruncatedSeries(
            tuple(c.shift_z(shift) for c in self.coeffs), self.order)

    def evaluate_z(self, value) -> "TruncatedSeries":
        """Specialize z to an exact rational."""
        return TruncatedSeries(
            tuple(ZPolynomial.constant(c.evaluate(value))
                  for c in self.coeffs), self.order)

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        return TruncatedSeries(self.coeffs[:order + 1], order)

    # ------------------------------------------------ calculus
    def differentiate_t(self) -> "TruncatedSeries":
        """d/dt; the result is trustworthy only to order-1."""
        if self.order == 0:
            raise ValueError("cannot differentiate an order-0 series in t")
        return TruncatedSeries(
            tuple(self.coeffs[n].scale(n) for n in range(1, self.order + 1)),
            self.order - 1)

    def differentiate_z(self) -> "TruncatedSeries":
        return TruncatedSeries(
            tuple(c.derivative() for c in self.coeffs), self.order)


# ===================================================================
# polynomial equations in (t, z, X) and their series roots
# ===================================================================

def substitute(poly: MonomialPolynomial, x: TruncatedSeries
               ) -> TruncatedSeries:
    """P(t, z, x) for a polynomial P in (t, z, X), by Horner in X."""
    by_x: dict = {}
    for (i, j, k), c in poly.terms.items():
        by_x.setdefault(k, {})[(i, j)] = c
    result = TruncatedSeries.zero(x.order)
    for k in range(max(by_x, default=0), -1, -1):
        result = result * x + TruncatedSeries.from_polynomial(
            by_x.get(k, {}), x.order)
    return result


def quartic_equation() -> MonomialPolynomial:
    """The degree-4 equation satisfied by the interval series A(t, z)."""
    return MonomialPolynomial(3, {(i, j, k): c for i, j, k, c in QUARTIC})


def newton_solve(eq: MonomialPolynomial, order: int) -> TruncatedSeries:
    """Unique series root with zero constant term, mod t^(order+1).

    P must be regular: its only term free of t and of degree at most one
    in X is c·X.  Newton iteration X <- X - P(X)/P'(X) converges
    quadratically: from a root correct mod t^c, one step is correct mod
    t^(2c), so it runs at order min(2c - 1, order), starting from zero
    (correct mod t^1); the last step runs at the full order.  The root is
    re-substituted into P at the full order as a self-check.
    """
    if {(j, k) for (i, j, k) in eq.terms if i == 0 and k <= 1} != {(0, 1)}:
        raise ValueError("equation is singular at the origin: no regular root")
    derivative = eq.derivative(2)
    x = TruncatedSeries.zero(0)
    correct = 1
    while correct <= order:
        x = TruncatedSeries(x.coeffs, min(2 * correct - 1, order))
        x = x - substitute(eq, x).div_by_unit(substitute(derivative, x))
        correct *= 2
    residual = substitute(eq, x)
    if not residual.is_zero:
        raise ArithmeticError("newton_solve self-check failed: "
                              f"nonzero residual {residual}")
    return x


def lagrange_coeff(phi: MonomialPolynomial, n: int, r: int) -> dict:
    """{k: [t^n z^k] S^r} for S = t·phi(S, z), nonzero only: the z-row
    (r/n)·[s^(n-r)] phi^n, from one power of phi."""
    if n < 1 or r < 1:
        raise ValueError("need n >= 1 and r >= 1")
    power = MonomialPolynomial(2, phi.terms, ((1, 0), n - r)) ** n
    return {k: Fraction(r, n) * c for (i, k), c in power.terms.items()
            if i == n - r}


# ===================================================================
# rational parametrization of the quartic
# ===================================================================

def cleared_parametrization(quartic: MonomialPolynomial) -> MonomialPolynomial:
    """D^d·P(s/D, z, X) on the curve t = s/D, X = s - zs^2 - zs^3, with
    D = (s+1)(sz+1)^3 and d the t-degree of the quartic P: the polynomial
    sum of c·s^i·D^(d-i)·z^j·X^k over the terms c·t^i z^j X^k of P, in
    (s, z), exact."""
    s, z = MonomialPolynomial.variables(2)
    den = (s + 1) * (s * z + 1) ** 3
    x = s - z * s**2 - z * s**3
    terms = quartic.terms
    degree = max(i for i, _, _ in terms)
    total = MonomialPolynomial(2, {})
    for (i, j, k), c in terms.items():
        total = total + c * s**i * den**(degree - i) * z**j * x**k
    return total


def verify_parametrization(quartic: MonomialPolynomial) -> bool:
    """P(t(s), z, X(s)) = 0 exactly, so mod every power of s and at every
    z: the cleared sum of cleared_parametrization is the zero polynomial,
    and D is a unit of Q[z][[s]]."""
    return not cleared_parametrization(quartic).terms


# ===================================================================
# catalytic functional equation (enumeration-fed)
# ===================================================================

def catalytic_equation_check(order: int, rows: dict) -> bool:
    """The quadratic equation of the contact-graded interval series.

    rows maps each n = 1..order to the cells of lattice.contact_cells(n),
    {((ell(s), des(s)), (asc(t), ell(t) == 0)): count}; a wrong or
    missing row fails the equations.  From them, with u marking the
    interior axis contacts ell(s) of the lower tree and z marking
    des(s) + asc(t):

        A_u  = sum over all intervals,
        A_1  = A_u at u = 1,
        A*_u = sum over intervals whose upper tree has ell(t) = 0,

    check mod t^(order+1), as identities in (u, z):

        (u-1) A_u  = t (u-1 + u(u+z-1) A_u - z A_1)(1 + uz A_u),
        A_u        = A*_u + uz A*_u A_u,
        (u-1) A*_u = t ((u-1) + z(u A_u - A_1) + (u-1) u A_u).
    """
    if order < 1:
        raise ValueError("order must be positive")
    a_u, a_1, a_star = {}, {}, {}
    for n, cells in rows.items():
        for ((ell_s, des_s), (asc_t, ell_t_zero)), count in cells.items():
            k = des_s + asc_t
            key = (n, ell_s, k)
            a_u[key] = a_u.get(key, 0) + count
            flat = (n, 0, k)
            a_1[flat] = a_1.get(flat, 0) + count
            if ell_t_zero:
                a_star[key] = a_star.get(key, 0) + count
    # polynomials in (t, u, z), exact mod t^(order+1)
    truncation = ((1, 0, 0), order)
    t, u, z = MonomialPolynomial.variables(3, truncation)
    a_u, a_1, a_star = (MonomialPolynomial(3, terms, truncation)
                        for terms in (a_u, a_1, a_star))
    return ((u - 1) * a_u
            == t * (u - 1 + u * (u + z - 1) * a_u - z * a_1)
            * (1 + u * z * a_u)
            and a_u == a_star + u * z * a_star * a_u
            and (u - 1) * a_star
            == t * ((u - 1) + z * (u * a_u - a_1) + (u - 1) * u * a_u))


# ===================================================================
# annihilating differential operators
# ===================================================================

def apply_differential_operator(terms, series: TruncatedSeries
                                ) -> TruncatedSeries:
    """Apply sum_i coeff_i(t, z)·(d/dt)^{a_i}(d/dz)^{b_i} to the series.

    The result's order is series.order minus the largest d/dt count.
    """
    result = None
    for coeff, ndt, ndz in terms:
        current = series
        for _ in range(ndt):
            current = current.differentiate_t()
        for _ in range(ndz):
            current = current.differentiate_z()
        block = TruncatedSeries.from_polynomial(coeff.terms, current.order)
        term = current * block
        result = term if result is None else result + term
    return result


def verify_pde(order: int) -> bool:
    """All three printed operators annihilate the quartic root mod t^(order-1).

    The residual is only trustworthy to order-2 (the operators contain up
    to two t-derivatives), so that is what gets checked.
    """
    if order < 3:
        raise ValueError("order must be at least 3")
    root = newton_solve(quartic_equation(), order)
    for terms in pde_operators().values():
        residual = apply_differential_operator(terms, root)
        if not residual.truncate(order - 2).is_zero:
            return False
    return True


# ===================================================================
# the canopy-pair system
# ===================================================================

def canopy_cell_products(total_degree: int) -> int:
    """The coefficient products canopy_cells(D) makes, exactly:
    3·C(D+6, 6) + 3·C(D+5, 6) + C(D+4, 6) + 15·C(D+2, 3) + 3·C(D+1, 3) - 3."""
    d = total_degree
    return (3 * binomial(d + 6, 6) + 3 * binomial(d + 5, 6)
            + binomial(d + 4, 6) + 15 * binomial(d + 2, 3)
            + 3 * binomial(d + 1, 3) - 3)


def canopy_cells(total_degree: int) -> dict:
    """{(i, j, k): [u^i v^j w^k] F} for i+j+k <= total_degree, nonzero only.

    F is the series of the canopy-pair system of Fusy and Humbert,

        U = (v + wU)(1+U)(1+V)^2,  V = (u + wV)(1+V)(1+U)^2,
        uvF = uU + vV + wUV - UV/((1+U)(1+V)),

    solved degree by degree.  Every term of U has a v and every term of V
    a u, so the parts kept are those of X = U/v and Y = V/u:

        X = (1 + wX)(1+U)(1+V)^2,  Y = (1 + wY)(1+V)(1+U)^2,
        F = X + Y + wXY - XY/((1+U)(1+V)).

    Y's equation gives XY/((1+U)(1+V)) = X(1 + wY)(1+U), so with U = vX
    the division cancels: F = Y - vX(X + wXY).

    The degree-d parts of X and Y come from parts of lower degree or
    already made at degree d, and each is made once; F's degree-d part
    reads XY below degree d - 1 and X + wXY below degree d.  A part of
    degree d is d+1 rows, row i holding the coefficients of
    u^i v^j w^(d-i-j) for j = 0..d-i; multiplying a part of degree a by one
    of degree b makes C(a+2, 2)·C(b+2, 2) coefficient products through
    polys' dense kernel, canopy_cell_products(total_degree) in all.

    Self-check, once, on MonomialPolynomials truncated above total degree
    D = total_degree: X and Y are substituted into the system for U = vX
    and V = uY divided by v and by u, and F into (F - X - Y - wXY)(1+U)(1+V)
    = -XY; a difference raises ArithmeticError.  Modulo the terms of
    total degree above D, these hold exactly when X, Y and F are right to
    degree D.
    """
    if total_degree < 0:
        raise ValueError("total_degree must be nonnegative")

    def part(d):
        return [[0] * (d + 1 - i) for i in range(d + 1)]

    def times(out, p, q, sign=1):
        for i, row in enumerate(p):
            for k, other in enumerate(q, i):
                _add_product(out[k], row, other, sign)
        return out

    def at(x, y, d):
        """The degree-d part of x·y."""
        out = part(d)
        for a in range(d + 1):
            times(out, x[a], y[d - a])
        return out

    def plus(*parts):
        return [[sum(cells) for cells in zip(*rows)] for rows in zip(*parts)]

    u, v, w = [[0, 0], [1]], [[0, 1], [0]], [[1, 0], [0]]
    one = [[1]]
    x, y = [one], [one]                  # U/v, V/u
    a, b = [one], [one]                  # 1+U, 1+V
    r = [one]                            # (1+U)(1+V)
    g, h = [one], [one]                  # (1+U)(1+V)^2, (1+V)(1+U)^2
    for d in range(1, total_degree + 1):
        a.append(times(part(d), v, x[d - 1]))
        b.append(times(part(d), u, y[d - 1]))
        r.append(at(a, b, d))
        g.append(at(r, b, d))
        h.append(at(r, a, d))
        x.append(plus(g[d], times(part(d), w, at(x, g, d - 1))))
        y.append(plus(h[d], times(part(d), w, at(y, h, d - 1))))
    xy = [at(x, y, d) for d in range(total_degree - 1)]
    x_wxy = [one] + [plus(x[d], times(part(d), w, xy[d - 1]))
                     for d in range(1, total_degree)]
    f = [one] + [plus(y[d], times(part(d), v, at(x, x_wxy, d - 1), -1))
                 for d in range(1, total_degree + 1)]

    truncation = ((1, 1, 1), total_degree)

    def poly(parts):
        return MonomialPolynomial(3, {
            (i, j, d - i - j): c for d, p in enumerate(parts)
            for i, row in enumerate(p) for j, c in enumerate(row)},
            truncation)

    big_x, big_y, big_f = poly(x), poly(y), poly(f)
    var_u, var_v, var_w = MonomialPolynomial.variables(3, truncation)
    one_plus_u, one_plus_v = 1 + var_v * big_x, 1 + var_u * big_y
    big_r = one_plus_u * one_plus_v
    big_xy = big_x * big_y
    if (big_x != (1 + var_w * big_x) * big_r * one_plus_v
            or big_y != (1 + var_w * big_y) * big_r * one_plus_u
            or (big_f - big_x - big_y - var_w * big_xy) * big_r != -big_xy):
        raise ArithmeticError("the canopy series do not satisfy the "
                              "canopy-pair system")
    return {(i, j, d - i - j): c for d, p in enumerate(f)
            for i, row in enumerate(p) for j, c in enumerate(row) if c}


def canopy_rows(cells: dict) -> dict:
    """{n: {(p, q): count}} off canopy_cells: [u^i v^j w^k] F counts the
    intervals s <= t of size n = i+j+k+1 with p = j = des(s), q = i = asc(t)
    (their canopies agree in '+' at des(s), in '-' at asc(t) places)."""
    rows: dict = {}
    for (i, j, k), count in cells.items():
        rows.setdefault(i + j + k + 1, {})[j, i] = count
    return rows


def fusy_humbert_check(total_degree: int, rows: dict) -> bool:
    """Solve the two-equation canopy system and compare with enumeration.

    rows maps each n = 1..total_degree + 1 to the cells of
    paths.cover_table(1, n), {(des(s), asc(t)): count}; a wrong or
    missing row fails the check.  canopy_cells solves
    U = (v + wU)(1+U)(1+V)^2, V = (u + wV)(1+V)(1+U)^2 degree by degree;
    F defined by uvF = uU + vV + wUV - UV/((1+U)(1+V)) must have
    [u^i v^j w^k]F = #{intervals of size i+j+k+1 whose canopies agree in
    '-' at i places, agree in '+' at j places, disagree at k places}.

    Also checks the one-variable specialization S = t(z+S)(1+S)^3 with its
    two printed identities against the quartic root, the substitution
    A = t F(tz, tz, t), and the Lagrange coefficients of S^r.
    """
    if total_degree < 0:
        raise ValueError("total_degree must be nonnegative")
    by_row = canopy_rows(canopy_cells(total_degree))
    if by_row != rows:
        return False

    # one-variable specialization S = t(z+S)(1+S)^3, root of X - t·phi(X, z)
    order = total_degree + 1
    s, z = MonomialPolynomial.variables(2)
    phi = (z + s) * (1 + s) ** 3
    terms = {(1, j, i): -c for (i, j), c in phi.terms.items()}
    terms[(0, 0, 1)] = 1
    s_series = newton_solve(MonomialPolynomial(3, terms), order)
    root = newton_solve(quartic_equation(), order)
    one_plus_s = TruncatedSeries.one(order) + s_series
    two_z = ZPolynomial.monomial(1, 2)
    # t z^2 A = 2tzS + tS^2 - S^2/(1+S)^2
    lhs = root.scale(ZPolynomial.monomial(2)).mul_t()
    s_squared = s_series * s_series
    rhs = (s_series.scale(two_z).mul_t() + s_squared.mul_t()
           - s_squared.div_by_unit(one_plus_s * one_plus_s))
    if not (lhs - rhs).is_zero:
        return False
    # d/dt (t z^2 A) = 2zS + S^2
    derivative_lhs = lhs.differentiate_t()
    derivative_rhs = (s_series.scale(two_z) + s_squared).truncate(order - 1)
    if not (derivative_lhs - derivative_rhs).is_zero:
        return False
    # A = t F(tz, tz, t)
    substituted: dict = {}
    for n, row in by_row.items():
        for (p, q), value in row.items():
            substituted[n, p + q] = substituted.get((n, p + q), 0) + value
    from_canopy = TruncatedSeries.from_polynomial(substituted,
                                                  total_degree + 1)
    if not (from_canopy - root.truncate(total_degree + 1)).is_zero:
        return False
    # [t^n z^k] S^r = (r/n) C(n,k) C(3n, k-r), series vs closed form
    for r in (1, 2):
        power = s_series if r == 1 else s_squared
        for n in range(1, min(8, order) + 1):
            row = lagrange_coeff(phi, n, r)
            for k in range(n + 1):
                # n times (r/n) C(n,k) C(3n,k-r), kept in the integers
                expected = r * binomial(n, k) * binomial(3 * n, k - r)
                if n * row.get(k, 0) != expected:
                    return False
                if n * power.coefficient(n).coefficient(k) != expected:
                    return False
    return True
