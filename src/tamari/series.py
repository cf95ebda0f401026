"""Truncated power-series kernel and functional-equation verification.

A TruncatedSeries is a series in t, truncated at a stated order, whose
t-coefficients are exact z-polynomials (ZPolynomial over Fraction).  All
arithmetic is exact modulo t^(order+1); there is no floating point in this
module.  Binary operations truncate to the smaller order; d/dt lowers the
order by one.  The truncation order is part of the value, not a convention.

On top of the kernel:

  * newton_solve finds the unique root with zero constant term of a regular
    polynomial equation P(t, z, X) = 0, with a built-in residual self-check;
  * lagrange_solve iterates S = t·phi(S, z) and lagrange_coeff evaluates
    [t^n z^k] S^r = (r/n) [s^(n-r) z^k] phi(s, z)^n;
  * verify_parametrization substitutes the rational parametrization
    t = s/((s+1)(sz+1)^3), X = s - zs^2 - zs^3 into the quartic;
  * catalytic_equation_check rebuilds the contact-graded interval series
    from enumeration and checks its quadratic functional equation;
  * verify_pde applies the three annihilating differential operators;
  * fusy_humbert_check solves the two-equation canopy system and compares
    it with enumerated canopy statistics, plus its one-variable
    specialization.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from .equations import MonomialPolynomial, load_quartic, pde_operators
from .formulas import binomial
from .lattice import intervals
from .paths import _slope_one_ell, _tally
from .polys import ZPolynomial
from .trees import canopy


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
        out = [ZPolynomial.zero()] * (order + 1)
        for i in range(order + 1):
            a = self.coeffs[i]
            if a.is_zero:
                continue
            for j in range(order + 1 - i):
                b = other.coeffs[j]
                if not b.is_zero:
                    out[i + j] = out[i + j] + a * b
        return TruncatedSeries(tuple(out), order)

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
        """Divide by a series whose constant term is a nonzero rational."""
        order = self._common(den)
        head = den.coeffs[0]
        if head.is_zero or head.degree() > 0:
            raise ValueError(
                "division requires a unit: nonzero constant term free of z")
        inverse_head = Fraction(1) / head.constant_term
        out: list = []
        for k in range(order + 1):
            acc = self.coeffs[k]
            for i in range(k):
                acc = acc - out[i] * den.coeffs[k - i]
            out.append(acc.scale(inverse_head))
        return TruncatedSeries(tuple(out), order)

    # ------------------------------------------------ substitutions
    def compose_in_t(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """Substitute t -> inner, which must have zero constant term."""
        if not inner.coeffs[0].is_zero:
            raise ValueError("composition needs a series of valuation >= 1")
        order = min(self.order, inner.order)
        inner = inner.truncate(order)
        result = TruncatedSeries.zero(order)
        for n in range(order, -1, -1):
            result = result * inner
            result = result + TruncatedSeries((self.coeffs[n],), order)
        return result

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

class PolynomialEquation:
    """P(t, z, X) with integer coefficients as a {(i, j, k): c} map."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict):
        self.coeffs = {tuple(key): value
                       for key, value in coeffs.items() if value}

    def is_regular(self) -> bool:
        """True iff a unique series root with zero constant term exists.

        Needs P(0, z, 0) = 0 and d P/d X at (0, z, 0) a nonzero constant.
        """
        if any(i == 0 and k == 0 for (i, j, k) in self.coeffs):
            return False
        linear = {j: c for (i, j, k), c in self.coeffs.items()
                  if i == 0 and k == 1}
        return set(linear) == {0} and linear[0] != 0

    def derivative_x(self) -> "PolynomialEquation":
        return PolynomialEquation(
            {(i, j, k - 1): k * c
             for (i, j, k), c in self.coeffs.items() if k})

    def substitute_z_shift(self, shift: int) -> "PolynomialEquation":
        out: dict = {}
        for (i, j, k), c in self.coeffs.items():
            for jj in range(j + 1):
                key = (i, jj, k)
                out[key] = out.get(key, 0) + c * comb(j, jj) * shift ** (j - jj)
        return PolynomialEquation(out)

    def evaluate(self, x: TruncatedSeries,
                 t_series: TruncatedSeries = None) -> TruncatedSeries:
        """P(t, z, x), optionally substituting a series for t as well."""
        order = x.order if t_series is None else min(x.order, t_series.order)
        by_x: dict = {}
        for (i, j, k), c in self.coeffs.items():
            rows = by_x.setdefault(k, {})
            rows[(i, j)] = rows.get((i, j), 0) + c
        result = TruncatedSeries.zero(order)
        for k in range(max(by_x), -1, -1):
            result = result * x
            if k in by_x:
                block = TruncatedSeries.from_polynomial(by_x[k], order)
                if t_series is not None:
                    block = block.compose_in_t(t_series)
                result = result + block
        return result


@lru_cache(maxsize=1)
def quartic_equation() -> PolynomialEquation:
    """The degree-4 equation satisfied by the interval series A(t, z)."""
    return PolynomialEquation(load_quartic())


def newton_solve(eq: PolynomialEquation, order: int) -> TruncatedSeries:
    """Unique series root with zero constant term, mod t^(order+1).

    Newton iteration X <- X - P(X)/P'(X) with quadratic convergence; the
    result is re-substituted into P as a self-check before returning.
    """
    if not eq.is_regular():
        raise ValueError("equation is singular at the origin: no regular root")
    derivative = eq.derivative_x()
    x = TruncatedSeries.zero(order)
    correct = 1
    while correct <= order:
        x = x - eq.evaluate(x).div_by_unit(derivative.evaluate(x))
        correct *= 2
    residual = eq.evaluate(x)
    if not residual.is_zero:
        raise ArithmeticError("newton_solve self-check failed: "
                              f"nonzero residual {residual}")
    return x


def _poly_dict(phi) -> dict:
    if isinstance(phi, MonomialPolynomial):
        if phi.nvars != 2:
            raise ValueError("phi must be a polynomial in (s, z)")
        return dict(phi.terms)
    return {tuple(k): v for k, v in dict(phi).items()}


def lagrange_solve(phi, order: int) -> TruncatedSeries:
    """The unique series S(t, z) with S = t·phi(S, z), via fixed point.

    phi is a polynomial in (s, z) as a {(s_exp, z_exp): coeff} map or a
    two-variable MonomialPolynomial; phi(0, z) must be nonzero.
    """
    terms = _poly_dict(phi)
    if not any(i == 0 for (i, j) in terms):
        raise ValueError("phi(0, z) must be nonzero")
    by_s: dict = {}
    for (i, j), c in terms.items():
        rows = by_s.setdefault(i, {})
        rows[j] = rows.get(j, 0) + c
    blocks = {i: ZPolynomial.from_pairs(rows.items())
              for i, rows in by_s.items()}
    top = max(by_s)

    def phi_at(series: TruncatedSeries) -> TruncatedSeries:
        acc = TruncatedSeries.zero(order)
        for i in range(top, -1, -1):
            acc = acc * series
            if i in blocks:
                acc = acc + TruncatedSeries((blocks[i],), order)
        return acc

    s = TruncatedSeries.zero(order)
    for _ in range(order):
        s = phi_at(s).mul_t()
    if s != phi_at(s).mul_t():
        raise ArithmeticError("lagrange_solve fixed point did not stabilize")
    return s


def lagrange_coeff(phi, n: int, k: int, r: int) -> Fraction:
    """[t^n z^k] S^r = (r/n)·[s^(n-r) z^k] phi(s, z)^n."""
    if n < 1 or r < 1:
        raise ValueError("need n >= 1 and r >= 1")
    if r > n:
        return Fraction(0)
    terms = _poly_dict(phi)
    power = {(0, 0): 1}
    for _ in range(n):
        nxt: dict = {}
        for (a1, b1), c1 in power.items():
            if a1 > n - r:        # higher s-powers can never contribute
                continue
            for (a2, b2), c2 in terms.items():
                key = (a1 + a2, b1 + b2)
                nxt[key] = nxt.get(key, 0) + c1 * c2
        power = nxt
    return Fraction(r, n) * power.get((n - r, k), 0)


# ===================================================================
# rational parametrization of the quartic
# ===================================================================

def verify_parametrization(order: int) -> bool:
    """Check P(t(s), z, X(s)) = 0 mod s^(order+1) for the rational curve

        t = s/((s+1)(sz+1)^3),   X = s - zs^2 - zs^3,

    together with its z = 1 and z = 0 specializations.
    """
    eq = quartic_equation()
    for z_value in (None, 1, 0):
        if z_value is None:
            denominator = TruncatedSeries.from_polynomial(
                {(0, 0): 1, (1, 0): 1, (1, 1): 3, (2, 1): 3, (2, 2): 3,
                 (3, 2): 3, (3, 3): 1, (4, 3): 1}, order)
            x_series = TruncatedSeries.from_polynomial(
                {(1, 0): 1, (2, 1): -1, (3, 1): -1}, order)
            equation = eq
        else:
            # specialize (s+1)(sz+1)^3 and s - zs^2 - zs^3 at z = z_value
            z = z_value
            denominator = TruncatedSeries.from_polynomial(
                {(0, 0): 1, (1, 0): 1 + 3 * z, (2, 0): 3 * z + 3 * z * z,
                 (3, 0): 3 * z * z + z ** 3, (4, 0): z ** 3}, order)
            x_series = TruncatedSeries.from_polynomial(
                {(1, 0): 1, (2, 0): -z, (3, 0): -z}, order)
            specialized: dict = {}
            for (i, j, k), c in eq.coeffs.items():
                key = (i, 0, k)
                specialized[key] = specialized.get(key, 0) + c * z ** j
            equation = PolynomialEquation(specialized)
        t_series = TruncatedSeries.t(order).div_by_unit(denominator)
        residual = equation.evaluate(x_series, t_series=t_series)
        if not residual.is_zero:
            return False
    return True


# ===================================================================
# catalytic functional equation (enumeration-fed)
# ===================================================================
# Plain dict polynomials {(t_deg, u_deg, z_deg): int}, truncated in t.

def _cat_mul(p: dict, q: dict, cap: int) -> dict:
    out: dict = {}
    for (a1, b1, c1), v1 in p.items():
        if a1 > cap:
            continue
        for (a2, b2, c2), v2 in q.items():
            if a1 + a2 > cap:
                continue
            key = (a1 + a2, b1 + b2, c1 + c2)
            out[key] = out.get(key, 0) + v1 * v2
    return {k: v for k, v in out.items() if v}


def _cat_add(*polys: dict) -> dict:
    out: dict = {}
    for p in polys:
        for key, value in p.items():
            out[key] = out.get(key, 0) + value
    return {k: v for k, v in out.items() if v}


def _cat_neg(p: dict) -> dict:
    return {k: -v for k, v in p.items()}


def catalytic_equation_check(order: int, budget=None) -> bool:
    """The quadratic equation of the contact-graded interval series.

    From enumeration, with u marking the interior axis contacts ell(s) of
    the lower tree and z marking des(s) + asc(t):

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
    a_u: dict = {}
    a_1: dict = {}
    a_star: dict = {}
    for n in range(1, order + 1):
        cells = _tally(
            1, n, budget,
            lambda word, des, asc: (_slope_one_ell(word), des),
            lambda word, des, asc: (asc, _slope_one_ell(word) == 0))
        for ((ell_s, des_s), (asc_t, ell_t_zero)), count in cells.items():
            k = des_s + asc_t
            key = (n, ell_s, k)
            a_u[key] = a_u.get(key, 0) + count
            flat = (n, 0, k)
            a_1[flat] = a_1.get(flat, 0) + count
            if ell_t_zero:
                a_star[key] = a_star.get(key, 0) + count
    one = {(0, 0, 0): 1}
    t_gen = {(1, 0, 0): 1}
    u_gen = {(0, 1, 0): 1}
    z_gen = {(0, 0, 1): 1}
    u_minus_1 = _cat_add(u_gen, _cat_neg(one))

    def mul(p, q):
        return _cat_mul(p, q, order)

    quad_lhs = mul(u_minus_1, a_u)
    quad_rhs = mul(t_gen, mul(
        _cat_add(u_minus_1,
                 mul(u_gen, mul(_cat_add(u_gen, z_gen, _cat_neg(one)), a_u)),
                 _cat_neg(mul(z_gen, a_1))),
        _cat_add(one, mul(u_gen, mul(z_gen, a_u)))))
    if _cat_add(quad_lhs, _cat_neg(quad_rhs)):
        return False
    c1 = _cat_add(a_u, _cat_neg(_cat_add(
        a_star, mul(u_gen, mul(z_gen, mul(a_star, a_u))))))
    if c1:
        return False
    c2_lhs = mul(u_minus_1, a_star)
    c2_rhs = mul(t_gen, _cat_add(
        u_minus_1,
        mul(z_gen, _cat_add(mul(u_gen, a_u), _cat_neg(a_1))),
        mul(u_minus_1, mul(u_gen, a_u))))
    return not _cat_add(c2_lhs, _cat_neg(c2_rhs))


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
        block = TruncatedSeries.from_polynomial(dict(coeff.terms),
                                                current.order)
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
# Plain dict polynomials {(u_deg, v_deg, w_deg): int}, truncated by
# total degree.

def _fh_mul(p: dict, q: dict, cap: int) -> dict:
    out: dict = {}
    for (a1, b1, c1), v1 in p.items():
        for (a2, b2, c2), v2 in q.items():
            if a1 + a2 + b1 + b2 + c1 + c2 > cap:
                continue
            key = (a1 + a2, b1 + b2, c1 + c2)
            out[key] = out.get(key, 0) + v1 * v2
    return {k: v for k, v in out.items() if v}


def _fh_inverse_of_unit(p: dict, cap: int) -> dict:
    """(1 + x)^(-1) for p = 1 + x with x of positive total degree."""
    x = dict(p)
    if x.pop((0, 0, 0), 0) != 1:
        raise ArithmeticError("constant term is not 1: not a unit of the "
                              "form 1 + x")
    out = {(0, 0, 0): 1}
    term = {(0, 0, 0): 1}
    for _ in range(cap):
        term = {k: -v for k, v in _fh_mul(term, x, cap).items()}
        out = _cat_add(out, term)
    return out


def fusy_humbert_check(total_degree: int, budget=None) -> bool:
    """Solve the two-equation canopy system and compare with enumeration.

    The system U = (v + wU)(1+U)(1+V)^2, V = (u + wV)(1+V)(1+U)^2 is solved
    by fixed point; F defined by uvF = uU + vV + wUV - UV/((1+U)(1+V)) must
    have [u^i v^j w^k]F = #{intervals of size i+j+k+1 whose canopies agree
    in '-' at i places, agree in '+' at j places, disagree at k places}.

    To trust F to the requested total degree D, the system is solved with
    cap D+2 (the uv division costs two degrees).  Also checks the
    one-variable specialization S = t(z+S)(1+S)^3 with its two printed
    identities against the quartic root, the substitution
    A = t F(tz, tz, t), and the Lagrange coefficients of S^r.
    """
    if total_degree < 0:
        raise ValueError("total_degree must be nonnegative")
    cap = total_degree + 2
    one = {(0, 0, 0): 1}
    u_gen = {(1, 0, 0): 1}
    v_gen = {(0, 1, 0): 1}
    w_gen = {(0, 0, 1): 1}

    def mul(p, q):
        return _fh_mul(p, q, cap)

    def step(pair):
        u_part, v_part = pair
        one_u = _cat_add(one, u_part)
        one_v = _cat_add(one, v_part)
        return (mul(_cat_add(v_gen, mul(w_gen, u_part)),
                    mul(one_u, mul(one_v, one_v))),
                mul(_cat_add(u_gen, mul(w_gen, v_part)),
                    mul(one_v, mul(one_u, one_u))))

    pair = ({}, {})
    for _ in range(cap + 2):
        pair = step(pair)
    if step(pair) != pair:
        raise ArithmeticError("canopy-system fixed point did not stabilize")
    big_u, big_v = pair
    one_u = _cat_add(one, big_u)
    one_v = _cat_add(one, big_v)
    uv_f = _cat_add(
        mul(u_gen, big_u), mul(v_gen, big_v), mul(w_gen, mul(big_u, big_v)),
        {k: -v for k, v in
         mul(mul(big_u, big_v),
             _fh_inverse_of_unit(mul(one_u, one_v), cap)).items()})
    f_algebraic: dict = {}
    for (a, b, c), value in uv_f.items():
        if a < 1 or b < 1:
            return False
        if (a - 1) + (b - 1) + c <= total_degree:
            f_algebraic[(a - 1, b - 1, c)] = value

    f_enumerated: dict = {}
    for n in range(1, total_degree + 2):
        for s, t, _, _ in intervals(n, budget):
            canopy_s = canopy(s)
            canopy_t = canopy(t)
            i = sum(a == b == "-" for a, b in zip(canopy_s, canopy_t))
            j = sum(a == b == "+" for a, b in zip(canopy_s, canopy_t))
            key = (i, j, (n - 1) - i - j)
            f_enumerated[key] = f_enumerated.get(key, 0) + 1
    if f_algebraic != f_enumerated:
        return False

    # one-variable specialization S = t(z+S)(1+S)^3
    order = total_degree + 1
    phi = {(0, 1): 1, (1, 1): 3, (2, 1): 3, (3, 1): 1,
           (1, 0): 1, (2, 0): 3, (3, 0): 3, (4, 0): 1}
    s_series = lagrange_solve(phi, order)
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
    for (i, j, k), value in f_algebraic.items():
        key = (i + j + k + 1, i + j)
        substituted[key] = substituted.get(key, 0) + value
    from_canopy = TruncatedSeries.from_polynomial(substituted,
                                                  total_degree + 1)
    if not (from_canopy - root.truncate(total_degree + 1)).is_zero:
        return False
    # [t^n z^k] S^r = (r/n) C(n,k) C(3n, k-r), iterated vs closed form
    for r in (1, 2):
        power = s_series if r == 1 else s_squared
        for n in range(1, min(8, order) + 1):
            for k in range(n + 1):
                expected = Fraction(r, n) * binomial(n, k) * binomial(
                    3 * n, k - r)
                if lagrange_coeff(phi, n, k, r) != expected:
                    return False
                if power.coefficient(n).coefficient(k) != expected:
                    return False
    return True
