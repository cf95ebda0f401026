"""Exact polynomials: the one module that decides how they are stored.

Two representations cover every polynomial in the package:

  * ZPolynomial, dense in one variable z: the coefficient of t^n in every
    TruncatedSeries;
  * MonomialPolynomial, sparse in a fixed number of variables, with an
    optional truncation (weights, cap) that keeps a term iff its weighted
    degree sum_i w_i e_i is at most cap.  It carries the frozen equation
    data, the catalytic and canopy-pair systems, and Lagrange powers.

One scalar policy: integer coefficients stay int, so the common case is
big-integer arithmetic; any other coefficient becomes a Fraction, which
keeps every result exact when a rational really appears.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb, inf
from operator import add
from typing import Iterable, Optional, Union

Scalar = Union[int, Fraction]


def _scalar(c) -> Scalar:
    return c if isinstance(c, (int, Fraction)) else Fraction(c)


def _trim(coeffs: list) -> tuple:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


class ZPolynomial:
    """Polynomial in z, dense coefficient list, exact arithmetic."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        self.coeffs: tuple = _trim([_scalar(c) for c in coeffs])

    # ------------------------------------------------------------ builders
    @classmethod
    def zero(cls) -> "ZPolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "ZPolynomial":
        return cls((1,))

    @classmethod
    def constant(cls, c: Scalar) -> "ZPolynomial":
        return cls((c,))

    @classmethod
    def z(cls) -> "ZPolynomial":
        return cls((0, 1))

    @classmethod
    def monomial(cls, k: int, c: Scalar = 1) -> "ZPolynomial":
        return cls([0] * k + [c])

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, Scalar]]) -> "ZPolynomial":
        """Build from (exponent, coefficient) pairs; exponents may repeat."""
        items = list(pairs)
        if not items:
            return cls.zero()
        out = [0] * (max(k for k, _ in items) + 1)
        for k, c in items:
            out[k] += _scalar(c)
        return cls(out)

    # ------------------------------------------------------------ queries
    def degree(self) -> int:
        """Degree, with the convention degree(0) = -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int) -> Scalar:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    @property
    def constant_term(self) -> Scalar:
        return self.coefficient(0)

    def evaluate(self, value: Scalar) -> Scalar:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    # ------------------------------------------------------------ algebra
    def __add__(self, other: "ZPolynomial") -> "ZPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return ZPolynomial(out)

    def __neg__(self) -> "ZPolynomial":
        return ZPolynomial([-c for c in self.coeffs])

    def __sub__(self, other: "ZPolynomial") -> "ZPolynomial":
        return self + (-other)

    def __mul__(self, other: "ZPolynomial") -> "ZPolynomial":
        if self.is_zero or other.is_zero:
            return ZPolynomial.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return ZPolynomial(out)

    def scale(self, c: Scalar) -> "ZPolynomial":
        return ZPolynomial([a * c for a in self.coeffs])

    def derivative(self) -> "ZPolynomial":
        return ZPolynomial([k * c for k, c in enumerate(self.coeffs)][1:])

    def shift_z(self, c: Scalar) -> "ZPolynomial":
        """Substitute z -> z + c (binomial expansion, exact)."""
        if c == 0 or self.is_zero:
            return self
        c = _scalar(c)
        out = [0] * len(self.coeffs)
        for k, a in enumerate(self.coeffs):
            if not a:
                continue
            power = 1
            for j in range(k, -1, -1):
                out[j] += a * comb(k, j) * power
                power *= c
        return ZPolynomial(out)

    # ------------------------------------------------------------ protocol
    def __eq__(self, other: object) -> bool:
        if isinstance(other, ZPolynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == ZPolynomial.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero

    def __repr__(self) -> str:
        return f"ZPolynomial({list(self.coeffs)!r})"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*z" if c != 1 else "z")
            else:
                parts.append(f"{c}*z^{k}" if c != 1 else f"z^{k}")
        return " + ".join(parts)


# ===================================================================
# sparse multivariate polynomials, optionally truncated
# ===================================================================

Truncation = Optional[tuple]   # None or (weights tuple, cap)


class MonomialPolynomial:
    """Sparse integer polynomial in a fixed number of variables.

    Backed by a dict {exponent tuple: coefficient}.  With a truncation
    (weights, cap) only terms of weighted degree sum_i w_i e_i <= cap are
    kept, and sums and products inherit it: the polynomial is then exact
    modulo every monomial of weighted degree above cap.  Operands under
    different truncations (or one under none) do not mix: ValueError.
    """

    __slots__ = ("nvars", "terms", "truncation")

    def __init__(self, nvars: int, terms=None, truncation: Truncation = None):
        if truncation is not None:
            truncation = (tuple(truncation[0]), truncation[1])
            if len(truncation[0]) != nvars or min(truncation[0]) < 0:
                raise ValueError("truncation needs one nonnegative weight "
                                 "per variable")
        self.nvars = nvars
        self.truncation = truncation
        clean = {}
        for expo, coeff in (terms or {}).items():
            if len(expo) != nvars:
                raise ValueError("exponent arity mismatch")
            if coeff and self._degree(expo) <= self._cap():
                clean[tuple(expo)] = coeff
        self.terms = clean

    @classmethod
    def _make(cls, nvars: int, terms: dict,
              truncation: Truncation) -> "MonomialPolynomial":
        """Wrap terms known to lie within the cap, dropping zeros."""
        out = cls.__new__(cls)
        out.nvars, out.truncation = nvars, truncation
        out.terms = {e: c for e, c in terms.items() if c}
        return out

    @classmethod
    def variables(cls, nvars: int, truncation: Truncation = None) -> tuple:
        out = []
        for i in range(nvars):
            expo = tuple(1 if j == i else 0 for j in range(nvars))
            out.append(cls(nvars, {expo: 1}, truncation))
        return tuple(out)

    @classmethod
    def constant(cls, nvars: int, value: int,
                 truncation: Truncation = None) -> "MonomialPolynomial":
        return cls(nvars, {(0,) * nvars: value}, truncation)

    def _degree(self, expo: tuple) -> int:
        """Weighted degree of a term; 0 without a truncation."""
        if self.truncation is None:
            return 0
        return sum(w * e for w, e in zip(self.truncation[0], expo))

    def _cap(self):
        return inf if self.truncation is None else self.truncation[1]

    def _coerce(self, other):
        if isinstance(other, int):
            return MonomialPolynomial.constant(self.nvars, other,
                                               self.truncation)
        if not isinstance(other, MonomialPolynomial):
            return NotImplemented
        if other.nvars != self.nvars:
            raise ValueError("variable count mismatch")
        if other.truncation != self.truncation:
            raise ValueError("cannot mix two different truncations")
        return other

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for expo, coeff in other.terms.items():
            terms[expo] = terms.get(expo, 0) + coeff
        return MonomialPolynomial._make(self.nvars, terms, self.truncation)

    __radd__ = __add__

    def __neg__(self):
        return MonomialPolynomial._make(
            self.nvars, {e: -c for e, c in self.terms.items()},
            self.truncation)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # other's terms by ascending degree: each term of self stops at
        # the first partner that would land above the cap
        partners = sorted(((self._degree(e), e, c)
                           for e, c in other.terms.items()),
                          key=lambda item: item[0])
        cap = self._cap()
        terms: dict = {}
        for e1, c1 in self.terms.items():
            room = cap - self._degree(e1)
            for d2, e2, c2 in partners:
                if d2 > room:
                    break
                key = tuple(map(add, e1, e2))
                terms[key] = terms.get(key, 0) + c1 * c2
        return MonomialPolynomial._make(self.nvars, terms, self.truncation)

    __rmul__ = __mul__

    def __pow__(self, power: int):
        if not isinstance(power, int) or power < 0:
            raise ValueError("only nonnegative integer powers")
        out = MonomialPolynomial.constant(self.nvars, 1, self.truncation)
        for _ in range(power):
            out = out * self
        return out

    # ------------------------------------------------ calculus, substitution
    def _map_var(self, var: int, images) -> "MonomialPolynomial":
        """Replace each x_var^e by sum(factor * x_var^j) over images(e)."""
        terms: dict = {}
        for expo, coeff in self.terms.items():
            for j, factor in images(expo[var]):
                key = expo[:var] + (j,) + expo[var + 1:]
                terms[key] = terms.get(key, 0) + coeff * factor
        return MonomialPolynomial(self.nvars, terms, self.truncation)

    def _substitutable(self, var: int) -> None:
        if self.truncation is not None and self.truncation[0][var]:
            raise ValueError("substituting a variable of positive weight "
                             "needs the terms the truncation dropped")

    def derivative(self, var: int) -> "MonomialPolynomial":
        """d/dx_var, term by term."""
        return self._map_var(var, lambda e: [(e - 1, e)] if e else [])

    def shift(self, var: int, c: int) -> "MonomialPolynomial":
        """Substitute x_var -> x_var + c (binomial expansion, exact)."""
        self._substitutable(var)
        return self._map_var(var, lambda e: [(j, comb(e, j) * c ** (e - j))
                                             for j in range(e + 1)])

    def specialize(self, var: int, value: int) -> "MonomialPolynomial":
        """Set x_var = value; the variable stays, with exponent 0."""
        self._substitutable(var)
        return self._map_var(var, lambda e: [(0, value ** e)])

    def inverse(self) -> "MonomialPolynomial":
        """1/p under the truncation, for p = 1 + x with x of positive degree.

        Then x^k has weighted degree at least k, so the geometric series
        sum_k (-x)^k ends by k = cap.  Any other p raises ArithmeticError.
        """
        x = dict(self.terms)
        if x.pop((0,) * self.nvars, 0) != 1:
            raise ArithmeticError("constant term is not 1: not a unit of "
                                  "the form 1 + x")
        if x and min(map(self._degree, x)) <= 0:
            raise ArithmeticError("1 + x is invertible only when every term "
                                  "of x has positive weighted degree")
        x = MonomialPolynomial._make(self.nvars, x, self.truncation)
        out = term = MonomialPolynomial.constant(self.nvars, 1,
                                                 self.truncation)
        while term.terms:
            term = -(term * x)
            out = out + term
        return out

    # ------------------------------------------------ protocol
    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        return (f"MonomialPolynomial({self.nvars}, {self.terms!r}, "
                f"{self.truncation!r})")
