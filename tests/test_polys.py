"""The exact polynomial kernel and its scalar policy.

Core claims:
    - a truncated MonomialPolynomial product equals the exact product
      with the terms above the cap dropped
    - the product over packed exponent keys equals the tuple-key loop,
      in 0-4 variables, with and without a truncation, and where a
      field's sum needs more bits than either operand's exponents;
      negative exponents are refused
    - truncations do not mix; substituting a weighted variable is
      refused
    - derivative and shift agree with the exact expansions
    - integer inputs stay int through ZPolynomial, TruncatedSeries and
      Newton; Fraction appears only where a rational does; any other
      coefficient given to either representation becomes a Fraction
    - the dense and the sparse representation check each other: series
      products, z-shifts, and division by a unit undone by a product
    - a constant polynomial equals and hashes as its scalar, across
      class, arity and truncation; == never raises, and nothing else of
      a different class, arity or truncation is equal
    - ZPolynomial + and * refuse any other operand type with TypeError
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tamari.polys import MonomialPolynomial, ZPolynomial
from tamari.series import TruncatedSeries, newton_solve, quartic_equation

NVARS = 3

exponents = st.tuples(*[st.integers(0, 3)] * NVARS)
term_maps = st.dictionaries(exponents, st.integers(-5, 5), max_size=6)
weight_tuples = st.tuples(*[st.integers(0, 2)] * NVARS)
caps = st.integers(0, 7)


def weighted(expo, weights):
    return sum(w * e for w, e in zip(weights, expo))


# == truncated products ===========================================

class TestTruncation:
    @given(term_maps, term_maps, weight_tuples, caps)
    def test_capped_product_is_filtered_exact_product(self, p, q, weights,
                                                      cap):
        exact = MonomialPolynomial(NVARS, p) * MonomialPolynomial(NVARS, q)
        truncation = (weights, cap)
        capped = (MonomialPolynomial(NVARS, p, truncation)
                  * MonomialPolynomial(NVARS, q, truncation))
        assert capped.terms == {
            e: c for e, c in exact.terms.items()
            if weighted(e, weights) <= cap}
        assert capped.truncation == truncation

    def test_different_truncations_do_not_mix(self):
        a, _, _ = MonomialPolynomial.variables(NVARS, ((1, 1, 1), 3))
        b, _, _ = MonomialPolynomial.variables(NVARS, ((1, 0, 0), 3))
        free, _, _ = MonomialPolynomial.variables(NVARS)
        for other in (b, free):
            with pytest.raises(ValueError):
                a + other
            with pytest.raises(ValueError):
                a * other
        assert (a * a * a * a).terms == {}     # degree 4 > cap 3


def tuple_key_product(p, q):
    # the product loop over tuple keys that packed keys replaced, every
    # pair of terms, filtered by the cap: the oracle of __mul__
    terms = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            if (p.truncation is None
                    or weighted(key, p.truncation[0]) <= p.truncation[1]):
                terms[key] = terms.get(key, 0) + c1 * c2
    return {e: c for e, c in terms.items() if c}


@st.composite
def operand_pairs(draw):
    # two polynomials in 1-4 variables under one truncation or none, with
    # exponents up to 17, so one operand's largest exponent and the sum
    # of both may need different field widths
    nvars = draw(st.integers(1, 4))
    maps = st.dictionaries(st.tuples(*[st.integers(0, 17)] * nvars),
                           st.integers(-5, 5), max_size=6)
    truncation = draw(st.none() | st.tuples(
        st.tuples(*[st.integers(0, 2)] * nvars), st.integers(0, 40)))
    return (MonomialPolynomial(nvars, draw(maps), truncation),
            MonomialPolynomial(nvars, draw(maps), truncation))


class TestPackedProduct:
    @given(operand_pairs())
    def test_packed_product_is_the_tuple_key_product(self, pair):
        p, q = pair
        assert (p * q).terms == tuple_key_product(p, q)

    @pytest.mark.parametrize("nvars", [1, 2, 3, 4])
    @pytest.mark.parametrize("e1,e2", [(1, 1), (3, 1), (4, 4), (7, 8),
                                       (15, 1), (16, 16)])
    def test_field_sums_cross_a_power_of_two(self, nvars, e1, e2):
        # the largest exponent in the last place of p and the first of q,
        # at a sum of both whose field is wider than either operand's
        p = MonomialPolynomial(nvars, {(1,) * (nvars - 1) + (e1,): 2,
                                       (0,) * nvars: 1})
        q = MonomialPolynomial(nvars, {(e2,) + (1,) * (nvars - 1): 3,
                                       (0,) * nvars: -1})
        assert (p * q).terms == tuple_key_product(p, q)
        square = (p * p).terms
        assert square[(2,) * (nvars - 1) + (2 * e1,)] == 4

    def test_constants_in_no_variables(self):
        p = MonomialPolynomial(0, {(): 3})
        assert (p * MonomialPolynomial(0, {(): 4})).terms == {(): 12}
        assert (p * MonomialPolynomial(0, {})).terms == {}

    def test_negative_exponents_are_refused(self):
        with pytest.raises(ValueError, match="nonnegative"):
            MonomialPolynomial(2, {(1, -1): 1})


# == calculus and substitution =====================================

class TestSubstitution:
    def test_derivative(self):
        x, y = MonomialPolynomial.variables(2)
        p = 3 * x**2 * y + y**3 + 7
        assert p.derivative(0) == 6 * x * y
        assert p.derivative(1) == 3 * x**2 + 3 * y**2

    @given(term_maps, st.integers(-3, 3))
    def test_shift_matches_substitution(self, terms, c):
        t, z, x = MonomialPolynomial.variables(NVARS)
        p = MonomialPolynomial(NVARS, terms)
        expected = MonomialPolynomial.constant(NVARS, 0)
        for (i, j, k), coeff in terms.items():
            expected = expected + coeff * t**i * (z + c)**j * x**k
        assert p.shift(1, c) == expected
        assert p.shift(1, c).shift(1, -c) == p

    def test_substituting_a_weighted_variable_is_refused(self):
        t, z, _ = MonomialPolynomial.variables(NVARS, ((1, 0, 0), 3))
        p = t * z
        assert p.shift(1, 1) == t * z + t  # weight 0: exact
        with pytest.raises(ValueError):
            p.shift(0, 1)


# == the scalar policy ==============================================

def _scalars(series):
    return [c for n in range(series.order + 1)
            for c in series.coefficient(n).coeffs]


class TestScalarPolicy:
    def test_integer_inputs_stay_int(self):
        p = ZPolynomial((1, -2, 3))
        q = ZPolynomial.from_pairs([(0, 4), (2, 5), (2, 1)])
        for result in (p + q, p * q, p.shift_z(2), p.derivative(),
                       p.scale(3)):
            assert all(type(c) is int for c in result.coeffs)
        assert type(p.evaluate(5)) is int
        assert type(p.coefficient(7)) is int

    def test_other_operand_types_are_refused(self):
        # scalars go through scale; + and * of anything else is a
        # TypeError, as for TruncatedSeries
        p = ZPolynomial([1, 2])
        for operation in (lambda: p + 1, lambda: p * 3, lambda: p - 1,
                          lambda: p * MonomialPolynomial.variables(1)[0]):
            with pytest.raises(TypeError):
                operation()

    def test_newton_root_is_integral(self):
        root = newton_solve(quartic_equation(), 8)
        assert all(type(c) is int for c in _scalars(root))

    def test_other_inputs_become_fractions(self):
        half = ZPolynomial((0.5, Fraction(1, 3)))
        assert half.coeffs == (Fraction(1, 2), Fraction(1, 3))
        assert all(type(c) is Fraction for c in half.coeffs)

    def test_monomial_coefficients_follow_the_policy(self):
        p = MonomialPolynomial(2, {(0, 0): 0.5, (1, 0): 1})
        assert p.terms == {(0, 0): Fraction(1, 2), (1, 0): 1}
        assert type(p.terms[(0, 0)]) is Fraction
        assert type(p.terms[(1, 0)]) is int
        # squared exactly, not in floats
        square = p * p
        assert square.terms == {(0, 0): Fraction(1, 4), (1, 0): 1, (2, 0): 1}
        assert type(square.terms[(0, 0)]) is Fraction
        assert type(square.terms[(1, 0)]) is Fraction

    def test_monomial_arithmetic_lifts_every_policy_scalar(self):
        # int and Fraction operands mix with a polynomial on either side
        x, y = MonomialPolynomial.variables(2, ((1, 1), 3))
        half = Fraction(1, 2)
        p = x + y
        for scaled in (p * half, half * p):
            assert scaled.terms == {(1, 0): half, (0, 1): half}
            assert scaled.truncation == p.truncation
        shifted = p + half
        assert shifted.terms == {(0, 0): half, (1, 0): 1, (0, 1): 1}
        assert half + p == shifted
        assert (half - p).terms == {(0, 0): half, (1, 0): -1, (0, 1): -1}
        assert p - half == -(half - p)
        assert MonomialPolynomial.constant(2, half, p.truncation) == half
        assert type((p * 2).terms[(1, 0)]) is int

    def test_non_unit_head_divides_through_fraction(self):
        order = 6
        two_minus_t = (TruncatedSeries.one(order).scale(2)
                       - TruncatedSeries.t(order))
        quotient = TruncatedSeries.one(order).div_by_unit(two_minus_t)
        assert _scalars(quotient) == [Fraction(1, 2 ** (k + 1))
                                      for k in range(order + 1)]
        assert all(type(c) is Fraction for c in _scalars(quotient))
        assert quotient * two_minus_t == TruncatedSeries.one(order)

    def test_unit_head_keeps_integers(self):
        order = 6
        one = TruncatedSeries.one(order)
        quotient = one.div_by_unit(TruncatedSeries.t(order) - one)
        assert _scalars(quotient) == [-1] * (order + 1)
        assert all(type(c) is int for c in _scalars(quotient))


# == the dense kernel against the sparse representation ============

series_orders = st.integers(0, 5)
tz_maps = st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 3)),
                          st.integers(-5, 5), max_size=8)


class TestDenseAgainstSparse:
    @given(tz_maps, tz_maps, series_orders)
    def test_series_product_is_truncated_monomial_product(self, p, q, order):
        truncation = ((1, 0), order)
        sparse = (MonomialPolynomial(2, p, truncation)
                  * MonomialPolynomial(2, q, truncation))
        dense = (TruncatedSeries.from_polynomial(p, order)
                 * TruncatedSeries.from_polynomial(q, order))
        assert dense == TruncatedSeries.from_polynomial(sparse.terms, order)

    @given(tz_maps, tz_maps, series_orders,
           st.sampled_from([1, -1, Fraction(-3, 2)]))
    def test_division_by_a_unit_is_undone_by_the_product(self, x, tail,
                                                         order, head):
        tail = {(i, j): c for (i, j), c in tail.items() if i > 0}
        tail[(0, 0)] = head
        x = TruncatedSeries.from_polynomial(x, order)
        den = TruncatedSeries.from_polynomial(tail, order)
        assert x.div_by_unit(den) * den == x

    @given(st.lists(st.integers(-5, 5), max_size=6), st.integers(-3, 3))
    def test_shift_z_is_the_one_variable_shift(self, coeffs, c):
        sparse = MonomialPolynomial(
            1, {(k,): a for k, a in enumerate(coeffs)}).shift(0, c)
        assert ZPolynomial(coeffs).shift_z(c) == ZPolynomial.from_pairs(
            (k, a) for (k,), a in sparse.terms.items())


# == hashing =======================================================

class TestHash:
    @pytest.mark.parametrize("scalar", [3, -7, Fraction(2, 3), 0])
    def test_constant_hashes_as_its_scalar(self, scalar):
        for constant in (ZPolynomial.constant(scalar),
                         MonomialPolynomial.constant(2, scalar),
                         MonomialPolynomial.constant(3, scalar,
                                                     ((1, 1, 1), 2))):
            assert constant == scalar
            assert hash(constant) == hash(scalar)
            assert len({constant, scalar}) == 1

    def test_zero_polynomials_hash_as_zero(self):
        for zero in (ZPolynomial.zero(), ZPolynomial(), MonomialPolynomial(2),
                     MonomialPolynomial(2, {(1, 0): 0})):
            assert len({zero, 0}) == 1

    def test_equality_across_class_arity_and_truncation(self):
        # a constant is its scalar whatever its class, arity or
        # truncation; == never raises, and the relation is transitive
        zero, two = ZPolynomial.zero(), MonomialPolynomial(2)
        assert zero == 0 and 0 == two and zero == two
        assert len({zero, two}) == 1
        assert (MonomialPolynomial.constant(2, 5)
                == MonomialPolynomial.constant(3, 5))
        capped = MonomialPolynomial.constant(3, 5, ((1, 1, 1), 3))
        assert capped == MonomialPolynomial.constant(3, 5, ((1, 0, 0), 3))
        assert len({MonomialPolynomial.constant(2, 5),
                    MonomialPolynomial.constant(3, 5), capped}) == 1
        assert len({ZPolynomial.constant(3),
                    MonomialPolynomial.constant(2, 3),
                    MonomialPolynomial.constant(3, 3, ((1, 1, 1), 2)),
                    3}) == 1
        # anything else of a different class, arity or truncation differs
        a = MonomialPolynomial.variables(NVARS, ((1, 1, 1), 3))[0]
        b = MonomialPolynomial.variables(NVARS, ((1, 0, 0), 3))[0]
        assert a != b and a != MonomialPolynomial.variables(NVARS)[0]
        assert MonomialPolynomial.variables(1)[0] != ZPolynomial((0, 1))
        assert MonomialPolynomial.constant(2, 5) != ZPolynomial.constant(4)

    def test_equal_polynomials_hash_equal(self):
        x, y = MonomialPolynomial.variables(2)
        assert hash((x + y) * (x - y)) == hash(x**2 - y**2)
        assert hash(ZPolynomial((1, 2)) * ZPolynomial((1, 2))) \
            == hash(ZPolynomial((1, 4, 4)))
