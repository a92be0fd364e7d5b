"""The packed-monomial `MultiPoly` against the tuple-keyed oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from freegp.ratfunc import MAX_EXPONENT, MultiPoly

from helpers import TupleMultiPoly, coefficients

NAMES = [f"{c}{i}" for i in range(1, 13) for c in "xy"]  # 24 names

variable_tuples = st.lists(st.sampled_from(NAMES), min_size=2, max_size=24, unique=True).map(tuple)

# Largest exponent a drawn polynomial may hold: small, or up to just below
# the field limit, so that some products fit exactly and some overflow.
caps = st.sampled_from([1, 3, 1000, MAX_EXPONENT // 2, MAX_EXPONENT - 1])


@st.composite
def exponent_dicts(draw, vars, max_terms=4):
    cap = draw(caps)
    exponent = st.one_of(st.just(0), st.integers(0, cap))
    vectors = st.tuples(*[exponent] * len(vars))
    return draw(st.dictionaries(vectors, coefficients | st.integers(-3, 3).filter(bool), max_size=max_terms))


@st.composite
def pairs(draw, second_terms=4):
    """Two polynomials over one drawn variable tuple, as exponent dicts;
    the second has at most `second_terms` terms."""
    vars = draw(variable_tuples)
    return vars, draw(exponent_dicts(vars)), draw(exponent_dicts(vars, second_terms))


def _max_exponent(terms) -> int:
    return max((k for e in terms for k in e), default=0)


def _same(packed: MultiPoly, oracle: TupleMultiPoly) -> None:
    assert packed.vars == oracle.vars
    assert packed == MultiPoly(oracle.vars, oracle._terms)  # same packed keys
    assert packed.terms() == oracle.terms()
    assert repr(packed) == repr(oracle)
    assert packed.leading_coefficient() == oracle.leading_coefficient()
    assert packed.is_zero() == oracle.is_zero()


class TestAgainstTupleOracle:
    @settings(max_examples=60)
    @given(pairs())
    def test_construction_terms_and_printing(self, pair):
        vars, a, _ = pair
        _same(MultiPoly(vars, a), TupleMultiPoly(vars, a))

    @settings(max_examples=60)
    @given(pairs())
    def test_sum_and_difference(self, pair):
        vars, a, b = pair
        p, q = MultiPoly(vars, a), MultiPoly(vars, b)
        op, oq = TupleMultiPoly(vars, a), TupleMultiPoly(vars, b)
        _same(p + q, op + oq)
        _same(p - q, op - oq)
        _same(-p, -op)
        _same(p + 2, op + 2)
        _same(p * Fraction(-1, 3), op * Fraction(-1, 3))

    @settings(max_examples=150)
    @given(st.one_of(pairs(), pairs(second_terms=1)))
    def test_product(self, pair):
        vars, a, b = pair
        p, q = MultiPoly(vars, a), MultiPoly(vars, b)
        if _max_exponent(a) + _max_exponent(b) > MAX_EXPONENT:
            with pytest.raises(ValueError, match="exceed"):
                p * q
            return
        expected = TupleMultiPoly(vars, a) * TupleMultiPoly(vars, b)
        _same(p * q, expected)
        _same(q * p, expected)

    @settings(max_examples=60)
    @given(pairs(), st.data())
    def test_derivative(self, pair, data):
        vars, a, _ = pair
        name = data.draw(st.sampled_from(vars))
        _same(MultiPoly(vars, a).derivative(name), TupleMultiPoly(vars, a).derivative(name))

    @settings(max_examples=60)
    @given(pairs())
    def test_equality_and_hash(self, pair):
        vars, a, b = pair
        p, q = MultiPoly(vars, a), MultiPoly(vars, b)
        assert (p == q) == (TupleMultiPoly(vars, a) == TupleMultiPoly(vars, b))
        assert p == MultiPoly(vars, dict(p.terms()))
        r = p + q - q  # equal terms reached another way
        assert r == p and hash(r) == hash(p)

    def test_constants_and_variables(self):
        vars = ("x1", "y1", "x2")
        for c in (0, 1, -2, Fraction(3, 4)):
            _same(MultiPoly.constant(vars, c), TupleMultiPoly.constant(vars, c))
            _same(MultiPoly.constant((), c), TupleMultiPoly.constant((), c))  # no variables
        for name in vars:
            _same(MultiPoly.variable(vars, name), TupleMultiPoly.variable(vars, name))


class TestDegreeGuard:
    VARS = ("x1", "y1", "x2")

    def test_largest_exponent_fits(self):
        x = MultiPoly.variable(self.VARS, "y1")
        p = MultiPoly(self.VARS, {(0, MAX_EXPONENT - 1, 0): 1}) * x
        assert p.terms() == [((0, MAX_EXPONENT, 0), 1)]
        assert p.derivative("y1").terms() == [((0, MAX_EXPONENT - 1, 0), MAX_EXPONENT)]
        assert p.derivative("x1").is_zero() and p.derivative("x2").is_zero()

    def test_overflow_raises_instead_of_carrying(self):
        top = MultiPoly(self.VARS, {(0, MAX_EXPONENT, 0): 1})
        for name in self.VARS:
            with pytest.raises(ValueError, match="exceed"):
                top * MultiPoly.variable(self.VARS, name)
        with pytest.raises(ValueError, match="exceed"):
            MultiPoly(self.VARS, {(0, 0, MAX_EXPONENT // 2 + 1): 1}) ** 2

    def test_bound_survives_sums_and_cancellation(self):
        top = MultiPoly(self.VARS, {(MAX_EXPONENT, 0, 0): 1})
        y = MultiPoly.variable(self.VARS, "y1")
        with pytest.raises(ValueError):
            (y + top) * y  # the sum keeps the larger bound
        assert ((top - top) * y).is_zero()  # the zero polynomial has no bound

    def test_constructor_rejects_out_of_field_exponents(self):
        with pytest.raises(ValueError, match="outside"):
            MultiPoly(self.VARS, {(0, MAX_EXPONENT + 1, 0): 1})
        with pytest.raises(ValueError, match="outside"):
            MultiPoly(self.VARS, {(0, -1, 0): 1})
        with pytest.raises(ValueError, match="does not match"):
            MultiPoly(self.VARS, {(1, 0): 1})
