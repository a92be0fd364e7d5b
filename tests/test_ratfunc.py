"""Exact rational functions: arithmetic, derivatives, cross-multiplied equality."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from freegp.ratfunc import MultiPoly, RatFunc

VARS = ("x1", "y1")


def _rand_poly(rng, vars=VARS, max_deg=2):
    terms = {}
    n = len(vars)
    for _ in range(rng.randint(1, 5)):
        exp = [0] * n
        for _ in range(rng.randint(0, max_deg)):
            exp[rng.randrange(n)] += 1
        c = rng.randint(-3, 3)
        if c:
            terms[tuple(exp)] = terms.get(tuple(exp), Fraction(0)) + c
    return MultiPoly(vars, {e: c for e, c in terms.items() if c})


def _rand_ratfunc(rng):
    num = _rand_poly(rng)
    den = _rand_poly(rng)
    while den.is_zero():
        den = _rand_poly(rng)
    return RatFunc(num, den)


class TestDerivative:
    def test_square(self):
        x = RatFunc(MultiPoly.variable(VARS, "x1"))
        assert (x * x).derivative("x1") == 2 * x

    def test_reciprocal(self):
        one = RatFunc(MultiPoly.one(VARS))
        y = RatFunc(MultiPoly.variable(VARS, "y1"))
        assert (one / y).derivative("y1") == -(one / (y * y))

    def test_quotient_rule(self):
        x = RatFunc(MultiPoly.variable(VARS, "x1"))
        y = RatFunc(MultiPoly.variable(VARS, "y1"))
        got = ((x * y) / (x + y)).derivative("x1")
        assert got == (y * y) / ((x + y) * (x + y))

    def test_unknown_variable(self):
        with pytest.raises(ValueError, match="unknown"):
            RatFunc(MultiPoly.variable(VARS, "x1")).derivative("z1")

    def test_product_rule_random(self):
        rng = random.Random(5)
        for _ in range(25):
            a, b = _rand_ratfunc(rng), _rand_ratfunc(rng)
            v = rng.choice(VARS)
            assert (a * b).derivative(v) == a.derivative(v) * b + a * b.derivative(v)


class TestEquality:
    def test_cross_multiplied(self):
        x = RatFunc(MultiPoly.variable(VARS, "x1"))
        two_x_over_two = RatFunc(
            MultiPoly(VARS, {(1, 0): Fraction(2)}), MultiPoly.constant(VARS, 2)
        )
        assert two_x_over_two == x

    def test_zero_detection(self):
        x = RatFunc(MultiPoly.variable(VARS, "x1"))
        assert (x - x).is_zero()
        assert not x.is_zero()

    def test_equivalence_respects_arithmetic(self):
        rng = random.Random(13)
        for _ in range(25):
            a, b = _rand_ratfunc(rng), _rand_ratfunc(rng)
            assert (a + b) * (a + b) == a * a + 2 * a * b + b * b
            assert (a + b) * (a - b) == a * a - b * b

    def test_division_round_trip(self):
        rng = random.Random(17)
        for _ in range(25):
            a, b = _rand_ratfunc(rng), _rand_ratfunc(rng)
            if b.is_zero():
                continue
            assert (a / b) * b == a

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RatFunc(MultiPoly.one(VARS), MultiPoly.zero(VARS))


class TestMixedOperands:
    """Every operator takes an int, a Fraction or a MultiPoly on either side."""

    OTHERS = (2, Fraction(-1, 2), MultiPoly.variable(VARS, "x1"))

    def test_reflected_subtraction(self):
        rng = random.Random(19)
        for _ in range(10):
            r = _rand_ratfunc(rng)
            for other in self.OTHERS:
                got = other - r
                assert isinstance(got, RatFunc)
                assert got == RatFunc(MultiPoly.constant(VARS, 0)) + other - r
                assert got == -(r - other)

    def test_reflected_division(self):
        rng = random.Random(23)
        for _ in range(10):
            r = _rand_ratfunc(rng)
            if r.is_zero():
                continue
            for other in self.OTHERS:
                got = other / r
                assert isinstance(got, RatFunc)
                assert got * r == other
                assert got == RatFunc(MultiPoly.one(VARS)) * other / r

    def test_reflected_division_by_zero(self):
        zero = RatFunc(MultiPoly.zero(VARS))
        for other in self.OTHERS:
            with pytest.raises(ZeroDivisionError):
                other / zero

    def test_other_types_rejected(self):
        r = RatFunc(MultiPoly.variable(VARS, "y1"))
        for op in (lambda: "a" - r, lambda: "a" / r, lambda: 1.5 - r):
            with pytest.raises(TypeError):
                op()


class TestNormalization:
    def test_constant_denominator_folds(self):
        two = MultiPoly.constant(VARS, 2)
        r = RatFunc(MultiPoly(VARS, {(1, 0): Fraction(4)}), two)
        n = r.normalized()
        assert n.den == MultiPoly.one(VARS)
        assert repr(r) == "2*x1"

    def test_sign_convention(self):
        x = MultiPoly.variable(VARS, "x1")
        r = RatFunc(MultiPoly.one(VARS), -x)
        assert repr(r) == "(-1)/(x1)"

    def test_printing(self):
        x = RatFunc(MultiPoly.variable(VARS, "x1"))
        y = RatFunc(MultiPoly.variable(VARS, "y1"))
        assert repr(x * y + RatFunc(MultiPoly.constant(VARS, Fraction(1, 2)))) == "x1*y1 + 1/2"
        assert repr(RatFunc(MultiPoly.zero(VARS))) == "0"
        assert repr((x * x - y) / y) == "(x1^2 - y1)/(y1)"
