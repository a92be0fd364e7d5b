"""The sparse linear-combination core shared by all five element types."""

from fractions import Fraction

import pytest

from freegp.ac import ACPoly
from freegp.assoc import exterior_image
from freegp.gp import GPPoly
from freegp.parsing import parse, to_assoc, to_poly
from freegp.ratfunc import MultiPoly, RatFunc

from helpers import acp, gp

BUILDERS = {
    "ACPoly": lambda: acp("{x1,x2} - 2*{x1,{x2,x3}}"),
    "GPPoly": lambda: gp("{x1,x2}*x3 + 1/2*x1 - 3"),
    "AssocPoly": lambda: to_assoc(parse("u1*u2 - 3*u2 + {u1,u3}")),
    "ExteriorElem": lambda: exterior_image(to_assoc(parse("u1*u2 + 2/3*u3*u1*u2 - u3"))),
    "MultiPoly": lambda: to_poly(parse("x1*y1 + 2*x1 - 1/5"), ("x1", "y1")),
}


@pytest.mark.parametrize("kind", BUILDERS)
def test_linear_core(kind):
    x = BUILDERS[kind]()
    assert type(x).__name__ == kind and x

    assert (x - x).is_zero() and not (x - x)
    assert (0 * x).is_zero() and not (x * 0)
    assert x + x == 2 * x and x + (-x) == x - x

    assert -(-x) == x and -x != x
    again = BUILDERS[kind]()
    assert again is not x and again == x and hash(again) == hash(x)
    assert {x, again, -x} == {x, -x}

    # another type compares unequal without deferring to its __eq__
    assert x.__eq__(object()) is False


def _exact(x) -> bool:
    """Every stored coefficient is a nonzero int or Fraction (never a float)."""
    return all(type(c) in (int, Fraction) and c for c in x._terms.values())


@pytest.mark.parametrize("kind", BUILDERS)
def test_coefficients_stay_exact(kind):
    x = BUILDERS[kind]()
    scaled = [x * Fraction(3, 2), Fraction(-2, 3) * x, x * 4, 2 * x, x * Fraction(4, 2)]
    for y in [x, -x, x + x, x - 3 * x] + scaled:
        assert _exact(y)
    # parsed p/q coefficients: the integral ones are stored as ints
    assert all(type(c) is int for c in x._terms.values() if c.denominator == 1)
    assert x * Fraction(3, 2) * Fraction(2, 3) == x


def test_parsed_coefficients_are_integer_first():
    [a, b, c] = parse("6/3*x1 - 2/4*x2 + 5").terms
    assert (type(a.coefficient), a.coefficient) == (int, 2)
    assert (type(b.coefficient), b.coefficient) == (Fraction, Fraction(-1, 2))
    assert (type(c.coefficient), c.coefficient) == (int, 5)


def test_ratfunc_normalization_stays_exact():
    vars = ("x1", "y1")
    x, y = MultiPoly.variable(vars, "x1"), MultiPoly.variable(vars, "y1")
    for c in (3, -2, 1, Fraction(3, 7)):
        n = RatFunc(x + 1, MultiPoly.constant(vars, c)).normalized()
        assert n.den == MultiPoly.one(vars) and _exact(n.num)
        assert n.num * c == x + 1
    assert repr(RatFunc(x, MultiPoly.constant(vars, 3))) == "1/3*x1"
    assert repr(RatFunc(x * Fraction(1, 2), MultiPoly.constant(vars, -3))) == "-1/6*x1"
    n = RatFunc(x * Fraction(2, 3) + 1, y * Fraction(-4, 9)).normalized()
    assert _exact(n.num) and _exact(n.den)
    assert repr(n) == "(-6*x1 - 9)/(4*y1)"


def test_zeros_of_different_types_differ():
    assert ACPoly.zero() != GPPoly.zero()
    assert not ACPoly.zero() and not GPPoly.zero()


def test_multipoly_variable_tuples_must_match():
    p = MultiPoly.variable(("x1", "y1"), "x1")
    q = MultiPoly.variable(("x1", "y2"), "x1")
    with pytest.raises(ValueError, match="different variable tuples"):
        p + q
    with pytest.raises(ValueError, match="different variable tuples"):
        p * q
    assert p != q and MultiPoly.zero(("x1",)) != MultiPoly.zero(("y1",))
