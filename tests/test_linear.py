"""The sparse linear-combination core shared by all five element types."""

import pytest

from freegp.ac import ACPoly
from freegp.assoc import exterior_image
from freegp.gp import GPPoly
from freegp.parsing import parse, to_assoc, to_poly
from freegp.ratfunc import MultiPoly

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
