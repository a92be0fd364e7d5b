"""Generic Poisson algebra: product, Leibniz bracket, weights, supports."""

import itertools

import pytest
from hypothesis import given, settings

from freegp.ac import ac_bracket, enumerate_polylinear_basis, normalize_word
from freegp.gp import (
    GPPoly,
    Weight,
    fine_components,
    is_polylinear,
    substitute,
)

from helpers import J3_TEXT, V, gp, gp_polys, word, xvars


class TestProduct:
    def test_unit(self):
        f = gp("{x1,x2}*x3 + 2*x1")
        assert GPPoly.one() * f == f

    def test_commutative(self):
        assert gp("x1") * gp("x2") == gp("x2") * gp("x1")

    def test_square_of_bracket(self):
        assert gp("{x1,x2}") * gp("{x1,x2}") == gp("{x1,x2}*{x1,x2}")

    @settings(max_examples=50)
    @given(gp_polys(xvars(3)), gp_polys(xvars(3)), gp_polys(xvars(3)))
    def test_associative(self, f, g, h):
        assert (f * g) * h == f * (g * h)

    @settings(max_examples=50)
    @given(gp_polys(xvars(3)), gp_polys(xvars(3)))
    def test_commutative_random(self, f, g):
        assert f * g == g * f


class TestBracket:
    def test_leibniz_example(self):
        assert gp("x1").bracket(gp("x2*x3")) == gp("{x1,x2}*x3 + {x1,x3}*x2")

    def test_bracket_with_unit(self):
        assert gp("{x1,x2}*x3 + x1").bracket(GPPoly.one()).is_zero()

    def test_single_factor_case(self):
        assert gp("{x1,x2}").bracket(gp("x3")) == gp("-{x3,{x1,x2}}")

    @settings(max_examples=50)
    @given(gp_polys(xvars(3)), gp_polys(xvars(3)), gp_polys(xvars(3)))
    def test_leibniz(self, f, g, h):
        assert f.bracket(g * h) == f.bracket(g) * h + f.bracket(h) * g

    @settings(max_examples=50)
    @given(gp_polys(xvars(3)), gp_polys(xvars(3)))
    def test_anti_commutative(self, f, g):
        assert (f.bracket(g) + g.bracket(f)).is_zero()

    def test_agrees_with_ac_bracket_on_words(self):
        # all pairs of polylinear normal words on disjoint variable sets
        # with combined degree at most 5
        variables = xvars(5)
        checked = 0
        for total in range(2, 6):
            for a in range(1, total):
                b = total - a
                for lefts in itertools.combinations(variables, a):
                    rest = [v for v in variables if v not in lefts]
                    for rights in itertools.combinations(rest, b):
                        for u in enumerate_polylinear_basis(list(lefts)):
                            for v in enumerate_polylinear_basis(list(rights)):
                                expected = GPPoly.from_ac(
                                    ac_bracket(normalize_word(u), normalize_word(v))
                                )
                                got = GPPoly.from_factors((u,)).bracket(
                                    GPPoly.from_factors((v,))
                                )
                                assert got == expected
                                checked += 1
        assert checked == 440

    def test_jacobiator_nonzero_in_gp(self):
        assert not gp(J3_TEXT).is_zero()


class TestWeight:
    def test_example(self):
        [(m, _)] = gp("{x1,{x1,x2}}*x2").terms()
        assert Weight.of(m) == Weight(((V("x1"), V("x1"), V("x2")), (V("x2"),)))

    def test_unit_weight_empty(self):
        [(m, _)] = GPPoly.one().terms()
        assert Weight.of(m) == Weight(())

    def test_repeated_factor(self):
        [(m, _)] = gp("{x1,x2}*{x1,x2}").terms()
        assert Weight.of(m) == Weight(((V("x1"), V("x2")), (V("x1"), V("x2"))))

    @settings(max_examples=50)
    @given(gp_polys(xvars(3), max_terms=1), gp_polys(xvars(3), max_terms=1))
    def test_additive_under_product(self, f, g):
        if f.is_zero() or g.is_zero():
            return
        [(m1, _)] = f.terms()
        [(m2, _)] = g.terms()
        [(m12, _)] = (f * g).terms()
        assert Weight.of(m12) == Weight.of(m1) + Weight.of(m2)


class TestFineComponents:
    def test_two_weights(self):
        f = gp("{x1,x2} + x1*x2")
        comps = fine_components(f)
        assert len(comps) == 2
        total = GPPoly.zero()
        for _, part in comps:
            total = total + part
        assert total == f

    def test_homogeneous_is_singleton(self):
        assert len(fine_components(gp(J3_TEXT))) == 1

    def test_zero(self):
        assert fine_components(GPPoly.zero()) == []


class TestSupports:
    def test_example(self):
        f = gp("{x1,x2}*x3")
        supp, psupp = f.variables(), f.factor_words()
        assert supp == {V("x1"), V("x2"), V("x3")}
        assert psupp == {word("{x1,x2}"), word("x3")}

    def test_unit(self):
        one = GPPoly.one()
        assert (one.variables(), one.factor_words()) == (frozenset(), frozenset())

    def test_sum(self):
        f = gp("{x1,x2} + {x1,x3}")
        supp, psupp = f.variables(), f.factor_words()
        assert supp == {V("x1"), V("x2"), V("x3")}
        assert psupp == {word("{x1,x2}"), word("{x1,x3}")}


class TestSubstitute:
    def test_generator_product(self):
        f = gp("{x1,x2}")
        image = substitute(f, {V("x2"): gp("x2*x3")})
        assert image == gp("{x1,x2}*x3 + {x1,x3}*x2")

    def test_identity_substitution(self):
        f = gp("{x1,x2}*x3 + 2/3*x1")
        assert substitute(f, {}) == f

    def test_zero_image(self):
        assert substitute(gp("{x1,x2}"), {V("x1"): GPPoly.zero()}).is_zero()

    @settings(max_examples=30)
    @given(gp_polys(xvars(2), max_terms=2), gp_polys(xvars(3), max_terms=2))
    def test_homomorphism_for_products(self, f, image):
        x1 = V("x1")
        lhs = substitute(f * f, {x1: image})
        rhs = substitute(f, {x1: image}) * substitute(f, {x1: image})
        assert lhs == rhs


class TestPolylinear:
    def test_recognizes(self):
        assert is_polylinear(gp("{x1,x2}*x3 + {x1,{x2,x3}}"))
        assert not is_polylinear(gp("{x1,x2} + x1"))
        assert not is_polylinear(gp("{x1,{x1,x2}}"))
        assert is_polylinear(GPPoly.constant(5))
