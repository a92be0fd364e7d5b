"""Expression grammar: parsing, evaluation, printing round-trips."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from freegp.ac import Variable
from freegp.assoc import AssocPoly, commutator
from freegp.gp import GPPoly
from freegp.ratfunc import MultiPoly
from freegp.realize import Realization, evaluate_gp
from freegp.parsing import (
    BracketFactor,
    ParseError,
    Term,
    VarFactor,
    parse,
    to_ac,
    to_assoc,
    to_gp,
    to_poly,
)

from helpers import V, ac_polys, assoc_polys, gp, gp_polys, xvars

# two letter classes and a two-digit index
MIXED = xvars(3) + [V("t3"), V("y12")]
REALIZATION_VARS = [V("x1"), V("y1"), V("x2"), V("y2")]


class TestGrammar:
    def test_nested_bracket(self):
        ast = parse("{x1,{x2,x3}}")
        [term] = ast.terms
        [factor] = term.factors
        assert isinstance(factor, BracketFactor)
        inner = factor.right.terms[0].factors[0]
        assert isinstance(inner, BracketFactor)
        assert inner.left.terms[0].factors[0] == VarFactor("x2")

    def test_coefficients_and_products(self):
        ast = parse("2/3*{x1,x2}*x3 + x1")
        first, second = ast.terms
        assert first.coefficient == Fraction(2, 3)
        assert len(first.factors) == 2
        assert second.coefficient == 1
        assert second.factors == (VarFactor("x1"),)

    def test_whitespace_insensitive(self):
        assert to_gp(parse(" {x1 , x2} +  2*x3 ")) == gp("{x1,x2}+2*x3")

    def test_unary_minus_and_constants(self):
        assert to_gp(parse("-x1 + 1")) == gp("1") - gp("x1")
        assert to_gp(parse("-2/3")) == GPPoly.constant(Fraction(-2, 3))

    def test_parenthesized_sums(self):
        assert to_gp(parse("{x1,(x2 + x3)}")) == gp("{x1,x2} + {x1,x3}")
        assert to_gp(parse("2*(x1 + x2)*x3")) == gp("2*x1*x3 + 2*x2*x3")


class TestErrors:
    def test_unclosed_brace(self):
        with pytest.raises(ParseError) as err:
            parse("{x1,x2")
        assert err.value.line == 1 and err.value.column == 7
        assert "}" in err.value.expected

    def test_juxtaposition_rejected(self):
        with pytest.raises(ParseError):
            parse("2 x1")

    def test_bare_letter_rejected(self):
        with pytest.raises(ParseError, match="numeric index"):
            parse("x + y")

    def test_unexpected_character(self):
        with pytest.raises(ParseError, match="unexpected character"):
            parse("x1 @ x2")

    @pytest.mark.parametrize("text, column", [
        ("\u0663*x1", 1),  # Arabic-Indic three
        ("x\u00b2", 1),  # superscript two after a letter
        ("\u03b11", 1),  # Greek alpha
        ("x\u0661", 1),  # Arabic-Indic one after a letter
        ("\u00b2", 1),
        ("x1 + x\u0662", 6),
    ])
    def test_non_ascii_digits_and_letters_rejected(self, text, column):
        # the grammar's letters and digits are ASCII, as in `Variable.parse`
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (err.value.line, err.value.column) == (1, column)

    @pytest.mark.parametrize("text, column", [("x01", 2), ("x1 - x01", 7), ("{t1,t007}", 6)])
    def test_leading_zero_in_an_index_rejected(self, text, column):
        # x01 and x1 would otherwise name one variable, printed as x1
        with pytest.raises(ParseError, match="leading zero") as err:
            parse(text)
        assert (err.value.line, err.value.column) == (1, column)

    def test_variable_parse_rejects_a_leading_zero(self):
        with pytest.raises(ValueError, match="leading zero"):
            Variable.parse("x01")

    @pytest.mark.parametrize("name, index", [("x0", 0), ("x10", 10), ("x100", 100)])
    def test_zero_and_inner_zeros_stay_valid(self, name, index):
        assert Variable.parse(name) == Variable("x", index)
        assert to_gp(parse(name)) == GPPoly.generator(Variable("x", index))
        assert repr(to_gp(parse(name))) == name
        assert not to_gp(parse(f"{name} - x1")).is_zero()

    def test_zero_denominator(self):
        with pytest.raises(ParseError, match="zero denominator"):
            parse("1/0*x1")

    def test_error_is_single_line(self):
        try:
            parse("{x1,x2")
        except ParseError as err:
            assert "\n" not in str(err)


class TestRoundTrip:
    @settings(max_examples=80)
    @given(gp_polys(MIXED))
    def test_parse_of_print(self, f):
        assert to_gp(parse(repr(f))) == f

    @settings(max_examples=80)
    @given(ac_polys(MIXED, max_terms=4, max_leaves=5))
    def test_ac_parse_of_print(self, a):
        assert to_ac(parse(repr(a))) == a

    @settings(max_examples=80)
    @given(assoc_polys([v.name for v in MIXED]))
    def test_assoc_parse_of_print(self, p):
        assert to_assoc(parse(repr(p))) == p

    def test_idempotent_printing(self):
        for text in ("{x2,x1}", "3/6*x1*x1", "{x1,{x2,x3}} - {x1,x2} + 2", "0"):
            once = repr(to_gp(parse(text)))
            assert repr(to_gp(parse(once))) == once

    def test_corpus(self):
        rng = random.Random(101)
        variables = xvars(4)
        from freegp.ac import Word, normalize_word

        def random_word(depth=0):
            if depth > 2 or rng.random() < 0.4:
                return Word.leaf(rng.choice(variables))
            return Word.node(random_word(depth + 1), random_word(depth + 1))

        count = 0
        while count < 200:
            f = GPPoly.zero()
            for _ in range(rng.randint(0, 3)):
                g = GPPoly.constant(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
                for _ in range(rng.randint(1, 2)):
                    p = normalize_word(random_word())
                    g = g * GPPoly.from_ac(p)
                f = f + g
            assert to_gp(parse(repr(f))) == f
            count += 1


class TestAssocEvaluation:
    def test_product_is_noncommutative(self):
        u12 = to_assoc(parse("u1*u2"))
        u21 = to_assoc(parse("u2*u1"))
        assert u12 != u21
        assert u12 == AssocPoly.word(("u1", "u2"))

    def test_braces_are_commutators(self):
        got = to_assoc(parse("{u1,u2}"))
        assert got == commutator(AssocPoly.letter("u1"), AssocPoly.letter("u2"))


class TestPolyEvaluation:
    def test_polynomial(self):
        p = to_poly(parse("2*x1*x1 + y1 - 1"), ("x1", "y1"))
        expected = {
            (2, 0): Fraction(2),
            (0, 1): Fraction(1),
            (0, 0): Fraction(-1),
        }
        assert p == MultiPoly(("x1", "y1"), expected)
        assert dict(p.terms()) == expected

    def test_unknown_variable_rejected(self):
        with pytest.raises(ValueError, match="unknown realization variable"):
            to_poly(parse("z1"), ("x1", "y1"))

    def test_brackets_rejected(self):
        with pytest.raises(ValueError, match="brackets"):
            to_poly(parse("{x1,y1}"), ("x1", "y1"))

    def test_bracket_rejected_before_its_variables_are_checked(self):
        with pytest.raises(ValueError, match="brackets are not allowed"):
            to_poly(parse("{z1,x1}"), ("x1", "y1"))

    @settings(max_examples=80)
    @given(*[gp_polys(REALIZATION_VARS, max_factors=3, max_leaves=1)] * 3)
    def test_agrees_with_the_gp_fold(self, f, g, h):
        """Bracket-free text read as a polynomial equals its GP element
        evaluated at the identity assignment."""
        r = Realization("poisson", 2)
        text = f"({f!r})*({g!r}) - ({h!r})"
        identity = {V(name): r.variable(name) for name in r.var_names}
        expected = evaluate_gp(to_gp(parse(text)), identity, r)
        assert to_poly(parse(text), r.var_names) == expected
