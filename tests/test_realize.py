"""Derivation-pair realizations: brackets, evaluation, witnesses."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from freegp.ac import Variable
from freegp.gp import GPPoly, substitute
from freegp.ratfunc import MAX_EXPONENT, MultiPoly, RatFunc
from freegp.realize import (
    Realization,
    _attempt_size,
    _random_polynomial,
    evaluate_gp,
    identity_witness_search,
    realized_bracket,
    structured_witness,
)

from helpers import J3_T_TEXT, V, coefficients, derivation_pair_bracket, gp, gp_polys

TS = [V("t1"), V("t2"), V("t3")]


def _random_poly(realization, rng, max_deg=2):
    names = realization.var_names
    n = len(names)
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exp = [0] * n
        for _ in range(rng.randint(0, max_deg)):
            exp[rng.randrange(n)] += 1
        c = rng.randint(-2, 2)
        if c:
            terms[tuple(exp)] = terms.get(tuple(exp), Fraction(0)) + c
    return MultiPoly(names, {e: c for e, c in terms.items() if c})


def _random_fraction(realization, rng):
    """A rational function over a nonconstant monomial denominator; the
    unreduced RatFunc arithmetic keeps such denominators one term long."""
    names = realization.var_names
    den = MultiPoly.constant(names, rng.choice([-2, 1, 3]))
    for _ in range(rng.randint(1, 2)):
        den = den * MultiPoly.variable(names, rng.choice(names))
    return RatFunc(_random_poly(realization, rng), den)


def _jacobiator_value(a, b, c, realization):
    return (
        realized_bracket(realized_bracket(a, b, realization), c, realization)
        + realized_bracket(realized_bracket(b, c, realization), a, realization)
        + realized_bracket(realized_bracket(c, a, realization), b, realization)
    )


class TestRealizedBracket:
    def test_poisson_canonical_pair(self):
        r = Realization("poisson", 1)
        assert realized_bracket(r.variable("x1"), r.variable("y1"), r) == r.constant(1)

    def test_self_bracket(self):
        r = Realization("poisson", 1)
        x = r.variable("x1")
        assert realized_bracket(x, x, r).is_zero()

    def test_gps_twist(self):
        r = Realization("gps", 2)
        assert realized_bracket(r.variable("x1"), r.variable("y1"), r) == r.variable("y2")

    def test_gps_wraparound(self):
        r = Realization("gps", 2)
        assert realized_bracket(r.variable("x2"), r.variable("y2"), r) == r.variable("y1")

    def test_anti_commutative_and_leibniz_both_kinds(self):
        rng = random.Random(23)
        for kind in ("poisson", "gps"):
            r = Realization(kind, 2)
            for _ in range(20):
                a, b, c = (_random_poly(r, rng) for _ in range(3))
                assert (realized_bracket(a, b, r) + realized_bracket(b, a, r)).is_zero()
                lhs = realized_bracket(a, b * c, r)
                rhs = realized_bracket(a, b, r) * c + realized_bracket(a, c, r) * b
                assert (lhs - rhs).is_zero()

    def test_poisson_jacobi_identity(self):
        rng = random.Random(29)
        r = Realization("poisson", 2)
        for _ in range(20):
            a, b, c = (_random_poly(r, rng, max_deg=1) for _ in range(3))
            assert _jacobiator_value(a, b, c, r).is_zero()

    def test_anti_commutative_and_leibniz_on_fractions(self):
        rng = random.Random(37)
        for kind in ("poisson", "gps"):
            r = Realization(kind, 2)
            for _ in range(20):
                a, b, c = (_random_fraction(r, rng) for _ in range(3))
                assert (realized_bracket(a, b, r) + realized_bracket(b, a, r)).is_zero()
                lhs = realized_bracket(a, b * c, r)
                rhs = realized_bracket(a, b, r) * c + realized_bracket(a, c, r) * b
                assert (lhs - rhs).is_zero()

    def test_poisson_jacobi_on_fractions(self):
        rng = random.Random(41)
        r = Realization("poisson", 2)
        for _ in range(20):
            a, b, c = (_random_fraction(r, rng) for _ in range(3))
            assert _jacobiator_value(a, b, c, r).is_zero()

    def test_gps_jacobiator_fixture(self):
        # regression fixture located by scripts/find_gps_jacobiator_fixture.py
        r = Realization("gps", 2)
        a, b, c = r.variable("x2"), r.variable("x1"), r.variable("y1")
        value = _jacobiator_value(a, b, c, r)
        assert value == -r.variable("y1")
        assert not value.is_zero()


NONZERO = coefficients | st.integers(-3, 3).filter(bool)  # Fraction and int


def _monomials(realization, min_size=0):
    """Exponent tuples with up to three nonzero exponents of 1..3."""
    n = len(realization.var_names)
    return st.dictionaries(st.integers(0, n - 1), st.integers(1, 3), min_size=min_size, max_size=3).map(
        lambda e: tuple(e.get(i, 0) for i in range(n))
    )


def _terms(realization, monomials, max_terms):
    names = realization.var_names
    return st.dictionaries(monomials, NONZERO, min_size=1, max_size=max_terms).map(
        lambda terms: MultiPoly(names, terms)
    )


def nonconstant(realization):
    """One to five terms over the realization's variables, not constant."""
    return _terms(realization, _monomials(realization, 1), 5)


def polynomials(realization):
    """Zero, a constant or a nonconstant polynomial."""
    names = realization.var_names
    return st.one_of(
        st.just(MultiPoly.zero(names)),
        NONZERO.map(lambda c: MultiPoly.constant(names, c)),
        nonconstant(realization),
    )


def fractions(realization):
    """A `RatFunc` over a nonconstant denominator of one or two terms."""
    return st.builds(RatFunc, polynomials(realization), _terms(realization, _monomials(realization, 1), 2))


class TestFusedBracketAgainstPerPairOracle:
    """The one-pass kernel against `derivation_pair_bracket`, the per-pair
    formula of derivative polynomials, products and sums it replaced."""

    @pytest.mark.parametrize("kind", ["poisson", "gps"])
    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 4), data=st.data())
    def test_polynomials(self, kind, n, data):
        r = Realization(kind, n)
        a, b = data.draw(polynomials(r)), data.draw(nonconstant(r))
        for x, y in ((a, b), (b, a)):
            got = realized_bracket(x, y, r)
            expected = derivation_pair_bracket(x, y, r)
            assert isinstance(got, MultiPoly) and got == expected
            assert repr(got) == repr(expected)

    @pytest.mark.parametrize("kind", ["poisson", "gps"])
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**32))
    def test_twelve_pairs(self, kind, seed):
        # the dense degree-2 operands of a random witness attempt, one
        # scaled to Fraction coefficients
        r = Realization(kind, 12)
        rng = random.Random(seed)
        a = _random_polynomial(r.var_names, rng)
        b = _random_polynomial(r.var_names, rng) * Fraction(-1, 3)
        got = realized_bracket(a, b, r)
        assert got == derivation_pair_bracket(a, b, r)
        assert not got.is_zero()

    @pytest.mark.parametrize("kind", ["poisson", "gps"])
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 4), data=st.data())
    def test_fractions(self, kind, n, data):
        r = Realization(kind, n)
        a = data.draw(fractions(r))
        b = data.draw(fractions(r) | polynomials(r))
        for x, y in ((a, b), (b, a)):
            got = realized_bracket(x, y, r)
            assert isinstance(got, RatFunc)
            assert got == derivation_pair_bracket(x, y, r)

    @pytest.mark.parametrize("kind, top", [("poisson", MAX_EXPONENT), ("gps", MAX_EXPONENT - 1)])
    def test_exponent_bound(self, kind, top):
        # x1^top against y1: one more exponent, and under gps the twist
        # y1 one more again, would pass MAX_EXPONENT
        r = Realization(kind, 1)
        y = r.variable("y1")
        with pytest.raises(ValueError, match="could exceed"):
            realized_bracket(MultiPoly(r.var_names, {(top, 0): 1}), y, r)
        below = MultiPoly(r.var_names, {(top - 1, 0): 1})
        assert realized_bracket(below, y, r) == derivation_pair_bracket(below, y, r)

    @pytest.mark.parametrize("names", [("x1", "y1", "x2", "y2"), ("y1", "x1")])
    @pytest.mark.parametrize("wrap", [lambda p: p, RatFunc], ids=["poly", "ratfunc"])
    def test_operands_over_another_variable_tuple(self, names, wrap):
        r = Realization("poisson", 1)
        x, y = MultiPoly.variable(names, "x1"), MultiPoly.variable(names, "y1")
        for a, b in ((x, y), (x, r.variable("y1")), (r.variable("x1"), y)):
            with pytest.raises(ValueError, match="polynomials over"):
                realized_bracket(wrap(a), wrap(b), r)


class TestEvaluateGP:
    def test_pair_under_poisson(self):
        r = Realization("poisson", 1)
        asn = {V("t1"): r.variable("x1"), V("t2"): r.variable("y1")}
        assert evaluate_gp(gp("{t1,t2}"), asn, r) == r.constant(1)

    def test_plain_product(self):
        r = Realization("poisson", 1)
        asn = {V("t1"): r.variable("x1"), V("t2"): r.variable("y1")}
        assert evaluate_gp(gp("t1*t2"), asn, r) == r.variable("x1") * r.variable("y1")

    def test_jacobiator_vanishes_under_poisson(self):
        r = Realization("poisson", 3)
        asn = {V(f"t{i}"): r.variable(f"x{i}") for i in (1, 2, 3)}
        assert evaluate_gp(gp(J3_T_TEXT), asn, r).is_zero()

    def test_missing_assignment(self):
        r = Realization("poisson", 1)
        with pytest.raises(ValueError, match="cover"):
            evaluate_gp(gp("{t1,t2}"), {V("t1"): r.variable("x1")}, r)

    def test_homomorphism_properties(self):
        rng = random.Random(31)
        r = Realization("gps", 2)
        f = gp("{t1,t2}")
        g = gp("t1*t2 + t2")
        for _ in range(15):
            asn = {V("t1"): _random_poly(r, rng), V("t2"): _random_poly(r, rng)}
            ef, eg = evaluate_gp(f, asn, r), evaluate_gp(g, asn, r)
            assert evaluate_gp(f * g, asn, r) == ef * eg
            assert evaluate_gp(f.bracket(g), asn, r) == realized_bracket(ef, eg, r)


class TestCompositionLaw:
    """Substitution then realization is realization of the realized
    images: both go through one homomorphism fold.  A zero image must
    count as mapped, and an unmapped generator stays fixed."""

    @pytest.mark.parametrize("kind", ["poisson", "gps"])
    @settings(max_examples=40, deadline=None)
    @given(
        f=gp_polys(TS[:2]),
        images=st.dictionaries(
            st.sampled_from(TS[:2]),
            st.just(GPPoly.zero()) | gp_polys(TS, max_terms=2, max_leaves=2),
            max_size=2,
        ),
        seed=st.integers(0, 10**6),
    )
    def test_substitute_then_evaluate(self, kind, f, images, seed):
        rng = random.Random(seed)
        r = Realization(kind, 2)
        asn = {v: _random_poly(r, rng) for v in TS}
        composed = {
            v: evaluate_gp(images[v], asn, r) if v in images else asn[v]
            for v in f.variables()
        }
        assert evaluate_gp(substitute(f, images), asn, r) == evaluate_gp(f, composed, r)


class TestPolynomialPathAgainstRatFunc:
    """Polynomial assignments against the same assignments wrapped in
    RatFunc, the reference: equal values and equal printed forms."""

    TEXTS = (J3_T_TEXT, "{t1,t2}*t3 - 1/2*{{t1,t3},t2}", "2*t1*{t2,{t3,t1}} + {t1,t2}*{t2,t3}")

    @pytest.mark.parametrize("kind", ["poisson", "gps"])
    def test_evaluate_gp_matches_reference(self, kind):
        rng = random.Random(43)
        r = Realization(kind, 2)
        for text in self.TEXTS:
            f = gp(text)
            for _ in range(5):
                asn = {v: _random_poly(r, rng) for v in sorted(f.variables())}
                value = evaluate_gp(f, asn, r)
                reference = evaluate_gp(f, {v: RatFunc(p) for v, p in asn.items()}, r)
                assert isinstance(value, MultiPoly) and isinstance(reference, RatFunc)
                assert RatFunc(value) == reference
                assert repr(value) == repr(reference)


class TestStructuredWitness:
    def test_pair(self):
        f = gp("{t1,t2}")
        asn = structured_witness(f, 2)
        r = Realization("gps", 2)
        assert asn == {V("t1"): r.variable("x1"), V("t2"): r.variable("y1")}
        assert evaluate_gp(f, asn, r) == r.variable("y2")

    def test_height_two(self):
        f = gp("{t1,{t2,t3}}")
        asn = structured_witness(f, 3)
        r = Realization("gps", 3)
        assert asn == {
            V("t1"): r.variable("x2"),
            V("t2"): r.variable("x1"),
            V("t3"): r.variable("y1"),
        }
        assert evaluate_gp(f, asn, r) == r.variable("y3")

    def test_product_blocks_staggered(self):
        f = gp("{t1,t2}*{t3,t4}")
        asn = structured_witness(f, 5)
        r = Realization("gps", 5)
        assert asn == {
            V("t1"): r.variable("x1"),
            V("t2"): r.variable("y1"),
            V("t3"): r.variable("x3"),
            V("t4"): r.variable("y3"),
        }
        assert evaluate_gp(f, asn, r) == r.variable("y2") * r.variable("y4")

    def test_minimal_size_reported(self):
        with pytest.raises(ValueError, match="minimal sufficient m is 4"):
            structured_witness(gp("{t1,t2}*{t3,t4}"), 3)

    def test_no_qualifying_monomial(self):
        assert structured_witness(gp("{t1,{t2,{t3,t4}}}"), 9) is None

    def test_value_is_nonzero_y_monomial(self):
        for text, m in (("{t1,t2}", 4), ("{t1,{t2,t3}}", 5), ("{t1,t2}*{t3,t4}", 6), (J3_T_TEXT, 5)):
            f = gp(text)
            asn = structured_witness(f, m)
            r = Realization("gps", m)
            value = evaluate_gp(f, asn, r)
            assert isinstance(value, MultiPoly)
            assert not value.is_zero()
            [(exp, _)] = value.terms()
            xs = [k for name, k in zip(r.var_names, exp) if name.startswith("x") and k]
            assert not xs  # pure y monomial


class TestWitnessSearch:
    def test_pair_under_poisson_structured(self):
        r = Realization("poisson", 1)
        w = identity_witness_search(gp("{t1,t2}"), r, budget=10)
        assert w is not None and w.method == "structured"
        assert w.assignment == {V("t1"): r.variable("x1"), V("t2"): r.variable("y1")}
        assert w.value == r.constant(1)

    def test_jacobiator_not_found_under_poisson(self):
        r = Realization("poisson", 2)
        assert identity_witness_search(gp(J3_T_TEXT), r, budget=25) is None

    def test_jacobiator_found_under_gps(self):
        r = Realization("gps", 4)
        w = identity_witness_search(gp(J3_T_TEXT), r, budget=200)
        assert w is not None and w.method == "structured"
        assert not w.value.is_zero()

    def test_negative_budget_rejected(self):
        r = Realization("gps", 2)
        with pytest.raises(ValueError, match="budget must be non-negative"):
            identity_witness_search(gp("{t1,t2}"), r, budget=-5)
        assert identity_witness_search(gp("{t1,t2}"), r, budget=0).method == "structured"
        assert identity_witness_search(gp(J3_T_TEXT), Realization("poisson", 2), budget=0) is None

    def test_attempt_bound_is_checked_before_the_random_phase(self):
        r = Realization("gps", 2)
        w = identity_witness_search(gp("{t1,t2}"), r, max_term_pairs=0)
        assert w is not None and w.method == "structured"
        f = gp("{t1,{t2,{t3,t4}}}")  # no structured plan applies
        assert identity_witness_search(f, r, budget=0, max_term_pairs=0) is None
        with pytest.raises(ValueError, match="exceeds the bound 0"):
            identity_witness_search(f, r, budget=1, max_term_pairs=0)
        w = identity_witness_search(f, r, budget=1, seed=5, max_term_pairs=_attempt_size(f, r))
        assert w is not None and w.method == "random"

    def test_attempt_bound_counts_every_attempt_of_the_budget(self):
        f, r = gp(J3_T_TEXT), Realization("poisson", 2)  # never found: Jacobi holds
        size = _attempt_size(f, r)
        with pytest.raises(ValueError, match=f"term pairs={3 * size} exceeds the bound {3 * size - 1}"):
            identity_witness_search(f, r, budget=3, max_term_pairs=3 * size - 1)
        assert identity_witness_search(f, r, budget=3, max_term_pairs=3 * size) is None

    def test_random_phase_is_deterministic(self):
        f = gp("{t1,{t2,{t3,t4}}}")  # no structured plan applies
        r = Realization("gps", 2)
        w1 = identity_witness_search(f, r, budget=30, seed=5)
        w2 = identity_witness_search(f, r, budget=30, seed=5)
        assert w1 is not None and w1.method == "random"
        assert w1.attempts == w2.attempts
        assert w1.value == w2.value
