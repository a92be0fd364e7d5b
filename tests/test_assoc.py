"""Free associative algebra: signed sums, Lie tests, exterior images."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from freegp.assoc import (
    AssocPoly,
    ExteriorElem,
    alternating_sum,
    commutator,
    exterior_image,
    is_lie_element,
    permutation_sign,
)
from freegp.linalg import solve
import helpers

LETTERS = ("u1", "u2", "u3", "u4")
U1, U2 = AssocPoly.letter("u1"), AssocPoly.letter("u2")


def assoc_polys(letters=LETTERS, max_terms=3, max_len=3):
    words = st.lists(st.sampled_from(letters), min_size=0, max_size=max_len).map(tuple)
    coef = st.integers(-3, 3).filter(bool).map(Fraction)
    return st.lists(st.tuples(words, coef), max_size=max_terms).map(
        lambda pairs: sum(
            (AssocPoly.word(w, c) for w, c in pairs), AssocPoly.zero()
        )
    )


class TestAlternatingSum:
    def test_single(self):
        assert alternating_sum(1, ["u1"]) == AssocPoly.letter("u1")

    def test_pair(self):
        expected = AssocPoly.word(("u1", "u2")) + AssocPoly.word(("u2", "u1"), -1)
        assert alternating_sum(2, ["u1", "u2"]) == expected

    def test_triple_has_six_signed_terms(self):
        a3 = alternating_sum(3, ["u1", "u2", "u3"])
        assert len(a3.terms()) == 6
        assert a3._terms[("u1", "u2", "u3")] == 1
        assert a3._terms[("u2", "u1", "u3")] == -1
        assert a3._terms[("u3", "u1", "u2")] == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            alternating_sum(2, ["u1"])

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            alternating_sum(2, ["u1", "u1"])


class TestLieElement:
    def test_commutator_is_lie(self):
        assert is_lie_element(alternating_sum(2, ["u1", "u2"]))

    def test_alternating_sums(self):
        for m in range(1, 6):
            letters = [f"u{i}" for i in range(1, m + 1)]
            assert is_lie_element(alternating_sum(m, letters)) == (m in (1, 2))

    def test_plain_product_is_not(self):
        assert not is_lie_element(AssocPoly.word(("u1", "u2")))

    def test_constants_are_not(self):
        assert is_lie_element(AssocPoly.zero())
        assert not is_lie_element(AssocPoly.one())

    def test_nested_commutators(self):
        a = AssocPoly.letter("u1")
        b = AssocPoly.letter("u2")
        c = AssocPoly.letter("u3")
        assert is_lie_element(commutator(commutator(a, b), c))
        assert is_lie_element(commutator(a, commutator(b, c)) - commutator(b, commutator(a, c)))

    @settings(max_examples=200)
    # repeated letters: [u1,[u1,u2]] is Lie and u1*u1 is not
    @example(f=commutator(U1, commutator(U1, U2)), c=0, a=U1, b=U2)
    @example(f=U1 * U1, c=0, a=U1, b=U2)
    @given(
        helpers.assoc_polys(LETTERS),
        st.sampled_from([0, 1, -2, Fraction(1, 3)]),
        helpers.assoc_polys(LETTERS, max_length=1),
        helpers.assoc_polys(LETTERS, max_length=1),
    )
    def test_agrees_with_the_full_coproduct(self, f, c, a, b):
        constant = c * AssocPoly.one()
        lie = commutator(a, b)  # words of at most one letter commute to a Lie element
        for L in (f, f + constant, lie, lie + constant, commutator(lie, f)):
            assert is_lie_element(L) == helpers.full_coproduct_is_lie(L)
        assert is_lie_element(lie)


class TestExteriorImage:
    def test_alternating_sum_images(self):
        for m in range(2, 6):
            letters = tuple(f"u{i}" for i in range(1, m + 1))
            image = exterior_image(alternating_sum(m, letters))
            factorial = 1
            for k in range(2, m + 1):
                factorial *= k
            assert image == ExteriorElem({letters: Fraction(factorial)})

    def test_repeated_letter_dies(self):
        assert exterior_image(AssocPoly.word(("u1", "u1"))).is_zero()

    def test_commutator(self):
        image = exterior_image(commutator(AssocPoly.letter("u1"), AssocPoly.letter("u2")))
        assert image == ExteriorElem({("u1", "u2"): Fraction(2)})

    @settings(max_examples=60)
    @given(assoc_polys(), assoc_polys())
    def test_algebra_homomorphism(self, f, g):
        assert exterior_image(f * g) == exterior_image(f) * exterior_image(g)


# ------------------------------------------------------- Lyndon-basis oracle


def _is_lyndon(w: tuple) -> bool:
    return len(w) > 0 and all(w < w[i:] for i in range(1, len(w)))


def _lyndon_words(letters, length):
    return [w for w in itertools.product(letters, repeat=length) if _is_lyndon(w)]


def _standard_bracketing(w: tuple) -> AssocPoly:
    if len(w) == 1:
        return AssocPoly.letter(w[0])
    # longest proper Lyndon suffix gives the standard factorization
    for i in range(1, len(w)):
        if _is_lyndon(w[i:]):
            return commutator(_standard_bracketing(w[:i]), _standard_bracketing(w[i:]))
    raise AssertionError("not a Lyndon word")


def _lie_span_membership(L: AssocPoly) -> bool:
    """Oracle: solve for L degree by degree in the Lyndon bracket basis."""
    by_degree = {}
    for w, c in L._terms.items():
        by_degree.setdefault(len(w), {})[w] = c
    for degree, component in by_degree.items():
        if degree == 0:
            return False  # nonzero constant term
        letters = sorted(L.letters())
        basis = [_standard_bracketing(w) for w in _lyndon_words(letters, degree)]
        monomials = sorted(
            {w for b in basis for w in b._terms} | set(component)
        )
        rows = [[b._terms.get(m, Fraction(0)) for b in basis] for m in monomials]
        rhs = [component.get(m, Fraction(0)) for m in monomials]
        if solve(rows, rhs) is None:
            return False
    return True


class TestAgainstLyndonOracle:
    def test_oracle_sanity(self):
        assert _lyndon_words(("a", "b"), 2) == [("a", "b")]
        assert _lie_span_membership(alternating_sum(2, ["u1", "u2"]))
        assert not _lie_span_membership(AssocPoly.word(("u1", "u2")))

    def test_agreement_on_random_elements(self):
        rng = random.Random(7)
        letters = LETTERS
        lyndon = [w for d in (1, 2, 3, 4) for w in _lyndon_words(letters, d)]
        agreements = 0
        for trial in range(120):
            if trial % 2 == 0:
                # random Lie combination: must test True on both routes
                terms = AssocPoly.zero()
                for _ in range(rng.randint(1, 3)):
                    c = Fraction(rng.choice([-2, -1, 1, 2]))
                    terms = terms + c * _standard_bracketing(rng.choice(lyndon))
                L = terms
                assert is_lie_element(L)
            else:
                words = [
                    tuple(rng.choice(letters) for _ in range(rng.randint(0, 4)))
                    for _ in range(rng.randint(1, 3))
                ]
                L = AssocPoly.zero()
                for w in words:
                    L = L + AssocPoly.word(w, Fraction(rng.choice([-2, -1, 1, 2])))
            assert is_lie_element(L) == _lie_span_membership(L)
            agreements += 1
        assert agreements == 120
