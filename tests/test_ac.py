"""Free anti-commutative algebra: normal forms, heights, flips, bases."""

import itertools
import string
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from freegp.ac import (
    ACPoly,
    Variable,
    Word,
    ac_bracket,
    enumerate_polylinear_basis,
    flip,
    flip_orbit,
    height,
    i_normal_form,
    is_normal,
    normalize_word,
)
from freegp.assoc import permutation_sign

from helpers import (
    J3_TEXT,
    V,
    ac_polys,
    acp,
    elevated_normal_form,
    left_normed,
    raw_words,
    word,
    xvars,
)


class TestVariable:
    """A generator hashes, compares and sorts as its (base, index) pair, so
    set and dict orders of variables do not depend on its type."""

    def test_hash_is_the_pair_hash(self):
        assert hash(Variable("x", 3)) == hash(("x", 3))

    def test_order_is_base_then_index(self):
        assert V("x2") < V("x10") and V("t9") < V("x1") and V("x9") < V("y1")
        names = ["y1", "x10", "t9", "x2", "x1", "x9"]
        assert [v.name for v in sorted(map(V, names))] == ["t9", "x1", "x2", "x9", "x10", "y1"]

    @given(st.sampled_from(string.ascii_letters), st.integers(0, 10**12))
    def test_parse_inverts_name(self, base, index):
        v = Variable(base, index)
        assert Variable.parse(v.name) == v

    def test_immutable(self):
        v = V("x1")
        for attribute, value in (("base", "y"), ("index", 2), ("other", 0)):
            with pytest.raises(AttributeError):
                setattr(v, attribute, value)
        assert v == V("x1")

    def test_printed_as_its_name(self):
        v = Variable("t", 12)
        assert v.name == "t12"
        assert repr(v) == str(v) == f"{v}" == "t12"
        assert repr([v, V("x1")]) == "[t12, x1]"


class TestNormalize:
    def test_swap(self):
        assert acp("{x2,x1}") == acp("-{x1,x2}")

    def test_square_is_zero(self):
        assert acp("{x1,x1}").is_zero()

    def test_degree_first_order(self):
        assert acp("{{x1,x2},x3}") == acp("-{x3,{x1,x2}}")

    def test_idempotent_on_normal_words(self):
        w = word("{x1,{x2,x3}}")
        assert normalize_word(w) == ACPoly({w: Fraction(1)})
        assert is_normal(w)

    @given(raw_words(xvars(4)))
    def test_normal_forms_are_normal(self, w):
        p = normalize_word(w)
        for u, c in p.terms():
            assert is_normal(u)
            assert c in (1, -1)

    @given(raw_words(xvars(3), max_leaves=5))
    def test_single_swap_changes_sign(self, w):
        if w.is_leaf:
            return
        swapped = Word.node(w.right, w.left)
        assert normalize_word(swapped) == -normalize_word(w)

    @settings(max_examples=60)
    @given(raw_words(xvars(3), max_leaves=5), st.randoms(use_true_random=False))
    def test_respects_random_anticommutative_algebras(self, w, rng):
        # universal property oracle: the canonical form and the raw word
        # must evaluate equally under any linear map into any algebra
        # with an anti-commutative bilinear product
        dim = 3
        table = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
        for i in range(dim):
            for j in range(i):
                vec = [Fraction(rng.randint(-2, 2)) for _ in range(dim)]
                table[j][i] = vec
                table[i][j] = [-x for x in vec]
        images = {v: [Fraction(rng.randint(-2, 2)) for _ in range(dim)] for v in xvars(3)}

        def mul(a, b):
            out = [Fraction(0)] * dim
            for i in range(dim):
                if not a[i]:
                    continue
                for j in range(dim):
                    if b[j]:
                        for k in range(dim):
                            out[k] += a[i] * b[j] * table[i][j][k]
            return out

        def eval_word(node):
            if node.is_leaf:
                return images[node.var]
            return mul(eval_word(node.left), eval_word(node.right))

        direct = eval_word(w)
        via_normal = [Fraction(0)] * dim
        for u, c in normalize_word(w).terms():
            vec = eval_word(u)
            via_normal = [a + c * b for a, b in zip(via_normal, vec)]
        assert direct == via_normal


class TestBracket:
    def test_generators(self):
        a, b = ACPoly.generator(V("x1")), ACPoly.generator(V("x2"))
        assert ac_bracket(a, b) == acp("{x1,x2}")

    def test_square_of_sum(self):
        s = ACPoly.generator(V("x1")) + ACPoly.generator(V("x2"))
        assert ac_bracket(s, s).is_zero()

    def test_nested(self):
        assert ac_bracket(acp("{x1,x2}"), acp("x3")) == acp("-{x3,{x1,x2}}")

    @settings(max_examples=120)
    @given(ac_polys(xvars(3)), ac_polys(xvars(3)))
    def test_anti_commutative(self, f, g):
        assert (ac_bracket(f, g) + ac_bracket(g, f)).is_zero()

    @settings(max_examples=120)
    @given(ac_polys(xvars(3)))
    def test_self_bracket_vanishes(self, f):
        assert ac_bracket(f, f).is_zero()

    @settings(max_examples=40)
    @given(ac_polys(xvars(3), max_terms=2), ac_polys(xvars(3), max_terms=2), ac_polys(xvars(3), max_terms=2))
    def test_bilinear(self, f, g, h):
        assert ac_bracket(f + g, h) == ac_bracket(f, h) + ac_bracket(g, h)


class TestHeight:
    def test_documented_example(self):
        # height 3: two opening braces, two more, one closing before x4
        w = word("{{x1,{{x2,x3},x4}},{x5,x6}}")
        assert height(w, V("x4")) == 3

    def test_single_bracket(self):
        assert height(word("{x1,x2}"), V("x2")) == 1

    def test_two_brackets(self):
        assert height(word("{x1,{x2,x3}}"), V("x3")) == 2

    def test_absent_variable(self):
        with pytest.raises(ValueError, match="variable not present"):
            height(word("{x1,x2}"), V("x9"))

    def test_repeated_variable(self):
        w = Word.node(Word.leaf(V("x1")), Word.node(Word.leaf(V("x1")), Word.leaf(V("x2"))))
        with pytest.raises(ValueError, match="occurs"):
            height(w, V("x1"))

    @given(st.integers(3, 5), st.randoms(use_true_random=False))
    def test_polylinear_height_is_leaf_depth(self, n, rng):
        # for polylinear words the brace count to the left of x equals
        # the nesting depth of its leaf
        words = enumerate_polylinear_basis(xvars(n))
        w = rng.choice(words)
        x = rng.choice(sorted(w.varset))

        def depth(node, target, acc):
            if node.is_leaf:
                return acc if node.var == target else None
            return (
                depth(node.left, target, acc + 1)
                if target in node.left.varset
                else depth(node.right, target, acc + 1)
            )

        assert height(w, x) == depth(w, x, 0)


class TestOperatorForm:
    def test_plain_bracket(self):
        op = i_normal_form(word("{x1,x2}"), V("x2"))
        assert (op.sign, op.factors) == (1, (word("x1"),))

    def test_left_factor(self):
        # {{x1,x2},x3} already has its x3 innermost right: no sign
        op = i_normal_form(Word.node(word("{x1,x2}"), Word.leaf(V("x3"))), V("x3"))
        assert (op.sign, op.factors) == (1, (word("{x1,x2}"),))

    def test_two_factors(self):
        w = Word.node(Word.leaf(V("x1")), Word.node(word("{x2,x3}"), Word.leaf(V("x4"))))
        op = i_normal_form(w, V("x4"))
        assert (op.sign, op.factors) == (1, (word("x1"), word("{x2,x3}")))

    def test_swap_costs_a_sign(self):
        op = i_normal_form(word("{x1,x2}"), V("x1"))
        assert (op.sign, op.factors) == (-1, (word("x2"),))

    @given(st.integers(2, 5), st.randoms(use_true_random=False))
    def test_round_trip(self, n, rng):
        words = enumerate_polylinear_basis(xvars(n))
        w = rng.choice(words)
        x = rng.choice(sorted(w.varset))
        op = i_normal_form(w, x)
        assert op.to_ac() == normalize_word(w)

    @given(st.integers(2, 5), st.randoms(use_true_random=False))
    def test_expansion_is_normal_under_elevated_order(self, n, rng):
        words = enumerate_polylinear_basis(xvars(n))
        w = rng.choice(words)
        x = rng.choice(sorted(w.varset))
        op = i_normal_form(w, x)
        assert elevated_normal_form(op.expand(), x) == (1, op.expand())
        assert all(x not in u.varset for u in op.factors)

    def test_matches_normalization_under_elevated_order(self):
        # independent route: normalize under the elevated order and peel
        # the right spine
        for n in (3, 4):
            for w in enumerate_polylinear_basis(xvars(n)):
                for x in sorted(w.varset):
                    op = i_normal_form(w, x)
                    c, u = elevated_normal_form(w, x)
                    spine = []
                    cur = u
                    while not cur.is_leaf:
                        spine.append(cur.left)
                        cur = cur.right
                    assert cur.var == x
                    assert tuple(spine) == op.factors
                    assert c == op.sign


class TestFlip:
    def test_single_factor_fixed(self):
        c2 = acp("{x1,x2}")
        assert flip(c2, V("x2")) == c2

    def test_two_factor_reversal(self):
        assert flip(acp("{x1,{x2,x3}}"), V("x3")) == acp("-{x2,{x1,x3}}")

    def test_jacobiator_invariant(self):
        j3 = acp(J3_TEXT)
        for i in (1, 2, 3):
            assert flip(j3, V(f"x{i}")) == j3

    def test_pair_invariant(self):
        c2 = acp("{x1,x2}")
        for i in (1, 2):
            assert flip(c2, V(f"x{i}")) == c2

    def test_requires_linearity(self):
        with pytest.raises(ValueError, match="occurs"):
            flip(acp("{x1,{x1,x2}}"), V("x1"))

    @given(st.integers(2, 5), st.randoms(use_true_random=False))
    def test_involution_on_basis_words(self, n, rng):
        words = enumerate_polylinear_basis(xvars(n))
        w = rng.choice(words)
        x = rng.choice(sorted(w.varset))
        f = ACPoly({w: Fraction(1)})
        assert flip(flip(f, x), x) == f

    @settings(max_examples=40)
    @given(ac_polys(xvars(3), max_terms=3, max_leaves=3))
    def test_linear(self, f):
        x = V("x1")
        linear = ACPoly(
            {w: c for w, c in f.terms() if w.count(x) == 1}
        )
        g = acp("{x1,{x2,x3}}")
        assert flip(linear + g, x) == flip(linear, x) + flip(g, x)


class TestFlipOrbit:
    def test_pair_orbit_is_singleton(self):
        orbit = flip_orbit(acp("{x1,x2}"))
        assert len(orbit.elements) == 1 and not orbit.truncated

    def test_orbit_carries_all_signed_permutations(self):
        for n in (2, 3, 4):
            base = normalize_word(left_normed(xvars(n)))
            orbit = flip_orbit(base, max_size=500)
            assert not orbit.truncated
            members = set(orbit.elements)
            for perm in itertools.permutations(range(n)):
                sign = permutation_sign(perm)
                permuted = left_normed([Variable("x", i + 1) for i in perm])
                assert sign * normalize_word(permuted) in members

    def test_truncation_flag(self):
        base = normalize_word(left_normed(xvars(3)))
        orbit = flip_orbit(base, max_size=2)
        assert orbit.truncated and len(orbit.elements) == 2

    def test_orbit_elements_are_signed_monomials(self):
        base = normalize_word(left_normed(xvars(4)))
        for g in flip_orbit(base, max_size=500).elements:
            [(w, c)] = g.terms()
            assert c in (1, -1)


class TestPolylinearBasis:
    @staticmethod
    def _double_factorial(n):
        out = 1
        for k in range(2 * n - 3, 0, -2):
            out *= k
        return out

    def test_counts(self):
        for n in range(2, 7):
            assert len(enumerate_polylinear_basis(xvars(n))) == self._double_factorial(n)

    def test_two_variables(self):
        assert enumerate_polylinear_basis(xvars(2)) == [word("{x1,x2}")]

    def test_duplicate_variables_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            enumerate_polylinear_basis([V("x1"), V("x1")])

    def test_matches_brute_force_tree_enumeration(self):
        # oracle: normalize every leaf-labelled binary tree and collect
        # the distinct normal words
        for n in (2, 3, 4, 5, 6):
            variables = xvars(n)

            def trees(labels):
                if len(labels) == 1:
                    yield Word.leaf(labels[0])
                    return
                for k in range(1, len(labels)):
                    for lefts in itertools.combinations(labels, k):
                        rights = [v for v in labels if v not in lefts]
                        for lt in trees(list(lefts)):
                            for rt in trees(rights):
                                yield Word.node(lt, rt)

            seen = set()
            for t in trees(variables):
                p = normalize_word(t)
                if not p.is_zero():
                    [(w, _)] = p.terms()
                    seen.add(w)
            assert seen == set(enumerate_polylinear_basis(variables))

    def test_all_words_polylinear_and_normal(self):
        for w in enumerate_polylinear_basis(xvars(4)):
            assert is_normal(w)
            assert w.varset == frozenset(xvars(4)) and w.degree == 4
