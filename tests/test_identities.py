"""Derivation calculus: differences, Jacobian classification, reduction."""

import functools
import math
import random
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from freegp.ac import (
    ACPoly,
    Variable,
    Word,
    _normal_form,
    ac_bracket,
    enumerate_polylinear_basis,
    flip,
    height,
    normalize_word,
)
from freegp.assoc import is_lie_element
import freegp.identities
from freegp.gp import GPPoly, substitute
from freegp.identities import (
    _block_element,
    _factor_difference,
    _leibniz_open,
    _relabel,
    _x1_reducer,
    derivation_difference,
    farkas_height,
    is_derivation_in,
    is_jacobian,
    jacobian_product_decompose,
    jacobian_reduce,
    jacobian_reduce_trace,
    jacobian_space,
    jacobiator,
    linearize,
    multiplication_operator,
    poisson_normal_form,
    strip_bare_factors,
)
from freegp.linalg import RowReducer
from freegp.realize import Realization, _random_polynomial, evaluate_gp, identity_witness_search

import helpers
from helpers import (
    J3_TEXT,
    V,
    _partitions_23,
    acp,
    coefficients,
    derivation_rows,
    full_expansion_form,
    gp,
    gp_polys,
    left_normed,
    linear_gp_polys,
    per_variable_jacobian_space,
    polylinear_gp_polys,
    solve_product_decompose,
    substitution_derivation_difference,
    substitution_is_jacobian,
    two_pass_reduce_trace,
    word,
    xvars,
)

X = V("x4")
# y and z range over fresh variables, x itself (the reduction's case) and
# variables of f, independently, so y == z occurs too.
SPLIT = st.sampled_from([X, V("x5"), V("x6"), V("x1"), V("x2")])
FRESH_PAIRS = st.lists(
    st.sampled_from([V("x5"), V("x6"), V("y1"), V("t2")]), min_size=2, max_size=2, unique=True
)


class TestDerivationDifference:
    def test_pair_bracket_is_derivation(self):
        assert derivation_difference(gp("{x1,x2}"), V("x2"), V("y1"), V("y2")).is_zero()

    def test_jacobiator_is_derivation(self):
        assert derivation_difference(gp(J3_TEXT), V("x3"), V("y1"), V("y2")).is_zero()

    def test_height_two_word_is_not(self):
        d = derivation_difference(gp("{x1,{x2,x3}}"), V("x3"), V("y1"), V("y2"))
        assert not d.is_zero()
        # direct expansion: both Leibniz cross terms survive
        assert d == gp("{x1,y1}*{x2,y2} + {x2,y1}*{x1,y2}")

    @pytest.mark.parametrize("text", [
        "{x1,x3}*{x2,x3}",  # x in two factors, both at height 1
        "{x3,{x1,x3}}",  # x twice in one word, at height 1 from the root
        "{x1,x2} + x3",  # x missing from one monomial
    ], ids=["two_factors", "twice_in_one_word", "missing_from_a_monomial"])
    def test_requires_linearity(self, text, monkeypatch):
        # the check comes before a factor is expanded: the height-1 screen
        # would answer 0 for {x3,{x1,x3}}
        expanded = []
        factor_difference = freegp.identities._factor_difference

        def spy(w, x, y, z):
            expanded.append(w)
            return factor_difference(w, x, y, z)

        monkeypatch.setattr(freegp.identities, "_factor_difference", spy)
        with pytest.raises(ValueError, match="input is not linear in x3"):
            derivation_difference(gp(text), V("x3"), V("y1"), V("y2"))
        assert all(w.count(V("x3")) == 1 for w in expanded)

    def test_reuse_of_x_as_y(self):
        d = derivation_difference(gp("{x1,{x2,x3}}"), V("x3"), V("x3"), V("x4"))
        assert d == gp("{x1,x3}*{x2,x4} + {x2,x3}*{x1,x4}")


    def test_bare_factor(self):
        d = derivation_difference(gp("3*x3*{x1,x2}"), V("x3"), V("y1"), V("y2"))
        assert d == gp("-3*y1*y2*{x1,x2}")

    @settings(max_examples=300, deadline=None)
    @given(
        linear_gp_polys(X, xvars(3))
        | linear_gp_polys(X, xvars(3), max_terms=1, max_factors=0, max_height=4),
        SPLIT,
        SPLIT,
    )
    def test_matches_substitution_oracle(self, f, y, z):
        # sums of products, and single words up to height 4
        assert derivation_difference(f, X, y, z) == substitution_derivation_difference(
            f, X, y, z
        )

    def test_matches_oracle_on_shared_and_untouched_factors(self):
        # one x-factor under several products, and the same products with
        # a bare x: the untouched factors ride along unchanged
        f = gp(
            "2*{x1,{x2,x4}}*{x3,x5} - {x1,{x2,x4}}*x3 + x3*{x2,{x5,x4}}"
            " + x4*{x1,x2}*{x3,x1} + 1/2*{x2,{x1,x4}}"
        )
        for y, z in [(V("x6"), V("x7")), (X, V("x6")), (V("x1"), V("x3")), (V("x2"), V("x2"))]:
            assert derivation_difference(f, X, y, z) == substitution_derivation_difference(
                f, X, y, z
            )

    @pytest.mark.parametrize("text, y, z", [
        ("x4", "x5", "x5"),  # h = 0, y == z
        ("x4", "x1", "x1"),
        ("{x1,x4}", "x5", "x5"),  # y == z at height >= 1
        ("{x1,{x2,x4}}", "x5", "x5"),
        ("{{x1,x2},{x3,x4}}", "x1", "x1"),
        ("{x1,x4}", "x1", "x5"),  # a chain factor equal to the leaf y
        ("{x1,{x2,x4}}", "x2", "x5"),
        ("{x1,{x2,x4}}", "x1", "x2"),
        ("{x1,{x2,{x3,x4}}}", "x5", "x3"),
        ("{x1,{x2,{x3,x4}}}", "x1", "x1"),
    ])
    def test_factor_difference_edge_cases(self, text, y, z):
        # the Leibniz terms are dropped, not subtracted: check the cases
        # where they merge with each other or vanish
        w = word(text)
        terms = _factor_difference(w, X, word(y), word(z))
        assert 0 not in terms.values()
        expected = substitution_derivation_difference(GPPoly.from_factors((w,)), X, V(y), V(z))
        assert GPPoly(terms) == expected

    def test_operator_form_term_count(self):
        # the difference of a height-h word in x_i is a sum over the proper
        # nonempty subsets of its h operators: 2^h - 2 terms, all +-1
        for n in range(2, 6):
            xs = xvars(n)
            y, z = Variable("x", n + 1), Variable("x", n + 2)
            for w in enumerate_polylinear_basis(xs):
                for xi in xs:
                    d = derivation_difference(GPPoly.from_factors((w,)), xi, y, z)
                    assert len(d._terms) == 2 ** height(w, xi) - 2
                    assert set(d._terms.values()) <= {1, -1}

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_height_one_expands_nothing(self, n, monkeypatch):
        # {a, x} is a derivation in x: its difference is decided without
        # a single bracket, for fresh y and z and for the classification's
        # y = x
        calls = 0
        bracket = GPPoly.bracket

        def counted(self, other):
            nonlocal calls
            calls += 1
            return bracket(self, other)

        monkeypatch.setattr(GPPoly, "bracket", counted)
        xs = xvars(n)
        y, z = Word.leaf(Variable("x", n + 1)), Word.leaf(Variable("x", n + 2))
        screened = 0
        for w in enumerate_polylinear_basis(xs):
            for xi in xs:
                if height(w, xi) == 1:
                    assert _factor_difference(w, xi, y, z) == {}
                    assert _factor_difference(w, xi, Word.leaf(xi), z) == {}
                    screened += 1
        assert calls == 0
        # xi is a child of the root of one basis word {a, xi} per normal
        # word a on the other n - 1 letters: (2n-5)!! words per variable
        assert screened == n * math.prod(range(2 * n - 5, 0, -2))

    @settings(max_examples=150, deadline=None)
    @given(polylinear_gp_polys())
    def test_matches_oracle_in_the_reduction_shape(self, f):
        # the reduction's call: y = v and one fresh z, for each v of f
        fresh = Variable("x", max(v.index for v in f.variables()) + 1)
        for v in sorted(f.variables()):
            assert derivation_difference(f, v, v, fresh) == substitution_derivation_difference(
                f, v, v, fresh
            )

    def test_deep_word_expands_each_prefix_once(self, monkeypatch):
        # x1 innermost under h = 16 brackets: about 2 s on a 2-vCPU VM.
        # Expanding the chain level by level brackets about 2^(h+1) word
        # pairs; building each subset's chain apart takes about h*2^h.
        import freegp.gp

        pairs = 0
        bracket_normal = freegp.gp.bracket_normal

        def counted(u, v):
            nonlocal pairs
            pairs += 1
            return bracket_normal(u, v)

        monkeypatch.setattr(freegp.gp, "bracket_normal", counted)
        xs = xvars(17)
        f = GPPoly.from_ac(normalize_word(left_normed(xs[1:] + xs[:1])))
        start = time.perf_counter()
        assert not is_derivation_in(f, V("x1"))
        assert time.perf_counter() - start < 20
        assert pairs < 2 ** 18


class TestIsDerivationIn:
    @settings(max_examples=300, deadline=None)
    @given(linear_gp_polys(X, xvars(3)), FRESH_PAIRS)
    def test_matches_the_test_with_two_fresh_variables(self, f, yz):
        # the library decides with y = x and one fresh z, the definition
        # with two fresh y != z
        y, z = yz
        expected = substitution_derivation_difference(f, X, y, z).is_zero()
        assert is_derivation_in(f, X) == expected

    def test_examples(self):
        assert is_derivation_in(gp("{x1,x2}"), V("x2"))
        assert is_derivation_in(gp(J3_TEXT), V("x1"))
        assert not is_derivation_in(gp("{x1,{x2,x3}}"), V("x3"))

    def test_agrees_with_lie_operator_criterion(self):
        # independent route: an element linear in x is a derivation in x
        # exactly when its multiplication operator is a Lie element
        rng = random.Random(11)
        words4 = enumerate_polylinear_basis(xvars(4))
        checked = 0
        for _ in range(60):
            f = ACPoly.zero()
            for w in rng.sample(words4, rng.randint(1, 3)):
                f = f + Fraction(rng.choice([-2, -1, 1, 2])) * normalize_word(w)
            if f.is_zero():
                continue
            x = rng.choice(sorted(f.variables()))
            operator = multiplication_operator(f, x)
            assert is_derivation_in(GPPoly.from_ac(f), x) == is_lie_element(operator)
            checked += 1
        assert checked >= 50


class TestIsJacobian:
    def test_pair(self):
        assert is_jacobian(gp("{x1,x2}"))

    def test_jacobiator(self):
        assert is_jacobian(gp(J3_TEXT))

    def test_height_two_word(self):
        assert not is_jacobian(gp("{x1,{x2,x3}}"))

    def test_rejects_non_polylinear(self):
        with pytest.raises(ValueError, match="polylinear"):
            is_jacobian(gp("{x1,{x1,x2}}"))

    def test_product_of_jacobians(self):
        assert is_jacobian(gp("{x1,x2}*{x3,x4}"))

    @settings(max_examples=150, deadline=None)
    @given(polylinear_gp_polys(), st.integers(0, 2))
    def test_matches_the_substitution_oracle(self, f, bare):
        """Bare generators sit at height 0, so the screen must keep them."""
        f = _times_bare_generators(f, bare)
        assert is_jacobian(f) == substitution_is_jacobian(f)

    def test_open_variables_that_cancel(self):
        """x1..x3 are left open in J3 but their differences cancel, x4 is
        screened out, so the first nonzero difference is that of x5."""
        f = gp(J3_TEXT) * gp("{x4,{x5,x6}}")
        assert _leibniz_open(f) == [V("x1"), V("x2"), V("x3"), V("x5"), V("x6")]
        assert not is_jacobian(f) and not substitution_is_jacobian(f)
        reduced, steps = jacobian_reduce_trace(f)
        assert steps[0].variable == V("x5")
        assert (reduced, steps) == two_pass_reduce_trace(f)


def _times_bare_generators(f: GPPoly, bare: int) -> GPPoly:
    """f times the generators after its variables, `bare` of them."""
    top = max(v.index for v in f.variables())
    for i in range(1, bare + 1):
        f = f * GPPoly.generator(V(f"x{top + i}"))
    return f


class TestLeibnizOpen:
    @settings(max_examples=150, deadline=None)
    @given(polylinear_gp_polys(), st.integers(0, 2))
    def test_screened_out_differences_vanish(self, f, bare):
        f = _times_bare_generators(f, bare)
        open_ = _leibniz_open(f)
        assert open_ == sorted(set(open_))
        assert set(open_) <= f.variables()
        top = max(v.index for v in f.variables())
        for v in sorted(f.variables() - set(open_)):
            fresh = Variable(v.base, top + 1)
            assert substitution_derivation_difference(f, v, v, fresh).is_zero()

    def test_bare_generators_stay_open(self):
        assert _leibniz_open(gp("{x1,x2}*x3")) == [V("x3")]


class TestJacobianSpace:
    def test_dimensions(self):
        assert [len(jacobian_space(n)) for n in (2, 3, 4)] == [1, 1, 0]

    def test_two_variable_basis(self):
        [basis] = jacobian_space(2)
        assert basis == acp("{x1,x2}")

    def test_three_variable_basis_is_jacobiator_multiple(self):
        [basis] = jacobian_space(3)
        j3 = acp(J3_TEXT)
        ratios = {c / j3.coefficient(w) for w, c in basis.terms()}
        assert len(ratios) == 1 and basis.words() == j3.words()

    def test_basis_elements_flip_invariant(self):
        for n in (2, 3):
            for basis in jacobian_space(n):
                for v in sorted(basis.variables()):
                    assert flip(basis, v) == basis

    def test_bound_enforced(self):
        with pytest.raises(ValueError, match="two"):
            jacobian_space(1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_relabeled_rows_match_per_variable_rows(self, n):
        assert jacobian_space(n) == per_variable_jacobian_space(n)
        words, reducer = _x1_reducer(n)
        assert words == enumerate_polylinear_basis(xvars(n))
        oracle = RowReducer(len(words))
        for row in derivation_rows(n, V("x1")):
            oracle.add(row)
        assert reducer.pivots == oracle.pivots

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_x1_kernel_has_dimension_double_factorial(self, n):
        """The kernel of the x1 rows has dimension (2n-4)!! = 2^(n-2)*(n-2)!,
        the number of stage-2 columns of `jacobian_space`.  This is a fact
        measured here for n = 2..8, not a claim of the paper."""
        words, reducer = _x1_reducer(n)
        assert len(words) - reducer.rank == 2 ** (n - 2) * math.factorial(n - 2)

    @settings(max_examples=200)
    @given(st.data())
    def test_relabel_is_the_normal_form_of_the_renamed_word(self, data):
        n = data.draw(st.integers(2, 7))
        xs = xvars(n)
        a, b = data.draw(st.lists(st.sampled_from(xs), min_size=2, max_size=2))
        images = {a: b, b: a}
        memo = {}  # shared by several words, as by the basis words
        for _ in range(data.draw(st.integers(1, 4))):
            w = _normal_form(random_tree(data.draw(st.permutations(xs)), data))[1]
            assert _relabel(w, images, memo) == _normal_form(renamed(w, images))

    def test_jacobiator_helper_matches_text(self):
        a, b, c = (ACPoly.generator(V(f"x{i}")) for i in (1, 2, 3))
        assert GPPoly.from_ac(jacobiator(a, b, c)) == gp(J3_TEXT)


def random_tree(letters, data) -> Word:
    """A raw word on `letters`, each once, of a drawn bracketing."""
    if len(letters) == 1:
        return Word.leaf(letters[0])
    k = data.draw(st.integers(1, len(letters) - 1))
    return Word.node(random_tree(letters[:k], data), random_tree(letters[k:], data))


def renamed(w: Word, images) -> Word:
    """The raw word `w` with each leaf v replaced by images.get(v, v)."""
    if w.is_leaf:
        return Word.leaf(images.get(w.var, w.var))
    return Word.node(renamed(w.left, images), renamed(w.right, images))


class TestLinearize:
    def test_polylinear_fixed_point(self):
        f = gp("{x1,x2}*x3 + {x1,{x2,x3}}")
        assert linearize(f) == f

    def test_degree_two_bare(self):
        assert linearize(gp("{x1,x2}*x1")) == gp("{x1,x2}*x3 + {x3,x2}*x1")

    def test_degree_two_nested(self):
        assert linearize(gp("{x1,{x1,x2}}")) == gp("{x1,{x3,x2}} + {x3,{x1,x2}}")

    def test_inhomogeneous_rejected(self):
        with pytest.raises(ValueError, match="homogeneous"):
            linearize(gp("{x1,{x1,x2}} + {x1,x2}"))

    def test_polarization_collapses_to_scaled_original(self):
        # substituting the original variable back for all copies must give
        # (prod of d_v!) times the input
        rng = random.Random(3)
        for _ in range(20):
            d = rng.choice([2, 3])
            base = gp("{x1,x2}")
            f = base
            for _ in range(d - 1):
                f = f * gp("x1")  # degree d in x1, homogeneous
            lin = linearize(f)
            copies = lin.variables() - f.variables()
            back = substitute(lin, {c: GPPoly.generator(V("x1")) for c in copies})
            factorial = 1
            for k in range(2, d + 1):
                factorial *= k
            assert back == factorial * f


def seeded_word(letters, rng) -> ACPoly:
    """A signed normal word on `letters`, each once, in a random order
    and bracketing; nonzero, since the letters are distinct."""
    order = list(letters)
    rng.shuffle(order)

    def tree(ls):
        if len(ls) == 1:
            return Word.leaf(ls[0])
        k = rng.randint(1, len(ls) - 1)
        return Word.node(tree(ls[:k]), tree(ls[k:]))

    return normalize_word(tree(order))


def split(letters, parts, rng) -> list[list[Variable]]:
    """`letters` shuffled and cut into `parts` nonempty runs."""
    order = list(letters)
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, len(order)), parts - 1))
    return [order[a:b] for a, b in zip([0, *cuts], [*cuts, len(order)])]


def jacobi_consequence(rng) -> tuple[GPPoly, GPPoly]:
    """(J, C): J the jacobiator of three random words on disjoint letters,
    maybe times or bracketed with a fourth word; C the same with J
    replaced by its first cyclic term {{a,b},c}, which is no identity."""
    n = rng.randint(3, 7)
    blocks = split(xvars(n), 3 if n == 3 else rng.choice([3, 4]), rng)
    a, b, c = (seeded_word(block, rng) for block in blocks[:3])
    j = GPPoly.from_ac(jacobiator(a, b, c))
    first = GPPoly.from_ac(ac_bracket(ac_bracket(a, b), c))
    if len(blocks) == 4:
        d = GPPoly.from_ac(seeded_word(blocks[3], rng))
        if rng.random() < 0.5:
            return j * d, first * d
        return j.bracket(d), first.bracket(d)
    return j, first


def relabeled(f: GPPoly, images) -> GPPoly:
    return substitute(f, {v: GPPoly.generator(u) for v, u in images.items()})


class TestPoissonNormalForm:
    def test_documented_examples(self):
        x1, x2, x3, x4 = xvars(4)
        assert poisson_normal_form(gp(J3_TEXT)) == {}
        assert poisson_normal_form(gp("{{x1,x2},x3}")) == {((x1, x2, x3),): 1}
        # {x2,{x1,x3}} = x2 x1 x3 - x2 x3 x1 - x1 x3 x2 + x3 x1 x2
        assert poisson_normal_form(gp("{x2,{x1,x3}}")) == {((x1, x3, x2),): -1}
        # blocks in the order of their least letters
        assert poisson_normal_form(gp("2*{x2,x3}*{x1,x4}")) == {((x1, x4), (x2, x3)): 2}
        assert poisson_normal_form(gp("x2*x1")) == {((x1,), (x2,)): 1}
        assert poisson_normal_form(GPPoly.constant(5)) == {(): 5}
        assert poisson_normal_form(GPPoly.zero()) == {}

    @pytest.mark.parametrize("text", ["x1*x1", "{x1,{x1,x2}}", "x1 + {x1,x2}", "{x1,x2} + 1"])
    def test_not_polylinear_rejected(self, text):
        with pytest.raises(ValueError, match="polylinear"):
            poisson_normal_form(gp(text))

    @settings(max_examples=150, deadline=None)
    @given(polylinear_gp_polys(max_vars=6))
    def test_restricts_the_full_expansion(self, f):
        full = full_expansion_form(f)
        form = poisson_normal_form(f)
        assert form == {k: c for k, c in full.items() if all(u[0] == min(u) for u in k)}
        assert (not form) == (not full)

    def test_jacobi_consequences_vanish(self):
        rng = random.Random(11)
        for _ in range(120):
            j, first = jacobi_consequence(rng)
            assert poisson_normal_form(j) == {} and full_expansion_form(j) == {}
            assert poisson_normal_form(first) and full_expansion_form(first)
            letters = sorted(j.variables())
            permuted = dict(zip(letters, rng.sample(letters, len(letters))))
            assert poisson_normal_form(relabeled(j, permuted)) == {}

    def test_zero_form_evaluates_to_zero_under_poisson(self):
        rng = random.Random(12)
        r = Realization("poisson", 2)
        for _ in range(25):
            j, first = jacobi_consequence(rng)
            assert not poisson_normal_form(j)
            for _ in range(2):
                images = {v: _random_polynomial(r.var_names, rng) for v in sorted(j.variables())}
                assert evaluate_gp(j, images, r).is_zero()

    def test_nonzero_form_has_a_poisson_witness(self):
        rng = random.Random(13)
        r = Realization("poisson", 6)
        checked = 0
        for _ in range(40):
            n = rng.randint(2, 5)
            f = GPPoly.zero()
            for _ in range(rng.randint(1, 3)):
                term = GPPoly.constant(rng.choice([-2, -1, 1, 3]))
                for block in split(xvars(n), rng.randint(1, max(1, n // 2)), rng):
                    term = term * GPPoly.from_ac(seeded_word(block, rng))
                f = f + term
            if not poisson_normal_form(f):
                continue
            checked += 1
            assert identity_witness_search(f, r, budget=3, seed=rng.randrange(2**31)) is not None, f
        assert checked >= 30

    @settings(max_examples=80, deadline=None)
    @given(polylinear_gp_polys(max_vars=5), st.data())
    def test_equivariant_under_relabeling(self, f, data):
        letters = sorted(f.variables())
        # keeping the order of the letters, the form is relabeled with f
        images = {v: Variable("t", 2 * v.index + 1) for v in letters}
        assert poisson_normal_form(relabeled(f, images)) == {
            tuple(tuple(images[v] for v in u) for u in k): c
            for k, c in poisson_normal_form(f).items()
        }
        # any permutation keeps it zero or nonzero
        permuted = dict(zip(letters, data.draw(st.permutations(letters))))
        assert bool(poisson_normal_form(relabeled(f, permuted))) == bool(poisson_normal_form(f))


class TestFarkasHeight:
    def test_mixed_product(self):
        fh = farkas_height(gp("{x1,x2}*{x3,{x4,x5}}"))
        assert fh.per_variable == {V("x1"): 2, V("x2"): 2, V("x3"): 3, V("x4"): 3, V("x5"): 3}
        assert fh.total == 99

    def test_pair(self):
        assert farkas_height(gp("{x1,x2}")).total == 18

    def test_jacobiator(self):
        assert farkas_height(gp(J3_TEXT)).total == 81

    def test_bare_factor_rejected(self):
        with pytest.raises(ValueError, match="bare"):
            farkas_height(gp("{x1,x2}*x3"))

    @pytest.mark.parametrize("f, message", [
        (GPPoly.zero(), "the zero polynomial has no height"),
        (gp("{x1,{x1,x2}}"), "height needs a polylinear input"),
        (gp("{x1,x2}*x3"), "bare variable factor x3; substitute 1 for bare factors first (strip_bare_factors)"),
    ], ids=["zero", "not-polylinear", "bare-factor"])
    def test_error_messages(self, f, message):
        with pytest.raises(ValueError) as error:
            farkas_height(f)
        assert str(error.value) == message

    @settings(max_examples=100, deadline=None)
    @given(polylinear_gp_polys(), st.integers(0, 2))
    def test_reduction_step_heights(self, f, bare):
        """The reduction checks its input once and each step's height not
        at all; the checking `farkas_height` of the elements before and
        after each step is the oracle."""
        g = strip_bare_factors(_times_bare_generators(f, bare))
        reduced, steps = jacobian_reduce_trace(g)
        elements = [g]
        for s in steps:
            elements.append(derivation_difference(elements[-1], s.variable, s.variable, s.fresh))
        assert elements[-1] == reduced
        for s, before, after in zip(steps, elements, elements[1:]):
            assert s.height_before == farkas_height(before).total
            assert s.height_after == farkas_height(after).total


class TestStripBareFactors:
    def test_mixed(self):
        assert strip_bare_factors(gp("{x1,x2}*x3 - {x1,{x2,x3}}")) == gp("{x1,x2}")

    def test_no_bare_factors(self):
        f = gp("{x1,{x2,x3}}")
        assert strip_bare_factors(f) == f

    def test_pure_product_collapses_to_unit(self):
        assert strip_bare_factors(gp("x1*x2")) == GPPoly.one()

    def test_one_variable_at_a_time_least_first(self):
        f = gp("x1*{x2,x3} + x2*{x1,x2}")
        assert strip_bare_factors(f) == gp("{x2,x3}")
        one = GPPoly.one()
        assert substitute(f, {V("x1"): one, V("x2"): one}).is_zero()


class TestJacobianReduce:
    def test_fixed_points(self):
        for text in ("{x1,x2}", J3_TEXT):
            f = gp(text)
            assert jacobian_reduce(f) == f

    def test_height_two_word(self):
        reduced, steps = jacobian_reduce_trace(gp("{x1,{x2,x3}}"))
        assert reduced == gp("-{x1,x2}*{x3,x4} + {x1,x4}*{x2,x3}")
        assert len(steps) == 1
        assert steps[0].variable == V("x2") and steps[0].fresh == V("x4")
        assert steps[0].height_before == 81 and steps[0].height_after == 36
        assert is_jacobian(reduced)
        assert len(reduced.variables()) >= 3

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            jacobian_reduce(GPPoly.zero())

    def test_bare_factors_rejected(self):
        with pytest.raises(ValueError, match="bare"):
            jacobian_reduce(gp("{x1,x2}*x3"))

    @settings(max_examples=150, deadline=None)
    @given(polylinear_gp_polys())
    def test_matches_the_two_pass_oracle(self, f):
        assert jacobian_reduce_trace(f) == two_pass_reduce_trace(f)

    def test_deep_word_terminates_with_decreasing_heights(self):
        reduced, steps = jacobian_reduce_trace(gp("{x1,{x2,{x3,x4}}}"))
        heights = [s.height_before for s in steps] + [steps[-1].height_after]
        assert all(a > b for a, b in zip(heights, heights[1:]))
        assert is_jacobian(reduced)
        assert not reduced.is_zero()


class TestProductDecompose:
    def test_pair_product_recovers_itself(self):
        f = gp("{x1,x2}*{x3,x4}")
        d = jacobian_product_decompose(f)
        assert d.ok and d.reconstruct() == f
        assert [(c, g) for c, g in d.terms] == [(Fraction(1), f)]

    def test_jacobiator_recovers_itself(self):
        f = gp(J3_TEXT)
        d = jacobian_product_decompose(f)
        assert d.ok and len(d.terms) == 1
        assert d.reconstruct() == f

    def test_random_pair_combinations(self):
        rng = random.Random(19)
        p1 = gp("{x1,x2}*{x3,x4}")
        p2 = gp("{x1,x3}*{x2,x4}")
        p3 = gp("{x1,x4}*{x2,x3}")
        for _ in range(10):
            c1, c2, c3 = (Fraction(rng.randint(-4, 4)) for _ in range(3))
            f = c1 * p1 + c2 * p2 + c3 * p3
            if f.is_zero():
                continue
            d = jacobian_product_decompose(f)
            assert d.ok and d.reconstruct() == f

    def test_unpartitionable_support(self):
        # a single variable cannot be covered by blocks of 2 and 3, and a
        # one-variable element is never Jacobian, so the decomposition has
        # no unpartitionable support to report: the block (x1,) takes the
        # not-spanned path, whose Jacobian test raises
        assert list(_partitions_23((V("x1"),))) == []
        assert list(_partitions_23(())) == [()]
        with mock.patch.object(freegp.identities, "is_jacobian", wraps=is_jacobian) as spy:
            with pytest.raises(ValueError, match="not Jacobian"):
                jacobian_product_decompose(gp("x1"))
        assert spy.call_count == 1

    @pytest.mark.parametrize("text", ["{x1,x2}*{x1,x2}", "{x1,x2}*{x1,x3}"])
    def test_overlapping_blocks_are_not_polylinear(self, text):
        # each group is one multiple of a product of pair brackets, so only
        # the polylinear check keeps these from decomposing over blocks
        # that share a variable
        with pytest.raises(ValueError, match="polylinear"):
            jacobian_product_decompose(gp(text))

    def test_success_runs_no_jacobian_test(self):
        # a decomposition proves f Jacobian; the test runs only on refusal
        f = gp("{x1,x2}*{x3,x4}") + 2 * gp("{x1,x3}*{x2,x4}")
        with mock.patch.object(freegp.identities, "is_jacobian", wraps=is_jacobian) as spy:
            assert jacobian_product_decompose(f).ok
            with pytest.raises(ValueError, match="not Jacobian"):
                jacobian_product_decompose(f + gp("{x1,{x2,{x3,x4}}}"))
        assert spy.call_count == 1

    def test_constant_decomposes_over_empty_partition(self):
        d = jacobian_product_decompose(GPPoly.constant(5))
        assert d.ok and d.reconstruct() == GPPoly.constant(5)

    def test_rejects_non_jacobian(self):
        with pytest.raises(ValueError, match="not Jacobian"):
            jacobian_product_decompose(gp("{x1,{x2,x3}}"))

    @pytest.mark.parametrize(
        "parts",
        [
            # eight pair brackets
            [[(1, 2), (3, 4), (5, 6), (7, 8), (9, 10), (11, 12), (13, 14), (15, 16)]],
            # 2+2+3+3+3+3
            [[(1, 2), (3, 4), (5, 6, 7), (8, 9, 10), (11, 12, 13), (14, 15, 16)]],
            # a sum of two such products with different partitions, listed
            # in the documented order
            [
                [(1, 2), (3, 4), (5, 6, 7), (8, 9, 10), (11, 12, 13), (14, 15, 16)],
                [(1, 5), (2, 9), (3, 4, 16), (6, 7, 8), (10, 11, 15), (12, 13, 14)],
            ],
        ],
        ids=["pairs", "2+2+3+3+3+3", "two-partitions"],
    )
    def test_sixteen_variables(self, parts):
        # the `jacobian` command's variable bound; 2/3-partitions of 16
        # variables number in the hundreds of millions, and only the named
        # ones are built
        blocks = [tuple(tuple(V(f"x{i}") for i in b) for b in part) for part in parts]
        f = GPPoly.zero()
        for c, part in zip((3, Fraction(-2, 5)), blocks):
            f = f + c * partition_product(part)
        start = time.perf_counter()
        d = jacobian_product_decompose(f)
        elapsed = time.perf_counter() - start
        assert d.ok and d.reconstruct() == f
        assert list(d.blocks) == blocks
        assert elapsed < 1.0

    def test_reduct_of_the_right_normed_seven_letter_word(self):
        # at `reduce`'s variable bound the reduct has 12 variables and
        # 32 products; blocks come pairs first, by least variable
        g = jacobian_reduce(gp("{x1,{x2,{x3,{x4,{x5,{x6,x7}}}}}}"))
        d = jacobian_product_decompose(g)
        assert d.ok and d.reconstruct() == g and len(d.terms) == 32
        assert list(d.blocks) == sorted(d.blocks, key=lambda p: [(len(b), b) for b in p])

    def test_five_variable_mixed_blocks(self):
        f = gp("{x1,x2}") * GPPoly.from_ac(
            jacobiator(*(ACPoly.generator(V(f"x{i}")) for i in (3, 4, 5)))
        )
        d = jacobian_product_decompose(f)
        assert d.ok and d.reconstruct() == f
        assert d.blocks[0] == ((V("x1"), V("x2")), (V("x3"), V("x4"), V("x5")))


@functools.cache
def partition_product(part) -> GPPoly:
    g = GPPoly.one()
    for block in part:
        g = g * GPPoly.from_ac(_block_element(block))
    return g


def partition_key(m) -> frozenset:
    """The blocks a monomial's factors hold, as `_partitions_23` writes them."""
    return frozenset(tuple(sorted(w.varset)) for w in m)


@st.composite
def partition_combinations(draw):
    """(f, coefficients): nonzero integer and `Fraction` multiples of
    distinct 2/3-partition products on x1..xn, n = 2..7, summed."""
    parts = list(_partitions_23(xvars(draw(st.integers(2, 7)))))
    chosen = draw(st.lists(st.sampled_from(parts), min_size=1, max_size=4, unique=True))
    f = GPPoly.zero()
    coeffs = {}
    for part in chosen:
        coeffs[part] = draw(st.integers(-5, 5).filter(bool) | coefficients)
        f = f + coeffs[part] * partition_product(part)
    return f, coeffs


def assert_same_outcome(g: GPPoly) -> None:
    """The decomposition of g equals the oracle's, or both raise
    `ValueError` with the same message."""
    try:
        expected = solve_product_decompose(g)
    except ValueError as error:
        with pytest.raises(ValueError) as raised:
            jacobian_product_decompose(g)
        assert str(raised.value) == str(error)
    else:
        assert jacobian_product_decompose(g) == expected


class TestProductDecomposeAgainstSolve:
    """The partition-indexed decomposition against the linear solve over
    every partition product (`helpers.solve_product_decompose`)."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(
            # mostly not polylinear: repeated variables, bare factors,
            # constants and terms of different supports
            gp_polys(xvars(4), max_terms=3, max_factors=3),
            # polylinear, mostly not Jacobian
            polylinear_gp_polys(max_vars=6),
        )
    )
    def test_any_input(self, g):
        assert_same_outcome(g)

    @settings(max_examples=150, deadline=None)
    @given(partition_combinations())
    def test_combinations(self, combination):
        f, coeffs = combination
        d = jacobian_product_decompose(f)
        assert d == solve_product_decompose(f)
        assert d.ok and d.reconstruct() == f
        assert dict(zip(d.blocks, (c for c, _ in d.terms))) == coeffs
        assert all(type(c) in (int, Fraction) for c, _ in d.terms)

    @settings(max_examples=200, deadline=None)
    @given(
        partition_combinations(),
        st.sampled_from(["move", "drop", "add"]),
        coefficients,
        st.data(),
    )
    def test_perturbed_inputs(self, combination, kind, delta, data):
        # one coefficient moved or dropped, or one monomial added: of a
        # partition product, or of the left-normed word on all n
        # variables, whose one block is no 2/3-partition once n > 3
        f, _ = combination
        vs = sorted(f.variables())
        if kind == "add":
            pool = {m for part in _partitions_23(vs) for m in partition_product(part)._terms}
            pool |= GPPoly.from_ac(normalize_word(left_normed(vs)))._terms.keys()
        else:
            pool = f._terms.keys()
        m = data.draw(st.sampled_from(sorted(pool, key=lambda k: [w.key for w in k])))
        if kind == "drop":
            delta = -f.coefficient(m)
        g = f + GPPoly.from_factors(m, delta)
        assert_same_outcome(g)
        # past the Jacobian precondition, both must agree on the span test
        with mock.patch.object(freegp.identities, "is_jacobian", lambda _: True), \
                mock.patch.object(helpers, "is_jacobian", lambda _: True):
            assert jacobian_product_decompose(g) == solve_product_decompose(g)

    def test_not_in_the_span(self):
        # a monomial naming no partition, and a product with one monomial
        # rescaled or dropped; the precondition is lifted so the span test
        # is reached
        pairs = partition_product(((V("x1"), V("x2")), (V("x3"), V("x4"))))
        j5 = partition_product(((V("x1"), V("x2")), (V("x3"), V("x4"), V("x5"))))
        m = next(iter(j5._terms))
        for g in (
            pairs + gp("{x1,{x2,{x3,x4}}}"),
            j5 + GPPoly.from_factors(m),
            j5 - GPPoly.from_factors(m, j5.coefficient(m)),
        ):
            with mock.patch.object(freegp.identities, "is_jacobian", lambda _: True):
                d = jacobian_product_decompose(g)
            assert (d.ok, d.terms, d.blocks) == (False, (), ())
            assert d.reason == "not in the span of pair/triple bracket products"

    def test_products_name_their_partition(self):
        for n in range(8):
            parts = list(_partitions_23(xvars(n)))
            assert len({frozenset(p) for p in parts}) == len(parts)
            for part in parts:
                g = partition_product(part)
                assert {partition_key(m) for m in g._terms} == {frozenset(part)}
                # and every monomial that names it: one normal word per pair,
                # all three per triple
                triples = sum(len(block) == 3 for block in part)
                assert len(g._terms) == 3**triples
