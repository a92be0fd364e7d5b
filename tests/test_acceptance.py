"""Acceptance suite: every criterion runs at its stated tolerance.

Each test prints one PASS line on success (run with -v or -s to see
them); all arithmetic is exact, so the tolerances are zero everywhere
and the only budgets are wall-clock ceilings.
"""

import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from freegp.ac import (
    ACPoly,
    Variable,
    Word,
    enumerate_polylinear_basis,
    flip,
    flip_orbit,
    height,
    normalize_word,
)
from freegp.assoc import alternating_sum, exterior_image, is_lie_element, permutation_sign
from freegp.cli import main as cli_main
from freegp.gp import GPPoly
from freegp.identities import (
    is_jacobian,
    jacobian_product_decompose,
    jacobian_reduce_trace,
    jacobian_space,
)
from freegp.parsing import parse, to_gp
from freegp.ratfunc import MultiPoly, RatFunc
from freegp.realize import (
    Realization,
    evaluate_gp,
    realized_bracket,
    structured_witness,
)

from helpers import J3_T_TEXT, J3_TEXT, V, acp, gp, left_normed, word, xvars


def _report(name):
    print(f"[acceptance] {name}: PASS")


def test_c01_jacobian_classification():
    start = time.perf_counter()
    dims = {n: jacobian_space(n) for n in (2, 3, 4, 5, 6)}
    assert [len(dims[n]) for n in (2, 3, 4, 5, 6)] == [1, 1, 0, 0, 0]
    [c2_basis] = dims[2]
    assert c2_basis == acp("{x1,x2}")
    [j3_basis] = dims[3]
    j3 = acp(J3_TEXT)
    ratios = {c / j3.coefficient(w) for w, c in j3_basis.terms()}
    assert j3_basis.words() == j3.words() and len(ratios) == 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    _report(f"C1 jacobian classification dims 1,1,0,0,0 in {elapsed:.1f}s")


def test_c02_alternating_sums_and_exterior_images():
    start = time.perf_counter()
    for m in range(1, 6):
        letters = tuple(f"u{i}" for i in range(1, m + 1))
        a_m = alternating_sum(m, letters)
        assert is_lie_element(a_m) == (m in (1, 2))
        if m >= 2:
            image = exterior_image(a_m)
            factorial = 1
            for k in range(2, m + 1):
                factorial *= k
            assert image.terms() == [(letters, Fraction(factorial))]
    elapsed = time.perf_counter() - start
    assert elapsed < 10
    _report(f"C2 alternating sums: Lie iff m<=2, images m! wedges in {elapsed:.1f}s")


def test_c03_height_example():
    w = word("{{x1,{{x2,x3},x4}},{x5,x6}}")
    assert height(w, V("x4")) == 3
    _report("C3 documented height example equals 3")


def test_c04_flip_orbit_generates_signed_permutations():
    start = time.perf_counter()
    for n in (3, 4):
        base = normalize_word(left_normed(xvars(n)))
        orbit = flip_orbit(base, max_size=1000)
        assert not orbit.truncated
        members = set(orbit.elements)
        for perm in itertools.permutations(range(n)):
            sign = permutation_sign(perm)
            permuted = left_normed([Variable("x", i + 1) for i in perm])
            assert sign * normalize_word(permuted) in members
    elapsed = time.perf_counter() - start
    assert elapsed < 30
    _report(f"C4 flip orbits carry all signed permutations (n=3,4) in {elapsed:.1f}s")


def test_c05_flip_invariance_of_jacobians():
    j3 = acp(J3_TEXT)
    c2 = acp("{x1,x2}")
    for i in (1, 2, 3):
        assert flip(j3, V(f"x{i}")) == j3
    for i in (1, 2):
        assert flip(c2, V(f"x{i}")) == c2
    _report("C5 jacobiator and pair bracket are flip invariant")


def _random_gp(rng, variables, max_terms=3):
    words = []
    for n in (1, 2, 3):
        for combo in itertools.combinations(variables, n):
            words.extend(enumerate_polylinear_basis(list(combo)))
    f = GPPoly.zero()
    for _ in range(rng.randint(1, max_terms)):
        g = GPPoly.constant(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        for _ in range(rng.randint(1, 2)):
            g = g * GPPoly.from_factors((rng.choice(words),))
        f = f + g
    return f


def _random_poly(realization, rng):
    names = realization.var_names
    n = len(names)
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exp = [0] * n
        for _ in range(rng.randint(0, 2)):
            exp[rng.randrange(n)] += 1
        c = rng.randint(-2, 2)
        if c:
            terms[tuple(exp)] = terms.get(tuple(exp), Fraction(0)) + c
    return MultiPoly(names, {e: c for e, c in terms.items() if c})


# The realizations evaluate polynomials; the same inputs wrapped in
# RatFunc run the field-of-fractions reference.
WRAPPINGS = {"poly": lambda p: p, "ratfunc": RatFunc}


@pytest.mark.parametrize("wrapping", WRAPPINGS)
def test_c06_leibniz_and_anticommutativity_suites(wrapping):
    rng = random.Random(2024)
    variables = xvars(3)
    for _ in range(100):
        f, g, h = (_random_gp(rng, variables) for _ in range(3))
        assert (f.bracket(g * h) - f.bracket(g) * h - f.bracket(h) * g).is_zero()
        assert (f.bracket(g) + g.bracket(f)).is_zero()
    for kind in ("poisson", "gps"):
        realization = Realization(kind, 2)
        for _ in range(100):
            a, b, c = (WRAPPINGS[wrapping](_random_poly(realization, rng)) for _ in range(3))
            lhs = realized_bracket(a, b * c, realization)
            rhs = (
                realized_bracket(a, b, realization) * c
                + realized_bracket(a, c, realization) * b
            )
            assert (lhs - rhs).is_zero()
            assert (
                realized_bracket(a, b, realization) + realized_bracket(b, a, realization)
            ).is_zero()
    _report(f"C6 Leibniz and anti-commutativity: 100 exact instances per bracket ({wrapping})")


@pytest.mark.parametrize("wrapping", WRAPPINGS)
def test_c07_poisson_realization_soundness(wrapping):
    rng = random.Random(77)
    realization = Realization("poisson", 2)
    j3 = gp(J3_T_TEXT)
    targets = [V("t1"), V("t2"), V("t3")]
    for _ in range(100):
        a, b, c = (WRAPPINGS[wrapping](_random_poly(realization, rng)) for _ in range(3))
        jac = (
            realized_bracket(realized_bracket(a, b, realization), c, realization)
            + realized_bracket(realized_bracket(b, c, realization), a, realization)
            + realized_bracket(realized_bracket(c, a, realization), b, realization)
        )
        assert jac.is_zero()
        assignment = dict(zip(targets, (a, b, c)))
        assert evaluate_gp(j3, assignment, realization).is_zero()
    _report(f"C7 poisson realization: Jacobi residual 0 on 100 random triples ({wrapping})")


def test_c08_gps_genericity_fixture():
    # found once by identity_witness_search (scripts/find_gps_jacobiator_fixture.py)
    realization = Realization("gps", 2)
    a = realization.variable("x2")
    b = realization.variable("x1")
    c = realization.variable("y1")
    jac = (
        realized_bracket(realized_bracket(a, b, realization), c, realization)
        + realized_bracket(realized_bracket(b, c, realization), a, realization)
        + realized_bracket(realized_bracket(c, a, realization), b, realization)
    )
    assert not jac.is_zero()
    assert jac == -realization.variable("y1")
    _report("C8 twisted realization: recorded triple has jacobiator -y1 != 0")


def test_c09_structured_witnesses():
    cases = [
        ("{t1,t2}", 2, lambda r: r.variable("y2")),
        ("{t1,{t2,t3}}", 3, lambda r: r.variable("y3")),
        ("{t1,t2}*{t3,t4}", 5, lambda r: r.variable("y2") * r.variable("y4")),
    ]
    for text, m, expected in cases:
        f = gp(text)
        assignment = structured_witness(f, m)
        realization = Realization("gps", m)
        value = evaluate_gp(f, assignment, realization)
        assert value == expected(realization)
        assert not value.is_zero()
    _report("C9 structured witnesses evaluate to y2, y3, y2*y4")


def _random_polylinear_bracket_poly(rng):
    """Polylinear element on 3 or 4 variables, factors of degree >= 2."""
    n = rng.choice([3, 4])
    variables = xvars(n)
    single = enumerate_polylinear_basis(variables)
    monomials = [GPPoly.from_factors((w,)) for w in single]
    if n == 4:
        for split in (((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3))):
            (a, b), (c, d) = split
            monomials.append(
                gp(f"{{x{a},x{b}}}") * gp(f"{{x{c},x{d}}}")
            )
    f = GPPoly.zero()
    for _ in range(rng.randint(1, 3)):
        f = f + Fraction(rng.randint(-3, 3)) * rng.choice(monomials)
    return f


def test_c10_reduction_suite():
    start = time.perf_counter()
    rng = random.Random(404)
    reduced_count = 0
    while reduced_count < 20:
        f = _random_polylinear_bracket_poly(rng)
        if f.is_zero() or is_jacobian(f):
            continue
        result, steps = jacobian_reduce_trace(f)
        assert steps, "a non-Jacobian input must take at least one step"
        heights = [s.height_before for s in steps] + [steps[-1].height_after]
        assert all(a > b for a, b in zip(heights, heights[1:]))
        assert not result.is_zero()
        assert is_jacobian(result)
        reduced_count += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    _report(f"C10 reduction: 20 non-Jacobian inputs, strict height descent, {elapsed:.1f}s")


def test_c11_product_decomposition():
    rng = random.Random(505)
    pair_products = [
        gp("{x1,x2}*{x3,x4}"),
        gp("{x1,x3}*{x2,x4}"),
        gp("{x1,x4}*{x2,x3}"),
    ]
    for _ in range(10):
        coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(3)]
        f = GPPoly.zero()
        for c, p in zip(coeffs, pair_products):
            f = f + c * p
        if f.is_zero():
            continue
        decomposition = jacobian_product_decompose(f)
        assert decomposition.ok
        assert decomposition.reconstruct() == f
        recovered = {repr(g): c for c, g in decomposition.terms}
        for c, p in zip(coeffs, pair_products):
            if c:
                assert recovered[repr(p)] == c
        assert any(
            all(w.degree in (2, 3) for w in m) and m
            for m in f.monomials()
        )
    j3 = gp(J3_TEXT)
    for _ in range(5):
        alpha = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        decomposition = jacobian_product_decompose(alpha * j3)
        assert decomposition.ok and len(decomposition.terms) == 1
        assert decomposition.reconstruct() == alpha * j3
        assert all(
            all(w.degree in (2, 3) for w in m)
            for m in (alpha * j3).monomials()
        )
    _report("C11 product decomposition recovers exact coefficients")


GOLDEN_TRANSCRIPTS = [
    (
        ["jacobian-space", "--n", "3", "--json"],
        '{"command": "jacobian-space", "status": "ok", "result": {"dimension": 1, '
        '"basis": ["{x1,{x2,x3}} - {x2,{x1,x3}} + {x3,{x1,x2}}"]}, "meta": {"seed": null}}',
    ),
    (
        ["height", "--var", "x4", "{{x1,{{x2,x3},x4}},{x5,x6}}", "--json"],
        '{"command": "height", "status": "ok", "result": {"height": 3}, '
        '"meta": {"seed": null}}',
    ),
    (
        [
            "realize", "--model", "poisson", "--n", "1",
            "--assign", "t1=x1", "--assign", "t2=y1", "{t1,t2}", "--json",
        ],
        '{"command": "realize", "status": "ok", "result": "1", "meta": {"seed": null}}',
    ),
]


def test_c12_cli_golden_transcripts_and_round_trip(capsys):
    for argv, expected in GOLDEN_TRANSCRIPTS:
        code = cli_main(list(argv))
        out = capsys.readouterr().out
        assert code == 0
        assert out == expected + "\n"
        json.loads(out)  # well-formed
    # 200-expression parse/print round-trip corpus
    rng = random.Random(606)
    variables = xvars(4)

    def random_word(depth=0):
        if depth > 2 or rng.random() < 0.4:
            return Word.leaf(rng.choice(variables))
        return Word.node(random_word(depth + 1), random_word(depth + 1))

    checked = 0
    while checked < 200:
        f = GPPoly.zero()
        for _ in range(rng.randint(0, 3)):
            g = GPPoly.constant(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
            for _ in range(rng.randint(1, 2)):
                g = g * GPPoly.from_ac(normalize_word(random_word()))
            f = f + g
        assert to_gp(parse(repr(f))) == f
        checked += 1
    _report("C12 CLI golden transcripts byte-exact; 200-expression round trip")
