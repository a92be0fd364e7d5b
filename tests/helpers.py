"""Shared builders and hypothesis strategies for the test suite."""

from fractions import Fraction

import hypothesis.strategies as st

from freegp.ac import ACPoly, Variable, Word, normalize_word
from freegp.gp import GPPoly
from freegp.parsing import parse, to_ac, to_gp

J3_TEXT = "{{x1,x2},x3} + {{x2,x3},x1} + {{x3,x1},x2}"
J3_T_TEXT = "{{t1,t2},t3} + {{t2,t3},t1} + {{t3,t1},t2}"


def V(name: str) -> Variable:
    return Variable.parse(name)


def gp(text: str) -> GPPoly:
    return to_gp(parse(text))


def acp(text: str) -> ACPoly:
    return to_ac(parse(text))


def word(text: str) -> Word:
    """The single normal word of a one-term expression with coefficient 1."""
    [(w, c)] = acp(text).terms()
    assert c == 1, f"{text} is not a plain normal word"
    return w


def xvars(n: int) -> list[Variable]:
    return [Variable("x", i) for i in range(1, n + 1)]


def elevated_key(w: Word, x: Variable):
    """`Word.key`, except that every word containing `x` is greater than
    every word avoiding it; ties on that flag fall back to `Word.key`
    at every level."""
    flag = x in w.varset
    if w.is_leaf:
        return (flag, w.key)
    return (flag, (w.degree, elevated_key(w.left, x), elevated_key(w.right, x)))


def elevated_normal_form(w: Word, x: Variable):
    """Test oracle for operator forms: (sign, normal word) of `w` under
    the elevated order of `x`, or None if `w` is zero."""
    if w.is_leaf:
        return 1, w
    nl, nr = elevated_normal_form(w.left, x), elevated_normal_form(w.right, x)
    if nl is None or nr is None:
        return None
    (sl, ul), (sr, ur) = nl, nr
    if ul == ur:
        return None
    if elevated_key(ul, x) < elevated_key(ur, x):
        return sl * sr, Word.node(ul, ur)
    return -sl * sr, Word.node(ur, ul)


def left_normed(variables) -> Word:
    """{v1,{v2,...{v_{n-1},v_n}...}} as a raw word."""
    ws = [Word.leaf(v) for v in variables]
    out = ws[-1]
    for w in reversed(ws[:-1]):
        out = Word.node(w, out)
    return out


# ---------------------------------------------------------------- strategies

coefficients = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=3
).filter(lambda q: q != 0)


def raw_words(variables, max_leaves=4):
    leaves = st.sampled_from([Word.leaf(v) for v in variables])
    return st.recursive(
        leaves,
        lambda children: st.tuples(children, children).map(lambda p: Word.node(*p)),
        max_leaves=max_leaves,
    )


def ac_polys(variables, max_terms=3, max_leaves=4):
    def assemble(pairs):
        total = ACPoly.zero()
        for w, c in pairs:
            total = total + c * normalize_word(w)
        return total

    return st.lists(
        st.tuples(raw_words(variables, max_leaves), coefficients),
        min_size=0,
        max_size=max_terms,
    ).map(assemble)


def gp_polys(variables, max_terms=3, max_factors=2, max_leaves=3):
    def assemble(termspecs):
        total = GPPoly.zero()
        for words, c in termspecs:
            g = GPPoly.constant(c)
            for w in words:
                g = g * GPPoly.from_ac(normalize_word(w))
            total = total + g
        return total

    return st.lists(
        st.tuples(
            st.lists(raw_words(variables, max_leaves), min_size=0, max_size=max_factors),
            coefficients,
        ),
        min_size=0,
        max_size=max_terms,
    ).map(assemble)
