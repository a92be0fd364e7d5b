"""Shared builders and hypothesis strategies for the test suite."""

from fractions import Fraction
from typing import Sequence

import hypothesis.strategies as st

from freegp.ac import ACPoly, Variable, Word, normalize_word
from freegp.assoc import AssocPoly
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


# ---------------------------------------------------------------- linalg oracle


class DenseRowReducer:
    """Test oracle for `freegp.linalg.RowReducer`: the same reduced row
    echelon basis, every row stored as a dense list of `Fraction`."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivots: dict[int, list[Fraction]] = {}  # pivot column -> row

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add(self, row: Sequence[Fraction]) -> bool:
        """Reduce `row` against the basis; returns True if rank grew."""
        if len(row) != self.ncols:
            raise ValueError("row length mismatch")
        work = [Fraction(x) for x in row]
        for col in sorted(self.pivots):
            c = work[col]
            if c:
                prow = self.pivots[col]
                for j in range(col, self.ncols):
                    if prow[j]:
                        work[j] -= c * prow[j]
        lead = next((j for j in range(self.ncols) if work[j]), None)
        if lead is None:
            return False
        inv = work[lead]
        work = [x / inv for x in work]
        for col, prow in self.pivots.items():
            c = prow[lead]
            if c:
                for j in range(lead, self.ncols):
                    if work[j]:
                        prow[j] -= c * work[j]
        self.pivots[lead] = work
        return True

    def nullspace(self) -> list[list[Fraction]]:
        """Basis of the kernel, one vector per free column, in column order."""
        pivot_cols = sorted(self.pivots)
        free_cols = [j for j in range(self.ncols) if j not in self.pivots]
        basis = []
        for f in free_cols:
            vec = [Fraction(0)] * self.ncols
            vec[f] = Fraction(1)
            for p in pivot_cols:
                vec[p] = -self.pivots[p][f]
            basis.append(vec)
        return basis


def dense_solve(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> list[Fraction] | None:
    """Test oracle for `freegp.linalg.solve`, on `DenseRowReducer`."""
    if len(rows) != len(rhs):
        raise ValueError("matrix/vector size mismatch")
    ncols = len(rows[0]) if rows else 0
    red = DenseRowReducer(ncols + 1)
    for row, b in zip(rows, rhs):
        red.add(list(row) + [Fraction(b)])
    if ncols in red.pivots:
        return None  # a pivot in the augmented column: inconsistent
    sol = [Fraction(0)] * ncols
    for col, prow in red.pivots.items():
        sol[col] = prow[ncols]
    return sol


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


def assoc_polys(letters, max_terms=4, max_length=4):
    def assemble(pairs):
        total = AssocPoly.zero()
        for w, c in pairs:
            total = total + AssocPoly.word(w, c)
        return total

    return st.lists(
        st.tuples(st.lists(st.sampled_from(list(letters)), max_size=max_length), coefficients),
        max_size=max_terms,
    ).map(assemble)
