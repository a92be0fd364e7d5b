"""Derivation calculus on the free generic Poisson algebra.

An element linear in a variable x acts there like a first-order
operator; it is a *derivation in x* when substituting a product for x
obeys the Leibniz expansion.  Elements that are derivations in every
variable ("Jacobian" elements) are classified exactly: up to scale the
bracket pair {x1,x2} in two variables and the bracket jacobiator in
three, and nothing in higher arity.  The module also provides the
supporting machinery: multiplication operators, linearization by
polarization, bracket-factor heights, the height-reducing derivation
difference, and decomposition into products of the two basic shapes,
read off the partition of the support that each monomial names.

The derivation difference never substitutes into the whole element.
Only the factor holding x changes, and as a signed operator chain
s*{a1,{a2,...{ah,x}...}} it sends y*z to a sum over the ways of
splitting the chain between y and z.  The two Leibniz terms are the
splits that give y or z no operator, the only terms with a bare y or
z; expanding the chain one bracket at a time on y*z and dropping them
leaves 2^h - 2 terms of coefficient +-1 for fresh y and z, none at
height 1, which is decided without expanding anything.  That
difference holds no x, so y = x only relabels it: D(f, x, x, z) alone
decides derivations and is the next element of a height reduction.

The height-1 screen also decides whole elements: a variable that is a
leaf child of its factor's root in every monomial has a zero difference.
So the Jacobian test and height reduction compute only the differences
of the variables that this screen leaves open (`_leibniz_open`).

The classification of Jacobian elements computes no difference at all:
f is a derivation in x1 exactly when its multiplication operator on x1
is a Lie element, so the kernel of x1 has an explicit left-normed basis,
and relabeling carries its annihilator to every other variable
(`jacobian_space`).

Poisson identities are decided apart from all of this: a polylinear
element is zero in every Poisson algebra exactly when its coordinates
in the free Poisson algebra, read off commutator expansions in the free
associative algebra, vanish (`poisson_normal_form`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from .ac import (
    ACPoly,
    Coefficient,
    Variable,
    Word,
    _accumulate,
    _charge,
    _coefficient,
    _meter,
    ac_bracket,
    bracket_normal,
    enumerate_polylinear_basis,
    i_normal_form,
)
from .assoc import AssocPoly, _commutator_expansion, _least_letter_words, _left_normed
from .gp import (
    GPPoly,
    Monomial,
    _sorted_factors,
    is_polylinear,
    substitute,
    variable_degrees,
)
from .linalg import RowReducer, primitive_integer_vector

# Unused here; perfbench's tracer test checks that patching `solve` also
# rebinds it in this namespace.  It goes when the tracer drops `solve`.
from .linalg import solve  # noqa: F401

__all__ = [
    "jacobiator",
    "derivation_difference",
    "is_derivation_in",
    "is_jacobian",
    "multiplication_operator",
    "jacobian_space",
    "linearize",
    "poisson_normal_form",
    "FarkasHeight",
    "farkas_height",
    "strip_bare_factors",
    "ReductionStep",
    "jacobian_reduce",
    "jacobian_reduce_trace",
    "ProductDecomposition",
    "jacobian_product_decompose",
]


def jacobiator(a: ACPoly, b: ACPoly, c: ACPoly) -> ACPoly:
    """Cyclic sum {{a,b},c} + {{b,c},a} + {{c,a},b}; zero iff Jacobi holds."""
    return (
        ac_bracket(ac_bracket(a, b), c)
        + ac_bracket(ac_bracket(b, c), a)
        + ac_bracket(ac_bracket(c, a), b)
    )


def _fresh_variable(f: GPPoly, like: Variable) -> Variable:
    top = max(v.index for v in f.variables() | {like})
    return Variable(like.base, top + 1)


def _chain(factors: Sequence[Word], p: GPPoly) -> GPPoly:
    """{a1,{a2,...{ah,p}...}} for the factors a1..ah, innermost first."""
    for a in reversed(factors):
        if p.is_zero():
            break
        p = GPPoly.from_factors((a,)).bracket(p)
    return p


def _factor_difference(w: Word, x: Variable, y: Word, z: Word) -> dict[Monomial, Coefficient]:
    """Terms of the derivation difference of the single factor `w`,
    which must hold x exactly once: the caller checks, since the height-1
    screen below would give 0 for {x,{a,x}}.

    With w = s*{a1,{a2,...{ah,x}...}} (`i_normal_form`) they are those
    of s*(chain(y*z) - y*chain(z) - z*chain(y)).  The chain is applied
    one bracket at a time, so chain(y*z) doubles its terms at each level
    and shares every prefix.  For h >= 1 the two Leibniz terms are its
    only terms with a degree-one factor, so dropping those terms
    subtracts them; a bare factor x (h = 0) leaves -y*z.  At h = 1, when
    x is a child of the root, the Leibniz rule holds exactly and there
    are 2^1 - 2 = 0 terms, so nothing is expanded.
    """
    if not w.is_leaf and x in (w.left.var, w.right.var):
        # w = s*{a, x} and {a, y*z} - y*{a, z} - z*{a, y} = 0
        return {}
    op = i_normal_form(w, x)
    s = op.sign
    if not op.factors:
        return {_sorted_factors((y, z)): -s}
    yz = _chain(op.factors, GPPoly.from_factors((y, z)))
    # keys are sorted by `Word.key`, so k[0] is a factor of least degree
    return {k: s * d for k, d in yz._terms.items() if k[0].degree > 1}


def derivation_difference(f: GPPoly, x: Variable, y: Variable, z: Variable) -> GPPoly:
    """f with y*z plugged into x, minus the two Leibniz terms.

    Vanishes exactly when f is a derivation in x; so does D(f, x, x, z),
    its relabeling y -> x for fresh y, which is what the callers compute.

    Linear in x, each monomial has one factor holding x, and only that
    factor changes: the monomial contributes its other factors times the
    difference of that factor alone (`_factor_difference`), which is
    expanded once per distinct factor, and not at all when x is at
    height 1 in it.  Linearity is checked in the same pass, before a
    factor is expanded: a `ValueError` unless each monomial has exactly
    one factor holding x and that factor holds it once.
    """
    wy, wz = Word.leaf(y), Word.leaf(z)
    metered = _meter.get() is not None
    differences: dict[Word, dict[Monomial, Coefficient]] = {}
    acc: dict[Monomial, Coefficient] = {}
    for m, c in f._terms.items():
        held = [i for i, w in enumerate(m) if x in w.leaves]
        if len(held) != 1:
            raise ValueError(f"input is not linear in {x}")
        i = held[0]
        terms = differences.get(m[i])
        if terms is None:
            if m[i].count(x) != 1:
                raise ValueError(f"input is not linear in {x}")
            terms = differences[m[i]] = _factor_difference(m[i], x, wy, wz)
        rest = m[:i] + m[i + 1 :]
        if metered:  # the scan of m and its terms
            _charge((len(terms) + 1) * (len(m) + 1))
        for k, d in terms.items():
            _accumulate(acc, _sorted_factors(rest + k) if rest else k, c * d)
    return GPPoly(acc)


def is_derivation_in(f: GPPoly, x: Variable) -> bool:
    """Whether D(f, x, x, z) vanishes for a fresh z; f must be linear in x."""
    return derivation_difference(f, x, x, _fresh_variable(f, x)).is_zero()


def _leibniz_open(f: GPPoly) -> list[Variable]:
    """The variables of the polylinear f, sorted, that are not a leaf
    child of their factor's root in some monomial; a bare factor's
    variable is one.  For every other v, D(f, v, v, z) is zero exactly,
    each monomial's factor difference being zero (`_factor_difference`).
    One pass over the distinct factor words.
    """
    open_: set[Variable] = set()
    for w in f.factor_words():
        if w.is_leaf:
            open_.add(w.var)
        else:
            open_.update(set(w.leaves).difference((w.left.var, w.right.var)))
    return sorted(open_)


def is_jacobian(f: GPPoly) -> bool:
    """True when f is a derivation in every variable of its support.

    Requires a polylinear input; a constant is vacuously Jacobian.  Only
    the variables that the height-1 screen leaves open are tested
    (`_leibniz_open`): f is a derivation in every other one by the
    Leibniz rule.
    """
    if not is_polylinear(f):
        raise ValueError("Jacobian test needs a polylinear input; linearize first")
    return _open_difference(f) is None


def _open_difference(g: GPPoly) -> tuple[Variable, Variable, GPPoly] | None:
    """(v, fresh, D(g, v, v, fresh)) for the least variable v that the
    height-1 screen leaves open (`_leibniz_open`) with a nonzero
    difference, or None when there is none.  g is polylinear, so any one
    monomial holds every variable, and the fresh index (the one
    `_fresh_variable` gives) is read from one.
    """
    top = max((v.index for w in next(iter(g._terms), ()) for v in w.leaves), default=0)
    for v in _leibniz_open(g):
        fresh = Variable(v.base, top + 1)
        d = derivation_difference(g, v, v, fresh)
        if not d.is_zero():
            return v, fresh, d
    return None


def multiplication_operator(f: ACPoly, x: Variable) -> AssocPoly:
    """f, linear in x, as an associative word in bracket-multiplication
    letters applied to x; the letters are the normal factor words."""
    acc: dict[tuple, Coefficient] = {}
    for w, c in f._terms.items():
        op = i_normal_form(w, x)
        _accumulate(acc, op.factors, c * op.sign)
    return AssocPoly(acc)


def _relabel(
    w: Word, images: Mapping[Variable, Variable], memo: dict[Word, tuple[int, Word]]
) -> tuple[int, Word]:
    """(sign, normal word) of the polylinear normal word `w` with each
    leaf v in `images` renamed to images[v].

    A renaming that keeps the word polylinear never brackets a word with
    itself, so each node is `bracket_normal` of its renamed sides.
    `memo` keeps the result per subword, which basis words share, and a
    subword without a renamed leaf is itself.  (`memo` is an argument
    because a recursive closure over it is a reference cycle: each memo
    would live until a full garbage collection.)
    """
    if images.keys().isdisjoint(w.leaves):
        return 1, w
    got = memo.get(w)
    if got is None:
        if w.is_leaf:
            got = (1, Word.leaf(images[w.var]))
        else:
            sl, ul = _relabel(w.left, images, memo)
            sr, ur = _relabel(w.right, images, memo)
            s, u = bracket_normal(ul, ur)
            got = (s * sl * sr, u)
        memo[w] = got
    return got


def _set_partitions(items: Sequence[Variable]) -> Iterator[list[tuple[Variable, ...]]]:
    """The set partitions of `items`: each block in the order of `items`,
    the blocks in the order of their first items."""
    if not items:
        yield []
        return
    *rest, last = items
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + (last,)] + part[i + 1 :]
        yield part + [(last,)]


def _friedrichs_basis(xs: Sequence[Variable], index: Mapping[Word, int], block_words: Mapping) -> list[dict[int, int]]:
    """The left-normed basis of the kernel of D(., x1, x1, z) on the
    polylinear words on `xs` = x1..xn, each vector as its nonzero word
    coordinates (`index`); see `jacobian_space` for why it is one.
    `block_words` holds the normal words of each subset of x2..xn in
    the word order (the memo of `enumerate_polylinear_basis`).

    For each set partition of x2..xn, each choice of a normal word per
    block, and each order of the blocks after a1, the block holding x2:
    the commutator [...[[a1, a2], a3], ..., ak] (`_left_normed`) of the
    block words, each of its words u1...uk read as the operator word
    {u1,{u2,...{uk,x1}...}} and normalized.
    """
    x1 = Word.leaf(xs[0])
    rows = []
    for part in _set_partitions(xs[1:]):
        for letters in itertools.product(*(block_words[frozenset(b)] for b in part)):
            for rest in itertools.permutations(letters[1:]):
                row: dict[int, int] = {}
                for u, c in _left_normed(letters[:1] + rest):
                    w = x1
                    for a in reversed(u):
                        s, w = bracket_normal(a, w)
                        c *= s
                    row[index[w]] = c
                rows.append(row)
    return rows


def _x1_kernel(n: int) -> tuple[list[Word], RowReducer]:
    """Stage 1 of `jacobian_space`: the polylinear words on x1..xn, in
    reverse order, and the reduced row-echelon form over them of the
    basis of the kernel of D(., x1, x1, z) (`_friedrichs_basis`).

    The order is reversed so that the pivots of that form are the free
    columns of the reduced rows of x1: the pivots of a row space, taken
    leftmost first, and those of its annihilator, taken rightmost first,
    are complements.  The annihilator rows that stage 2 builds are then
    exactly the reduced rows of x1, which are short and integral.
    Raises `ArithmeticError` unless the rank is (2n-4)!!, the theorem's
    dimension.
    """
    if n < 2:
        raise ValueError("need at least two variables")
    xs = [Variable("x", i) for i in range(1, n + 1)]
    block_words: dict[frozenset, list[Word]] = {}
    words = enumerate_polylinear_basis(xs, block_words)[::-1]
    kernel = RowReducer(len(words))
    for vec in _friedrichs_basis(xs, {w: j for j, w in enumerate(words)}, block_words):
        row = [0] * len(words)
        for j, c in vec.items():
            row[j] = c
        kernel.add(row)
    if kernel.rank != 2 ** (n - 2) * math.factorial(n - 2):
        raise ArithmeticError(f"the kernel of x1 has rank {kernel.rank}, not (2n-4)!!")
    return words, kernel


def jacobian_space(n: int) -> list[ACPoly]:
    """Basis of the polylinear elements on x1..xn that are Jacobian.

    Solves the exact linear system "D(w, xi, xi, x_{n+1}) vanishes for
    each xi" over the basis of polylinear normal words w, in two stages.

    Stage 1 writes down a basis of the kernel of x1 (`_x1_kernel`).  Let
    M_f be `multiplication_operator(f, x1)`, each word of f written as
    s*{u1,{u2,...{uk,x1}...}} and read as s*u1...uk in the free
    associative algebra on the normal words.  Each {u, .} is a derivation
    of the product, so u1...uk sends x1*z to the sum over the splits of
    its letters into two subwords u', u'' of {u',x1}*{u'',z}, and
    D(f, x1, x1, z) is the reduced coproduct of M_f (the splits with
    u' and u'' both nonempty), each u' (x) u'' read as that monomial.
    The operator form is a normal form, so distinct pairs give distinct
    monomials up to sign: f is in the kernel exactly when M_f is
    primitive, that is, by Friedrichs' criterion in characteristic 0,
    a Lie element (K. O. Friedrichs, 1953).  The letters of a word of
    M_f are normal words on the blocks of a set partition of x2..xn,
    each used once, so the kernel is the direct sum, over partitions
    and choices of block words a1..ak, of the multilinear Lie elements
    in those letters.  With a1 the block holding x2, the left-normed
    commutators [a1, a_s(2), ..., a_s(k)] over the orders s of the rest
    are a basis of those (C. Reutenauer, *Free Lie Algebras*, 1993); so
    the kernel has dimension sum over partitions p of (|p|-1)! times the
    product over blocks B of (2|B|-3)!!.  With W(t) = 1 - sqrt(1 - 2t)
    the exponential generating function of (2m-3)!!, that sum is the
    coefficient of -log(1 - W(t)) = -log(1 - 2t)/2 at n-1 letters:
    2^(n-2)*(n-2)! = (2n-4)!!.

    Stage 2 (`_kernel_space`) imposes the other variables on that
    kernel.  The row space of x1 is the annihilator of the kernel, one
    row e_f - sum_p b_p[f]*e_p per free column f of the reduced basis
    rows b_p, with e_p at the pivot of b_p.  Relabeling by the
    transposition (x1 xi), which fixes z = x_{n+1}, is an automorphism
    sending D(f, x1, x1, z) to D(f', xi, xi, z) for the relabeled f'; it
    sends basis word k to +-word j and, being an involution, word j back
    to the same multiple of word k, so the relabeled annihilator rows
    span the rows of xi.
    Restricted to the kernel, a row r has coordinate r.b_p on b_p, and
    the kernel of those restricted rows maps back to the words as
    sum_p c_p*b_p.  The dimension is 1 for n = 2 and n = 3 and 0
    beyond, so the primitive integer vector of the space is unique.

    The rows are interleaved: each row of x1 in turn is relabeled for
    x2, x3, ..., xn, until the rank reaches K.  A word is relabeled only
    when a row first holds it (`_relabel`).  Each restricted row is
    first cleared against the rows kept so far (`RowReducer.residual`),
    and only a nonzero residual is added.  The row space does not depend
    on the order of its rows, and its reduced row-echelon form is unique,
    so neither does the result.
    At n = 7 rank 3,840 is reached after 15,636 rows, of which 3,840 are
    added, and 28,200 words are relabeled; in turn, variable by variable,
    it took 32,866 rows, every one added, after relabeling all 62,370.
    """
    return _kernel_space(n, *_x1_kernel(n))


def _kernel_space(n: int, words: list[Word], kernel: RowReducer) -> list[ACPoly]:
    """Stage 2 of `jacobian_space`, on stage 1's words and kernel basis."""
    pivots = sorted(kernel.pivots)
    basis = [kernel.pivots[p] for p in pivots]
    holders: dict[int, list[tuple[int, Coefficient]]] = {}  # column j -> (p, b_p[j])
    for p, brow in enumerate(basis):
        for j, c in brow.items():
            holders.setdefault(j, []).append((p, c))
    # the row space of x1: e_f - sum_p b_p[f]*e_(pivot of b_p) per free column f
    x1_rows = [
        [(f, 1)] + [(pivots[p], -c) for p, c in holders.get(f, ())]
        for f in range(len(words))
        if f not in kernel.pivots
    ]
    index = {w: j for j, w in enumerate(words)}
    x1 = Variable("x", 1)
    # per variable xi: the transposition (x1 xi), the memo of `_relabel`
    # and word k -> (column, sign) of its image, filled as rows reach k
    moves = [({x1: xi, xi: x1}, {}, {}) for xi in (Variable("x", i) for i in range(2, n + 1))]
    restricted = RowReducer(len(basis))
    for r in x1_rows:
        for images, memo, moved in moves:
            row: dict[int, Coefficient] = {}
            for k, c in r:
                got = moved.get(k)
                if got is None:
                    s, u = _relabel(words[k], images, memo)
                    got = moved[k] = (index[u], s)
                j, s = got
                for p, b in holders.get(j, ()):
                    _accumulate(row, p, s * c * b)
            # most rows are already in the span: only a residual is added
            rest = restricted.residual(row)
            if rest:
                dense: list[Coefficient] = [0] * len(basis)
                for p, x in rest.items():
                    dense[p] = x
                restricted.add(dense)
                if restricted.rank == len(basis):
                    return []
    out = []
    for vec in restricted.nullspace():
        full: list[Coefficient] = [0] * len(words)
        for c, brow in zip(vec, basis):
            for j, b in brow.items():
                full[j] += c * b
        # reversed back to the words' own order, whose first nonzero is made positive
        coordinates = primitive_integer_vector(full[::-1])
        out.append(ACPoly({w: c for w, c in zip(reversed(words), coordinates) if c}))
    return out


def linearize(f: GPPoly) -> GPPoly:
    """Full polarization: each variable of degree d is replaced by d
    fresh copies and the component linear in every copy is kept.

    The multilinear component is not divided by d!, which does not
    affect which algebras satisfy the identity in characteristic zero.
    Fresh copies keep the letter of their variable and take the indices
    above every index in f, of any letter: t1*t1*x5 gives 2*t1*t6*x5.
    Requires f to be degree-homogeneous in each of its variables.
    """
    degrees: dict[Variable, int] = {}
    for m in f._terms:
        for v, d in variable_degrees(m).items():
            if degrees.setdefault(v, d) != d:
                raise ValueError(
                    f"not homogeneous in {v}; split into fine components first"
                )
    result = f
    next_index = max((v.index for v in f.variables()), default=0)
    for v in sorted(degrees):
        d = degrees[v]
        if d <= 1:
            continue
        copies = [v]
        for _ in range(d - 1):
            next_index += 1
            copies.append(Variable(v.base, next_index))
        image = GPPoly.zero()
        for c in copies:
            image = image + GPPoly.generator(c)
        expanded = substitute(result, {v: image})
        kept: dict[Monomial, Coefficient] = {}
        for m, c in expanded._terms.items():
            counts = variable_degrees(m)
            if all(counts[cp] == 1 for cp in copies):
                kept[m] = c
        result = GPPoly(kept)
    return result


def _poisson_form_size(f: GPPoly) -> int:
    """A bound on the letters `poisson_normal_form` writes: the sum over
    the monomials of f of their degree times the product over their
    factors of 2^(degree-1), the words of their expansion."""
    return sum(
        sum(w.degree for w in m) * math.prod(1 << (w.degree - 1) for w in m) for m in f._terms
    )


def _poisson_coordinates(f: GPPoly) -> dict[tuple[tuple[int, ...], ...], Coefficient]:
    """`poisson_normal_form` with each letter written as its place in
    sorted(f.variables()): tuples of small ints hash fast and leave the
    garbage collector little to trace."""
    if not is_polylinear(f):
        raise ValueError("the Poisson normal form needs a polylinear input")
    rank = {v: i for i, v in enumerate(sorted(f.variables()))}
    cache: dict[Word, list] = {}
    coordinates: dict[Word, list] = {}
    form: dict[tuple, Coefficient] = {}
    for m, c in f._terms.items():
        products = [((), c)]
        for w in sorted(m, key=lambda w: min(w.leaves)):
            if w not in coordinates:
                coordinates[w] = _least_letter_words(w, rank, cache)
            products = [(key + (u,), a * d) for key, a in products for u, d in coordinates[w]]
        for key, a in products:
            _accumulate(form, key, a)
    return form


def poisson_normal_form(f: GPPoly) -> dict[tuple[tuple[Variable, ...], ...], Coefficient]:
    """The image of a polylinear f in the free Poisson algebra, in
    coordinates: empty exactly when f is a Poisson identity.

    Each factor word maps to the coefficients of the words that start
    with its least letter in its commutator expansion, and a monomial
    to the products of its factors' coefficients, keyed by the tuple of
    those words in the order of their first letters.

    Why this decides Poisson identities: the free Poisson algebra is
    S(L(X)), the symmetric algebra of the free Lie algebra (Shestakov and
    Umirbaev, JAMS 2004), and f is an identity exactly when its image
    there is zero.  The factors of a polylinear monomial hold disjoint
    blocks of letters, so that image lies in the direct sum, over set
    partitions of the letters, of the tensor products of the multilinear
    parts L_B of the blocks B.  L embeds in the free associative algebra
    by {a,b} -> ab - ba.  If a is the least letter of B, the left-normed
    brackets {...{{a,b1},b2},...,bk} over the orders b1..bk of the rest
    of B are a basis of L_B (Reutenauer, *Free Lie Algebras*, 1993), and
    each one expands to a b1...bk plus words that do not start with a.
    So the coefficients of the words starting with a are coordinates in
    that basis, and the map is injective on L_B.  A tensor of disjoint
    blocks then has as coordinates the products of its blocks' ones, and
    sorting the blocks by their least letters makes the key canonical.

    A factor of degree d expands to at most 2^(d-1) words, so the work
    is exponential in the degree (`_poisson_form_size`).  Raises
    `ValueError` on input that is not polylinear.
    """
    letters = sorted(f.variables())
    return {
        tuple(tuple(letters[i] for i in u) for u in key): c
        for key, c in _poisson_coordinates(f).items()
    }


@dataclass(frozen=True)
class FarkasHeight:
    """Per-variable bracket-factor degrees and their 3-power total."""

    per_variable: Mapping[Variable, int]
    total: int


def _bare_factor_variables(f: GPPoly) -> list[Variable]:
    return sorted({w.var for m in f._terms for w in m if w.degree == 1})


def farkas_height(f: GPPoly) -> FarkasHeight:
    """Max degree of the factor containing each variable; total is the
    sum of 3 raised to those degrees."""
    if f.is_zero():
        raise ValueError("the zero polynomial has no height")
    if not is_polylinear(f):
        raise ValueError("height needs a polylinear input")
    bare = _bare_factor_variables(f)
    if bare:
        raise ValueError(
            f"bare variable factor {bare[0]}; substitute 1 for bare factors first"
            " (strip_bare_factors)"
        )
    per = _factor_degrees(f)
    return FarkasHeight(dict(sorted(per.items())), sum(3**h for h in per.values()))


def _factor_degrees(f: GPPoly) -> dict[Variable, int]:
    """Max degree of the factor holding each variable, unchecked."""
    per: dict[Variable, int] = {}
    for m in f._terms:
        for w in m:
            for v in w.leaves:
                if per.get(v, 0) < w.degree:
                    per[v] = w.degree
    return per


def strip_bare_factors(f: GPPoly) -> GPPoly:
    """Substitute 1 for one variable occurring as a degree-one factor at
    a time, the least first, until none remain.  Monomials holding it
    inside a bracket die with it ({u,1} = 0), so the order matters: on
    x1*{x2,x3} + x2*{x1,x2}, x1 -> 1 kills the second monomial, x2 is
    then bare nowhere and the result is {x2,x3}; substituting 1 for x1
    and x2 at once would give 0.  Each pass is one filter of the terms:
    it drops the bare factors of the variable and every monomial that
    holds it inside a bracket, and adds up the rest."""
    g = f
    while True:
        bare = _bare_factor_variables(g)
        if not bare:
            return g
        v = bare[0]
        _charge(len(g._terms))
        acc: dict[Monomial, Coefficient] = {}
        for m, c in g._terms.items():
            if all(w.is_leaf for w in m if v in w.leaves):
                _accumulate(acc, tuple(w for w in m if v not in w.leaves), _coefficient(c))
        g = g._new(acc)


@dataclass(frozen=True)
class ReductionStep:
    variable: Variable
    fresh: Variable
    height_before: int
    height_after: int


def jacobian_reduce_trace(f: GPPoly) -> tuple[GPPoly, list[ReductionStep]]:
    """Iterate derivation differences until the result is Jacobian.

    At each step the smallest variable v with a nonzero difference
    D(f, v, v, fresh) gives the next element; the total height strictly
    decreases, which forces termination.  Only the variables that the
    height-1 screen leaves open are tried, in the same order
    (`_leibniz_open`); the difference of every other one is zero exactly.
    """
    if f.is_zero():
        raise ValueError("cannot reduce the zero polynomial")
    if not is_polylinear(f):
        raise ValueError("reduction needs a polylinear input; linearize first")
    if _bare_factor_variables(f):
        raise ValueError("bare variable factors present; strip_bare_factors first")
    # A difference of a polylinear element without bare factors is again
    # one: each surviving monomial uses vars(g) and the fresh variable once
    # each, and `_factor_difference` drops every term with a degree-one
    # factor.  So the input is checked once, and each step's height is
    # measured unchecked.
    g = f
    before = sum(3**h for h in _factor_degrees(g).values())
    steps: list[ReductionStep] = []
    while (found := _open_difference(g)) is not None:
        v, fresh, d = found
        after = sum(3**h for h in _factor_degrees(d).values())
        if after >= before:
            raise ArithmeticError("total height failed to decrease")
        steps.append(ReductionStep(v, fresh, before, after))
        g, before = d, after
    return g, steps


def jacobian_reduce(f: GPPoly) -> GPPoly:
    return jacobian_reduce_trace(f)[0]


def _block_element(block: tuple[Variable, ...]) -> ACPoly:
    gens = [ACPoly.generator(v) for v in block]
    if len(block) == 2:
        return ac_bracket(gens[0], gens[1])
    return jacobiator(gens[0], gens[1], gens[2])


@dataclass(frozen=True)
class ProductDecomposition:
    ok: bool
    terms: tuple[tuple[Coefficient, GPPoly], ...]
    blocks: tuple[tuple[tuple[Variable, ...], ...], ...]
    reason: str | None = None

    def reconstruct(self) -> GPPoly:
        total = GPPoly.zero()
        for c, g in self.terms:
            total = total + c * g
        return total


def jacobian_product_decompose(f: GPPoly) -> ProductDecomposition:
    """Exact coefficients of f over products of pair brackets and
    three-variable jacobiators, one product per 2/3-partition of the
    support.  Fails when f is not in their span.

    A monomial of a product names its partition (its factors' variable
    sets are the blocks), so the monomials of f are grouped by the
    partition they name and each group must be one multiple of that
    partition's product; no other partition is visited.  Blocks are
    sorted by least variable, and `blocks` lists pairs before triples,
    block by block from the least variable.

    A decomposition that succeeds proves f Jacobian, so the Jacobian
    test runs only where none is found.  Each product is of a pair
    bracket or a jacobiator on disjoint blocks that cover the support,
    so it is a derivation in each of its variables (in the factor that
    holds it), and a sum of derivations is one.  Raises `ValueError`
    when f is not polylinear (checked first: without it, blocks could
    overlap), and when no decomposition is found and f is not Jacobian;
    a Jacobian f outside the span gives `ok=False`."""
    if not is_polylinear(f):
        raise ValueError("Jacobian test needs a polylinear input; linearize first")

    def not_spanned() -> ProductDecomposition:
        if not is_jacobian(f):
            raise ValueError("input is not Jacobian")
        return ProductDecomposition(
            False, (), (), "not in the span of pair/triple bracket products"
        )

    # f is polylinear: the blocks of each monomial partition the support
    groups: dict[tuple[tuple[Variable, ...], ...], dict[Monomial, Coefficient]] = {}
    for m, c in f._terms.items():
        part = tuple(sorted(tuple(sorted(w.leaves)) for w in m))
        if any(len(block) not in (2, 3) for block in part):
            return not_spanned()
        groups.setdefault(part, {})[m] = c
    terms = []
    blocks = []
    for part in sorted(groups, key=lambda p: [(len(b), b) for b in p]):
        group = groups[part]
        g = GPPoly.one()
        for block in part:
            g = g * GPPoly.from_ac(_block_element(block))
        # g holds every monomial that names the partition (a pair has one
        # normal word and a jacobiator all three), so the group is c*g
        # exactly when it agrees with c*g on the monomials of g
        m, d = next(iter(g._terms.items()))
        c = _coefficient(Fraction(group.get(m, 0), d))
        if any(group.get(m) != c * d for m, d in g._terms.items()):
            return not_spanned()
        terms.append((c, g))
        blocks.append(part)
    return ProductDecomposition(True, tuple(terms), tuple(blocks))
