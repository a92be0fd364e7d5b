"""Shared builders and hypothesis strategies for the test suite."""

import contextlib
import io
import itertools
from fractions import Fraction
from typing import Mapping, Sequence

import hypothesis.strategies as st
from hypothesis import assume

from freegp import cli
from freegp.ac import (
    ACPoly,
    Coefficient,
    Linear,
    Variable,
    Word,
    _accumulate,
    _normal_form,
    enumerate_polylinear_basis,
    format_linear,
    normalize_word,
)
from freegp.assoc import AssocPoly, commutator
from freegp.gp import GPPoly, Monomial, substitute
from freegp.identities import (
    ProductDecomposition,
    ReductionStep,
    _bare_factor_variables,
    _block_element,
    _factor_difference,
    farkas_height,
    is_jacobian,
)
from freegp.linalg import RowReducer, primitive_integer_vector, solve
from freegp.parsing import BracketFactor, Expr, VarFactor, parse, to_ac, to_gp
from freegp.ratfunc import MultiPoly
from freegp.realize import Realization

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
    flag = x in w.leaves
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


def structural_word_eq(u: Word, v) -> bool:
    """Test oracle for word equality: the structural `Word.__eq__` that
    interning replaced by identity, comparing order keys."""
    return u is v or (isinstance(v, Word) and u.key == v.key)


def walked_leaves(w: Word) -> list[Variable]:
    """Test oracle for `Word.leaves`: the variables at the leaves of `w`,
    left to right, read by walking its tree."""
    out, stack = [], [w]
    while stack:
        u = stack.pop()
        if u.var is not None:
            out.append(u.var)
        else:
            stack += (u.right, u.left)
    return out


def left_normed(variables) -> Word:
    """{v1,{v2,...{v_{n-1},v_n}...}} as a raw word."""
    ws = [Word.leaf(v) for v in variables]
    out = ws[-1]
    for w in reversed(ws[:-1]):
        out = Word.node(w, out)
    return out


# ---------------------------------------------------------------- derivation oracle


def substitution_derivation_difference(
    f: GPPoly, x: Variable, y: Variable, z: Variable
) -> GPPoly:
    """Test oracle for `freegp.identities.derivation_difference`: three
    whole-element substitutions, f(x->y*z) - y*f(x->z) - z*f(x->y).
    Like the library, it refuses an f with a monomial not of degree 1
    in x, but it counts the leaves of every factor."""
    for m in f._terms:
        if sum(w.count(x) for w in m) != 1:
            raise ValueError(f"input is not linear in {x}")
    gy = GPPoly.generator(y)
    gz = GPPoly.generator(z)
    return (
        substitute(f, {x: gy * gz})
        - gy * substitute(f, {x: gz})
        - gz * substitute(f, {x: gy})
    )


def substitution_is_jacobian(f: GPPoly) -> bool:
    """Test oracle for `freegp.identities.is_jacobian` on polylinear
    input: every variable of the support is tested by substitution, with
    two fresh variables, and none is skipped."""
    top = max((v.index for v in f.variables()), default=0)
    return all(
        substitution_derivation_difference(
            f, v, Variable(v.base, top + 1), Variable(v.base, top + 2)
        ).is_zero()
        for v in sorted(f.variables())
    )


def two_pass_reduce_trace(f: GPPoly) -> tuple[GPPoly, list[ReductionStep]]:
    """Test oracle for `freegp.identities.jacobian_reduce_trace` on valid
    input: each step first finds the smallest variable v failing the
    Leibniz test with two fresh variables, then takes the difference
    with y = v and one fresh variable, both by substitution."""

    def fresh(g: GPPoly, v: Variable, i: int) -> Variable:
        return Variable(v.base, max(u.index for u in g.variables() | {v}) + i)

    g = f
    steps: list[ReductionStep] = []
    while True:
        failing = next(
            (
                v
                for v in sorted(g.variables())
                if not substitution_derivation_difference(
                    g, v, fresh(g, v, 1), fresh(g, v, 2)
                ).is_zero()
            ),
            None,
        )
        if failing is None:
            return g, steps
        z = fresh(g, failing, 1)
        before = farkas_height(g).total
        g = substitution_derivation_difference(g, failing, failing, z)
        steps.append(ReductionStep(failing, z, before, farkas_height(g).total))


def substitution_strip_bare_factors(f: GPPoly) -> GPPoly:
    """Test oracle for `freegp.identities.strip_bare_factors`: substitute
    1 for the least variable occurring as a bare factor, one at a time,
    until none remain."""
    g = f
    while True:
        bare = _bare_factor_variables(g)
        if not bare:
            return g
        g = substitute(g, {bare[0]: GPPoly.one()})


# ---------------------------------------------------------------- classification oracle


def derivation_rows(n: int, xi: Variable) -> list[list[Coefficient]]:
    """The rows of "D(w, xi, xi, x_{n+1}) vanishes" over the polylinear
    basis on x1..xn, built from scratch with `_factor_difference`, dense
    and in monomial order."""
    z = Word.leaf(Variable("x", n + 1))
    words = enumerate_polylinear_basis(xvars(n))
    rows: dict[Monomial, list[Coefficient]] = {}
    for j, w in enumerate(words):
        for m, c in _factor_difference(w, xi, Word.leaf(xi), z).items():
            row = rows.get(m)
            if row is None:
                row = rows[m] = [0] * len(words)
            row[j] = c
    return [rows[m] for m in sorted(rows, key=lambda mono: tuple(w.key for w in mono))]


def per_variable_jacobian_space(n: int) -> list[ACPoly]:
    """Test oracle for `freegp.identities.jacobian_space`: one reduction
    of the rows of every variable (`derivation_rows`) over all words."""
    if n < 2:
        raise ValueError("need at least two variables")
    words = enumerate_polylinear_basis(xvars(n))
    reducer = RowReducer(len(words))
    for xi in xvars(n):
        for row in derivation_rows(n, xi):
            reducer.add(row)
            if reducer.rank == len(words):
                return []
    basis = []
    for vec in reducer.nullspace():
        vec = primitive_integer_vector(vec)
        acc: dict[Word, Coefficient] = {}
        for j, c in enumerate(vec):
            if c:
                acc[words[j]] = c
        basis.append(ACPoly(acc))
    return basis


def renamed(w: Word, images) -> Word:
    """The raw word `w` with each leaf v replaced by images.get(v, v)."""
    if w.is_leaf:
        return Word.leaf(images.get(w.var, w.var))
    return Word.node(renamed(w.left, images), renamed(w.right, images))


def every_row_kernel_space(n: int, words: list[Word], kernel: RowReducer) -> list[ACPoly]:
    """Test oracle for `freegp.identities._kernel_space`, on the same
    stage-1 words and kernel basis: it relabels every word by (x1 xi),
    as the normal form of the renamed word, before it builds a row, and
    adds every dense restricted row of x2, then every one of x3, and so
    on, until the rank is full."""
    pivots = sorted(kernel.pivots)
    basis = [kernel.pivots[p] for p in pivots]
    holders: dict[int, list[tuple[int, Coefficient]]] = {}  # column j -> (p, b_p[j])
    for p, brow in enumerate(basis):
        for j, c in brow.items():
            holders.setdefault(j, []).append((p, c))
    x1_rows = [
        [(f, 1)] + [(pivots[p], -c) for p, c in holders.get(f, ())]
        for f in range(len(words))
        if f not in kernel.pivots
    ]
    index = {w: j for j, w in enumerate(words)}
    restricted = RowReducer(len(basis))
    x1 = Variable("x", 1)
    for i in range(2, n + 1):
        xi = Variable("x", i)
        images = {x1: xi, xi: x1}
        moved = [(index[u], s) for s, u in (_normal_form(renamed(w, images)) for w in words)]
        for r in x1_rows:
            row: list[Coefficient] = [0] * len(basis)
            for k, c in r:
                j, s = moved[k]
                for p, b in holders.get(j, ()):
                    row[p] += s * c * b
            restricted.add(row)
            if restricted.rank == len(basis):
                return []
    out = []
    for vec in restricted.nullspace():
        full: list[Coefficient] = [0] * len(words)
        for c, brow in zip(vec, basis):
            for j, b in brow.items():
                full[j] += c * b
        coordinates = primitive_integer_vector(full[::-1])
        out.append(ACPoly({w: c for w, c in zip(reversed(words), coordinates) if c}))
    return out


# ---------------------------------------------------------------- decomposition oracle


def _partitions_23(items: Sequence[Variable]):
    """Set partitions into blocks of size 2 and 3, each block sorted."""
    items = tuple(items)
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for size in (2, 3):
        for partners in itertools.combinations(rest, size - 1):
            block = (first, *partners)
            remaining = tuple(v for v in rest if v not in partners)
            for tail in _partitions_23(remaining):
                yield (block, *tail)


def solve_product_decompose(f: GPPoly) -> ProductDecomposition:
    """Test oracle for `freegp.identities.jacobian_product_decompose`:
    one column per 2/3-partition product over the monomials of all of
    them and of f, and one exact linear solve."""
    if not is_jacobian(f):
        raise ValueError("input is not Jacobian")
    vs = sorted(f.variables())
    partitions = list(_partitions_23(vs))
    if not partitions:
        return ProductDecomposition(
            False, (), (), f"support size {len(vs)} is not a sum of 2s and 3s"
        )
    spanning: list[GPPoly] = []
    for part in partitions:
        g = GPPoly.one()
        for block in part:
            g = g * GPPoly.from_ac(_block_element(block))
        spanning.append(g)
    monomials = sorted(
        {m for g in spanning for m in g._terms} | set(f._terms),
        key=lambda mono: tuple(w.key for w in mono),
    )
    # Fill the matrix from the nonzeros; every other cell stays 0.
    index = {m: r for r, m in enumerate(monomials)}
    rows = [[0] * len(spanning) for _ in monomials]
    for j, g in enumerate(spanning):
        for m, c in g._terms.items():
            rows[index[m]][j] = c
    rhs = [0] * len(monomials)
    for m, c in f._terms.items():
        rhs[index[m]] = c
    coeffs = solve(rows, rhs)
    if coeffs is None:
        return ProductDecomposition(
            False, (), (), "not in the span of pair/triple bracket products"
        )
    terms = []
    blocks = []
    for part, g, c in zip(partitions, spanning, coeffs):
        if c:
            terms.append((c, g))
            blocks.append(part)
    return ProductDecomposition(True, tuple(terms), tuple(blocks))


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


# ---------------------------------------------------------------- polynomial oracle


class TupleMultiPoly(Linear):
    """Test oracle for `freegp.ratfunc.MultiPoly`: the tuple-keyed
    polynomial it replaced, with exponent vectors stored as tuples and
    `Fraction` constants.  Kept verbatim apart from its name and `_new`
    accepting (and ignoring) the other addend of a sum."""

    __slots__ = ("vars",)

    def __init__(self, vars: tuple[str, ...], terms: Mapping[tuple[int, ...], Fraction] | None = None):
        self.vars = tuple(vars)
        self._terms = dict(terms) if terms else {}

    def _new(self, terms: dict, other=None) -> "TupleMultiPoly":
        out = object.__new__(TupleMultiPoly)
        out.vars = self.vars
        out._terms = terms
        return out

    @classmethod
    def zero(cls, vars: Sequence[str]) -> "TupleMultiPoly":
        return cls(tuple(vars))

    @classmethod
    def constant(cls, vars: Sequence[str], c) -> "TupleMultiPoly":
        c = Fraction(c)
        zero_exp = (0,) * len(vars)
        return cls(tuple(vars), {zero_exp: c} if c else {})

    @classmethod
    def one(cls, vars: Sequence[str]) -> "TupleMultiPoly":
        return cls.constant(vars, 1)

    @classmethod
    def variable(cls, vars: Sequence[str], name: str) -> "TupleMultiPoly":
        vars = tuple(vars)
        if name not in vars:
            raise ValueError(f"unknown variable {name!r}")
        exp = tuple(1 if v == name else 0 for v in vars)
        return cls(vars, {exp: Fraction(1)})

    def terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        return sorted(self._terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def _check(self, other: "TupleMultiPoly") -> None:
        if self.vars != other.vars:
            raise ValueError("polynomials over different variable tuples")

    def _operand(self, other) -> "TupleMultiPoly | None":
        if isinstance(other, (int, Fraction)):
            return TupleMultiPoly.constant(self.vars, other)
        if not isinstance(other, TupleMultiPoly):
            return None
        self._check(other)
        return other

    def __mul__(self, other) -> "TupleMultiPoly":
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        if not isinstance(other, TupleMultiPoly):
            return NotImplemented
        self._check(other)
        acc: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                _accumulate(acc, tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
        return self._new(acc)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "TupleMultiPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = TupleMultiPoly.one(self.vars)
        for _ in range(n):
            out = out * self
        return out

    def derivative(self, name: str) -> "TupleMultiPoly":
        if name not in self.vars:
            raise ValueError(f"unknown variable {name!r}")
        i = self.vars.index(name)
        # distinct exponents stay distinct, so no two terms meet
        return self._new(
            {e[:i] + (e[i] - 1,) + e[i + 1 :]: c * e[i] for e, c in self._terms.items() if e[i]}
        )

    def leading_coefficient(self) -> Fraction:
        """Coefficient of the deg-lex greatest monomial (0 for the zero poly)."""
        if not self._terms:
            return Fraction(0)
        e = max(self._terms, key=lambda exp: (sum(exp), exp))
        return self._terms[e]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TupleMultiPoly)
            and self.vars == other.vars
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return hash((self.vars, frozenset(self._terms.items())))

    def _key_str(self, e: tuple[int, ...]) -> str:
        pieces = []
        for name, k in zip(self.vars, e):
            if k == 1:
                pieces.append(name)
            elif k > 1:
                pieces.append(f"{name}^{k}")
        return "*".join(pieces)


def exponent_tuple_repr(p: MultiPoly) -> str:
    """Test oracle for `MultiPoly.__repr__`: the rendering it replaced,
    which unpacks every term into its exponent tuple (`terms()`) and
    visits every variable name of it."""

    def key_str(e: tuple[int, ...]) -> str:
        pieces = []
        for name, k in zip(p.vars, e):
            if k == 1:
                pieces.append(name)
            elif k > 1:
                pieces.append(f"{name}^{k}")
        return "*".join(pieces)

    return format_linear((key_str(e), c) for e, c in p.terms())


# ---------------------------------------------------------------- realization oracle


def derivation_pair_bracket(a, b, realization: Realization):
    """Test oracle for `freegp.realize.realized_bracket`: the per-pair
    formula it replaced, one derivative polynomial per derivation, one
    product per pair and one sum per pair.  `RatFunc` operands go through
    RatFunc's reflected operators."""

    def first_derivation(a, i):
        """d/dx_i for poisson; y_{i+1 mod n} * d/dx_i for gps."""
        d = a.derivative(f"x{i}")
        if realization.kind == "poisson":
            return d
        j = i + 1 if i < realization.n else 1
        return realization.variable(f"y{j}") * d

    def second_derivation(a, i):
        return a.derivative(f"y{i}")

    total = MultiPoly.zero(realization.var_names)
    for i in range(1, realization.n + 1):
        total = total + (
            first_derivation(a, i) * second_derivation(b, i)
            - first_derivation(b, i) * second_derivation(a, i)
        )
    return total


def commutator_expansion(w: Word) -> AssocPoly:
    """The associative image of a bracket word, {a,b} -> ab - ba."""
    if w.is_leaf:
        return AssocPoly.letter(w.var)
    return commutator(commutator_expansion(w.left), commutator_expansion(w.right))


def full_expansion_form(f: GPPoly) -> dict[tuple[tuple, ...], Coefficient]:
    """Test oracle for `identities.poisson_normal_form`: the same map,
    keeping every word of each factor's commutator expansion.  The free
    Lie algebra embeds in the free associative algebra, so this form is
    zero exactly when f is a Poisson identity; the normal form is its
    restriction to the keys whose words each start with their least
    letter."""
    form: dict[tuple[tuple, ...], Coefficient] = {}
    for m, c in f._terms.items():
        products = {(): c}
        for w in sorted(m, key=lambda w: min(w.leaves)):
            words = commutator_expansion(w)._terms
            products = {k + (u,): a * d for k, a in products.items() for u, d in words.items()}
        for k, a in products.items():
            _accumulate(form, k, a)
    return form


def _full_coproduct(L: AssocPoly) -> dict[tuple[tuple, tuple], Coefficient]:
    """Coproduct with every letter primitive, extended multiplicatively."""
    acc: dict[tuple[tuple, tuple], Coefficient] = {}
    for word, c in L._terms.items():
        k = len(word)
        for mask in range(1 << k):
            left = tuple(word[i] for i in range(k) if mask >> i & 1)
            right = tuple(word[i] for i in range(k) if not mask >> i & 1)
            _accumulate(acc, (left, right), c)
    return acc


def full_coproduct_is_lie(L: AssocPoly) -> bool:
    """Test oracle for `assoc.is_lie_element`: the whole coproduct of L,
    every split of every word, equals L(x)1 + 1(x)L."""
    target: dict[tuple[tuple, tuple], Coefficient] = {}
    for word, c in L._terms.items():
        _accumulate(target, (word, ()), c)
        _accumulate(target, ((), word), c)
    return _full_coproduct(L) == target


def expansion_degree(expr: Expr) -> int:
    """Length of the longest word in the associative expansion of `expr`."""
    top = 0
    for term in expr.terms:
        d = 0
        for factor in term.factors:
            if isinstance(factor, VarFactor):
                d += 1
            elif isinstance(factor, BracketFactor):
                d += expansion_degree(factor.left) + expansion_degree(factor.right)
            else:
                d += expansion_degree(factor.inner)
        top = max(top, d)
    return top


def expansion_size(expr: Expr) -> int:
    """Words in the associative expansion of `expr` before cancellation:
    a sum adds, a product multiplies and {A,B} = A*B - B*A doubles.
    With `expansion_degree`, the admission oracle of `lie-test`: every
    expression of degree at most 9 and at most 256 words must fit the
    work budget."""
    total = 0
    for term in expr.terms:
        n = 1
        for factor in term.factors:
            if isinstance(factor, BracketFactor):
                n *= 2 * expansion_size(factor.left) * expansion_size(factor.right)
            elif not isinstance(factor, VarFactor):
                n *= expansion_size(factor.inner)
        total += n
    return total


# ---------------------------------------------------------------- command-line oracle


def full_parser_run(argv) -> int:
    """Test oracle for the parser `cli.main` builds on each call: `cli._run`
    through the full `build_parser()`, every subcommand's parser complete.
    It skips `main`'s lift of the int-string limit, which only integers of
    thousands of digits reach."""
    return cli._run(argv, cli.build_parser())


def captured_call(call, argv) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of `call(argv)`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = call(list(argv))
    return code, out.getvalue(), err.getvalue()


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


def _ac_sum(pairs) -> ACPoly:
    total = ACPoly.zero()
    for w, c in pairs:
        total = total + c * normalize_word(w)
    return total


def ac_polys(variables, max_terms=3, max_leaves=4):
    return st.lists(
        st.tuples(raw_words(variables, max_leaves), coefficients),
        min_size=0,
        max_size=max_terms,
    ).map(_ac_sum)


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


def linear_words(x: Variable, variables, max_height=3):
    """Words holding `x` once, built along their path to `x`, innermost
    step first: each step brackets a word over `variables` onto the left
    or the right."""
    spine = st.lists(st.tuples(raw_words(variables, 2), st.booleans()), max_size=max_height)

    def build(steps):
        w = Word.leaf(x)
        for a, left in steps:
            w = Word.node(a, w) if left else Word.node(w, a)
        return w

    return spine.map(build)


def linear_ac_polys(x: Variable, variables, max_terms=3, max_height=3):
    """AC elements linear in `x`: sums of multiples of `linear_words`."""
    return st.lists(
        st.tuples(linear_words(x, variables, max_height), coefficients), max_size=max_terms
    ).map(_ac_sum)


def linear_gp_polys(x: Variable, variables, max_terms=3, max_factors=2, max_height=3):
    """Elements linear in `x`: each term a coefficient times factors over
    `variables` times one word holding `x` once (`linear_words`)."""

    def assemble(termspecs):
        total = GPPoly.zero()
        for rest, w, c in termspecs:
            g = GPPoly.constant(c) * GPPoly.from_ac(normalize_word(w))
            for u in rest:
                g = g * GPPoly.from_ac(normalize_word(u))
            total = total + g
        return total

    return st.lists(
        st.tuples(
            st.lists(raw_words(variables, 3), max_size=max_factors),
            linear_words(x, variables, max_height),
            coefficients,
        ),
        max_size=max_terms,
    ).map(assemble)


@st.composite
def polylinear_gp_polys(draw, min_vars=2, max_vars=6, max_terms=3):
    """Nonzero polylinear elements on x1..xn without bare factors: each
    term a coefficient times one bracket word per block of a set
    partition of x1..xn into blocks of two letters or more."""

    def tree(letters):
        if len(letters) == 1:
            return Word.leaf(letters[0])
        k = draw(st.integers(1, len(letters) - 1))
        return Word.node(tree(letters[:k]), tree(letters[k:]))

    n = draw(st.integers(min_vars, max_vars))
    total = GPPoly.zero()
    for _ in range(draw(st.integers(1, max_terms))):
        order = draw(st.permutations(xvars(n)))
        cuts = [0]
        for i in range(2, n - 1):
            if i - cuts[-1] >= 2 and draw(st.booleans()):
                cuts.append(i)
        cuts.append(n)
        g = GPPoly.constant(draw(coefficients))
        for a, b in zip(cuts, cuts[1:]):
            g = g * GPPoly.from_ac(normalize_word(tree(order[a:b])))
        total = total + g
    assume(not total.is_zero())
    return total


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


def expression_texts(letters=("u1", "u2", "u3"), max_leaves=8):
    """Expression texts in the parser's grammar: signed sums of terms,
    each a constant or an optional coefficient (zero included) times
    letters, groups and brackets, nested."""
    constants = st.sampled_from(["0", "1", "2/3"])
    base = st.sampled_from(list(letters)) | constants

    def extend(exprs):
        factor = (
            st.sampled_from(list(letters))
            | exprs.map("({})".format)
            | st.tuples(exprs, exprs).map("{{{0[0]},{0[1]}}}".format)
        )
        product = st.tuples(
            st.sampled_from(["", "0*", "3*", "1/2*"]), st.lists(factor, min_size=1, max_size=3)
        ).map(lambda p: p[0] + "*".join(p[1]))
        signed = st.tuples(st.sampled_from(["+", "-"]), product | constants)
        return st.lists(signed, min_size=1, max_size=3).map(
            lambda terms: "".join(sign + text for sign, text in terms)
        )

    return st.recursive(base, extend, max_leaves=max_leaves)
