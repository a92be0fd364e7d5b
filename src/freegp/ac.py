"""Free anti-commutative algebra over the rationals.

Nonassociative words over a set of generators are binary trees.  The
bracket satisfies {a,b} = -{b,a} in characteristic zero (so {a,a} = 0),
and every word rewrites to a signed *normal* word or to zero; normal
words (each node carries its smaller child on the left) form a linear
basis.  "Smaller" is the one word order, `Word.key`: degree first, then
the left subword, then the right subword, with generator order at the
leaves.  Everything here is exact and immutable: rewriting is
deterministic, no operation mutates its arguments, and coefficients are
integer-first: an integral coefficient built by a constructor is a plain
`int`, and only a non-integral one is a `fractions.Fraction`.  Mixed
`int`/`Fraction` arithmetic is exact and the two types agree on `==`
and `hash`, so term dicts compare and hash as if all were `Fraction`;
a division always goes through `Fraction`, never `int / int`.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter
from typing import Iterable, Mapping, NamedTuple, Sequence

__all__ = [
    "Variable",
    "Word",
    "Linear",
    "ACPoly",
    "OperatorWord",
    "FlipOrbit",
    "normalize_word",
    "is_normal",
    "bracket_normal",
    "ac_bracket",
    "height",
    "i_normal_form",
    "flip",
    "flip_orbit",
    "is_polylinear",
    "enumerate_polylinear_basis",
    "format_linear",
]

_VAR_RE = re.compile(r"([A-Za-z])([0-9]+)\Z")

Coefficient = int | Fraction  # an exact coefficient; integral ones are ints


def _coefficient(c) -> Coefficient:
    """`c` as an exact coefficient: an `int` when integral, else a `Fraction`."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class Variable(NamedTuple):
    """A generator, written as a letter class plus an index (x1, t3, y12).

    A named tuple: hashing, equality and the (base, index) order are the
    tuple's own, done in C, and `hash(v) == hash((v.base, v.index))`.
    """

    base: str
    index: int

    @classmethod
    def parse(cls, name: str) -> "Variable":
        m = _VAR_RE.match(name)
        if m is None:
            raise ValueError(f"bad variable name {name!r}: expected a letter followed by digits")
        if m.group(2)[0] == "0" and len(m.group(2)) > 1:  # x01 would print as x1
            raise ValueError(f"bad variable name {name!r}: leading zero in its index")
        return cls(m.group(1), int(m.group(2)))

    @property
    def name(self) -> str:
        return f"{self.base}{self.index}"

    def __repr__(self) -> str:
        return self.name


class Word:
    """A nonassociative word: a generator leaf or a bracket of two words.

    Instances are immutable, compare structurally, and carry their
    degree, leaf sequence and order key precomputed.
    """

    __slots__ = ("var", "left", "right", "degree", "leaves", "varset", "key", "_hash")

    var: Variable | None
    left: "Word | None"
    right: "Word | None"

    @classmethod
    def leaf(cls, v: Variable) -> "Word":
        w = object.__new__(cls)
        w.var = v
        w.left = None
        w.right = None
        w.degree = 1
        w.leaves = (v,)
        w.varset = frozenset((v,))
        w.key = (1, v)  # hashes and orders as (1, (v.base, v.index))
        w._hash = hash(w.key)
        return w

    @classmethod
    def node(cls, left: "Word", right: "Word") -> "Word":
        w = object.__new__(cls)
        w.var = None
        w.left = left
        w.right = right
        w.degree = left.degree + right.degree
        w.leaves = left.leaves + right.leaves
        w.varset = left.varset | right.varset
        w.key = (w.degree, left.key, right.key)
        w._hash = hash(w.key)
        return w

    @property
    def is_leaf(self) -> bool:
        return self.var is not None

    def count(self, v: Variable) -> int:
        return self.leaves.count(v)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return isinstance(other, Word) and self.key == other.key

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Word") -> bool:
        return self.key < other.key

    def __repr__(self) -> str:
        if self.is_leaf:
            return self.var.name
        return "{" + repr(self.left) + "," + repr(self.right) + "}"


_word_key = attrgetter("key")  # sort key of the one word order


def _normal_form(w: Word):
    """(sign, normal word) representing the class of `w`, or None if zero."""
    if w.is_leaf:
        return 1, w
    nl = _normal_form(w.left)
    if nl is None:
        return None
    nr = _normal_form(w.right)
    if nr is None:
        return None
    sl, ul = nl
    sr, ur = nr
    bw = bracket_normal(ul, ur)
    if bw is None:
        return None  # {a,a} = 0 in characteristic zero
    return sl * sr * bw[0], bw[1]


def bracket_normal(u: Word, v: Word):
    """Bracket of two normal words: (sign, normal word), or None if u == v."""
    ku, kv = u.key, v.key
    if ku < kv:
        return 1, Word.node(u, v)
    if kv < ku:
        return -1, Word.node(v, u)
    return None  # keys are equal only for equal words


def _accumulate(acc: dict, key, delta: Coefficient) -> None:
    c = acc.get(key)
    if c is None:
        if delta:
            acc[key] = delta
        return
    c += delta
    if c:
        acc[key] = c
    else:
        del acc[key]


class Linear:
    """Exact sparse linear combination: a dict from keys to nonzero
    integer-first coefficients (`int` when integral, else `Fraction`).

    The keys are assumed canonical and the coefficients nonzero; each
    subclass builds them through its own constructors and products, and
    the constructors store an integral coefficient as an `int`.
    Subclasses add the key product, the term order of `terms()` and the
    rendering of one key (`_key_str`).
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping | None = None):
        self._terms = dict(terms) if terms else {}

    def _new(self, terms: dict, other: "Linear | None" = None) -> "Linear":
        """An element of the same type (and variables) owning `terms`;
        `other` is the second addend when `terms` is a sum."""
        out = object.__new__(type(self))
        out._terms = terms
        return out

    @classmethod
    def zero(cls):
        return cls()

    def _operand(self, other):
        """`other` as an addend of this element, or None if it is not one."""
        return other if type(other) is type(self) else None

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __add__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        acc = dict(self._terms)
        for k, c in o._terms.items():
            _accumulate(acc, k, c)
        return self._new(acc, o)

    def __sub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        acc = dict(self._terms)
        for k, c in o._terms.items():
            _accumulate(acc, k, -c)
        return self._new(acc, o)

    def __neg__(self):
        return self._new({k: -c for k, c in self._terms.items()})

    def _scaled(self, scalar):
        s = _coefficient(scalar)
        if not s:
            return self._new({})
        return self._new({k: c * s for k, c in self._terms.items()})

    def __mul__(self, scalar):
        if isinstance(scalar, (int, Fraction)):
            return self._scaled(scalar)
        return NotImplemented

    __rmul__ = __mul__  # scalars only, also where a subclass overrides __mul__

    def __eq__(self, other) -> bool:
        # False, not NotImplemented, for another type: a reflected
        # __eq__ (RatFunc's cross-multiplication) must not take over.
        return type(other) is type(self) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        return format_linear((self._key_str(k), c) for k, c in self.terms())


class ACPoly(Linear):
    """Exact linear combination of normal words."""

    __slots__ = ()

    @staticmethod
    def generator(v: Variable) -> "ACPoly":
        return ACPoly({Word.leaf(v): 1})

    def terms(self) -> list[tuple[Word, Coefficient]]:
        return sorted(self._terms.items(), key=lambda kv: kv[0].key)

    def _key_str(self, w: Word) -> str:
        return repr(w)

    def coefficient(self, w: Word) -> Coefficient:
        return self._terms.get(w, 0)

    def words(self) -> frozenset[Word]:
        return frozenset(self._terms)

    def variables(self) -> frozenset[Variable]:
        out: frozenset[Variable] = frozenset()
        for w in self._terms:
            out |= w.varset
        return out


def normalize_word(w: Word) -> ACPoly:
    """Canonical form of a raw word: a signed normal word, or zero."""
    nf = _normal_form(w)
    if nf is None:
        return ACPoly.zero()
    s, u = nf
    return ACPoly({u: s})


def is_normal(w: Word) -> bool:
    nf = _normal_form(w)
    return nf is not None and nf[0] == 1 and nf[1] == w


def ac_bracket(f: ACPoly, g: ACPoly) -> ACPoly:
    """Bilinear extension of the bracket, renormalized."""
    acc: dict[Word, Coefficient] = {}
    for u, a in f._terms.items():
        for v, b in g._terms.items():
            bw = bracket_normal(u, v)
            if bw is None:
                continue
            s, w = bw
            _accumulate(acc, w, a * b * s)
    return ACPoly(acc)


@dataclass(frozen=True)
class OperatorWord:
    """Signed chain of left bracket multiplications applied to one
    distinguished generator: sign * {u1, {u2, ... {uk, x} ... }}.

    The factors are normal words free of the argument variable.
    """

    sign: int
    factors: tuple[Word, ...]
    argument: Variable

    def expand(self) -> Word:
        """The raw word this operator chain denotes (sign not applied)."""
        w = Word.leaf(self.argument)
        for u in reversed(self.factors):
            w = Word.node(u, w)
        return w

    def to_ac(self) -> ACPoly:
        return self.sign * normalize_word(self.expand())


def i_normal_form(w: Word, x: Variable) -> OperatorWord:
    """Rewrite a word linear in `x` as a signed operator chain on `x`.

    The expansion of the result is equal to `w` in the algebra: pulling
    `x` to the innermost right position costs one sign per swap, and
    each factor is normalized on the way.  It is the normal form of `w`
    under the order that puts every word containing `x` above every word
    avoiding it (the test oracle `elevated_normal_form` in
    `tests/helpers.py`).
    """
    n = w.count(x)
    if n == 0:
        raise ValueError("variable not present")
    if n > 1:
        raise ValueError(f"{x} occurs {n} times; the operator form needs a single occurrence")
    sign = 1
    factors = []
    cur = w
    while not cur.is_leaf:
        if x in cur.right.varset:
            side, cur = cur.left, cur.right
        else:
            side, cur = cur.right, cur.left
            sign = -sign
        nf = _normal_form(side)
        if nf is None:
            raise ValueError("word is zero in the algebra and has no operator form")
        s, u = nf
        sign *= s
        factors.append(u)
    return OperatorWord(sign, tuple(factors), x)


def height(w: Word, x: Variable) -> int:
    """Number of bracket multiplications enclosing `x` in the operator form."""
    return len(i_normal_form(w, x).factors)


def flip(f: ACPoly, x: Variable) -> ACPoly:
    """The involution sending sign*ad(u1)...ad(uk)(x) to
    -(-1)^k * sign*ad(uk)...ad(u1)(x), extended linearly.

    Every word of `f` must be linear in `x`.
    """
    acc: dict[Word, Coefficient] = {}
    for word, c in f._terms.items():
        op = i_normal_form(word, x)
        k = len(op.factors)
        flipped = OperatorWord(-op.sign * (-1) ** k, tuple(reversed(op.factors)), x)
        for u, s in flipped.to_ac()._terms.items():
            _accumulate(acc, u, c * s)
    return ACPoly(acc)


@dataclass(frozen=True)
class FlipOrbit:
    elements: tuple[ACPoly, ...]
    truncated: bool

    def __contains__(self, item) -> bool:
        return item in set(self.elements)


def is_polylinear(f: ACPoly) -> bool:
    """Every word of `f` uses every variable of the support exactly once."""
    vs = f.variables()
    n = len(vs)
    return all(w.degree == n and w.varset == vs for w in f._terms)


def flip_orbit(f: ACPoly, max_size: int = 1000) -> FlipOrbit:
    """Closure of {f} under the flips of all its variables (breadth first)."""
    if not is_polylinear(f):
        raise ValueError("flip orbits are defined for polylinear inputs")
    variables = sorted(f.variables())
    seen = {f}
    out = [f]
    frontier = [f]
    while frontier:
        nxt = []
        for g in frontier:
            for v in variables:
                h = flip(g, v)
                if h in seen:
                    continue
                if len(out) >= max_size:
                    return FlipOrbit(tuple(out), True)
                seen.add(h)
                out.append(h)
                nxt.append(h)
        frontier = nxt
    return FlipOrbit(tuple(out), False)


def enumerate_polylinear_basis(variables: Sequence[Variable]) -> list[Word]:
    """All normal words containing each given variable exactly once.

    There are (2n-3)!! of them for n >= 2 variables.
    """
    vs = tuple(variables)
    if not vs:
        raise ValueError("need at least one variable")
    if len(set(vs)) != len(vs):
        raise ValueError("duplicate variables")
    memo: dict[frozenset, list[Word]] = {}

    def build(s: frozenset) -> list[Word]:
        got = memo.get(s)
        if got is not None:
            return got
        members = sorted(s)
        if len(members) == 1:
            res = [Word.leaf(members[0])]
        else:
            res = []
            anchor, rest = members[0], members[1:]
            # each unordered split {L, R} is visited once: the anchor sits in L
            for k in range(len(rest)):
                for partners in itertools.combinations(rest, k):
                    left_set = frozenset((anchor, *partners))
                    right_set = s - left_set
                    for u in build(left_set):
                        for v in build(right_set):
                            res.append(bracket_normal(u, v)[1])
            res.sort(key=_word_key)
        memo[s] = res
        return res

    return build(frozenset(vs))


def format_linear(items: Iterable[tuple[str, Coefficient]]) -> str:
    """Render (monomial string, coefficient) pairs; '' denotes the unit."""
    parts: list[str] = []
    for mono, c in items:
        if not c:
            continue
        mag = c if c > 0 else -c
        if mono == "":
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append((" + " if c > 0 else " - ") + body)
    return "".join(parts) or "0"
