"""Free generic Poisson algebra: polynomials in normal bracket words.

An element is a rational linear combination of monomials, each monomial
a multiset of normal anti-commutative words (the empty multiset is the
unit).  The product is the commutative polynomial product; the bracket
is extended from words by bilinearity and the Leibniz rule, so the
Jacobi identity is a property to test, never an assumption.

A map out of the free algebra is fixed by the images of the generators,
the target's bracket and its constants; one fold, `_homomorphism`,
evaluates both `substitute` and `realize.evaluate_gp`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .ac import (
    ACPoly,
    Coefficient,
    Linear,
    Variable,
    Word,
    _accumulate,
    _charge,
    _coefficient,
    _meter,
    _word_key,
    bracket_normal,
)

__all__ = [
    "Monomial",
    "GPPoly",
    "Weight",
    "fine_components",
    "substitute",
    "is_polylinear",
    "variable_degrees",
]

Monomial = tuple[Word, ...]


def _sorted_factors(words) -> Monomial:
    return tuple(sorted(words, key=_word_key))


def _monomial_key(m: Monomial):
    return (sum(w.degree for w in m), len(m), tuple(w.key for w in m))


class GPPoly(Linear):
    """Exact polynomial whose variables are normal bracket words."""

    __slots__ = ()

    @staticmethod
    def one() -> "GPPoly":
        return GPPoly({(): 1})

    @staticmethod
    def constant(c) -> "GPPoly":
        c = _coefficient(c)
        return GPPoly({(): c} if c else {})

    @staticmethod
    def generator(v: Variable) -> "GPPoly":
        return GPPoly({(Word.leaf(v),): 1})

    @staticmethod
    def from_ac(f: ACPoly) -> "GPPoly":
        return GPPoly({(w,): c for w, c in f._terms.items()})

    @staticmethod
    def from_factors(words, coefficient=1) -> "GPPoly":
        """Monomial on already-normal words."""
        c = _coefficient(coefficient)
        return GPPoly({_sorted_factors(words): c} if c else {})

    def terms(self) -> list[tuple[Monomial, Coefficient]]:
        return sorted(self._terms.items(), key=lambda kv: _monomial_key(kv[0]))

    def _key_str(self, m: Monomial) -> str:
        return "*".join(repr(w) for w in m)

    def coefficient(self, m: Monomial) -> Coefficient:
        return self._terms.get(_sorted_factors(m), 0)

    def monomials(self) -> frozenset[Monomial]:
        return frozenset(self._terms)

    def variables(self) -> frozenset[Variable]:
        return frozenset().union(*(w.leaves for m in self._terms for w in m))

    def factor_words(self) -> frozenset[Word]:
        return frozenset(w for m in self._terms for w in m)

    def __mul__(self, other) -> "GPPoly":
        if isinstance(other, GPPoly):
            a, b = self._terms, other._terms
            if _meter.get() is not None:  # term pairs times the factors of the longest product
                _charge(len(a) * len(b) * (max(map(len, a), default=0) + max(map(len, b), default=0)))
            if len(a) == 1:
                a, b = b, a
            if len(b) == 1:
                # one-term factor: the products are distinct and nonzero
                [(m2, c2)] = b.items()
                return self._new({_sorted_factors(m1 + m2): c1 * c2 for m1, c1 in a.items()})
            acc: dict[Monomial, Coefficient] = {}
            for m1, c1 in a.items():
                for m2, c2 in b.items():
                    _accumulate(acc, _sorted_factors(m1 + m2), c1 * c2)
            return self._new(acc)
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        return NotImplemented

    __rmul__ = __mul__

    def bracket(self, other: "GPPoly") -> "GPPoly":
        """Leibniz expansion to pairwise word brackets, recanonicalized."""
        if not isinstance(other, GPPoly):
            raise TypeError("bracket expects a GPPoly")
        a, b = self._terms, other._terms
        if _meter.get() is not None:  # factor pairs times the letters of the longest result
            letters = [max((sum(w.degree for w in m) for m in t), default=0) for t in (a, b)]
            _charge(sum(map(len, a)) * sum(map(len, b)) * sum(letters))
        acc: dict[Monomial, Coefficient] = {}
        for m1, c1 in a.items():
            for i, u in enumerate(m1):
                rest1 = m1[:i] + m1[i + 1 :]
                for m2, c2 in b.items():
                    c12 = c1 * c2
                    for j, v in enumerate(m2):
                        bw = bracket_normal(u, v)
                        if bw is None:
                            continue
                        s, w = bw
                        mono = _sorted_factors(rest1 + m2[:j] + m2[j + 1 :] + (w,))
                        _accumulate(acc, mono, c12 * s)
        return self._new(acc)


@dataclass(frozen=True)
class Weight:
    """Multiset of commutative variable words, one per bracket factor."""

    parts: tuple[tuple[Variable, ...], ...]

    @staticmethod
    def of(m: Monomial) -> "Weight":
        return Weight(tuple(sorted(tuple(sorted(w.leaves)) for w in m)))

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(tuple(sorted(self.parts + other.parts)))

    def __repr__(self) -> str:
        if not self.parts:
            return "0"
        rendered = []
        for part in self.parts:
            counts = Counter(part)
            body = " ".join(
                v.name if k == 1 else f"{v.name}^{k}" for v, k in sorted(counts.items())
            )
            rendered.append(f"[{body}]")
        return " + ".join(rendered)


def fine_components(f: GPPoly) -> list[tuple[Weight, GPPoly]]:
    """Partition of the monomials of `f` by weight; the parts sum to `f`."""
    buckets: dict[Weight, dict[Monomial, Coefficient]] = {}
    for m, c in f._terms.items():
        buckets.setdefault(Weight.of(m), {})[m] = c
    return [
        (w, GPPoly(terms)) for w, terms in sorted(buckets.items(), key=lambda kv: kv[0].parts)
    ]


def _homomorphism(f: GPPoly, image, bracket, constant):
    """Sum over the monomials of `f` of `constant(c)` times the images of
    the factors; a word maps once to `image(var)` at a leaf and to
    `bracket` of the images of its two sides at a node."""
    cache: dict[Word, object] = {}
    total = constant(0)
    for m, c in f._terms.items():
        g = constant(c)
        for w in m:
            g = g * _image_of(w, image, bracket, cache)
        total = total + g
    return total


def _image_of(w: Word, image, bracket, cache: dict[Word, object]):
    """The image of `w` under `_homomorphism`, memoized in `cache` (an
    argument: a recursive closure over it is a reference cycle)."""
    got = cache.get(w)
    if got is None:
        if w.is_leaf:
            got = image(w.var)
        else:
            left = _image_of(w.left, image, bracket, cache)
            got = bracket(left, _image_of(w.right, image, bracket, cache))
        cache[w] = got
    return got


def substitute(f: GPPoly, images: Mapping[Variable, GPPoly]) -> GPPoly:
    """The homomorphism sending each mapped generator to its image.

    Unmapped generators stay fixed; brackets of images are expanded by
    the Leibniz rule.
    """

    def image(v: Variable) -> GPPoly:
        return images[v] if v in images else GPPoly.generator(v)

    return _homomorphism(f, image, GPPoly.bracket, GPPoly.constant)


def variable_degrees(m: Monomial) -> Counter:
    """Occurrences of each variable in a monomial, over all factors."""
    counts: Counter = Counter()
    for w in m:
        counts.update(w.leaves)
    return counts


def is_polylinear(f: GPPoly) -> bool:
    """Every monomial uses every variable of the support exactly once."""
    vs = f.variables()
    n = len(vs)
    for m in f._terms:
        leaves = [v for w in m for v in w.leaves]
        if len(leaves) != n or set(leaves) != vs:
            return False
    return True
