"""Free associative algebra over an arbitrary alphabet.

Words are tuples of letters (any hashable, mutually comparable values).
Besides the signed permutation sums and the map onto the exterior
algebra, it holds the free Lie algebra inside: left-normed commutators
(`_left_normed`), the Dynkin-Specht-Wever Lie test on them, and the
commutator expansion of bracket words with their left-normed coordinates.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from .ac import Coefficient, Linear, Word, _accumulate, _charge, _coefficient, _meter

__all__ = [
    "AssocPoly",
    "ExteriorElem",
    "commutator",
    "alternating_sum",
    "is_lie_element",
    "exterior_image",
    "permutation_sign",
]


def permutation_sign(perm: Sequence[int]) -> int:
    """Parity of a permutation given as a sequence of distinct indices."""
    return _sort_sign(tuple(perm))[0]


def _sort_sign(letters: tuple):
    """(sign, sorted letters) from sorting, or None on a repeated letter."""
    sign = 1
    out = list(letters)
    for i in range(1, len(out)):
        j = i
        while j > 0 and out[j] < out[j - 1]:
            out[j], out[j - 1] = out[j - 1], out[j]
            sign = -sign
            j -= 1
    for a, b in zip(out, out[1:]):
        if a == b:
            return None
    return sign, tuple(out)


class AssocPoly(Linear):
    """Exact linear combination of associative words."""

    __slots__ = ()

    @staticmethod
    def one() -> "AssocPoly":
        return AssocPoly({(): 1})

    @staticmethod
    def letter(l) -> "AssocPoly":
        return AssocPoly({(l,): 1})

    @staticmethod
    def word(letters: Iterable, coefficient=1) -> "AssocPoly":
        c = _coefficient(coefficient)
        return AssocPoly({tuple(letters): c} if c else {})

    def terms(self) -> list[tuple[tuple, Coefficient]]:
        return sorted(self._terms.items(), key=lambda kv: (len(kv[0]), kv[0]))

    def _key_str(self, w: tuple) -> str:
        return "*".join(str(l) for l in w)

    def letters(self) -> frozenset:
        return frozenset(l for w in self._terms for l in w)

    def __mul__(self, other) -> "AssocPoly":
        if isinstance(other, AssocPoly):
            a, b = self._terms, other._terms
            if _meter.get() is not None:  # term pairs times the letters of the longest product
                _charge(len(a) * len(b) * (max(map(len, a), default=0) + max(map(len, b), default=0)))
            acc: dict[tuple, Coefficient] = {}
            for w1, c1 in a.items():
                for w2, c2 in b.items():
                    _accumulate(acc, w1 + w2, c1 * c2)
            return self._new(acc)
        return super().__mul__(other)


def commutator(a: AssocPoly, b: AssocPoly) -> AssocPoly:
    return a * b - b * a


def alternating_sum(m: int, letters: Sequence) -> AssocPoly:
    """Sum over all orderings of the letters, signed by permutation parity."""
    letters = tuple(letters)
    if m != len(letters):
        raise ValueError(f"m={m} does not match {len(letters)} letters")
    if len(set(letters)) != m:
        raise ValueError("duplicate letters")
    acc: dict[tuple, Coefficient] = {}
    for perm in itertools.permutations(range(m)):
        word = tuple(letters[i] for i in perm)
        acc[word] = permutation_sign(perm)
    return AssocPoly(acc)


def _left_normed(letters: Sequence) -> list[tuple[tuple, int]]:
    """The signed words of [...[[a1, a2], a3], ..., ak] for the letters
    a1..ak (k >= 1): 2^(k-1) of them, distinct when the letters are."""
    words = [((letters[0],), 1)]
    for a in letters[1:]:
        words = [(u + (a,), c) for u, c in words] + [((a,) + u, -c) for u, c in words]
    return words


def is_lie_element(L: AssocPoly) -> bool:
    """Dynkin-Specht-Wever test, linear in L and exact with repeated letters:
    L is Lie iff it has no constant term and sum_w L[w]*_left_normed(w) is
    sum_w len(w)*L[w]*w.  A word w is charged len(w) << len(w) units, as the CLI bounds it."""
    if () in L._terms:
        return False
    if _meter.get() is not None:
        _charge(sum(len(w) << len(w) for w in L._terms))
    acc: dict[tuple, Coefficient] = {}
    for word, c in L._terms.items():
        _accumulate(acc, word, -len(word) * c)
        for u, s in _left_normed(word):
            _accumulate(acc, u, s * c)
    return not acc


def _commutator_expansion(w: Word, rank: dict, cache: dict) -> list[tuple[tuple, int]]:
    """The associative words of w under {a,b} = ab - ba with their
    coefficients, each letter written as its `rank`, memoized per
    subword.  For a word without repeated letters they are 2^(degree-1)
    distinct words of coefficient +-1."""
    got = cache.get(w)
    if got is None:
        if w.is_leaf:
            got = [((rank[w.var],), 1)]
        else:
            left = _commutator_expansion(w.left, rank, cache)
            right = _commutator_expansion(w.right, rank, cache)
            got = [(u + v, c * d) for u, c in left for v, d in right]
            got += [(v + u, -c * d) for u, c in left for v, d in right]
        cache[w] = got
    return got


def _least_letter_words(w: Word, rank: dict, cache: dict) -> list[tuple[tuple, int]]:
    """The words of w's commutator expansion that start with its least
    letter: those of the side holding it, each followed by every word of
    the other side, negated when that side is the right one."""
    if w.is_leaf:
        return [((rank[w.var],), 1)]
    first, second, sign = w.left, w.right, 1
    if min(second.leaves) < min(first.leaves):
        first, second, sign = second, first, -1
    head = _least_letter_words(first, rank, cache)
    rest = _commutator_expansion(second, rank, cache)
    return [(u + v, sign * c * d) for u, c in head for v, d in rest]


class ExteriorElem(Linear):
    """Element of the exterior algebra on the letter space."""

    __slots__ = ()

    def terms(self) -> list[tuple[tuple, Coefficient]]:
        return sorted(self._terms.items(), key=lambda kv: (len(kv[0]), kv[0]))

    def _key_str(self, w: tuple) -> str:
        return "^".join(str(l) for l in w)

    def coefficient(self, letters: tuple) -> Coefficient:
        sg = _sort_sign(tuple(letters))
        if sg is None:
            return 0
        s, key = sg
        return s * self._terms.get(key, 0)

    def __mul__(self, other) -> "ExteriorElem":
        if isinstance(other, ExteriorElem):
            acc: dict[tuple, Coefficient] = {}
            for w1, c1 in self._terms.items():
                for w2, c2 in other._terms.items():
                    sg = _sort_sign(w1 + w2)
                    if sg is None:
                        continue
                    s, key = sg
                    _accumulate(acc, key, c1 * c2 * s)
            return self._new(acc)
        return super().__mul__(other)


def exterior_image(L: AssocPoly) -> ExteriorElem:
    """Image under the algebra map fixing letters; repeated letters die."""
    acc: dict[tuple, Coefficient] = {}
    for word, c in L._terms.items():
        sg = _sort_sign(word)
        if sg is None:
            continue
        s, key = sg
        _accumulate(acc, key, c * s)
    return ExteriorElem(acc)
