"""Free associative algebra over an arbitrary alphabet.

Words are tuples of letters (any hashable, mutually comparable values).
The module provides the signed permutation sums, the primitivity test
for Lie elements (L is Lie iff the coproduct that makes every letter
primitive sends it to L(x)1 + 1(x)L: no constant term, and the proper
splits of its words cancel), and the algebra map onto the exterior
algebra of the letter space.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from .ac import Coefficient, Linear, _accumulate, _charge, _coefficient, _meter

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


def _coproduct(L: AssocPoly) -> dict[tuple[tuple, tuple], Coefficient]:
    """Proper part of the coproduct with every letter primitive, extended
    multiplicatively: each word split into two nonempty subsequences."""
    if _meter.get() is not None:
        _charge(sum(len(w) << len(w) for w in L._terms))  # splits times letters
    acc: dict[tuple[tuple, tuple], Coefficient] = {}
    for word, c in L._terms.items():
        k = len(word)
        for mask in range(1, (1 << k) - 1):
            left = tuple(word[i] for i in range(k) if mask >> i & 1)
            right = tuple(word[i] for i in range(k) if not mask >> i & 1)
            _accumulate(acc, (left, right), c)
    return acc


def is_lie_element(L: AssocPoly) -> bool:
    """Primitivity test (Friedrichs' criterion): the coproduct of L equals
    L(x)1 + 1(x)L iff L has no constant term (whose one split 1(x)1 that
    sum counts twice) and the proper splits of its words cancel."""
    return () not in L._terms and not _coproduct(L)


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
