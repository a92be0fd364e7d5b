"""Sparse exact multivariate polynomials and rational functions.

Polynomials map exponent vectors over a declared variable tuple to
rational coefficients.  Rational functions keep numerator and
denominator unreduced; equality and zero tests go through numerator
cross-multiplication, so no multivariate gcd is ever needed.  An
optional content normalization bounds growth and fixes signs for
printing.  Realizations compute in `MultiPoly`; a `RatFunc` operand
takes over any mixed product or sum through its reflected operators.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence

from .ac import Linear, _accumulate

__all__ = ["MultiPoly", "RatFunc"]


class MultiPoly(Linear):
    """Polynomial over a fixed tuple of variable names."""

    __slots__ = ("vars",)

    def __init__(self, vars: tuple[str, ...], terms: Mapping[tuple[int, ...], Fraction] | None = None):
        self.vars = tuple(vars)
        self._terms = dict(terms) if terms else {}

    def _new(self, terms: dict) -> "MultiPoly":
        out = object.__new__(MultiPoly)
        out.vars = self.vars
        out._terms = terms
        return out

    @classmethod
    def zero(cls, vars: Sequence[str]) -> "MultiPoly":
        return cls(tuple(vars))

    @classmethod
    def constant(cls, vars: Sequence[str], c) -> "MultiPoly":
        c = Fraction(c)
        zero_exp = (0,) * len(vars)
        return cls(tuple(vars), {zero_exp: c} if c else {})

    @classmethod
    def one(cls, vars: Sequence[str]) -> "MultiPoly":
        return cls.constant(vars, 1)

    @classmethod
    def variable(cls, vars: Sequence[str], name: str) -> "MultiPoly":
        vars = tuple(vars)
        if name not in vars:
            raise ValueError(f"unknown variable {name!r}")
        exp = tuple(1 if v == name else 0 for v in vars)
        return cls(vars, {exp: Fraction(1)})

    def terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        return sorted(self._terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def _check(self, other: "MultiPoly") -> None:
        if self.vars != other.vars:
            raise ValueError("polynomials over different variable tuples")

    def _operand(self, other) -> "MultiPoly | None":
        if isinstance(other, (int, Fraction)):
            return MultiPoly.constant(self.vars, other)
        if not isinstance(other, MultiPoly):
            return None
        self._check(other)
        return other

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        acc: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                _accumulate(acc, tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
        return self._new(acc)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = MultiPoly.one(self.vars)
        for _ in range(n):
            out = out * self
        return out

    def derivative(self, name: str) -> "MultiPoly":
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
            isinstance(other, MultiPoly)
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


class RatFunc:
    """Quotient of two polynomials, kept unreduced."""

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly | None = None):
        if den is None:
            den = MultiPoly.one(num.vars)
        if num.vars != den.vars:
            raise ValueError("numerator and denominator over different variables")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        self.num = num
        self.den = den

    @property
    def vars(self) -> tuple[str, ...]:
        return self.num.vars

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.is_zero()

    def _coerce(self, other) -> "RatFunc | None":
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, (int, Fraction)):
            return RatFunc(MultiPoly.constant(self.vars, other))
        if isinstance(other, MultiPoly):
            return RatFunc(other)
        return None

    def __add__(self, other) -> "RatFunc":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other) -> "RatFunc":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.den - o.num * self.den, self.den * o.den)

    def __rsub__(self, other) -> "RatFunc":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __mul__(self, other) -> "RatFunc":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFunc":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by the zero function")
        return RatFunc(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other) -> "RatFunc":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int) -> "RatFunc":
        if n < 0:
            return RatFunc(self.den, self.num) ** (-n)
        return RatFunc(self.num**n, self.den**n)

    def derivative(self, name: str) -> "RatFunc":
        """Quotient rule; exact."""
        return RatFunc(
            self.num.derivative(name) * self.den - self.num * self.den.derivative(name),
            self.den * self.den,
        )

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num * o.den == o.num * self.den

    __hash__ = None  # equality is by cross-multiplication

    def normalized(self) -> "RatFunc":
        """Equivalent fraction with coprime integer coefficients and a
        positive deg-lex leading denominator coefficient; a constant
        denominator is folded into the numerator."""
        den_terms = self.den._terms
        if len(den_terms) == 1 and not any(next(iter(den_terms))):
            c = next(iter(den_terms.values()))
            return RatFunc(self.num * (1 / c))
        coeffs = list(self.num._terms.values()) + list(den_terms.values())
        mult = lcm(*(c.denominator for c in coeffs))
        div = gcd(*(int(c * mult) for c in coeffs))
        scale = Fraction(mult, div)
        num = self.num * scale
        den = self.den * scale
        if den.leading_coefficient() < 0:
            num, den = -num, -den
        return RatFunc(num, den)

    def __repr__(self) -> str:
        r = self.normalized() if not self.is_zero() else RatFunc(MultiPoly.zero(self.vars))
        if r.den == MultiPoly.one(self.vars):
            return repr(r.num)
        return f"({r.num!r})/({r.den!r})"
