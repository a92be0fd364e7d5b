"""Sparse exact multivariate polynomials and rational functions.

A polynomial maps monomials over a declared variable tuple to nonzero
integer-first coefficients (`int` when integral, else `Fraction`).
Each monomial is packed into one `int`: the exponent of every variable
sits in its own 16-bit field, variable 0 in the most significant one,
and the total degree sits in an unbounded field above them all.  A
monomial product is then one integer addition, a derivative reads one
field with a shift and a mask, and integer order is the deg-lex order
of `terms()`.  No field may carry into its neighbour: every polynomial
keeps a bound on its largest exponent, and a product whose bound would
pass `MAX_EXPONENT` raises `ValueError` before any term is formed.
The constructor takes exponent tuples and `terms()` gives them back.

Rational functions keep numerator and denominator unreduced; equality
and zero tests go through numerator cross-multiplication, so no
multivariate gcd is ever needed.  An optional content normalization
bounds growth and fixes signs for printing.  Realizations compute in
`MultiPoly`, whose `_pair_bracket` is the realized bracket: each operand
lists once which of its terms hold each variable, and each derivation
pair then meets only the terms holding its x in one operand with those
holding its y in the other, all into one dict; a `RatFunc` operand takes
over any mixed product or sum through its reflected operators.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence

from .ac import Coefficient, Linear, _coefficient

__all__ = ["MultiPoly", "RatFunc"]

_BITS = 16  # width of one exponent field
_MASK = (1 << _BITS) - 1
MAX_EXPONENT = _MASK  # largest exponent of one variable


class MultiPoly(Linear):
    """Polynomial over a fixed tuple of variable names, on packed monomials."""

    __slots__ = ("vars", "_bound")  # _bound: no exponent of any term exceeds it

    def __init__(self, vars: Sequence[str], terms: Mapping[tuple[int, ...], Coefficient] | None = None):
        self.vars = tuple(vars)
        n = len(self.vars)
        self._terms = {}
        self._bound = 0
        for e, c in (terms or {}).items():
            if len(e) != n:
                raise ValueError(f"exponent vector {e!r} does not match {n} variables")
            key = sum(e)  # the degree field
            for k in e:
                if not 0 <= k <= MAX_EXPONENT:
                    raise ValueError(f"exponent {k} outside 0..{MAX_EXPONENT}")
                key = key << _BITS | k
            self._terms[key] = _coefficient(c)
            self._bound = max((self._bound, *e))

    def _new(self, terms: dict, other: "MultiPoly | None" = None) -> "MultiPoly":
        out = object.__new__(MultiPoly)
        out.vars = self.vars
        out._terms = terms
        if not terms:
            out._bound = 0
        elif other is None or other._bound < self._bound:
            out._bound = self._bound
        else:
            out._bound = other._bound
        return out

    def _unit(self, i: int) -> int:
        """The packed monomial of variable i."""
        n = len(self.vars)
        return 1 << _BITS * n | 1 << _BITS * (n - 1 - i)

    def _exponents(self, key: int) -> tuple[int, ...]:
        n = len(self.vars)
        return tuple(key >> _BITS * (n - 1 - i) & _MASK for i in range(n))

    @classmethod
    def zero(cls, vars: Sequence[str]) -> "MultiPoly":
        return cls(vars)

    @classmethod
    def constant(cls, vars: Sequence[str], c) -> "MultiPoly":
        out = cls(vars)
        c = _coefficient(c)
        if c:
            out._terms[0] = c
        return out

    @classmethod
    def one(cls, vars: Sequence[str]) -> "MultiPoly":
        return cls.constant(vars, 1)

    @classmethod
    def variable(cls, vars: Sequence[str], name: str) -> "MultiPoly":
        out = cls(vars)
        if name not in out.vars:
            raise ValueError(f"unknown variable {name!r}")
        out._terms[out._unit(out.vars.index(name))] = 1
        out._bound = 1
        return out

    def terms(self) -> list[tuple[tuple[int, ...], Coefficient]]:
        """(exponent tuple, coefficient) pairs, deg-lex greatest first."""
        return [(self._exponents(k), self._terms[k]) for k in sorted(self._terms, reverse=True)]

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
        bound = self._bound + other._bound
        if bound > MAX_EXPONENT:
            raise ValueError(f"a product exponent could exceed {MAX_EXPONENT}")
        a, b = self._terms, other._terms
        if len(a) == 1:
            a, b = b, a
        if len(b) == 1:
            # one-term factor: shift every key, scale every coefficient
            [(e2, c2)] = b.items()
            terms = {e1 + e2: c1 * c2 for e1, c1 in a.items()}
        else:
            acc: dict[int, Coefficient] = {}
            get = acc.get
            for e1, c1 in a.items():
                for e2, c2 in b.items():
                    k = e1 + e2
                    acc[k] = get(k, 0) + c1 * c2
            terms = {k: c for k, c in acc.items() if c}
        out = self._new(terms)
        if terms:
            out._bound = bound
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = MultiPoly.one(self.vars)
        for _ in range(n):
            out = out * self
        return out

    def _pair_bracket(self, other: "MultiPoly", pairs: Sequence[tuple[int, int, int | None]]) -> "MultiPoly":
        """Sum over the index triples (x, y, t) of `pairs` of
        v_t * (d_x(self) d_y(other) - d_x(other) d_y(self)), where v_t is
        variable t, or 1 when t is None.

        Each operand first lists, per variable it holds, the terms that
        hold it (`_derivative_lists`).  A term pair of exponents e, f then
        adds c1*c2*(e_x*f_y - f_x*e_y) at the monomial key k1 + k2 -
        unit(x) - unit(y) + unit(t), read from the x list of one operand
        and the y list of the other; the zeros are dropped once at the
        end.  Both polynomials must be over the same variable tuple.
        """
        twisted = any(t is not None for _, _, t in pairs)
        bound = self._bound + other._bound + twisted
        if bound > MAX_EXPONENT:
            raise ValueError(f"a bracket exponent could exceed {MAX_EXPONENT}")
        n = len(self.vars)
        a, b = self._derivative_lists(), other._derivative_lists()
        acc: dict[int, Coefficient] = {}
        get = acc.get
        for x, y, t in pairs:
            sx, sy = _BITS * (n - 1 - x), _BITS * (n - 1 - y)
            shift = (0 if t is None else self._unit(t)) - self._unit(x) - self._unit(y)
            for p, q, sign in ((a, b, 1), (b, a, -1)):
                dx, dy = p.get(sx), q.get(sy)
                if dx and dy:
                    keys1, coefficients1 = dx
                    keys2, coefficients2 = dy
                    for k1, c1 in zip(keys1, coefficients1):
                        # the twist, both units and the sign ride on the
                        # d_x term, so that k1 + k2 is the output key
                        k1 += shift
                        c1 *= sign
                        for k2, c2 in zip(keys2, coefficients2):
                            k = k1 + k2
                            acc[k] = get(k, 0) + c1 * c2
        out = self._new({k: c for k, c in acc.items() if c})
        if out._terms:
            out._bound = bound
        return out

    def _derivative_lists(self) -> dict[int, tuple[list[int], list[Coefficient]]]:
        """By the shift of each exponent field that some term holds: the
        keys of the terms holding it and their coefficients times its
        exponent, in term order.

        A term costs its number of variables: the walk takes the highest
        nonzero field of the key and clears it until none is left.  Only
        the fields of variables present get lists.
        """
        fields = (1 << _BITS * len(self.vars)) - 1  # all but the degree
        out: dict[int, tuple[list[int], list[Coefficient]]] = {}
        get = out.get
        for k, c in self._terms.items():
            rest = k & fields
            while rest:
                s = (rest.bit_length() - 1) & -_BITS
                e = rest >> s
                rest ^= e << s
                lists = get(s)
                if lists is None:
                    out[s] = ([k], [c * e])
                else:
                    lists[0].append(k)
                    lists[1].append(c * e)
        return out

    def derivative(self, name: str) -> "MultiPoly":
        if name not in self.vars:
            raise ValueError(f"unknown variable {name!r}")
        i = self.vars.index(name)
        shift = _BITS * (len(self.vars) - 1 - i)
        unit = self._unit(i)
        # distinct monomials stay distinct, so no two terms meet
        return self._new(
            {k - unit: c * e for k, c in self._terms.items() if (e := k >> shift & _MASK)}
        )

    def leading_coefficient(self) -> Coefficient:
        """Coefficient of the deg-lex greatest monomial (0 for the zero poly)."""
        if not self._terms:
            return 0
        return self._terms[max(self._terms)]

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
        if len(den_terms) == 1 and 0 in den_terms:  # a constant denominator
            return RatFunc(self.num * (1 / Fraction(den_terms[0])))
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
