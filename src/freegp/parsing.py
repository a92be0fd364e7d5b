"""Expression grammar shared by the command line and the tests.

    expr     := ['+'|'-'] term (('+'|'-') term)*
    term     := rational ('*' factor)* | factor ('*' factor)*
    factor   := VAR | '{' expr ',' expr '}' | '(' expr ')'
    VAR      := letter digits            (x1, t3, y12; no leading zero: x0, not x01)
    rational := integer ['/' integer]

Multiplication is always written '*'; juxtaposition is a syntax error
(variable names carry their own digits).  Whitespace is insignificant.
A bare rational is a valid term and a leading sign is allowed, so every
canonical form the kernel prints parses back to the same element.

One fold, `_evaluate`, reads a parse tree into the free generic Poisson
algebra (`to_gp`), the free associative algebra (`to_assoc`) or the
polynomial ring (`to_poly`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .ac import ACPoly, Coefficient, Variable, Word, _coefficient
from .assoc import AssocPoly, commutator
from .gp import GPPoly
from .ratfunc import MultiPoly

__all__ = [
    "MAX_DEPTH",
    "ParseError",
    "Expr",
    "Term",
    "VarFactor",
    "BracketFactor",
    "GroupFactor",
    "parse",
    "to_gp",
    "to_ac",
    "gp_to_ac",
    "to_assoc",
    "to_poly",
]

# Deepest '{'/'(' nesting accepted.  Parsing and evaluation recurse once
# per level, so deeper input would exhaust the interpreter's recursion
# limit; it is a ParseError instead.
MAX_DEPTH = 200


class ParseError(Exception):
    def __init__(self, message: str, line: int = 0, column: int = 0, expected: tuple[str, ...] = ()):
        self.message = message
        self.line = line
        self.column = column
        self.expected = expected
        super().__init__(str(self))

    def __str__(self) -> str:
        loc = f"{self.line}:{self.column}: " if self.line else ""
        tail = f" (expected {', '.join(self.expected)})" if self.expected else ""
        return f"{loc}{self.message}{tail}"


@dataclass(frozen=True)
class Token:
    kind: str  # VAR NUM { } ( ) , + - * / END
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in "{}(),+-*/":
            tokens.append(Token(ch, ch, line, col))
            col += 1
            i += 1
            continue
        # ASCII only: str.isdigit and str.isalpha accept other scripts
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            tokens.append(Token("NUM", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isascii() and ch.isalpha():
            j = i + 1
            while j < n and "0" <= text[j] <= "9":
                j += 1
            if j == i + 1:
                raise ParseError(
                    f"variable {ch!r} needs a numeric index", line, col, ("digits",)
                )
            if text[i + 1] == "0" and j > i + 2:
                raise ParseError(
                    f"variable {text[i:j]!r} has a leading zero in its index", line, col + 1
                )
            tokens.append(Token("VAR", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("END", "", line, col))
    return tokens


@dataclass(frozen=True)
class VarFactor:
    name: str


@dataclass(frozen=True)
class BracketFactor:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class GroupFactor:
    inner: "Expr"


@dataclass(frozen=True)
class Term:
    coefficient: Coefficient
    factors: tuple


@dataclass(frozen=True)
class Expr:
    terms: tuple[Term, ...]


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # open '{' and '(' around the current position

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected: tuple[str, ...]):
        tok = self.peek()
        what = "end of input" if tok.kind == "END" else f"{tok.text!r}"
        raise ParseError(f"unexpected {what}", tok.line, tok.column, expected)

    def expect(self, kind: str) -> Token:
        if self.peek().kind != kind:
            self.fail((kind,))
        return self.advance()

    def parse_expr(self) -> Expr:
        terms = []
        sign = 1
        if self.peek().kind in ("+", "-"):
            if self.advance().kind == "-":
                sign = -1
        terms.append(self.parse_term(sign))
        while self.peek().kind in ("+", "-"):
            sign = 1 if self.advance().kind == "+" else -1
            terms.append(self.parse_term(sign))
        return Expr(tuple(terms))

    def parse_term(self, sign: int) -> Term:
        coeff = sign
        factors = []
        tok = self.peek()
        if tok.kind == "NUM":
            coeff *= self.parse_rational()
        elif tok.kind in ("VAR", "{", "("):
            factors.append(self.parse_factor())
        else:
            self.fail(("number", "variable", "'{'", "'('"))
        while self.peek().kind == "*":
            self.advance()
            factors.append(self.parse_factor())
        return Term(coeff, tuple(factors))

    def parse_rational(self) -> Coefficient:
        num = int(self.expect("NUM").text)
        if self.peek().kind == "/":
            self.advance()
            den = int(self.expect("NUM").text)
            if den == 0:
                tok = self.tokens[self.pos - 1]
                raise ParseError("zero denominator", tok.line, tok.column)
            return _coefficient(Fraction(num, den))
        return num

    def parse_factor(self):
        tok = self.peek()
        if tok.kind == "VAR":
            return VarFactor(self.advance().text)
        if tok.kind not in ("{", "("):
            self.fail(("variable", "'{'", "'('"))
        if self.depth == MAX_DEPTH:
            raise ParseError(f"nesting deeper than {MAX_DEPTH} levels", tok.line, tok.column)
        self.depth += 1
        self.advance()
        if tok.kind == "{":
            left = self.parse_expr()
            self.expect(",")
            right = self.parse_expr()
            self.expect("}")
            factor = BracketFactor(left, right)
        else:
            inner = self.parse_expr()
            self.expect(")")
            factor = GroupFactor(inner)
        self.depth -= 1
        return factor


def parse(text: str) -> Expr:
    parser = _Parser(_tokenize(text))
    expr = parser.parse_expr()
    if parser.peek().kind != "END":
        parser.fail(("'+'", "'-'", "'*'", "end of input"))
    return expr


def _evaluate(expr: Expr, constant, variable, bracket):
    """Sum over the terms (there is at least one) of
    `constant(coefficient)` times the factors: a variable maps to
    `variable(name)`, a group to the fold of its inside, and a bracket to
    `bracket(left, right)` of its *unevaluated* sides, so a target without
    brackets rejects one before looking inside it."""
    total = None
    for term in expr.terms:
        g = constant(term.coefficient)
        for factor in term.factors:
            if isinstance(factor, VarFactor):
                g = g * variable(factor.name)
            elif isinstance(factor, BracketFactor):
                g = g * bracket(factor.left, factor.right)
            else:
                g = g * _evaluate(factor.inner, constant, variable, bracket)
        total = g if total is None else total + g
    return total


def to_gp(expr: Expr) -> GPPoly:
    """Evaluate in the free generic Poisson algebra (canonicalizing)."""
    return _evaluate(
        expr,
        GPPoly.constant,
        lambda name: GPPoly.generator(Variable.parse(name)),
        lambda left, right: to_gp(left).bracket(to_gp(right)),
    )


def gp_to_ac(g: GPPoly) -> ACPoly:
    """Reinterpret a sum of single bracket words as an AC element."""
    acc: dict[Word, Coefficient] = {}
    for m, c in g._terms.items():
        if len(m) != 1:
            raise ValueError(
                "not an anti-commutative element: products or constants present"
            )
        acc[m[0]] = c
    return ACPoly(acc)


def to_ac(expr: Expr) -> ACPoly:
    return gp_to_ac(to_gp(expr))


def to_assoc(expr: Expr) -> AssocPoly:
    """Evaluate in the free associative algebra on the variable names;
    '*' concatenates and braces are commutators."""
    return _evaluate(
        expr,
        lambda c: c * AssocPoly.one(),
        AssocPoly.letter,
        lambda left, right: commutator(to_assoc(left), to_assoc(right)),
    )


def to_poly(expr: Expr, var_names: tuple[str, ...]) -> MultiPoly:
    """Evaluate as a commutative polynomial over the given variables;
    brackets are rejected."""

    def variable(name: str) -> MultiPoly:
        if name not in var_names:
            raise ValueError(f"unknown realization variable {name!r}")
        return MultiPoly.variable(var_names, name)

    def bracket(left, right):
        raise ValueError("brackets are not allowed in realization assignments")

    return _evaluate(expr, lambda c: MultiPoly.constant(var_names, c), variable, bracket)
