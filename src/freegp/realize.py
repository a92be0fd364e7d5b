"""Differential realizations of the generic Poisson bracket.

On the field of rational functions in x1,y1,...,xn,yn the bracket
{a,b} = sum_i d_i(a) d'_i(b) - d_i(b) d'_i(a) is a Poisson bracket when
the derivation pairs commute (d_i = d/dx_i, d'_i = d/dy_i).  The
twisted pairs xi_i = y_{i+1} d/dx_i (indices wrapping at n) and
xi'_i = d/dy_i do not commute, and the same formula then gives a
generic Poisson bracket that fails Jacobi; staggered generator
assignments turn suitable bracket products into nonzero monomials in
the y variables, certifying non-identities.

Both derivations and the product keep polynomials, so evaluation is in
the polynomial ring: `MultiPoly` in, `MultiPoly` out.  The bracket is
one fused kernel over the packed monomials of both operands
(`MultiPoly._pair_bracket`): each operand lists once, per variable, the
terms that hold it with their derivative coefficients, and each pair i
multiplies the x_i list of one operand with the y_i list of the other,
accumulating the whole sum into one dict, with no derivative
polynomials or partial sums.  A realization supplies only the variable
indices of its pairs and twists.
Rational-function inputs (`freegp.ratfunc.RatFunc`) are accepted as well
and give a `RatFunc` back: {p/q, r/s} reduces to four polynomial
brackets by the quotient rule of a biderivation.  `evaluate_gp` is the
GP homomorphism fold of `freegp.gp` with the realized bracket.

`identity_witness_search` looks for an assignment with a nonzero value:
a structured staggered one, then seeded random ones.  The commuting
realization is a Poisson algebra, where a Poisson identity such as the
jacobiator is zero under every assignment.  So under poisson a
polylinear element whose `identities.poisson_normal_form` is zero gets
None at once, with no random attempt, whenever the form costs less
than one attempt.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from .ac import Variable
from .gp import GPPoly, _homomorphism, _monomial_key, is_polylinear
from .identities import _poisson_coordinates, _poisson_form_size
from .ratfunc import MultiPoly, RatFunc

__all__ = [
    "Realization",
    "realized_bracket",
    "evaluate_gp",
    "structured_witness",
    "Witness",
    "identity_witness_search",
]


@dataclass(frozen=True)
class Realization:
    """A derivation-pair model: kind "poisson" (commuting pairs) or
    "gps" (twisted pairs) of size n."""

    kind: str
    n: int

    def __post_init__(self):
        if self.kind not in ("poisson", "gps"):
            raise ValueError(f"unknown realization kind {self.kind!r}")
        if self.n < 1:
            raise ValueError("realization size must be positive")

    @cached_property
    def var_names(self) -> tuple[str, ...]:
        out = []
        for i in range(1, self.n + 1):
            out.append(f"x{i}")
            out.append(f"y{i}")
        return tuple(out)

    def variable(self, name: str) -> MultiPoly:
        return MultiPoly.variable(self.var_names, name)

    def constant(self, c) -> MultiPoly:
        return MultiPoly.constant(self.var_names, c)

    @cached_property
    def _pairs(self) -> tuple[tuple[int, int, int | None], ...]:
        """(x_i, y_i, twist) variable indices of each derivation pair; the
        twist is y_{i+1 mod n} for gps and None for poisson."""
        twist = self.kind == "gps"
        return tuple(
            (2 * i, 2 * i + 1, 2 * ((i + 1) % self.n) + 1 if twist else None)
            for i in range(self.n)
        )


def _polynomial_bracket(a: MultiPoly, b: MultiPoly, realization: Realization) -> MultiPoly:
    names = realization.var_names
    if a.vars != names or b.vars != names:
        raise ValueError(f"operands must be polynomials over {', '.join(names)}")
    return a._pair_bracket(b, realization._pairs)


def realized_bracket(
    a: MultiPoly | RatFunc, b: MultiPoly | RatFunc, realization: Realization
) -> MultiPoly | RatFunc:
    """{a,b} = sum_i d_i(a) d'_i(b) - d_i(b) d'_i(a) over the derivation
    pairs of the realization, over the term pairs of a and b that hold
    a pair's variables.

    A `RatFunc` operand {p/q, r/s} reduces to polynomial brackets by the
    quotient rule of a biderivation:
    (qs{p,r} - qr{p,s} - ps{q,r} + pr{q,s}) / (q^2 s^2).
    """
    if not (isinstance(a, RatFunc) or isinstance(b, RatFunc)):
        return _polynomial_bracket(a, b, realization)
    a, b = (f if isinstance(f, RatFunc) else RatFunc(f) for f in (a, b))
    p, q, r, s = a.num, a.den, b.num, b.den

    def bracket(u, v):
        return _polynomial_bracket(u, v, realization)

    num = q * s * bracket(p, r) - q * r * bracket(p, s) - p * s * bracket(q, r) + p * r * bracket(q, s)
    return RatFunc(num, q * q * s * s)


def evaluate_gp(
    f: GPPoly, assignment: Mapping[Variable, MultiPoly], realization: Realization
) -> MultiPoly:
    """Image of f under the homomorphism extending the assignment, with
    the realized bracket and the ordinary product."""
    missing = sorted(f.variables() - set(assignment))
    if missing:
        raise ValueError(f"assignment does not cover {missing[0]}")

    def bracket(a: MultiPoly, b: MultiPoly) -> MultiPoly:
        return realized_bracket(a, b, realization)

    return _homomorphism(f, assignment.__getitem__, bracket, realization.constant)


def _witness_plan(f: GPPoly):
    """Chosen monomial whose factors all have degree 2 or 3, the block
    staggering, and the minimal gps size (the last block's output index);
    None if no monomial qualifies."""
    if not is_polylinear(f):
        raise ValueError("structured witnesses need a polylinear input")
    candidates = [
        m
        for m in f._terms
        if m and all(w.degree in (2, 3) for w in m)
    ]
    if not candidates:
        return None
    chosen = min(candidates, key=_monomial_key)
    starts = []
    k = 1
    for w in chosen:
        h = w.degree - 1
        starts.append(k)
        k += h + 1
    minimal = starts[-1] + (chosen[-1].degree - 1)
    return chosen, starts, minimal


def _staggered_assignment(plan, n: int) -> dict[Variable, MultiPoly] | None:
    """Build the staggered x/y assignment over n derivation pairs, or
    None when the generators it mentions do not all exist."""
    chosen, starts, minimal = plan
    if n < minimal - 1:  # the largest x index is minimal - 1
        return None
    names = Realization("gps", n).var_names
    assignment: dict[Variable, MultiPoly] = {}
    for w, k in zip(chosen, starts):
        spine = []
        cur = w
        while not cur.is_leaf:
            spine.append(cur.left)
            cur = cur.right
        assignment[cur.var] = MultiPoly.variable(names, f"y{k}")
        for offset, leafw in enumerate(reversed(spine)):
            assignment[leafw.var] = MultiPoly.variable(names, f"x{k + offset}")
    return assignment


def structured_witness(f: GPPoly, m: int) -> dict[Variable, MultiPoly] | None:
    """The staggered x/y assignment turning the leading pair/triple
    bracket product of f into a product of single y generators.

    Block i starting at k sends the innermost right leaf to y_k and the
    remaining leaves, inside out, to x_k, x_{k+1}, ...; the block then
    evaluates to y_{k + height}.  Returns None when no monomial of f is
    a product of degree-2/3 factors; raises when m is too small.
    """
    plan = _witness_plan(f)
    if plan is None:
        return None
    if m < plan[2]:
        raise ValueError(f"m={m} is too small; the minimal sufficient m is {plan[2]}")
    return _staggered_assignment(plan, m)


@dataclass(frozen=True)
class Witness:
    assignment: dict[Variable, MultiPoly]
    value: MultiPoly
    method: str
    attempts: int


def _random_polynomial(var_names: tuple[str, ...], rng: random.Random) -> MultiPoly:
    """Dense random polynomial of total degree <= 2, coefficients in -2..2.

    The coefficients are drawn for the constant, the linear monomials and
    then the quadratic ones in `combinations_with_replacement` order."""
    out = MultiPoly.zero(var_names)
    units = [out._unit(i) for i in range(len(var_names))]
    keys = [0, *units, *(u + v for u, v in itertools.combinations_with_replacement(units, 2))]
    for k in keys:
        c = rng.randint(-2, 2)
        if c:
            out._terms[k] = c
    out._bound = 2 if out._terms else 0
    return out


def _attempt_size(f: GPPoly, realization: Realization) -> int:
    """Term pairs of one random witness attempt on f, whose images are
    dense polynomials of degree 2 in N = 2m variables (`_random_polynomial`).

    A polynomial of degree d has at most S(d) = C(N + d, d) terms, and
    S(d - 1) of them hold a given variable.  A bracket of degrees a and b
    pairs N * S(a - 1) * S(b - 1) terms and has degree a + b - 2, plus 1
    under gps; each distinct word is evaluated once.  A product of
    degrees a and b pairs S(a) * S(b) terms, and adding a monomial's
    value to the running sum copies at most S(top) terms, for the top
    degree so far.
    """
    n = len(realization.var_names)
    twist = realization.kind == "gps"
    degrees: dict = {}
    pairs = 0

    def size(d: int) -> int:
        return math.comb(n + d, d)

    def degree(w) -> int:
        nonlocal pairs
        if w not in degrees:
            if w.is_leaf:
                degrees[w] = 2
            else:
                a, b = degree(w.left), degree(w.right)
                pairs += n * size(a - 1) * size(b - 1)
                degrees[w] = a + b - 2 + twist
        return degrees[w]

    top = 0
    for m in f.monomials():
        d = 0
        for w in m:
            dw = degree(w)
            pairs += size(d) * size(dw)
            d += dw
        top = max(top, d)
        pairs += size(top)
    return pairs


def identity_witness_search(
    f: GPPoly,
    realization: Realization,
    budget: int = 200,
    seed: int = 0,
    max_term_pairs: int | None = None,
) -> Witness | None:
    """Look for an assignment where f evaluates to something nonzero.

    Tries the structured staggered assignment first when it applies,
    then seeded random polynomial assignments of degree <= 2; candidates
    are evaluated in a fixed order, so results are reproducible.  With
    `max_term_pairs`, raises `ValueError` before the first random attempt
    when `budget` attempts of `_attempt_size` each exceed it.

    Under poisson a polylinear f then gets its `poisson_normal_form`
    when the letters that form writes (`_poisson_form_size`) are no more
    than the term pairs of one attempt.  A zero form returns None with
    no random attempt, since a Poisson identity evaluates to zero in
    this Poisson algebra.  A letter costs a fraction of a term pair, so
    a nonzero form adds less than one attempt to the search; the letters
    grow as 2^degree in each factor, so a long word never reaches it.
    """
    if budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    polylinear = is_polylinear(f)
    if polylinear:
        plan = _witness_plan(f)
        assignment = _staggered_assignment(plan, realization.n) if plan else None
        if assignment is not None:
            value = evaluate_gp(f, assignment, realization)
            if not value.is_zero():
                return Witness(assignment, value, "structured", 0)
    if not budget:
        return None
    size = _attempt_size(f, realization)
    if max_term_pairs is not None and budget * size > max_term_pairs:
        raise ValueError(f"term pairs={budget * size} exceeds the bound {max_term_pairs}")
    if (
        realization.kind == "poisson"
        and polylinear
        and _poisson_form_size(f) <= size
        and not _poisson_coordinates(f)
    ):
        return None
    rng = random.Random(seed)
    names = realization.var_names
    variables = sorted(f.variables())
    for attempt in range(1, budget + 1):
        assignment = {v: _random_polynomial(names, rng) for v in variables}
        value = evaluate_gp(f, assignment, realization)
        if not value.is_zero():
            return Witness(assignment, value, "random", attempt)
    return None
