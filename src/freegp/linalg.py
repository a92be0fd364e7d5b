"""Exact linear algebra over the rationals.

One sparse row-reduction engine with deterministic pivoting (leftmost
nonzero column, rows in arrival order), incremental rank tracking,
nullspace bases and linear solves.  Rows come in dense, as sequences of
numbers of any mix of types; one `itertools.compress` pass over the
column indices picks out the nonzero cells, testing each cell's truth
in C (only a `Fraction` cell costs a Python `__bool__` call), and only
those entries are stored, each basis row a dict from column to nonzero
value.  Entries are integer-first like the `Linear` types: each is
normalized once on entry (`int` when integral, else `Fraction`, so a
`float` is read exactly) and the arithmetic runs without
re-normalizing, so integer rows eliminated with unit pivots stay `int`.
The basis is kept in reduced row-echelon form, which is unique for a
row space, so the rank after each row, the nullspace vectors and the
solutions do not depend on how the elimination is organized.
`residual` takes a row as its nonzero entries and returns what is left
of it once every pivot column is cleared, without adding it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from typing import Mapping, Sequence

from .ac import Coefficient, _charge, _coefficient

__all__ = ["RowReducer", "solve", "primitive_integer_vector"]


class RowReducer:
    """Maintains the reduced row echelon basis of the row space, each
    row stored sparse with its leading entry 1."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        # compress() over a tuple reuses its ints; a range would allocate
        # every column index above 256 again for each row
        self._columns = tuple(range(ncols))
        self.pivots: dict[int, dict[int, Coefficient]] = {}  # pivot column -> nonzeros

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def residual(self, row: Mapping[int, Coefficient]) -> dict[int, Coefficient]:
        """`row`, given by its nonzero `int`/`Fraction` entries, minus the
        combination of basis rows that clears every pivot column; empty
        when `row` is in the row space.  Charges the row's nonzeros."""
        _charge(len(row))
        work = dict(row)
        pivots = self.pivots
        # Subtracting a basis row changes no other pivot column (the basis
        # is reduced), so one pass over the row's pivot entries clears them.
        for col in [j for j in work if j in pivots]:
            _subtract(work, work[col], pivots[col])
        return work

    def add(self, row: Sequence[Coefficient]) -> bool:
        """Reduce `row` against the basis; returns True if rank grew."""
        if len(row) != self.ncols:
            raise ValueError("row length mismatch")
        work = {}
        for j in compress(self._columns, row):  # the nonzero cells
            x = row[j]
            work[j] = x if type(x) is int else _coefficient(x)
        work = self.residual(work)
        if not work:
            return False
        pivots = self.pivots
        lead = min(work)
        inv = work[lead]
        if inv != 1:
            inv = _coefficient(Fraction(1) / inv)  # -1 stays an int
            work = {j: x * inv for j, x in work.items()}
        for prow in pivots.values():
            c = prow.get(lead)
            if c is not None:
                _subtract(prow, c, work)
        pivots[lead] = work
        return True

    def nullspace(self) -> list[list[Coefficient]]:
        """Basis of the kernel, one vector per free column, in column order."""
        basis: dict[int, list[Coefficient]] = {}
        for f in range(self.ncols):
            if f not in self.pivots:
                vec = basis[f] = [0] * self.ncols
                vec[f] = 1
        # every nonzero off the pivot of a reduced row is in a free column
        for p, prow in self.pivots.items():
            for j, c in prow.items():
                if j != p:
                    basis[j][p] = -c
        return list(basis.values())


def _subtract(
    target: dict[int, Coefficient], c: Coefficient, prow: dict[int, Coefficient]
) -> None:
    """target -= c * prow, dropping the entries that cancel."""
    for j, v in prow.items():
        x = target.get(j)
        if x is None:
            target[j] = -c * v
        else:
            x -= c * v
            if x:
                target[j] = x
            else:
                del target[j]


def solve(
    rows: Sequence[Sequence[Coefficient]], rhs: Sequence[Coefficient]
) -> list[Coefficient] | None:
    """One exact solution of A x = b (free coordinates zero), or None."""
    if len(rows) != len(rhs):
        raise ValueError("matrix/vector size mismatch")
    ncols = len(rows[0]) if rows else 0
    red = RowReducer(ncols + 1)
    for row, b in zip(rows, rhs):
        red.add(list(row) + [b])
    if ncols in red.pivots:
        return None  # a pivot in the augmented column: inconsistent
    sol: list[Coefficient] = [0] * ncols
    for col, prow in red.pivots.items():
        if ncols in prow:
            sol[col] = prow[ncols]
    return sol


def primitive_integer_vector(vec: Sequence[Coefficient]) -> list[int]:
    """Scale to coprime integers with the first nonzero entry positive."""
    nonzero = [x for x in vec if x]
    if not nonzero:
        return [0] * len(vec)
    mult = lcm(*(x.denominator for x in nonzero))
    ints = [int(x * mult) for x in vec]
    div = gcd(*ints)
    out = [x // div for x in ints]
    first = next(x for x in out if x)
    if first < 0:
        out = [-x for x in out]
    return out
