"""Exact rational linear algebra."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from freegp.linalg import RowReducer, primitive_integer_vector, solve

from helpers import DenseRowReducer, dense_solve


def test_rank_and_nullspace_small():
    rows = [
        [Fraction(1), Fraction(2), Fraction(3)],
        [Fraction(2), Fraction(4), Fraction(6)],
        [Fraction(0), Fraction(1), Fraction(1)],
    ]
    red = RowReducer(3)
    grew = [red.add(r) for r in rows]
    assert grew == [True, False, True]
    basis = red.nullspace()
    assert len(basis) == 1
    for row in rows:
        assert sum(a * b for a, b in zip(row, basis[0])) == 0


def test_nullspace_of_zero_map():
    assert RowReducer(2).nullspace() == [[1, 0], [0, 1]]


def test_solve_consistent():
    rows = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]]
    sol = solve(rows, [Fraction(3), Fraction(1)])
    assert sol == [Fraction(2), Fraction(1)]


def test_solve_inconsistent():
    rows = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]]
    assert solve(rows, [Fraction(1), Fraction(3)]) is None


def test_unit_pivot_system_stays_integral():
    # +-1 rows whose elimination meets only +-1 leading entries, -1 among
    # them: the reduced basis is integral and every entry stays an `int`
    rows = [
        [-1, 1, 0, 0, 1],
        [1, 0, -1, 0, 0],
        [0, -1, 0, 1, -1],
        [0, 0, 1, -1, 0],
    ]
    red = RowReducer(5)
    assert [red.add(r) for r in rows] == [True, True, True, False]
    assert red.pivots == {0: {0: 1, 3: -1}, 1: {1: 1, 3: -1, 4: 1}, 2: {2: 1, 3: -1}}
    for prow in red.pivots.values():
        assert all(type(v) is int for v in prow.values())
    assert red.nullspace() == [[1, 1, 1, 1, 0], [0, -1, 0, 0, 1]]
    assert all(type(x) is int for vec in red.nullspace() for x in vec)


def test_float_entries_are_stored_exactly():
    red = RowReducer(3)
    red.add([0, 0.1, 0.3])
    red.add([0.5, 0.25, 0])
    # 0.1 and 0.3 are the binary fractions nearest them, not 1/10 and 3/10
    third = Fraction(0.3) / Fraction(0.1)
    assert third != 3
    assert red.pivots == {1: {1: 1, 2: third}, 0: {0: 1, 2: -third / 2}}
    for prow in red.pivots.values():
        assert all(type(v) in (int, Fraction) for v in prow.values())


def test_primitive_integer_vector():
    vec = [Fraction(-2, 3), Fraction(4, 3), Fraction(0)]
    assert primitive_integer_vector(vec) == [1, -2, 0]
    assert primitive_integer_vector([Fraction(0)] * 2) == [0, 0]


@settings(max_examples=40)
@given(st.integers(0, 10**6))
def test_random_consistency(seed):
    rng = random.Random(seed)
    nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
    rows = [
        [Fraction(rng.randint(-3, 3)) for _ in range(ncols)] for _ in range(nrows)
    ]
    # nullspace vectors annihilate every row
    red = RowReducer(ncols)
    for row in rows:
        red.add(row)
    for vec in red.nullspace():
        for row in rows:
            assert sum(a * b for a, b in zip(row, vec)) == 0
    # a planted solution is always recovered consistently
    planted = [Fraction(rng.randint(-3, 3)) for _ in range(ncols)]
    rhs = [sum(a * b for a, b in zip(row, planted)) for row in rows]
    sol = solve(rows, rhs)
    assert sol is not None
    for row, b in zip(rows, rhs):
        assert sum(a * s for a, s in zip(row, sol)) == b


# ------------------------------------------------- sparse engine against the dense oracle

_VALUES = [Fraction(1), Fraction(2), Fraction(1, 2), Fraction(2, 3)]
# zeros dominate, as in the kernel's systems; integers come as plain `int` too
entries = st.sampled_from(
    [0, 0, 0, Fraction(0), Fraction(0)]
    + [s * v for v in _VALUES for s in (1, -1)]
    + [1, -1, 2, -2]
)


@st.composite
def matrices(draw):
    """(ncols, rows): up to 10 rows of at most 8 columns, with planted zero
    rows and exact duplicates among them."""
    ncols = draw(st.integers(1, 8))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), max_size=10))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(rows)))
        if rows and draw(st.booleans()):
            rows.insert(at, list(rows[draw(st.integers(0, len(rows) - 1))]))
        else:
            rows.insert(at, [Fraction(0)] * ncols)
    return ncols, rows[:10]


def _dense_pivots(red: DenseRowReducer) -> dict[int, dict[int, Fraction]]:
    return {p: {j: v for j, v in enumerate(row) if v} for p, row in red.pivots.items()}


class TestAgainstDenseOracle:
    @settings(max_examples=300)
    @given(matrices())
    def test_add_pivots_and_nullspace(self, matrix):
        ncols, rows = matrix
        sparse, dense = RowReducer(ncols), DenseRowReducer(ncols)
        for row in rows:
            assert sparse.add(row) == dense.add(row)
            assert sparse.pivots == _dense_pivots(dense)
            for prow in sparse.pivots.values():
                assert all(type(v) in (int, Fraction) and v for v in prow.values())
        assert sparse.nullspace() == dense.nullspace()

    @settings(max_examples=300)
    @given(st.data())
    def test_residual(self, data):
        ncols = data.draw(st.integers(1, 8))
        small_rows = st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols)
        rows = data.draw(st.lists(small_rows, max_size=8))
        row = data.draw(small_rows)
        sparse, dense = RowReducer(ncols), DenseRowReducer(ncols)
        for r in rows:
            sparse.add(r)
            dense.add(r)
        residual = sparse.residual({j: x for j, x in enumerate(row) if x})
        assert all(v for v in residual.values())
        assert residual.keys().isdisjoint(dense.pivots)
        # row - residual is in the row space; row itself is when nothing is left
        assert not dense.add([x - residual.get(j, 0) for j, x in enumerate(row)])
        assert dense.add(row) == bool(residual)

    @settings(max_examples=300)
    @given(matrices(), st.data())
    def test_solve(self, matrix, data):
        ncols, rows = matrix
        rhs = data.draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
        expected = dense_solve(rows, rhs)
        got = solve(rows, rhs)
        assert got == expected
        if got is not None:
            assert all(type(x) in (int, Fraction) for x in got)

    @settings(max_examples=100)
    @given(matrices(), st.data())
    def test_solve_planted(self, matrix, data):
        ncols, rows = matrix
        planted = data.draw(st.lists(entries, min_size=ncols, max_size=ncols))
        rhs = [sum(a * b for a, b in zip(row, planted)) for row in rows]
        sol = solve(rows, rhs)
        assert sol == dense_solve(rows, rhs)
        assert sol is not None

    def test_wrong_length_row(self):
        for red in (RowReducer(3), DenseRowReducer(3)):
            with pytest.raises(ValueError):
                red.add([Fraction(1), Fraction(0)])
        with pytest.raises(ValueError):
            solve([[1, 2], [1]], [0, 0])


# ------------------------------------------------- the dense-row scan on mixed cell types

ZEROS = [0, Fraction(0), 0.0]
# nonzeros of each type; the floats are binary fractions, read exactly
mixed_nonzeros = st.one_of(
    st.integers(-3, 3).filter(bool),
    st.sampled_from(_VALUES).flatmap(lambda v: st.sampled_from([v, -v])),
    st.integers(-12, 12).filter(bool).map(lambda k: k / 4),
)
mixed_cells = st.one_of(st.sampled_from(ZEROS), st.sampled_from(ZEROS), mixed_nonzeros)
integral_cells = st.one_of(
    st.sampled_from(ZEROS),
    st.integers(-3, 3).flatmap(lambda k: st.sampled_from([k, Fraction(k), float(k)])),
)


def cell_matrices(cells):
    """Up to 8 rows of one width (1 to 8) drawn from `cells`."""
    return st.integers(1, 8).flatmap(
        lambda n: st.lists(st.lists(cells, min_size=n, max_size=n), min_size=1, max_size=8)
    )


def _typed(pivots) -> dict:
    return {p: {j: (type(v), v) for j, v in row.items()} for p, row in pivots.items()}


class TestDenseRowScan:
    @settings(max_examples=300)
    @given(cell_matrices(mixed_cells))
    def test_mixed_zero_and_nonzero_types_match_dense_oracle(self, rows):
        ncols = len(rows[0])
        sparse, dense = RowReducer(ncols), DenseRowReducer(ncols)
        for row in rows:
            assert sparse.add(row) == dense.add(row)
            assert sparse.pivots == _dense_pivots(dense)
        assert sparse.nullspace() == dense.nullspace()

    @settings(max_examples=300)
    @given(cell_matrices(integral_cells))
    def test_integral_entries_are_stored_as_int(self, rows):
        # the same rows with every cell an `int` reduce to the same pivots,
        # entry types included: an integral cell enters as an `int`
        ncols = len(rows[0])
        mixed, ints = RowReducer(ncols), RowReducer(ncols)
        for row in rows:
            assert mixed.add(row) == ints.add([int(x) for x in row])
            assert _typed(mixed.pivots) == _typed(ints.pivots)
