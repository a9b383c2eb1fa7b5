"""Exact rational matrix routines."""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from conftest import reference_gauss_jordan, reference_invert, reference_solve_many
from qrob import linalg
from qrob.linalg import fraction_from_str, fraction_to_str


# The kernel takes and returns sparse rows {column: value}; these adapters run
# the dense comparisons below through it, a matrix being a list of rows.
def mat(rows):
    return [[Fraction(x) for x in row] for row in rows]


def _sparse(a):
    return [{j: x for j, x in enumerate(row) if x} for row in a]


def _dense(rows, width):
    return [[row.get(j, Fraction(0)) for j in range(width)] for row in rows]


def _width(a):
    return len(a[0]) if a else 0


def rref(a):
    rows, pivots = linalg.rref(_sparse(a))
    return _dense(rows, _width(a)), pivots


def rank(a):
    return linalg.rank(_sparse(a))


def row_space_basis(a):
    return _dense(linalg.row_space_basis(_sparse(a)), _width(a))


def nullspace(a, ncols=None):
    ncols = _width(a) if ncols is None else ncols
    return _dense(linalg.nullspace(_sparse(a), ncols), ncols)


def solve_many(a, bs):
    sparse_bs = [{i: x for i, x in enumerate(b) if x} for b in bs]
    xs = linalg.solve_many(_sparse(a), sparse_bs, _width(a))
    return [None if x is None else _dense([x], _width(a))[0] for x in xs]


def invert(a):
    inv = linalg.invert(_sparse(a))
    return None if inv is None else _dense(inv, len(a))


def pivot_rows_cols(a):
    return linalg.pivot_rows_cols(_sparse(a))


def test_rref_and_rank():
    a = mat([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    r, pivots = rref(a)
    assert pivots == [0, 1]
    assert rank(a) == 2
    assert rank(mat([[0, 0], [0, 0]])) == 0


def test_solve_exact():
    a = mat([[2, 0], [0, 3]])
    assert solve_many(a, [[Fraction(1), Fraction(1)]]) == [[Fraction(1, 2), Fraction(1, 3)]]
    # inconsistent
    assert solve_many(mat([[1, 1], [1, 1]]), [[Fraction(0), Fraction(1)]]) == [None]
    # underdetermined: free variables pinned to zero
    assert solve_many(mat([[1, 1]]), [[Fraction(2)]]) == [[Fraction(2), Fraction(0)]]


def test_solve_many_matches_solve():
    # several right-hand sides in one elimination solve as each one alone
    a = mat([[1, 2], [3, 4], [4, 6]])
    bs = [[Fraction(3), Fraction(7), Fraction(10)], [Fraction(0), Fraction(1), Fraction(5)]]
    many = solve_many(a, bs)
    assert many == [solve_many(a, [b])[0] for b in bs]
    assert many[0] == [Fraction(1), Fraction(1)] and many[1] is None


def test_nullspace():
    a = mat([[1, 1, 0], [0, 0, 1]])
    basis = nullspace(a)
    assert basis == [[Fraction(-1), Fraction(1), Fraction(0)]]
    assert nullspace([], ncols=2) == [[1, 0], [0, 1]]


def test_row_space_basis_canonical():
    a = mat([[2, 4], [1, 2], [0, 1]])
    assert row_space_basis(a) == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]


def test_invert():
    a = mat([[0, 1], [1, 0]])
    assert invert(a) == [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    assert invert(mat([[1, 1], [1, 1]])) is None


def test_pivot_rows_cols_give_invertible_block():
    a = mat([[0, 0, 1], [0, 0, 2], [3, 0, 0]])
    rows, cols = pivot_rows_cols(a)
    block = [[a[r][c] for c in cols] for r in rows]
    assert invert(block) is not None
    assert len(rows) == rank(a)


def _det_oracle(m):
    """Determinant by permutation expansion."""
    total = Fraction(0)
    for perm in permutations(range(len(m))):
        inversions = sum(
            perm[i] > perm[j] for i in range(len(perm)) for j in range(i + 1, len(perm))
        )
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def _pivots_oracle(a):
    """Columns left to right; each takes the lowest unused row that keeps the
    chosen minor nonzero."""
    rows, cols = [], []
    for c in range(len(a[0]) if a else 0):
        for r in range(len(a)):
            if r in rows:
                continue
            minor = [[a[i][j] for j in cols + [c]] for i in rows + [r]]
            if _det_oracle(minor) != 0:
                rows.append(r)
                cols.append(c)
                break
    return rows, cols


def _random_matrix(rng):
    width = rng.randint(1, 5)
    m = [
        [Fraction(rng.choice((0, 0, 0, 1, -1, 2, -3)), rng.choice((1, 1, 2)))
         for _ in range(width)]
        for _ in range(rng.randint(1, 5))
    ]
    for i in range(len(m)):
        roll = rng.random()
        if roll < 0.15:
            m[i] = [Fraction(0)] * width
        elif roll < 0.35:
            # a repeat, or a multiple, of an earlier row
            m[i] = [rng.choice((1, -1, 2)) * x for x in m[rng.randrange(i + 1)]]
    return m


def test_pivot_rows_cols_match_minor_oracle():
    rng = random.Random(20231207)
    for _ in range(400):
        a = _random_matrix(rng)
        assert pivot_rows_cols(a) == _pivots_oracle(a), a
    assert pivot_rows_cols([]) == ([], [])
    assert pivot_rows_cols(mat([[0, 0], [0, 0]])) == ([], [])
    # repeated and zero rows are never chosen twice
    assert pivot_rows_cols(mat([[0, 1], [1, 1], [1, 1], [2, 0]])) == ([1, 0], [0, 1])


def _sparse_matrices(rng):
    """Seeded sparse Fraction matrices: no rows, zero width, zero, wide, tall,
    square and singular ones, at several densities."""
    yield []
    yield [[], []]
    shapes = [(1, 1), (2, 2), (3, 3), (6, 6), (2, 7), (3, 9), (7, 2), (9, 3), (5, 8)]
    for rows, cols in shapes:
        for density in (0.0, 0.15, 0.4, 1.0):
            for _ in range(4):
                m = [
                    [
                        Fraction(rng.choice((1, -1, 2, -3, 5)), rng.choice((1, 1, 2, 3)))
                        if rng.random() < density else Fraction(0)
                        for _ in range(cols)
                    ]
                    for _ in range(rows)
                ]
                yield m
                if rows > 1:
                    # singular: one row becomes a multiple of another, plus a
                    # third when there is one
                    i, j, *k = rng.sample(range(rows), min(rows, 3))
                    f = Fraction(rng.choice((1, -2, 3)), rng.choice((1, 2)))
                    m = [row[:] for row in m]
                    m[i] = [f * x for x in m[j]]
                    if k:
                        m[i] = [x + y for x, y in zip(m[i], m[k[0]])]
                    yield m


def test_elimination_matches_dense_reference():
    rng = random.Random(20261018)
    count = 0
    for a in _sparse_matrices(rng):
        before = [row[:] for row in a]
        rows, pivots, order = reference_gauss_jordan(a)
        assert rref(a) == (rows, pivots), a
        assert rank(a) == len(pivots)
        assert pivot_rows_cols(a) == (order[: len(pivots)], pivots), a
        cols = len(a[0]) if a else 0
        x0 = [Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(cols)]
        bs = [
            [sum((c * x for c, x in zip(row, x0)), Fraction(0)) for row in a],
            [Fraction(rng.randint(-2, 2)) for _ in a],
            [Fraction(0) for _ in a],
        ]
        assert solve_many(a, bs) == reference_solve_many(a, bs), a
        if len(a) == cols:
            assert invert(a) == reference_invert(a), a
        assert a == before
        count += 1
    assert count > 250


def test_sparse_rows_take_any_column_ids():
    big = 10**9
    rows = [{big + 5: Fraction(2), 3 * big: Fraction(1)}, {big + 5: Fraction(1)}, {7: Fraction(3)}]
    assert linalg.rref(rows) == ([{7: 1}, {big + 5: 1}, {3 * big: 1}], [7, big + 5, 3 * big])
    assert linalg.pivot_rows_cols(rows) == ([2, 0, 1], [7, big + 5, 3 * big])
    assert rows[0] == {big + 5: 2, 3 * big: 1}  # the input is not changed
    assert linalg.solve_many(rows[:2], [{0: Fraction(2)}], 3 * big + 1) == [{3 * big: 2}]


def test_empty_rows_are_never_pivots():
    assert linalg.rref([{}, {}]) == ([{}, {}], [])
    assert linalg.rank([]) == linalg.rank([{}]) == 0
    assert linalg.row_space_basis([{}, {1: Fraction(2)}]) == [{1: 1}]
    assert linalg.pivot_rows_cols([{}, {0: Fraction(1)}]) == ([1], [0])
    assert linalg.nullspace([{}], 2) == [{0: 1}, {1: 1}]
    assert linalg.nullspace([], 0) == []
    assert linalg.solve_many([{}, {}], [{}], 3) == [{}]
    assert linalg.invert([{0: Fraction(1)}, {}]) is None


def test_one_nonzero_per_row_at_scale():
    # 3,000 rows over 1,000 columns a million apart, three rows per column
    rows = [{i % 1000 * 10**6: Fraction(i + 1)} for i in range(3000)]
    cols = [m * 10**6 for m in range(1000)]
    assert linalg.rank(rows) == 1000
    assert linalg.pivot_rows_cols(rows) == (list(range(1000)), cols)
    reduced, pivots = linalg.rref(rows)
    assert pivots == cols
    assert reduced == [{c: 1} for c in cols] + [{}] * 2000
    b = {i: Fraction(2 * (i + 1)) for i in range(3000)}
    assert linalg.solve_many(rows, [b], 10**9) == [{c: 2 for c in cols}]
    b[2999] += 1
    assert linalg.solve_many(rows, [b], 10**9) == [None]


def test_right_hand_side_on_a_row_without_coefficients_is_inconsistent():
    rows = [{0: Fraction(1)}, {}]
    assert linalg.solve_many(rows, [{1: Fraction(1)}, {0: Fraction(3)}], 1) == [None, {0: 3}]


def test_invert_takes_square_sparse_matrices():
    assert linalg.invert([{1: Fraction(2)}, {0: Fraction(1)}]) == [{1: 1}, {0: Fraction(1, 2)}]
    for bad in ([{0: Fraction(1), 2: Fraction(1)}, {1: Fraction(1)}], [{-1: Fraction(1)}]):
        with pytest.raises(ValueError):
            linalg.invert(bad)


def test_fraction_to_str_matches_fraction_str():
    for x in (0, 7, -12, Fraction(4, -6), Fraction(-10, 4), Fraction(6, 3), Fraction(0, 5)):
        assert fraction_to_str(x) == str(Fraction(x)), x


def test_fraction_strings():
    assert fraction_to_str(Fraction(-3, 6)) == "-1/2"
    assert fraction_from_str("-1/2") == Fraction(-1, 2)
    assert fraction_from_str("7") == 7
    for bad in ("0.5", "1e3", "a", "1/ 2"):
        with pytest.raises(ValueError):
            fraction_from_str(bad)


# a zero denominator, a trailing newline that `$` would match before,
# non-ASCII digits (Arabic-Indic one, three/four, fullwidth one), and values
# that are not strings
BAD_LITERALS = (
    "1/0", "-3/00", "0/0", "1\n", "1/2\n", "\u0661", "\u0663/\u0664", "\uff11",
    " 1", "1 ", "1/-2", "", 1, None, ["1"],
)


def test_fraction_literals_take_ascii_digits_and_a_nonzero_denominator():
    for bad in BAD_LITERALS:
        with pytest.raises(ValueError):
            fraction_from_str(bad)
    # an integral value is an int, whatever its spelling; any other is a Fraction
    for text, value in (
        ("+2", 2), ("-0", 0), ("0/5", 0), ("6/3", 2), ("-8/4", -2), ("0014/0007", 2),
        ("007/0014", Fraction(1, 2)), ("-3/6", Fraction(-1, 2)), ("5/3", Fraction(5, 3)),
    ):
        x = fraction_from_str(text)
        assert x == value and type(x) is type(value), text
        assert type(x) is int or x.denominator != 1, text
