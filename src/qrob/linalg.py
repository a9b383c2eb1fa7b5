"""Exact linear algebra over the rationals on sparse rows.

An exact rational is an int when integral and a Fraction otherwise, never a
float or a bool: values enter through `exact` or `fraction_from_str`, and
stay ints until `_eliminate` divides by a pivot other than +-1, the one
division. A row is a dict {column: int | Fraction} of its nonzero entries;
column ids are nonnegative integers, and a matrix is a list of rows. The
module holds no state: every function here is pure.
"""

from __future__ import annotations

import re
from fractions import Fraction

Rational = int | Fraction
SparseVec = dict[int, Rational]

_FRACTION_RE = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def exact(x) -> Rational:
    """x as an exact rational: an int when it is integral, else a Fraction."""
    if type(x) is int:
        return x
    f = x if type(x) is Fraction else Fraction(x)
    return f.numerator if f.denominator == 1 else f


def fraction_to_str(x: Rational) -> str:
    return str(exact(x))


def fraction_from_str(s: str) -> Rational:
    """An integer or a/b with ASCII digits and b nonzero, else ValueError; an
    int when integral. Decimal or exponent notation is rejected: file formats
    are bit-exact."""
    match = _FRACTION_RE.fullmatch(s) if isinstance(s, str) else None
    if match is None:
        raise ValueError(f"not an exact rational literal: {s!r}")
    num, den = match.groups()
    if den is not None and not int(den):
        raise ValueError(f"zero denominator in {s!r}")
    return int(num) if den is None else exact(Fraction(int(num), int(den)))


def _copy(rows: list[SparseVec]) -> list[SparseVec]:
    return [{c: v for c, v in row.items() if v} for row in rows]


def _eliminate(m: list[SparseVec], ncols: int | None = None) -> tuple[list[int], list[int]]:
    """Gauss-Jordan on the rows m in place, pivoting only in columns < ncols
    (in every column when ncols is None).

    Columns are taken left to right, and the pivot in each is the unused row
    of lowest original index with a nonzero entry there. A column -> rows
    index makes the pivot search and the row updates visit only nonzero
    entries; a pivot row is zero left of its column, so fill-in only reaches
    columns already indexed. Afterwards the pivot rows come first, in pivot
    order, and the others keep their order. Returns the pivot columns and
    the original index of every row.
    """
    index: dict[int, set[int]] = {}
    for i, row in enumerate(m):
        for c in row:
            index.setdefault(c, set()).add(i)
    pivots: list[int] = []
    used: dict[int, None] = {}  # pivot rows in pivot order
    for c in sorted(index):
        if ncols is not None and c >= ncols:
            break
        pr = min((i for i in index[c] if i not in used), default=None)
        if pr is None:
            continue
        prow, p = m[pr], m[pr][c]
        if p != 1:
            f = -1 if p == -1 else Fraction(1) / p
            for k in prow:
                prow[k] *= f
        for i in list(index[c]):
            if i == pr:
                continue
            row, f = m[i], m[i][c]
            for k, v in prow.items():
                x = row.get(k, 0) - f * v
                if x:
                    if k not in row:
                        index[k].add(i)
                    row[k] = x
                else:
                    del row[k]
                    index[k].discard(i)
        pivots.append(c)
        used[pr] = None
    order = [*used, *(i for i in range(len(m)) if i not in used)]
    m[:] = [m[i] for i in order]
    return pivots, order


def rref(rows: list[SparseVec]) -> tuple[list[SparseVec], list[int]]:
    """Reduced row echelon form; returns (new rows, pivot columns)."""
    m = _copy(rows)
    return m, _eliminate(m)[0]


def rank(rows: list[SparseVec]) -> int:
    return len(rref(rows)[1])


def row_space_basis(rows: list[SparseVec]) -> list[SparseVec]:
    """Canonical (RREF) basis of the row space."""
    r, pivots = rref(rows)
    return r[: len(pivots)]


def nullspace(rows: list[SparseVec], ncols: int) -> list[SparseVec]:
    """Canonical kernel basis of rows with columns in range(ncols), one vector
    per free column: 1 there and minus that column of the RREF at the pivots.
    The RREF is unique, so neither the order of the rows nor a zero row
    changes it."""
    r, pivots = rref(rows)
    pivot_set, basis = set(pivots), []
    for fc in range(ncols):
        if fc not in pivot_set:
            v = {pc: -row[fc] for row, pc in zip(r, pivots) if fc in row}
            v[fc] = 1
            basis.append(v)
    return basis


def solve_many(
    rows: list[SparseVec], bs: list[SparseVec], ncols: int
) -> list[SparseVec | None]:
    """Solve rows * x = b, with columns in range(ncols), for several
    right-hand sides b, each {row index: value}, in one elimination. A
    solution sets every free variable to zero; None means there is none."""
    aug = _copy(rows)
    for k, b in enumerate(bs):
        for i, v in b.items():
            if v:
                aug[i][ncols + k] = v
    pivots, _ = _eliminate(aug, ncols)
    # Rows below the pivot block have no coefficient left, so a right-hand
    # entry there means that system is inconsistent.
    out: list[SparseVec | None] = []
    for col in range(ncols, ncols + len(bs)):
        if any(col in row for row in aug[len(pivots):]):
            out.append(None)
        else:
            out.append({pc: row[col] for row, pc in zip(aug, pivots) if col in row})
    return out


def invert(rows: list[SparseVec]) -> list[SparseVec] | None:
    """The inverse of a square matrix, whose n rows have columns in
    range(n), or None when it is singular."""
    n = len(rows)
    if any(not 0 <= c < n for row in rows for c in row):
        raise ValueError("invert needs a square matrix")
    aug = _copy(rows)
    for i, row in enumerate(aug):
        row[n + i] = 1
    if _eliminate(aug, n)[0] != list(range(n)):
        return None
    return [{c - n: v for c, v in row.items() if c >= n} for row in aug]


def pivot_rows_cols(rows: list[SparseVec]) -> tuple[list[int], list[int]]:
    """Original row and column indices of a maximal invertible submatrix.

    Deterministic: columns are scanned left to right, and the not-yet-used
    row of lowest index with a nonzero entry becomes the pivot row.
    """
    pivots, order = _eliminate(_copy(rows))
    return order[: len(pivots)], pivots
