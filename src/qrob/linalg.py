"""Dense exact linear algebra over the rationals.

Matrices are lists of rows of `Fraction`. Everything here is pure and
deterministic; no floating point anywhere.
"""

from __future__ import annotations

import re
import threading
from fractions import Fraction

Matrix = list[list[Fraction]]

_FRACTION_RE = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def fraction_to_str(x: Fraction) -> str:
    return str(x) if type(x) is Fraction else str(Fraction(x))


# fraction_from_str's accepted literals; emptied when it reaches the bound
_LITERALS_MAX = 4096
_literals: dict[str, Fraction] = {}
_literals_lock = threading.Lock()


def fraction_from_str(s: str) -> Fraction:
    """An integer or a/b with ASCII digits and b nonzero, else ValueError.
    Decimal or exponent notation is rejected: file formats are bit-exact.
    Accepted literals are memoized, so a repeated one is parsed once."""
    x = _literals.get(s) if type(s) is str else None
    if x is not None:
        return x
    match = _FRACTION_RE.fullmatch(s) if isinstance(s, str) else None
    if match is None:
        raise ValueError(f"not an exact rational literal: {s!r}")
    num, den = match.groups()
    if den is not None and not int(den):
        raise ValueError(f"zero denominator in {s!r}")
    x = Fraction(int(num)) if den is None else Fraction(int(num), int(den))
    if type(s) is str:
        with _literals_lock:
            if len(_literals) >= _LITERALS_MAX:
                _literals.clear()
            _literals[s] = x
    return x


def mat(rows) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]


def identity(n: int) -> Matrix:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def _eliminate(m: Matrix, ncols: int) -> tuple[list[int], list[int]]:
    """Gauss-Jordan on m in place, pivoting only in columns < ncols.

    Each pivot row is moved up below the previous one, so the other rows keep
    their order and the pivot in each column is the first unused row with a
    nonzero entry there. Returns the pivot columns and the original index of
    every row; pivot rows are the first len(pivots) rows.
    """
    rows = len(m)
    order = list(range(rows))
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m.insert(r, m.pop(pr))
        order.insert(r, order.pop(pr))
        # The pivot row is zero left of c. Scaling and row updates touch only
        # its nonzero columns, since 0 * inv = 0 and x - f * 0 = x.
        prow, inv = m[r], Fraction(1) / m[r][c]
        nz = [k for k in range(c, len(prow)) if prow[k]]
        for k in nz:
            prow[k] *= inv
        for i, row in enumerate(m):
            if i != r and row[c] != 0:
                f = row[c]
                for k in nz:
                    row[k] -= f * prow[k]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots, order


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (new matrix, pivot columns)."""
    m = [list(row) for row in a]
    if not m:
        return [], []
    return m, _eliminate(m, len(m[0]))[0]


def rank(a: Matrix) -> int:
    return len(rref(a)[1])


def row_space_basis(a: Matrix) -> Matrix:
    """Canonical (RREF) basis of the row space."""
    r, pivots = rref(a)
    return [row[:] for row in r[: len(pivots)]]


def nullspace(a: Matrix, ncols: int | None = None) -> Matrix:
    """Canonical kernel basis, one vector per free column.

    `ncols` must be given when `a` has no rows.
    """
    if not a:
        if ncols is None:
            raise ValueError("nullspace of empty matrix needs ncols")
        return identity(ncols)
    cols = len(a[0])
    r, pivots = rref(a)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -r[i][fc]
        basis.append(v)
    return basis


def solve_many(a: Matrix, bs: list[list[Fraction]]) -> list[list[Fraction] | None]:
    """Solve a*x = b for several right-hand sides with one elimination."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if rows == 0:
        # No constraints: x = 0 works iff each b is the empty vector.
        return [[Fraction(0)] * cols for _ in bs]
    aug = [a[i][:] + [bs[k][i] for k in range(len(bs))] for i in range(rows)]
    pivots, _ = _eliminate(aug, cols)
    # Rows below the pivot block have zero coefficient part, so a nonzero
    # right-hand entry there means that system is inconsistent.
    out: list[list[Fraction] | None] = []
    for k in range(len(bs)):
        col = cols + k
        if any(aug[i][col] != 0 for i in range(len(pivots), rows)):
            out.append(None)
            continue
        x = [Fraction(0)] * cols
        for i, pc in enumerate(pivots):
            x[pc] = aug[i][col]
        out.append(x)
    return out


def invert(a: Matrix) -> Matrix | None:
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("invert needs a square matrix")
    aug = [row[:] + unit for row, unit in zip(a, identity(n))]
    r, pivots = rref(aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in r[:n]]


def pivot_rows_cols(a: Matrix) -> tuple[list[int], list[int]]:
    """Original row and column indices of a maximal invertible submatrix.

    Deterministic: columns are scanned left to right, and the first
    not-yet-used row with a nonzero entry becomes the pivot row.
    """
    m = [list(row) for row in a]
    pivots, order = _eliminate(m, len(m[0]) if m else 0)
    return order[: len(pivots)], pivots
