"""Nonexistence certificates for graded homomorphisms into exterior algebras.

Each searcher only proposes candidate systems; a returned certificate always
re-verifies from its payload alone (products recomputed from the ring, the
inequality recomputed from integers). Searchers are heuristic and restricted
to basis-aligned candidates plus exact linear solves, so absence of a
certificate never means existence of a homomorphism.

The Kronecker search skips only work that cannot certify. A system has
m <= min(rows, columns) classes for its candidate, and for its group
m <= min(rows with a nonzero lambda, columns with one); every kind's bound
is monotone in m. A candidate or group whose size bound is below the least
m that breaks its kind's bound is skipped, and the rest come in the same
canonical order, so the first certificate is that of an unpruned search.
Each factor c = basis_l[i] is bounded before omega is factored by it. The
factor is the target, so lambda is nonzero exactly where a stored product is
a multiple of basis_l[i] alone, and one pass over a product table gives the
lambda of every i (`_lambdas`), which both the bound and the systems read. An
H1Annihilator factor has as many annihilator rows as the kernel of
x -> c * x on degree 1, dims[1] less that map's rank, which is at least 1
once the (l, 1) table stores a product (i, j).
"""

from __future__ import annotations

import math
from collections.abc import Collection
from itertools import chain

from .errors import (
    InvalidSystemError,
    NonHomogeneousError,
    RingMismatchError,
)
from .linalg import Rational, invert, nullspace, pivot_rows_cols
from .ring import (
    GradedRing,
    RingElement,
    SparseVec,
    _cofactor,
    _left_products,
    in_kunneth_ideal,
    multiply,
)
from .record import Frozen, Record


class Inequality(Frozen):
    __slots__ = ("lhs", "rel", "rhs")  # rel is ">" or ">="

    def to_obj(self) -> dict:
        return {"lhs": self.lhs, "rel": self.rel, "rhs": self.rhs}


class Certificate(Record):
    """A self-contained obstruction witness.

    `kind` is PrywesBound, H1Annihilator or DualPair.
    `classes` holds the payload classes by role; `omega`, when present, ties
    the certificate to the form class of the originating query.
    """

    __slots__ = ("kind", "ring_hash", "n", "inequality", "conclusion", "classes", "omega",
                 "degree", "k_prime")
    _defaults = {"classes": dict, "omega": None, "degree": None, "k_prime": None}


class _Pattern(Frozen):
    """What one Kronecker certificate kind adds to the common check."""

    __slots__ = (
        "roles",  # row role, column role, diagonal role
        "row_degrees",  # k -> the allowed k' for a diagonal of degree k
        "annihilated",  # diag * rows[i] = 0 is proved too
        "bound",  # (n, k') -> (rel, rhs) for m
        "conclusion",  # formatted with m, kp, n and rhs
        "records_k_prime",
    )

    def min_size(self, n: int, kp: int) -> int:
        """The least family size m that breaks the bound."""
        rel, rhs = self.bound(n, kp)
        return rhs + (rel == ">")


_PATTERNS = {
    "DualPair": _Pattern(
        roles=("left", "right", "target"),
        row_degrees=lambda k: range(1, k),
        annihilated=False,
        bound=lambda n, kp: (">", math.comb(n, kp)),
        conclusion=(
            "{m} classes of degree {kp} pair off against the target class, but "
            "the degree-{kp} component of the exterior algebra on {n} generators "
            "has dimension C({n},{kp}) = {rhs} < {m}; no graded algebra "
            "homomorphism maps the target class nontrivially."
        ),
        records_k_prime=True,
    ),
    "H1Annihilator": _Pattern(
        roles=("annihilators", "duals", "factor"),
        row_degrees=lambda k: range(1, 2),
        annihilated=True,
        bound=lambda n, kp: (">=", n),
        conclusion=(
            "{m} independent degree-1 classes annihilate the factor and admit "
            "dual classes, which forces fewer than n = {n} of them under any "
            "graded algebra homomorphism to the exterior algebra on {n} "
            "generators mapping factor*cofactor nontrivially; no such "
            "homomorphism exists."
        ),
        records_k_prime=False,
    ),
}


class KroneckerSystem(Record):
    """rows[i] * cols[j] = delta_ij * diag, with omega = diag * cofactor nonzero.

    A graded algebra homomorphism that is nonzero on omega is nonzero on diag,
    so it keeps the rows linearly independent (wedge a relation with the image
    of cols[j]); the kind's bound on their number then obstructs it. `kind` is
    a key of _PATTERNS, and rows and cols are lists of classes.

    An annihilating kind (H1Annihilator) needs its diagonal below the degree
    n of omega: its bound m >= n rests on phi(diag) * phi(a) = 0 for the m
    annihilators a, so m independent degree-1 images divide phi(diag) and
    m <= l = deg diag, which breaks m >= n only for l <= n - 1. At l = n that
    product lies in degree n + 1 of the exterior algebra, which is zero, so it
    bounds nothing: the n-torus's volume class has n annihilators and a witness.
    """

    __slots__ = ("kind", "diag", "cofactor", "rows", "cols")

    @classmethod
    def from_classes(cls, kind: str, classes: dict, decode) -> KroneckerSystem:
        """The system that a certificate's classes record by role; each
        recorded class is read through decode."""
        if kind not in _PATTERNS:
            raise InvalidSystemError(f"unknown certificate kind {kind!r}")
        row, col, diag = _PATTERNS[kind].roles
        return cls(
            kind, decode(classes[diag]), decode(classes["cofactor"]),
            [decode(x) for x in classes[row]], [decode(y) for y in classes[col]],
        )

    def check(self) -> RingElement:
        """Require a nonzero omega, for an annihilating kind a diagonal of
        lower degree than omega, two nonzero families of one size m and of
        the kind's degrees k' and k - k', m at most min(dims[k'], dims[k - k']),
        and every entry's product; else InvalidSystemError. Returns
        omega = diag * cofactor.

        The size bound holds for every valid system and is checked before any
        entry, so a forged family costs no products: if sum_i a_i rows[i] = 0,
        multiplying by cols[j] gives a_j * diag = 0, and diag is nonzero, so
        every a_j = 0 and the rows are independent in degree k'; multiplying
        rows[i] by a relation among the columns shows the same for them in
        degree k - k'.

        Each family has one degree, so `_product_table` gives every nonzero
        product: diag times each row when the kind annihilates the rows (all
        zero), then row i times each column ({i: diag}). A failure names the
        first wrong entry in that order, the least offending column of the
        first offending row."""
        pattern = _PATTERNS[self.kind]
        row, col, diag = pattern.roles
        omega = multiply(self.diag, self.cofactor)
        if omega.is_zero():
            raise InvalidSystemError(f"{diag} * cofactor is zero")
        k = self.diag.degree()
        if pattern.annihilated and k in omega.degrees():
            raise InvalidSystemError(
                f"{self.kind} needs a {diag} of degree below n = deg({diag} * cofactor): "
                f"a degree-n {diag} times a degree-1 class maps to degree n + 1 of the "
                "exterior algebra, which is zero, so its annihilators bound nothing"
            )
        if len(self.rows) != len(self.cols) or not self.rows:
            raise InvalidSystemError(f"{row} and {col} must pair off one to one")
        kp = self.rows[0].degree()
        if kp not in pattern.row_degrees(k):
            raise InvalidSystemError(f"{row} of degree {kp} against degree {k}")
        for role, family, degree in ((row, self.rows, kp), (col, self.cols, k - kp)):
            if any(x.is_zero() or x.degree() != degree for x in family):
                raise InvalidSystemError(f"{role} must be nonzero of degree {degree}")
        ring = self.diag.ring
        if any(x.ring is not ring and x.ring != ring for x in self.rows + self.cols):
            raise RingMismatchError("elements belong to different rings")
        most = min(ring.dims[kp], ring.dims[k - kp])
        if len(self.rows) > most:
            raise InvalidSystemError(
                f"{row} has {len(self.rows)} classes, more than the "
                f"min(dims[{kp}], dims[{k - kp}]) = {most} that can pair off"
            )

        def wrong(a: str, b: str, on_diag: bool) -> InvalidSystemError:
            expected = f"the {diag}" if on_diag else "zero"
            message = f"product of {a} and {b} is not {expected}"
            return InvalidSystemError(message, detail=(a, b))

        if pattern.annihilated:
            (prods,) = _product_table([self.diag], self.rows)
            if prods:
                raise wrong(diag, f"{row}[{min(prods)}]", False)
        goal = self.diag._coords[k]
        for i, prods in enumerate(_product_table(self.rows, self.cols)):
            expected = {i: goal}
            if prods != expected:
                j = min(c for c in prods.keys() | {i} if prods.get(c) != expected.get(c))
                raise wrong(f"{row}[{i}]", f"{col}[{j}]", i == j)
        return omega

    def certificate(self, n: int) -> Certificate | None:
        """The certificate when the checked system breaks the kind's bound in
        dimension n, which must be the degree of diag * cofactor. It records
        only the least breaking family, the first `min_size` rows and columns:
        a subfamily of a checked system is one too, so every certificate of
        a system is written the same way."""
        omega = self.check()
        pattern = _PATTERNS[self.kind]
        row, col, diag = pattern.roles
        if omega.degrees() != {n}:
            raise InvalidSystemError(f"{diag} * cofactor is not of degree n = {n}")
        kp = self.rows[0].degree()
        m = pattern.min_size(n, kp)
        if len(self.rows) < m:
            return None
        rel, rhs = pattern.bound(n, kp)
        return Certificate(
            kind=self.kind,
            ring_hash=self.diag.ring.hash_hex(),
            n=n,
            degree=self.diag.degree(),
            k_prime=kp if pattern.records_k_prime else None,
            inequality=Inequality(m, rel, rhs),
            classes={
                diag: self.diag, "cofactor": self.cofactor,
                row: self.rows[:m], col: self.cols[:m],
            },
            omega=omega,
            conclusion=pattern.conclusion.format(m=m, kp=kp, n=n, rhs=rhs),
        )


def prywes_bound(
    ring: GradedRing, n: int, omega: RingElement | None = None
) -> Certificate | None:
    """First degree where the dimension exceeds the binomial bound C(n, k).

    The bound is sound only for n equal to the top degree, where a
    homomorphism that maps the orientation class nontrivially is injective.
    Returns None for any other n, and when omega is given but is not a
    nonzero class of degree n.
    """
    if n < 2:
        raise ValueError("target dimension must be >= 2")
    if n != ring.top_degree or (omega is not None and omega.degrees() != {n}):
        return None
    for k in range(n + 1):
        bound = math.comb(n, k)
        if ring.dims[k] > bound:
            return Certificate(
                kind="PrywesBound",
                ring_hash=ring.hash_hex(),
                n=n,
                degree=k,
                inequality=Inequality(ring.dims[k], ">", bound),
                conclusion=(
                    f"dim H^{k} = {ring.dims[k]} exceeds C({n},{k}) = {bound}: the "
                    f"degree-{k} component admits no injective linear map into the "
                    f"exterior algebra on {n} generators, so no graded algebra "
                    "homomorphism maps the orientation class nontrivially."
                ),
                omega=omega,
            )
    return None


# -- system assembly ----------------------------------------------------------


def _product_table(
    rows: list[RingElement], cols: list[RingElement]
) -> list[dict[int, SparseVec]]:
    """Per row r, {c: rows[r] * cols[c]} for the nonzero products only, in
    increasing c, for nonzero rows of one degree p and cols of one degree q:
    sparse coordinates in degree p + q, as `GradedRing.times` gives them.

    Only stored products are visited: the (p, q) table's pairs (i, j),
    indexed by i, whose j some column's support holds (j -> [(c,
    coefficient)]). A family of basis classes thus reads its products as
    they are stored. The table has unit rows when p or q is 0 and nothing
    above the top degree (`GradedRing._table`). No columns give empty rows."""
    if not cols:
        return [{} for _ in rows]
    ring, p, q = rows[0].ring, rows[0].degree(), cols[0].degree()
    support: dict[int, list[tuple[int, Rational]]] = {}
    for c, y in enumerate(cols):
        for j, b in y._coords[q].items():
            support.setdefault(j, []).append((c, b))
    by_left: dict[int, list[tuple[list[tuple[int, Rational]], SparseVec]]] = {}
    for (i, j), vec in ring._table(p, q).items():
        if j in support:
            by_left.setdefault(i, []).append((support[j], vec))
    table = []
    for x in rows:
        # c -> [(a * b, stored product)]
        terms: dict[int, list[tuple[Rational, SparseVec]]] = {}
        for i, a in x._coords[p].items():
            for cols_of_j, vec in by_left.get(i, ()):
                for c, b in cols_of_j:
                    terms.setdefault(c, []).append((a * b, vec))
        row = {}
        for c in sorted(terms):
            acc: SparseVec = {}
            for f, vec in terms[c]:
                for t, v in vec.items():
                    acc[t] = acc[t] + f * v if t in acc else f * v
            prod = {t: v for t, v in acc.items() if v}
            if prod:
                row[c] = prod
        table.append(row)
    return table


def _lambdas(products: list[dict[int, SparseVec]]) -> dict[int, dict[int, SparseVec]]:
    """{i: {r: {c: lambda}}} from `_product_table`, whose products are sparse
    coordinates in one degree: lambda against each basis class basis[i] of
    that degree as target. A product is lambda * basis[i] exactly when its
    support is {i}, and lambda is its coefficient there; an absent product
    is zero and has lambda = 0. Rows and columns come in increasing order."""
    index: dict[int, dict[int, SparseVec]] = {}
    for r, table_row in enumerate(products):
        for c, prod in table_row.items():
            if len(prod) == 1:
                ((i, x),) = prod.items()
                index.setdefault(i, {}).setdefault(r, {})[c] = x
    return index


def _block_bound(lam: Collection[SparseVec]) -> int:
    """No invertible block of lam, sparse rows, is larger than its rows with
    a nonzero entry, nor than its columns with one."""
    return min(sum(map(bool, lam)), len(set().union(*lam)))


def kronecker_systems(
    rows: list[RingElement],
    cols: list[RingElement],
    products: list[dict[int, SparseVec]],
    lam: dict[int, SparseVec],
    min_size: int,
):
    """Yield exact Kronecker systems (lefts, rights) against a basis class,
    each of at least min_size >= 1 classes.

    `products` is `_product_table(rows, cols)` and lam that class's entry of
    `_lambdas(products)`. Row classes are grouped by which column products
    are exact multiples of the class; in each group the lambda matrix is
    restricted to a maximal invertible pivot block and inverted, so the
    returned families satisfy left_i * right_j = delta_ij * class on the
    nose. Deterministic.

    A group whose `_block_bound` is below min_size is skipped before any
    elimination. Every kind's bound is monotone in the family size m, and
    the search passes the least m that breaks it; so exactly the systems
    that cannot certify are skipped, and the others come in the same order.
    """
    no_lam = [frozenset(row.keys() - lam.get(r, {}).keys()) for r, row in enumerate(products)]
    seen: set[frozenset[int]] = set()
    for skip in no_lam:
        # a group: every row with a lambda wherever this one has one
        if len(skip) == len(cols) or skip in seen:
            continue
        seen.add(skip)
        group = [r for r, other in enumerate(no_lam) if other <= skip]
        block = [{c: x for c, x in lam.get(r, {}).items() if c not in skip} for r in group]
        if _block_bound(block) < min_size:
            continue
        piv_rows, piv_cols = pivot_rows_cols(block)
        at = {c: t for t, c in enumerate(piv_cols)}
        # a maximal pivot block is invertible
        inv = invert([{at[c]: x for c, x in block[r].items() if c in at} for r in piv_rows])
        lefts = [rows[group[r]] for r in piv_rows]
        # rights[j] = sum over t of inv[t][j] * (the t-th pivot column class)
        ring, q = cols[0].ring, cols[0].degree()
        duals: list[SparseVec] = [{} for _ in piv_cols]
        for t, c in enumerate(piv_cols):
            for i, coeff in cols[c]._coords[q].items():
                for j, f in inv[t].items():
                    duals[j][i] = duals[j].get(i, 0) + f * coeff
        yield lefts, [
            RingElement._trusted(ring, {q: {i: x for i, x in dual.items() if x}})
            for dual in duals
        ]


def _annihilator_candidates(
    ring: GradedRing, factor: RingElement
) -> list[RingElement]:
    """Canonical basis of the degree-1 classes killed by the factor: the
    kernel of x -> factor * x on degree 1, whose column j is the product of
    the factor with basis_1[j] (`_product_table`); its rows are the
    coordinates those products reach."""
    (prods,) = _product_table([factor], ring.basis(1))
    rows: dict[int, SparseVec] = {}
    for j, vec in prods.items():
        for t, c in vec.items():
            rows.setdefault(t, {})[j] = c
    kernel = nullspace(list(rows.values()), ring.dims[1])
    return [RingElement._trusted(ring, {1: v}) for v in kernel]


def _annihilator_bounds(ring: GradedRing, ell: int) -> list[int]:
    """For each basis class basis_ell[i], a bound on the number of its
    degree-1 annihilators: dims[1], less 1 when the (ell, 1) table stores a
    product (i, j) (argument in the module docstring)."""
    acting = {i for i, _ in ring.structure.get((ell, 1), {})}
    return [ring.dims[1] - (i in acting) for i in range(ring.dims[ell])]


def _bounded_factors(ring: GradedRing, omega: RingElement, n: int, ell: int, reach):
    """(i, c, c', reach(i)) for each class c = basis_ell[i] with a truthy
    reach(i), its kind's bound check, and c * c' = omega solvable
    (`_cofactor`), in increasing i; omega is factored only after the check."""
    for i, stored in _left_products(ring, ell, n - ell).items():
        reached = reach(i)
        cofactor = _cofactor(ring, omega, ell, stored) if reached else None
        if cofactor is not None:
            yield i, ring.basis_element(ell, i), cofactor, reached


def _annihilator_systems(ring: GradedRing, omega: RingElement, n: int):
    """H1Annihilator systems in canonical order: for l in 1..n-1, the
    degree-1 annihilators of each factor c = basis_l[i] of omega against
    basis_{l-1}. A class is bounded by `_annihilator_bounds` before omega is
    factored by it, which on a torus rules out every class (c * H^1 != 0 for
    every c of degree l < n), and by its own table's `_block_bound` after."""
    size = _PATTERNS["H1Annihilator"].min_size(n, 1)
    for ell in range(1, n):
        most = _annihilator_bounds(ring, ell)
        largest = min(ring.dims[1], ring.dims[ell - 1], max(most, default=0))
        if largest < size or not ring.dims[n - ell]:
            continue
        cols = ring.basis(ell - 1)
        bounded = _bounded_factors(ring, omega, n, ell, lambda i: most[i] >= size)
        for i, factor, cofactor, _ in bounded:
            rows = _annihilator_candidates(ring, factor)
            if len(rows) < size:
                continue
            products = _product_table(rows, cols)
            lam = _lambdas(products).get(i, {})
            if _block_bound(lam.values()) < size:
                continue
            for lefts, rights in kronecker_systems(rows, cols, products, lam, size):
                yield KroneckerSystem("H1Annihilator", factor, cofactor, lefts, rights)


def _dual_pair_systems(ring: GradedRing, omega: RingElement, n: int):
    """DualPair systems in canonical order: for l in 2..n-1, each factor
    c = basis_l[i] of omega and each k' in 1..l-1, basis_k' against
    basis_{l-k'}. The families, their product table and its lambdas are
    shared by every class of one (l, k'). A class is bounded at each k' by
    the `_block_bound` of its lambda before omega is factored by it."""
    pattern = _PATTERNS["DualPair"]
    for ell in range(2, n):
        sizes = {
            kp: pattern.min_size(n, kp) for kp in pattern.row_degrees(ell)
            if min(ring.dims[kp], ring.dims[ell - kp]) >= pattern.min_size(n, kp)
        }
        if not sizes or not ring.dims[n - ell]:
            continue
        bases = {kp: (ring.basis(kp), ring.basis(ell - kp)) for kp in sizes}
        tables = {kp: _product_table(*bases[kp]) for kp in sizes}
        lams = {kp: _lambdas(table) for kp, table in tables.items()}

        def reach(i):
            return [kp for kp, size in sizes.items()
                    if _block_bound(lams[kp].get(i, {}).values()) >= size]

        for i, factor, cofactor, reached in _bounded_factors(ring, omega, n, ell, reach):
            for kp in reached:
                systems = kronecker_systems(*bases[kp], tables[kp], lams[kp][i], sizes[kp])
                for lefts, rights in systems:
                    yield KroneckerSystem("DualPair", factor, cofactor, lefts, rights)


def search_obstruction(
    ring: GradedRing, omega: RingElement, n: int
) -> Certificate | None:
    """Deterministic certificate search in canonical order.

    Order: the dimension bound (which applies only when n equals the top
    degree), then `_annihilator_systems`, then `_dual_pair_systems`.
    """
    if omega.is_zero():
        raise ValueError("omega must be nonzero")
    if not omega.is_homogeneous() or omega.degree() != n:
        raise NonHomogeneousError(f"omega must be homogeneous of degree {n}")
    if not in_kunneth_ideal(ring, omega):
        raise ValueError("omega must lie in the degree-n product ideal")

    cert = prywes_bound(ring, n, omega=omega)
    if cert is not None:
        return cert
    for system in chain(_annihilator_systems(ring, omega, n), _dual_pair_systems(ring, omega, n)):
        cert = system.certificate(n)
        if cert is not None:
            return cert
    return None
