"""Shared test helpers: independent oracles and the ring catalog."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

from qrob import ExtElement, RingElement


def e(n: int, *axes) -> ExtElement:
    return ExtElement.basis(n, axes)


def permutation_sign(perm: list[int]) -> int:
    """Parity via cycle decomposition (independent of inversion counting)."""
    seen = [False] * len(perm)
    sign = 1
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        cursor = start
        while not seen[cursor]:
            seen[cursor] = True
            cursor = perm[cursor]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def wedge_blades_oracle(a: tuple, b: tuple):
    """Sign and sorted axes of a blade product, or None when an axis repeats.

    Expands the concatenation into degree-1 factors and takes the sign of the
    permutation that sorts them.
    """
    concat = list(a) + list(b)
    if len(set(concat)) != len(concat):
        return None
    order = sorted(range(len(concat)), key=lambda i: concat[i])
    # perm maps target position -> source position; its sign is what moving
    # the factors into ascending order costs.
    return permutation_sign(order), tuple(sorted(concat))


def wedge_oracle(x: ExtElement, y: ExtElement) -> ExtElement:
    """Bilinear brute-force wedge built on the permutation-sign blade oracle."""
    acc: dict[tuple, Fraction] = {}
    for a, ca in x.items():
        for b, cb in y.items():
            res = wedge_blades_oracle(a, b)
            if res is None:
                continue
            sign, axes = res
            acc[axes] = acc.get(axes, Fraction(0)) + sign * ca * cb
    return ExtElement(x.ambient_n, acc)


def convolve(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def random_element(rng: random.Random, n: int, degree: int, terms: int = 3) -> ExtElement:
    from itertools import combinations

    basis = list(combinations(range(1, n + 1), degree))
    acc = {}
    for _ in range(terms):
        axes = rng.choice(basis)
        acc[axes] = acc.get(axes, 0) + rng.randint(-4, 4)
    return ExtElement(n, {a: c for a, c in acc.items() if c})


# (manifold text, omega text, n) for every catalog entry used by the
# soundness-exclusion and property suites.
CATALOG = (
    [(f"torus({n})", "vol(1)", n) for n in range(2, 6)]
    + [(f"surface({g}) * cp(2)", "vol(1)^sym(2)", 4) for g in range(1, 6)]
    + [(f"connsum(s2xs2,{v}) * cp(2)", "vol(1)^sym(2)", 6) for v in range(1, 11)]
    + [("cp(2)", "sym(1)^sym(1)", 4), ("cp(3)", "sym(1)^sym(1)^sym(1)", 6)]
)


def _workload_queries() -> tuple[tuple[str, str, int], ...]:
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return tuple((q.manifold, q.omega, q.n) for qs in module.WORKLOADS.values() for q in qs)


# (manifold text, omega text, n) of every query the benchmark workloads run.
WORKLOAD_QUERIES = _workload_queries()

# Every CATALOG ring and every ring the benchmark workloads build, once each.
LAW_RINGS = tuple(dict.fromkeys(m for m, _, _ in [*CATALOG, *WORKLOAD_QUERIES]))


def oracle_products(obj: dict) -> dict:
    """Every nonzero product of two basis elements, read from a ring object's
    raw structure tables: {((p, i), (q, j)): {(p + q, t): coefficient}}.

    The unit is basis element (0, 0), products above the top degree vanish,
    and a missing table entry is a zero product.
    """
    d, dims = obj["top_degree"], obj["dims"]
    out = {}
    for p in range(d + 1):
        for i in range(dims[p]):
            out[(0, 0), (p, i)] = out[(p, i), (0, 0)] = {(p, i): Fraction(1)}
    for entry in obj["structure"]:
        p, q = entry["p"], entry["q"]
        for i, j, pairs in entry["products"]:
            vec = {(p + q, t): Fraction(c) for t, c in pairs if Fraction(c)}
            if vec:
                out[(p, i), (q, j)] = vec
    return out


def _oracle_mul(products: dict, x: dict, y: dict) -> dict:
    acc: dict = {}
    for a, ca in x.items():
        for b, cb in y.items():
            for t, c in products.get((a, b), {}).items():
                acc[t] = acc.get(t, 0) + ca * cb * c
    return {t: c for t, c in acc.items() if c}


def ring_law_failure(obj: dict) -> str | None:
    """The first basis pair or triple of a ring object that breaks graded
    commutativity or associativity, or None when both laws hold.

    Exhaustive over all basis pairs and over all basis triples whose degrees
    sum to at most the top degree (above it both groupings vanish).
    """
    d = obj["top_degree"]
    products = oracle_products(obj)
    by_degree = [[(p, i) for i in range(obj["dims"][p])] for p in range(d + 1)]
    basis = [x for per_degree in by_degree for x in per_degree]
    for x in basis:
        for y in basis:
            sign = -1 if x[0] * y[0] % 2 else 1
            yx = {t: sign * c for t, c in products.get((y, x), {}).items()}
            if products.get((x, y), {}) != yx:
                return f"commutativity fails at {x}*{y}"
    for p in range(d + 1):
        for q in range(d + 1 - p):
            for r in range(d + 1 - p - q):
                for x in by_degree[p]:
                    for y in by_degree[q]:
                        xy = products.get((x, y), {})
                        for z in by_degree[r]:
                            yz = products.get((y, z), {})
                            if (xy or yz) and _oracle_mul(products, xy, {z: 1}) != (
                                _oracle_mul(products, {x: 1}, yz)
                            ):
                                return f"associativity fails at {x}*{y}*{z}"
    return None


def first_associativity_failure(obj: dict) -> str | None:
    """The message ring validation gives for the first triple x*y*z of a
    ring object with (x*y)*z != x*(y*z), or None when there is none.

    x runs over the left factors in order (the presentation generators, or
    every basis element of positive degree without a presentation), then the
    degree q of y, the degree r of z, the least y and the least z, with
    p + q + r at most the top degree; products come from the raw tables."""
    d, dims = obj["top_degree"], obj["dims"]
    products = oracle_products(obj)
    pres = obj.get("monomial_presentation")
    if pres:
        left = [(g["degree"], g["index"]) for g in pres["generators"]]
    else:
        left = [(p, i) for p in range(1, d + 1) for i in range(dims[p])]
    for p, i in left:
        for q in range(1, d - p):
            for r in range(1, d - p - q + 1):
                for j in range(dims[q]):
                    xy = products.get(((p, i), (q, j)), {})
                    for k in range(dims[r]):
                        yz = products.get(((q, j), (r, k)), {})
                        if _oracle_mul(products, xy, {(r, k): 1}) != (
                            _oracle_mul(products, {(p, i): 1}, yz)
                        ):
                            return f"associativity fails at ({p},{i})*({q},{j})*({r},{k})"
    return None


def _oracle_rank(rows: list[list[Fraction]]) -> int:
    rows = [[Fraction(c) for c in r] for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def reference_gauss_jordan(a, ncols=None):
    """Dense Gauss-Jordan on a copy of a: (rows, pivot columns, original index
    of each row). Pivots are sought in the first ncols columns (all of them by
    default), each in the first unused row with a nonzero entry there; that
    row goes below the earlier pivot rows and the rest keep their order."""
    width = len(a[0]) if a else 0
    ncols = width if ncols is None else ncols
    done, rest, pivots = [], [(i, [Fraction(x) for x in row]) for i, row in enumerate(a)], []
    for col in range(ncols):
        at = next((n for n, (_, row) in enumerate(rest) if row[col] != 0), None)
        if at is None:
            continue
        index, pivot_row = rest.pop(at)
        pivot_row = [x / pivot_row[col] for x in pivot_row]
        for part in (done, rest):
            for n, (i, row) in enumerate(part):
                part[n] = (i, [x - row[col] * y for x, y in zip(row, pivot_row)])
        done.append((index, pivot_row))
        pivots.append(col)
    ordered = done + rest
    return [row for _, row in ordered], pivots, [i for i, _ in ordered]


def reference_kunneth_bases(obj: dict) -> dict[int, list[list[Fraction]]]:
    """Per degree k from 2 to the top, the RREF basis of the degree-k product
    ideal of a ring object: every product of two positive-degree basis
    classes (`oracle_products`) as a dense row, each distinct row once,
    reduced by `reference_gauss_jordan`."""
    d, dims, products = obj["top_degree"], obj["dims"], oracle_products(obj)
    out = {}
    for k in range(2, d + 1):
        rows = dict.fromkeys(
            tuple(vec.get((k, t), Fraction(0)) for t in range(dims[k]))
            for ((p, _), (q, _)), vec in products.items()
            if p >= 1 and q >= 1 and p + q == k
        )
        reduced, pivots, _ = reference_gauss_jordan(list(rows))
        out[k] = reduced[: len(pivots)]
    return out


def reference_annihilators(obj: dict, ell: int) -> list[list[list[Fraction]]]:
    """Per basis class c of degree ell of a ring object, the kernel of
    x -> c * x on degree 1: the dense matrix of c times every degree-1 basis
    class (`oracle_products`), reduced by `reference_gauss_jordan`, with one
    kernel vector per free column, 1 there and minus that column of the
    reduced rows at the pivots."""
    d, dims, products = obj["top_degree"], obj["dims"], oracle_products(obj)
    above, zero = ell + 1, Fraction(0)
    kernels = []
    for i in range(dims[ell]):
        images = [products.get(((ell, i), (1, j)), {}) for j in range(dims[1])]
        system = [
            [y.get((above, t), zero) for y in images]
            for t in range(dims[above] if above <= d else 0)
        ]
        reduced, pivots, _ = reference_gauss_jordan(system, dims[1])
        kernel = []
        for free in (c for c in range(dims[1]) if c not in pivots):
            v = [zero] * dims[1]
            v[free] = Fraction(1)
            for row, col in zip(reduced, pivots):
                v[col] = -row[free]
            kernel.append(v)
        kernels.append(kernel)
    return kernels


def reference_solve_many(a, bs):
    """Per right-hand side b, the solution of a*x = b with every free
    variable zero, or None when there is none."""
    cols = len(a[0]) if a else 0
    aug = [list(row) + [b[i] for b in bs] for i, row in enumerate(a)]
    rows, pivots, _ = reference_gauss_jordan(aug, cols)
    out = []
    for k in range(len(bs)):
        if any(row[cols + k] != 0 for row in rows[len(pivots):]):
            out.append(None)
            continue
        x = [Fraction(0)] * cols
        for row, col in zip(rows, pivots):
            x[col] = row[cols + k]
        out.append(x)
    return out


def reference_invert(a):
    n = len(a)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    rows, pivots, _ = reference_gauss_jordan(aug, n)
    return [row[n:] for row in rows] if pivots == list(range(n)) else None


def reference_nullspace(a, ncols):
    """One kernel vector of a per free column of `reference_gauss_jordan`:
    1 there and minus that column of the reduced rows at the pivots."""
    reduced, pivots, _ = reference_gauss_jordan(a, ncols)
    kernel = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for row, col in zip(reduced, pivots):
            v[col] = -row[free]
        kernel.append(v)
    return kernel


def dense_vector(x, k: int) -> list:
    """The degree-k coordinates of a class, zeros included."""
    return [x.coefficient(k, i) for i in range(x.ring.dims[k])]


def reference_factorizations(ring, omega, ell):
    """(c, c') for every degree-ell basis class c, in basis order, with
    c * c' = omega, where c' is the solution with every free variable zero
    of the dense system of the products of c with the basis of degree
    k - ell (k the degree of omega), solved by `reference_solve_many`."""
    k = omega.degree()
    cols = ring.basis(k - ell)
    out = []
    for c in ring.basis(ell):
        images = [c * y for y in cols]
        system = [[y.coefficient(k, t) for y in images] for t in range(ring.dims[k])]
        (x,) = reference_solve_many(system, [dense_vector(omega, k)])
        if x is not None:
            out.append((c, RingElement(ring, {k - ell: dict(enumerate(x))})))
    return out


def ring_oracle_accepts(obj: dict) -> bool:
    """Whether a well-shaped ring object is a Poincaré-duality algebra whose
    presentation words, if any, multiply out; products from the raw tables."""
    d, dims = obj["top_degree"], obj["dims"]
    if ring_law_failure(obj) is not None:
        return False
    products = oracle_products(obj)
    top = (d, obj.get("fundamental_index", 0))
    for k in range(d + 1):
        pairing = [
            [products.get(((k, i), (d - k, j)), {}).get(top, 0) for j in range(dims[d - k])]
            for i in range(dims[k])
        ]
        if dims[k] != dims[d - k] or _oracle_rank(pairing) != dims[k]:
            return False
    pres = obj.get("monomial_presentation")
    if pres:
        gens = [(g["degree"], g["index"]) for g in pres["generators"]]
        for k, per_degree in enumerate(pres["words"]):
            for i, word in enumerate(per_degree):
                acc = {(0, 0): Fraction(1)}
                for gid in word:
                    acc = _oracle_mul(products, acc, {gens[gid]: 1})
                if acc != {(k, i): 1}:
                    return False
    return True


def hom_oracle_accepts(ring_obj: dict, witness_obj: dict, omega_obj: dict) -> bool:
    """Whether a witness object is multiplicative on every pair of basis
    elements and maps omega to nonzero.

    Products come from the raw ring tables (`oracle_products`) and wedges
    from `wedge_oracle`; the unit maps to 1 and a class with no image (its
    degree exceeds the ambient dimension) to 0. Every pair is checked, those
    whose degrees sum past the top degree included: their product is zero.
    """
    n, d, dims = witness_obj["ambient_n"], ring_obj["top_degree"], ring_obj["dims"]
    zero = ExtElement.zero(n)
    images = {(0, 0): ExtElement.scalar(n, 1)}
    for k, per_degree in witness_obj["images"].items():
        for i, image in enumerate(per_degree):
            images[(int(k), i)] = ExtElement.from_obj(image)

    def phi(vec: dict) -> ExtElement:
        out = zero
        for x, c in vec.items():
            out = out + images.get(x, zero).scale(c)
        return out

    products = oracle_products(ring_obj)
    basis = [(p, i) for p in range(d + 1) for i in range(dims[p])]
    for x in basis:
        for y in basis:
            xy = products.get((x, y), {})
            if phi(xy) != wedge_oracle(images.get(x, zero), images.get(y, zero)):
                return False
    return not phi(_oracle_class(omega_obj)).is_zero()


# certificate kind -> (row role, column role, diagonal role)
_CERT_ROLES = {
    "DualPair": ("left", "right", "target"),
    "H1Annihilator": ("annihilators", "duals", "factor"),
}


def _oracle_class(obj: dict) -> dict:
    """A class object's coordinates, {(degree, index): Fraction}, from its
    [index, "coefficient"] pairs per degree."""
    return {
        (int(k), t): Fraction(c)
        for k, pairs in obj["coords"].items()
        for t, c in pairs
        if Fraction(c)
    }


def least_breaking_size(kind: str, n: int, kp: int) -> int:
    """The fewest classes of degree kp that break a Kronecker kind's bound in
    dimension n: more than C(n, kp) pair off (DualPair), or n annihilate
    (H1Annihilator)."""
    return math.comb(n, kp) + 1 if kind == "DualPair" else n


def _oracle_degree(x: dict) -> int | None:
    """The one degree of a nonzero homogeneous class, else None."""
    degrees = {k for k, _ in x}
    return degrees.pop() if len(degrees) == 1 else None


def cert_oracle_accepts(ring_obj: dict, cert_obj: dict, omega_obj: dict | None) -> bool:
    """Whether a certificate object proves that no graded homomorphism into
    the exterior algebra on n generators maps omega to nonzero.

    PrywesBound: n is the top degree, omega (when given) is nonzero of
    degree n, and the recorded degree is the first whose dimension exceeds
    C(n, k). DualPair and H1Annihilator: rows[i] * cols[j] is the diagonal
    class for i = j and zero otherwise, diag * cofactor = omega is nonzero
    of degree n, each family is nonzero of one degree, and the family size m
    is the least that breaks the kind's bound (`least_breaking_size`); an
    H1Annihilator's rows have degree 1 and are
    annihilated by a diagonal of degree at most n - 1. The recorded ring
    hash, degrees and inequality must be the recounted ones. Products come
    from the raw ring tables (`oracle_products`).
    """
    n, kind, d, dims = cert_obj["n"], cert_obj["kind"], ring_obj["top_degree"], ring_obj["dims"]
    canonical = json.dumps(ring_obj, sort_keys=True, separators=(",", ":"))
    if cert_obj["ring_hash"] != hashlib.sha256(canonical.encode("ascii")).hexdigest():
        return False
    omega = None if omega_obj is None else _oracle_class(omega_obj)
    if cert_obj.get("omega") != omega_obj:
        return False
    if omega is not None and (not omega or _oracle_degree(omega) != n):
        return False
    if kind == "PrywesBound":
        k = next((k for k in range(n + 1) if n == d and dims[k] > math.comb(n, k)), None)
        inequality = None if k is None else {"lhs": dims[k], "rel": ">", "rhs": math.comb(n, k)}
        return k is not None and cert_obj["degree"] == k and cert_obj["inequality"] == inequality
    if kind not in _CERT_ROLES or omega is None:
        return False
    row, col, diag_role = _CERT_ROLES[kind]
    classes = cert_obj["classes"]
    if set(classes) != {row, col, diag_role, "cofactor"}:
        return False
    diag, cofactor = _oracle_class(classes[diag_role]), _oracle_class(classes["cofactor"])
    rows = [_oracle_class(x) for x in classes[row]]
    cols = [_oracle_class(y) for y in classes[col]]
    products = oracle_products(ring_obj)
    if _oracle_mul(products, diag, cofactor) != omega:
        return False
    m, k = len(rows), _oracle_degree(diag)
    if not m or len(cols) != m or k is None or cert_obj["degree"] != k:
        return False
    kp = _oracle_degree(rows[0])
    degrees = [_oracle_degree(x) for x in rows] + [_oracle_degree(y) for y in cols]
    if kp is None or degrees != [kp] * m + [k - kp] * m:
        return False
    if m != least_breaking_size(kind, n, kp):
        return False
    for i, x in enumerate(rows):
        for j, y in enumerate(cols):
            if _oracle_mul(products, x, y) != (diag if i == j else {}):
                return False
    if kind == "DualPair":
        inequality = {"lhs": m, "rel": ">", "rhs": math.comb(n, kp)}
        return 1 <= kp < k and cert_obj.get("k_prime") == kp and (
            cert_obj["inequality"] == inequality
        )
    annihilated = all(not _oracle_mul(products, diag, x) for x in rows)
    inequality = {"lhs": m, "rel": ">=", "rhs": n}
    return kp == 1 and k <= n - 1 and annihilated and (
        "k_prime" not in cert_obj and cert_obj["inequality"] == inequality
    )


def found_system(query):
    """The Kronecker system the search certifies a (manifold, omega, n) query
    with, before its certificate cuts it to the least breaking family. This
    is qrob's own search, not an oracle."""
    from itertools import chain

    from qrob import build_with_classes, parse_manifold, parse_omega
    from qrob.obstruct import _annihilator_systems, _dual_pair_systems

    manifold, omega_text, n = query
    ring, factors = build_with_classes(parse_manifold(manifold))
    omega = parse_omega(omega_text, ring, factors)
    systems = chain(_annihilator_systems(ring, omega, n), _dual_pair_systems(ring, omega, n))
    return next(s for s in systems if s.certificate(n) is not None)


def reference_lambda(rows, cols, target):
    """The lambda matrix from full products and a dense multiple-of-target test."""
    from qrob.ring import multiply

    k = target.degree()
    tvec = dense_vector(target, k)
    pivot = next(t for t, c in enumerate(tvec) if c)
    out = []
    for x in rows:
        row = []
        for y in cols:
            prod = multiply(x, y)
            if prod.is_zero():
                row.append(Fraction(0))
            elif prod.degrees() != {k}:
                row.append(None)
            else:
                vec = dense_vector(prod, k)
                lam = vec[pivot] / tvec[pivot]
                exact = all(v == lam * t for v, t in zip(vec, tvec))
                row.append(lam if exact else None)
        out.append(row)
    return out


def _reference_candidates(ring, omega, n):
    """(kind, factor, cofactor, rows, cols, least) for every Kronecker
    candidate in the search's canonical order, none left out: first the
    degree-1 annihilators of each factor against the basis one degree below
    it, then every row degree of every factor against the complementary
    basis. least is the fewest classes that break the kind's bound: n
    annihilators, or more than C(n, k') pairs of degree k'."""
    from qrob.ring import multiply

    for ell in range(1, n):
        for factor, cofactor in reference_factorizations(ring, omega, ell):
            above = ell + 1
            images = [multiply(factor, x) for x in ring.basis(1)]
            system = [
                [y.coefficient(above, t) for y in images]
                for t in range(ring.dims[above] if above <= ring.top_degree else 0)
            ]
            kernel = reference_nullspace(system, ring.dims[1])
            anns = [RingElement(ring, {1: dict(enumerate(v))}) for v in kernel]
            yield "H1Annihilator", factor, cofactor, anns, ring.basis(ell - 1), n
    for ell in range(2, n):
        for factor, cofactor in reference_factorizations(ring, omega, ell):
            for kp in range(1, ell):
                yield "DualPair", factor, cofactor, ring.basis(kp), ring.basis(ell - kp), (
                    math.comb(n, kp) + 1
                )


def reference_kronecker_search(ring, omega, n):
    """The first Kronecker system (kind, factor, cofactor, lefts, rights) whose
    size breaks its kind's bound, or None, by an unpruned search, cut to its
    first `least` lefts and rights: a certificate records the least breaking
    family.

    Every candidate and every group is eliminated; lambda comes from full
    products (`reference_lambda`); rows are grouped by the columns where
    their lambda exists, and each group's maximal pivot block is inverted
    into dual classes by adding scaled column classes.
    """
    for kind, factor, cofactor, rows, cols, least in _reference_candidates(ring, omega, n):
        if not rows or not cols:
            continue
        lam = reference_lambda(rows, cols, factor)
        masks = [{j for j, v in enumerate(row) if v is not None} for row in lam]
        seen = []
        for mask in masks:
            group = [r for r, other in enumerate(masks) if mask and other >= mask]
            if not group or (group, mask) in seen:
                continue
            seen.append((group, mask))
            col_ids = sorted(mask)
            block = [[lam[r][c] for c in col_ids] for r in group]
            _, piv_cols, order = reference_gauss_jordan(block)
            piv_rows = order[: len(piv_cols)]
            if len(piv_rows) < least:
                continue
            inv = reference_invert([[block[r][c] for c in piv_cols] for r in piv_rows])
            rights = []
            for j in range(len(piv_cols)):
                acc = ring.zero()
                for t, c in enumerate(piv_cols):
                    acc = acc + cols[col_ids[c]].scale(inv[t][j])
                rights.append(acc)
            lefts = [rows[group[r]] for r in piv_rows]
            return kind, factor, cofactor, lefts[:least], rights[:least]
    return None
