"""Nonexistence certificates for graded homomorphisms into exterior algebras.

Each searcher only proposes candidate systems; a returned certificate always
re-verifies from its payload alone (products recomputed from the ring, the
inequality recomputed from integers). Searchers are heuristic and restricted
to basis-aligned candidates plus exact linear solves, so absence of a
certificate never means existence of a homomorphism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InvalidSystemError, NonHomogeneousError, VerificationFailure
from .linalg import Matrix, invert, nullspace, pivot_rows_cols, rank
from .ring import (
    GradedRing,
    RingElement,
    factorizations,
    in_kunneth_ideal,
    mult_matrix,
    multiply,
)


@dataclass(frozen=True)
class Inequality:
    lhs: int
    rel: str  # ">" or ">="
    rhs: int

    def holds(self) -> bool:
        return self.lhs > self.rhs if self.rel == ">" else self.lhs >= self.rhs

    def to_obj(self) -> dict:
        return {"lhs": self.lhs, "rel": self.rel, "rhs": self.rhs}


@dataclass
class Certificate:
    """A self-contained obstruction witness.

    `classes` holds the payload classes by role; `omega`, when present, ties
    the certificate to the form class of the originating query.
    """

    kind: str  # PrywesBound | H1Annihilator | DualPair | SubmanifoldBound
    ring_hash: str
    n: int
    inequality: Inequality
    conclusion: str
    classes: dict = field(default_factory=dict)
    omega: RingElement | None = None
    degree: int | None = None
    k_prime: int | None = None


# Row role, column role and diagonal role of each Kronecker certificate.
_PATTERNS = {
    "DualPair": ("left", "right", "target"),
    "H1Annihilator": ("annihilators", "duals", "factor"),
}


def _check_pattern(
    rows: list[RingElement], cols: list[RingElement], diag: RingElement,
    roles: tuple[str, str, str],
) -> None:
    """Require rows[i] * cols[j] == diag when i == j and 0 otherwise."""
    row_role, col_role, diag_role = roles
    zero = diag.ring.zero()
    for i, x in enumerate(rows):
        for j, y in enumerate(cols):
            if multiply(x, y) != (diag if i == j else zero):
                raise InvalidSystemError(
                    f"product of {row_role}[{i}] and {col_role}[{j}] is not "
                    f"{'the ' + diag_role if i == j else 'zero'}",
                    detail=(i, j),
                )


def products_table(cert: Certificate) -> list[dict]:
    """The products that the system check of a Kronecker certificate proved.

    rows[i] * cols[j] is the diagonal class when i == j and 0 otherwise, and
    an H1Annihilator also has factor * annihilators[i] = 0. Other kinds have
    no table.
    """
    if cert.kind not in _PATTERNS:
        return []
    rows, cols, diag = _PATTERNS[cert.kind]
    classes = cert.classes
    zero, on_diag = classes[diag].ring.zero().to_obj(), classes[diag].to_obj()
    entries = []
    if cert.kind == "H1Annihilator":
        entries = [
            ("factor", f"{rows}[{i}]", zero) for i in range(len(classes[rows]))
        ]
    entries += [
        (f"{rows}[{i}]", f"{cols}[{j}]", on_diag if i == j else zero)
        for i in range(len(classes[rows]))
        for j in range(len(classes[cols]))
    ]
    return [{"left": a, "right": b, "product": p} for a, b, p in entries]


@dataclass
class DualSystem:
    """Classes c_i, c'_j with c_i * c'_j = delta_ij * target, all verified."""

    ring: GradedRing
    target: RingElement
    left: list[RingElement]
    right: list[RingElement]

    def check(self) -> None:
        if self.target.is_zero():
            raise InvalidSystemError("target class is zero")
        k = self.target.degree()
        if k < 2:
            raise InvalidSystemError("target class must have degree >= 2")
        if len(self.left) != len(self.right) or not self.left:
            raise InvalidSystemError("left/right families must match and be nonempty")
        kp = self.left[0].degree()
        if not (1 <= kp <= k - 1):
            raise InvalidSystemError(f"left degree {kp} out of range 1..{k - 1}")
        for x in self.left:
            if x.is_zero() or x.degree() != kp:
                raise InvalidSystemError("left classes must share one degree")
        for y in self.right:
            if y.is_zero() or y.degree() != k - kp:
                raise InvalidSystemError("right classes must have complementary degree")
        _check_pattern(self.left, self.right, self.target, _PATTERNS["DualPair"])


@dataclass
class AnnihilatorSystem:
    """Degree-1 annihilators of a factor class, with exact dual classes."""

    ring: GradedRing
    factor: RingElement
    cofactor: RingElement
    annihilators: list[RingElement]
    duals: list[RingElement]

    def omega_class(self) -> RingElement:
        return multiply(self.factor, self.cofactor)

    def check(self) -> None:
        if self.factor.is_zero():
            raise InvalidSystemError("factor class is zero")
        k = self.factor.degree()
        if self.omega_class().is_zero():
            raise InvalidSystemError("factor * cofactor is zero")
        if len(self.annihilators) != len(self.duals) or not self.annihilators:
            raise InvalidSystemError(
                "annihilator/dual families must match and be nonempty"
            )
        for i, x in enumerate(self.annihilators):
            if x.is_zero() or x.degree() != 1:
                raise InvalidSystemError(f"annihilators[{i}] is not of degree 1")
            if not multiply(self.factor, x).is_zero():
                raise InvalidSystemError(
                    f"factor * annihilators[{i}] is nonzero", detail=(i,)
                )
        for y in self.duals:
            if y.is_zero() or y.degree() != k - 1:
                raise InvalidSystemError(f"duals must have degree {k - 1}")
        _check_pattern(
            self.annihilators, self.duals, self.factor, _PATTERNS["H1Annihilator"]
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


def verify_dual_system(system: DualSystem, n: int) -> Certificate | None:
    """Certificate when the verified system exceeds the binomial bound."""
    system.check()
    m = len(system.left)
    kp = system.left[0].degree()
    bound = math.comb(n, kp) if kp <= n else 0
    if m <= bound:
        return None
    return Certificate(
        kind="DualPair",
        ring_hash=system.ring.hash_hex(),
        n=n,
        degree=system.target.degree(),
        k_prime=kp,
        inequality=Inequality(m, ">", bound),
        classes={
            "target": system.target,
            "left": list(system.left),
            "right": list(system.right),
        },
        conclusion=(
            f"{m} classes of degree {kp} pair off against the target class, but "
            f"the degree-{kp} component of the exterior algebra on {n} generators "
            f"has dimension C({n},{kp}) = {bound} < {m}; no graded algebra "
            "homomorphism maps the target class nontrivially."
        ),
    )


def verify_annihilator_system(system: AnnihilatorSystem, n: int) -> Certificate | None:
    """Certificate when at least n verified degree-1 annihilators exist."""
    system.check()
    m = len(system.annihilators)
    if m < n:
        return None
    return Certificate(
        kind="H1Annihilator",
        ring_hash=system.ring.hash_hex(),
        n=n,
        degree=system.factor.degree(),
        inequality=Inequality(m, ">=", n),
        classes={
            "factor": system.factor,
            "cofactor": system.cofactor,
            "annihilators": list(system.annihilators),
            "duals": list(system.duals),
        },
        omega=system.omega_class(),
        conclusion=(
            f"{m} independent degree-1 classes annihilate the factor and admit "
            f"dual classes, which forces fewer than n = {n} of them under any "
            f"graded algebra homomorphism to the exterior algebra on {n} "
            "generators mapping factor*cofactor nontrivially; no such "
            "homomorphism exists."
        ),
    )


# -- system assembly ----------------------------------------------------------


def _terms(x: RingElement) -> list[tuple[int, int, Fraction]]:
    """Nonzero coordinates of x as (degree, index, coefficient)."""
    return [(p, i, c) for p, vec in x.coords().items() for i, c in enumerate(vec) if c]


def _lambda_matrix(
    rows: list[RingElement], cols: list[RingElement], target: RingElement
) -> list[list[Fraction | None]]:
    """lam[r][c] with rows[r] * cols[c] == lam * target, or None where no such lam.

    Products are summed from the sparse structure tables; a zero product gives
    0, and one off the target's support or not proportional to it gives None.
    """
    k = target.degree()
    goal = {(k, t): c for t, c in enumerate(target.vector(k)) if c}
    pivot = min(goal)
    ring = target.ring
    col_terms = [_terms(y) for y in cols]
    lam: list[list[Fraction | None]] = []
    for x in rows:
        x_terms = _terms(x)
        lam_row: list[Fraction | None] = []
        for y_terms in col_terms:
            prod: dict[tuple[int, int], Fraction] = {}
            for p, i, a in x_terms:
                for q, j, b in y_terms:
                    for t, c in ring.product_vec(p, i, q, j).items():
                        prod[p + q, t] = prod.get((p + q, t), 0) + a * b * c
            prod = {key: c for key, c in prod.items() if c}
            ratio = prod.get(pivot, 0) / goal[pivot]
            scaled = {key: ratio * c for key, c in goal.items()} if ratio else {}
            lam_row.append(ratio if prod == scaled else None)
        lam.append(lam_row)
    return lam


def kronecker_systems(
    rows: list[RingElement],
    cols: list[RingElement],
    target: RingElement,
):
    """Yield exact Kronecker systems (lefts, rights) against the target class.

    Row classes are grouped by which column products are exact multiples of
    the target; in each group the coefficient matrix is restricted to a
    maximal invertible pivot block and inverted, so the returned families
    satisfy left_i * right_j = delta_ij * target on the nose. Deterministic.
    """
    if not rows or not cols:
        return
    ring = target.ring
    lam = _lambda_matrix(rows, cols, target)
    masks = [
        frozenset(j for j, v in enumerate(lam_row) if v is not None)
        for lam_row in lam
    ]
    seen: set[tuple] = set()
    for base in range(len(rows)):
        mask = masks[base]
        if not mask:
            continue
        group = [r for r in range(len(rows)) if masks[r] >= mask]
        key = (tuple(group), tuple(sorted(mask)))
        if key in seen:
            continue
        seen.add(key)
        col_ids = sorted(mask)
        block = [[lam[r][c] for c in col_ids] for r in group]
        piv_rows, piv_cols = pivot_rows_cols(block)
        if not piv_rows:
            continue
        # a maximal pivot block is invertible
        inv = invert([[block[r][c] for c in piv_cols] for r in piv_rows])
        lefts = [rows[group[r]] for r in piv_rows]
        rights = []
        for j in range(len(piv_cols)):
            acc = ring.zero()
            for t in range(len(piv_cols)):
                acc = acc + cols[col_ids[piv_cols[t]]].scale(inv[t][j])
            rights.append(acc)
        yield lefts, rights


def _annihilator_candidates(
    ring: GradedRing, factor: RingElement
) -> list[RingElement]:
    """Canonical basis of the degree-1 classes killed by the factor."""
    if ring.dims[1] == 0:
        return []
    system = mult_matrix(ring, factor, 1)
    kernel = nullspace(system, ncols=ring.dims[1])
    return [ring.element(1, v) for v in kernel]


def search_obstruction(
    ring: GradedRing, omega: RingElement, n: int
) -> Certificate | None:
    """Deterministic certificate search in canonical order.

    Order: the dimension bound (which applies only when n equals the top
    degree), then annihilator systems over the factorizations of omega, then
    dual-pair systems.
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

    # Annihilator systems: factor classes of omega with degree-1 annihilators.
    if ring.dims[1] > 0:
        for ell in range(1, n):
            if ring.dims[ell] == 0 or ring.dims[n - ell] == 0:
                continue
            for factor, cofactor in factorizations(ring, omega, ell):
                anns = _annihilator_candidates(ring, factor)
                if len(anns) < n:
                    continue
                duals_degree = ell - 1
                cols = ring.basis(duals_degree)
                for lefts, rights in kronecker_systems(anns, cols, factor):
                    system = AnnihilatorSystem(ring, factor, cofactor, lefts, rights)
                    cert = verify_annihilator_system(system, n)
                    if cert is not None:
                        cert.omega = omega
                        return cert

    # Dual-pair systems over every factor class of omega.
    for ell in range(2, n):
        if ring.dims[ell] == 0 or ring.dims[n - ell] == 0:
            continue
        for factor, cofactor in factorizations(ring, omega, ell):
            for kp in range(1, ell):
                if ring.dims[kp] == 0 or ring.dims[ell - kp] == 0:
                    continue
                if ring.dims[kp] <= math.comb(n, kp):
                    continue
                rows = ring.basis(kp)
                cols = ring.basis(ell - kp)
                for lefts, rights in kronecker_systems(rows, cols, factor):
                    system = DualSystem(ring, factor, lefts, rights)
                    cert = verify_dual_system(system, n)
                    if cert is not None:
                        cert.omega = omega
                        cert.classes["cofactor"] = cofactor
                        return cert
    return None


# -- submanifold restriction bound --------------------------------------------


@dataclass
class DegreeReport:
    degree: int
    image_dim: int
    bound: int
    surjective: bool


@dataclass
class SubmanifoldReport:
    degrees: list[DegreeReport]
    certificate: Certificate | None


def apply_linear(
    mats: list[Matrix], x: RingElement, target: GradedRing
) -> RingElement:
    """Apply per-degree matrices to a ring element, landing in `target`."""
    out: dict[int, list[Fraction]] = {}
    for k, vec in x.coords().items():
        mat = mats[k] if k < len(mats) else []
        if not mat:
            continue
        image = [
            sum((row[j] * vec[j] for j in range(len(vec))), Fraction(0))
            for row in mat
        ]
        if any(image):
            out[k] = image
    return RingElement(target, out)


def check_ring_map(
    source: GradedRing, target: GradedRing, mats: list[Matrix]
) -> None:
    """Verify a degree-preserving, unital, multiplicative linear map."""
    if len(mats) != source.top_degree + 1:
        raise VerificationFailure("restriction map must cover degrees 0..top")
    for k in range(source.top_degree + 1):
        expected_rows = target.dims[k] if k <= target.top_degree else 0
        if len(mats[k]) != expected_rows or any(
            len(row) != source.dims[k] for row in mats[k]
        ):
            raise VerificationFailure(f"restriction matrix shape wrong in degree {k}")
    unit_image = apply_linear(mats, source.unit(), target)
    if unit_image != target.unit():
        raise VerificationFailure("restriction map does not preserve the unit")
    for p in range(1, source.top_degree):
        for q in range(1, source.top_degree - p + 1):
            for i in range(source.dims[p]):
                xi = apply_linear(mats, source.basis_element(p, i), target)
                for j in range(source.dims[q]):
                    yj = apply_linear(mats, source.basis_element(q, j), target)
                    vec = source.product_vec(p, i, q, j)
                    dense = [vec.get(t, 0) for t in range(source.dims[p + q])]
                    lhs = apply_linear(mats, source.element(p + q, dense), target)
                    if lhs != multiply(xi, yj):
                        raise VerificationFailure(
                            f"restriction map is not multiplicative at ({p},{i})*({q},{j})"
                        )


def submanifold_bound(
    ring_n: GradedRing,
    ring_m: GradedRing,
    iota_star: list[Matrix],
    omega: RingElement,
    n: int,
) -> SubmanifoldReport:
    """Binomial bounds on the restricted images, with duality surjectivity.

    A certificate is emitted for the first degree k where the restriction is
    surjective in the complementary degree n-k while dim of the degree-k
    image exceeds C(n, k).
    """
    if ring_m.top_degree != n:
        raise VerificationFailure(
            f"submanifold ring must have top degree {n}, got {ring_m.top_degree}"
        )
    if n > ring_n.top_degree:
        raise VerificationFailure(
            f"submanifold dimension {n} exceeds the top degree {ring_n.top_degree}"
        )
    check_ring_map(ring_n, ring_m, iota_star)
    if apply_linear(iota_star, omega, ring_m).is_zero():
        raise VerificationFailure("omega restricts to zero on the submanifold")
    reports = []
    for k in range(n + 1):
        image_dim = rank(iota_star[k]) if iota_star[k] else 0
        reports.append(
            DegreeReport(
                degree=k,
                image_dim=image_dim,
                bound=math.comb(n, k),
                surjective=image_dim == ring_m.dims[k],
            )
        )
    certificate = None
    for k in range(1, n):
        if reports[n - k].surjective and reports[k].image_dim > reports[k].bound:
            certificate = Certificate(
                kind="SubmanifoldBound",
                ring_hash=ring_n.hash_hex(),
                n=n,
                degree=k,
                inequality=Inequality(reports[k].image_dim, ">", reports[k].bound),
                classes={"subring_hash": ring_m.hash_hex()},
                omega=omega,
                conclusion=(
                    f"the restricted degree-{k} image has dimension "
                    f"{reports[k].image_dim} > C({n},{k}) = {reports[k].bound} while "
                    f"the restriction is surjective in degree {n - k}; no "
                    "infinite-energy quasiregular omega-curve exists under the "
                    "stated hypotheses."
                ),
            )
            break
    return SubmanifoldReport(degrees=reports, certificate=certificate)
