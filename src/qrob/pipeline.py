"""Query pipeline and re-verifiable JSON documents.

`run_query` wires build -> form-class evaluation -> ideal membership ->
obstruction search -> witness search and reports one of OBSTRUCTED, WITNESS,
or UNKNOWN together with a preconditions report. Every emitted document is
deterministic and re-checkable via `verify_document`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .dsl import parse_manifold, parse_omega
from .errors import InvalidSystemError, QrobError, VerificationFailure
from .homsearch import (
    EnumBudget,
    HomWitness,
    enumerate_hom_detailed,
    verify_hom,
    witness_template,
)
from .linalg import Matrix, fraction_from_str, fraction_to_str
from .manifolds import ManifoldExpr, build_with_classes
from .obstruct import (
    AnnihilatorSystem,
    Certificate,
    DualSystem,
    SubmanifoldReport,
    products_table,
    prywes_bound,
    search_obstruction,
    submanifold_bound,
    verify_annihilator_system,
    verify_dual_system,
)
from .ring import GradedRing, RingElement, in_kunneth_ideal, multiply

VERDICT_FORMAT = "qrob.verdict/1"
CERTIFICATE_FORMAT = "qrob.certificate/1"
WITNESS_FORMAT = "qrob.witness/1"
RING_FORMAT = "qrob.ring/1"

WITNESS = "WITNESS"
OBSTRUCTED = "OBSTRUCTED"
UNKNOWN = "UNKNOWN"

EXIT_BY_VERDICT = {WITNESS: 0, OBSTRUCTED: 1, UNKNOWN: 2}


@dataclass(frozen=True)
class Query:
    manifold: str
    omega: str
    n: int


@dataclass
class QueryResult:
    query: Query
    expr: ManifoldExpr
    ring: GradedRing
    omega: RingElement
    verdict: str
    preconditions: dict
    certificate: Certificate | None = None
    witness: HomWitness | None = None
    search_log: dict | None = None

    @property
    def exit_code(self) -> int:
        return EXIT_BY_VERDICT[self.verdict]


def _prepare(query: Query) -> tuple[ManifoldExpr, GradedRing, RingElement, dict]:
    """Build the query's ring and omega, check n and omega's degree, and
    compute the preconditions report; raise QrobError on a malformed query."""
    expr = parse_manifold(query.manifold)
    ring, factors = build_with_classes(expr)
    omega = parse_omega(query.omega, ring, factors)
    if query.n < 2:
        raise QrobError(f"target dimension must be >= 2, got {query.n}")
    if query.n > ring.top_degree:
        raise QrobError(
            f"target dimension {query.n} exceeds the top degree {ring.top_degree}"
        )
    nonzero = not omega.is_zero()
    if nonzero and (not omega.is_homogeneous() or omega.degree() != query.n):
        raise QrobError(
            f"omega must be homogeneous of degree {query.n}; got degrees "
            f"{sorted(omega.degrees())}"
        )
    in_ideal = nonzero and in_kunneth_ideal(ring, omega)
    preconditions = {"omega_nonzero": nonzero, "omega_in_kunneth_ideal": in_ideal}
    return expr, ring, omega, preconditions


def run_query(query: Query, budget: EnumBudget = EnumBudget()) -> QueryResult:
    expr, ring, omega, preconditions = _prepare(query)
    if not all(preconditions.values()):
        return QueryResult(
            query, expr, ring, omega, UNKNOWN, preconditions,
            search_log={
                "stopped": "precondition",
                "detail": "the necessary-condition hypotheses fail; no search run",
            },
        )
    certificate = search_obstruction(ring, omega, query.n)
    if certificate is not None:
        return QueryResult(
            query, expr, ring, omega, OBSTRUCTED, preconditions,
            certificate=certificate,
        )
    witness = witness_template(expr, omega, query.n)
    if witness is not None:
        return QueryResult(
            query, expr, ring, omega, WITNESS, preconditions,
            witness=witness, search_log={"witness_method": "template"},
        )
    outcome = enumerate_hom_detailed(ring, omega, query.n, budget)
    if outcome.witness is not None:
        return QueryResult(
            query, expr, ring, omega, WITNESS, preconditions,
            witness=outcome.witness,
            search_log={"witness_method": "enumeration", "nodes": outcome.nodes},
        )
    return QueryResult(
        query, expr, ring, omega, UNKNOWN, preconditions,
        search_log={
            "obstruction": "no certificate found",
            "template": "no verified template",
            "enumeration": {
                "nodes": outcome.nodes,
                "max_nodes": budget.max_nodes,
                "space_exhausted": outcome.space_exhausted,
            },
        },
    )


# -- JSON documents -----------------------------------------------------------


def certificate_to_obj(cert: Certificate, ring: GradedRing) -> dict:
    classes = {}
    for role, value in cert.classes.items():
        if isinstance(value, RingElement):
            classes[role] = value.to_obj()
        elif isinstance(value, list):
            classes[role] = [v.to_obj() for v in value]
        else:
            classes[role] = value
    obj = {
        "format": CERTIFICATE_FORMAT,
        "kind": cert.kind,
        "ring_hash": cert.ring_hash,
        "n": cert.n,
        "classes": classes,
        "products_table": products_table(cert),
        "inequality": cert.inequality.to_obj(),
        "conclusion": cert.conclusion,
    }
    if cert.degree is not None:
        obj["degree"] = cert.degree
    if cert.k_prime is not None:
        obj["k_prime"] = cert.k_prime
    if cert.omega is not None:
        obj["omega"] = cert.omega.to_obj()
    return obj


def _fail(message: str) -> None:
    raise VerificationFailure(message)


def _recorded_omega(obj: dict, ring: GradedRing) -> RingElement | None:
    raw = obj.get("omega")
    return None if raw is None else RingElement.from_obj(ring, raw)


# Payload that travels with a certificate document but is not re-derived.
_CARRIED_KEYS = ("ring", "subring", "iota_star")


def verify_certificate_obj(
    obj: dict, ring: GradedRing, subring: GradedRing | None = None,
    iota_star: list[Matrix] | None = None,
) -> None:
    """Re-derive a certificate with the search's own code; raise on mismatch.

    Kronecker certificates are rebuilt from their recorded classes, the
    dimension bound from the ring, and the submanifold bound from the ring,
    subring, restriction map and omega. Every recorded field except the
    carried payload must equal the rebuilt one.
    """
    kind = obj.get("kind")
    if obj.get("ring_hash") != ring.hash_hex():
        _fail("certificate ring hash does not match the ring")
    n = int(obj["n"])
    omega = _recorded_omega(obj, ring)
    classes = obj.get("classes", {})

    def one(role: str) -> RingElement:
        return RingElement.from_obj(ring, classes[role])

    def many(role: str) -> list[RingElement]:
        return [RingElement.from_obj(ring, o) for o in classes[role]]

    try:
        if kind == "PrywesBound":
            if n != ring.top_degree:
                _fail("the dimension bound needs n equal to the top degree")
            cert = prywes_bound(ring, n, omega)
        elif kind == "H1Annihilator":
            system = AnnihilatorSystem(
                ring, one("factor"), one("cofactor"),
                many("annihilators"), many("duals"),
            )
            cert = verify_annihilator_system(system, n)
        elif kind == "DualPair":
            system = DualSystem(ring, one("target"), many("left"), many("right"))
            if classes.get("cofactor") is None:
                _fail("DualPair certificate carries no cofactor")
            cert = verify_dual_system(system, n)
            if cert is not None:
                cert.classes["cofactor"] = one("cofactor")
                cert.omega = multiply(system.target, cert.classes["cofactor"])
        elif kind == "SubmanifoldBound":
            if omega is None or subring is None or iota_star is None:
                _fail("submanifold certificate needs omega, subring and iota_star")
            cert = submanifold_bound(ring, subring, iota_star, omega, n).certificate
        else:
            _fail(f"unknown certificate kind {kind!r}")
    except InvalidSystemError as exc:
        raise VerificationFailure(str(exc)) from exc
    if cert is None:
        _fail(f"the recorded {kind} data do not obstruct in dimension {n}")
    rederived = certificate_to_obj(cert, ring)
    recorded = {k: v for k, v in obj.items() if k not in _CARRIED_KEYS}
    differing = sorted(
        k for k in rederived.keys() | recorded.keys()
        if rederived.get(k) != recorded.get(k)
    )
    if differing:
        _fail("certificate does not match its re-derivation in " + ", ".join(differing))


def witness_to_obj(witness: HomWitness, omega: RingElement | None = None) -> dict:
    obj = witness.to_obj()
    obj["format"] = WITNESS_FORMAT
    if omega is not None:
        obj["omega"] = omega.to_obj()
    return obj


def verify_witness_obj(
    obj: dict, ring: GradedRing, omega: RingElement | None = None
) -> None:
    if obj.get("ring_hash") != ring.hash_hex():
        _fail("witness ring hash does not match the ring")
    witness = HomWitness.from_obj(ring, obj)
    recorded = _recorded_omega(obj, ring)
    if omega is None:
        omega = recorded
    elif recorded is not None and recorded != omega:
        _fail("recorded omega does not match the query omega")
    if omega is None:
        _fail("no omega available to check nonvanishing against")
    if not verify_hom(witness, omega):
        _fail("witness fails multiplicativity or maps omega to zero")


def result_to_obj(result: QueryResult) -> dict:
    obj = {
        "format": VERDICT_FORMAT,
        "query": {
            "manifold": result.query.manifold,
            "omega": result.query.omega,
            "n": result.query.n,
        },
        "ring_hash": result.ring.hash_hex(),
        "ring": result.ring.to_obj(),
        "omega": result.omega.to_obj(),
        "preconditions": result.preconditions,
        "verdict": result.verdict,
        "certificate": (
            certificate_to_obj(result.certificate, result.ring)
            if result.certificate
            else None
        ),
        "witness": (
            witness_to_obj(result.witness, result.omega) if result.witness else None
        ),
        "search_log": result.search_log,
    }
    return obj


def document_json(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def verify_document(
    obj: dict,
    ring: GradedRing | None = None,
    subring: GradedRing | None = None,
) -> str:
    """Re-check an emitted document; returns a summary line, raises on failure."""
    fmt = obj.get("format")
    if fmt == VERDICT_FORMAT:
        q = obj["query"]
        n = int(q["n"])
        try:
            query = Query(q["manifold"], q["omega"], n)
            _, rebuilt, omega, preconditions = _prepare(query)
        except QrobError as exc:
            raise VerificationFailure(f"query does not re-run: {exc}") from exc
        # the rebuilt ring is validated; the embedded copy must be its exact bytes
        if obj.get("ring") != rebuilt.to_obj():
            _fail("query does not rebuild to the embedded ring")
        if obj.get("ring_hash") != rebuilt.hash_hex():
            _fail("embedded ring does not match the recorded hash")
        if omega.to_obj() != obj["omega"]:
            _fail("query omega does not recompute to the recorded class")
        if obj["preconditions"] != preconditions:
            _fail("preconditions report does not recompute")
        verdict = obj.get("verdict")
        if verdict != UNKNOWN and not all(preconditions.values()):
            _fail(f"a {verdict} verdict needs both preconditions to hold")
        if verdict == OBSTRUCTED:
            if not obj.get("certificate"):
                _fail("obstructed verdict without a certificate")
            if int(obj["certificate"]["n"]) != n:
                _fail("certificate target dimension does not match the query")
            # the certificate must obstruct the query class, not one of its own
            if obj["certificate"].get("omega") is None:
                _fail("obstructed verdict certificate names no omega")
            if RingElement.from_obj(rebuilt, obj["certificate"]["omega"]) != omega:
                _fail("certificate omega does not match the query omega")
            verify_certificate_obj(obj["certificate"], rebuilt)
            return f"certificate re-verified ({obj['certificate']['kind']})"
        if verdict == WITNESS:
            if not obj.get("witness"):
                _fail("witness verdict without a witness")
            if int(obj["witness"]["ambient_n"]) != n:
                _fail("witness ambient dimension does not match the query")
            verify_witness_obj(obj["witness"], rebuilt, omega)
            return "witness re-verified"
        if verdict == UNKNOWN:
            if obj.get("certificate") is not None or obj.get("witness") is not None:
                _fail("UNKNOWN verdict must not carry a certificate or witness")
            return "preconditions re-verified (verdict UNKNOWN carries no payload)"
        _fail(f"unknown verdict {verdict!r}")
    if fmt == CERTIFICATE_FORMAT:
        ring = _ring_for(obj, ring)
        sub = subring
        iota = None
        if obj.get("kind") == "SubmanifoldBound":
            if sub is None and obj.get("subring") is not None:
                sub = GradedRing.from_obj(obj["subring"])
            if obj.get("iota_star") is not None:
                iota = [
                    [[fraction_from_str(c) for c in row] for row in mat]
                    for mat in obj["iota_star"]
                ]
        verify_certificate_obj(obj, ring, subring=sub, iota_star=iota)
        return f"certificate re-verified ({obj.get('kind')})"
    if fmt == WITNESS_FORMAT:
        ring = _ring_for(obj, ring)
        verify_witness_obj(obj, ring)
        return "witness re-verified"
    if fmt == RING_FORMAT:
        embedded = GradedRing.from_obj(obj["ring"])
        if embedded.hash_hex() != obj.get("ring_hash"):
            _fail("ring does not match the recorded hash")
        return "ring re-validated"
    _fail(f"unrecognized document format {fmt!r}")
    return ""  # unreachable


def _ring_for(obj: dict, ring: GradedRing | None) -> GradedRing:
    if ring is not None:
        return ring
    if obj.get("ring") is not None:
        return GradedRing.from_obj(obj["ring"])
    _fail("no ring available: pass --ring or embed the ring in the document")
    raise AssertionError  # unreachable


def ring_document(ring: GradedRing) -> dict:
    return {
        "format": RING_FORMAT,
        "ring_hash": ring.hash_hex(),
        "ring": ring.to_obj(),
    }


def kunneth_ideal_basis_doc(
    ring: GradedRing, k: int, basis: list[RingElement]
) -> dict:
    return {
        "format": "qrob.kunneth-ideal/1",
        "ring_hash": ring.hash_hex(),
        "degree": k,
        "dim": len(basis),
        "basis": [b.to_obj() for b in basis],
    }


def submanifold_report_obj(
    report: SubmanifoldReport,
    ring_n: GradedRing,
    ring_m: GradedRing,
    iota_star: list[Matrix],
    omega: RingElement,
) -> dict:
    cert_obj = None
    if report.certificate is not None:
        cert_obj = certificate_to_obj(report.certificate, ring_n)
        cert_obj["subring"] = ring_m.to_obj()
        cert_obj["iota_star"] = [
            [[fraction_to_str(c) for c in row] for row in mat] for mat in iota_star
        ]
    return {
        "format": "qrob.submanifold-report/1",
        "ring_hash": ring_n.hash_hex(),
        "subring_hash": ring_m.hash_hex(),
        "omega": omega.to_obj(),
        "degrees": [
            {
                "degree": r.degree,
                "image_dim": r.image_dim,
                "bound": r.bound,
                "surjective": r.surjective,
            }
            for r in report.degrees
        ],
        "certificate": cert_obj,
    }
