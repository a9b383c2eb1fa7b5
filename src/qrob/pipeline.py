"""Query pipeline and re-verifiable JSON documents.

`run_query` wires build -> form-class evaluation -> ideal membership ->
obstruction search -> witness search and reports one of OBSTRUCTED, WITNESS,
or UNKNOWN together with a preconditions report. Every emitted document is
deterministic and re-checkable via `verify_document`.
"""

from __future__ import annotations

from .dsl import parse_manifold, parse_omega
from .errors import QrobError, VerificationFailure
from .homsearch import (
    MAX_NODES,
    HomWitness,
    enumerate_hom_detailed,
    verify_hom,
    witness_template,
)
from .linalg import fraction_to_str
from .manifolds import ManifoldExpr, build_with_classes
from .obstruct import (
    Certificate,
    KroneckerSystem,
    prywes_bound,
    search_obstruction,
)
from .ring import (
    RING_FORMAT,
    GradedRing,
    RingElement,
    canonical_json,
    in_kunneth_ideal,
    kunneth_ideal_basis,
    poincare_pairing,
)
from .record import Frozen, Record

VERDICT_FORMAT = "qrob.verdict/4"
CERTIFICATE_FORMAT = "qrob.certificate/3"
WITNESS_FORMAT = "qrob.witness/3"
KUNNETH_IDEAL_FORMAT = "qrob.kunneth-ideal/3"

WITNESS = "WITNESS"
OBSTRUCTED = "OBSTRUCTED"
UNKNOWN = "UNKNOWN"

EXIT_BY_VERDICT = {WITNESS: 0, OBSTRUCTED: 1, UNKNOWN: 2}


class Query(Frozen):
    __slots__ = ("manifold", "omega", "n")


class QueryResult(Record):
    __slots__ = ("query", "ring", "omega", "verdict", "preconditions", "certificate",
                 "witness", "search_log")
    _defaults = {"certificate": None, "witness": None, "search_log": None}

    @property
    def exit_code(self) -> int:
        return EXIT_BY_VERDICT[self.verdict]


def _prepare(query: Query) -> tuple[ManifoldExpr, GradedRing, tuple, RingElement, dict]:
    """Build the query's ring with its factors' named classes and omega, check
    n and omega's degree, and compute the preconditions report; raise
    QrobError on a malformed query."""
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
    return expr, ring, factors, omega, preconditions


def run_query(query: Query, max_nodes: int = MAX_NODES) -> QueryResult:
    expr, ring, factors, omega, preconditions = _prepare(query)
    if not all(preconditions.values()):
        return QueryResult(
            query, ring, omega, UNKNOWN, preconditions,
            search_log={
                "stopped": "precondition",
                "detail": "the necessary-condition hypotheses fail; no search run",
            },
        )
    certificate = search_obstruction(ring, omega, query.n)
    if certificate is not None:
        return QueryResult(
            query, ring, omega, OBSTRUCTED, preconditions,
            certificate=certificate,
        )
    witness = witness_template(expr, factors, omega, query.n)
    if witness is not None:
        return QueryResult(
            query, ring, omega, WITNESS, preconditions,
            witness=witness, search_log={"witness_method": "template"},
        )
    outcome = enumerate_hom_detailed(ring, omega, query.n, max_nodes)
    if outcome.witness is not None:
        return QueryResult(
            query, ring, omega, WITNESS, preconditions,
            witness=outcome.witness,
            search_log={"witness_method": "enumeration", "nodes": outcome.nodes},
        )
    return QueryResult(
        query, ring, omega, UNKNOWN, preconditions,
        search_log={
            "obstruction": "no certificate found",
            "template": "no verified template",
            "enumeration": {
                "nodes": outcome.nodes,
                "max_nodes": max_nodes,
                "space_exhausted": outcome.space_exhausted,
            },
        },
    )


# -- JSON documents -----------------------------------------------------------


def certificate_to_obj(cert: Certificate) -> dict:
    classes = {}
    for role, value in cert.classes.items():
        if isinstance(value, RingElement):
            classes[role] = value.to_obj()
        else:
            classes[role] = [v.to_obj() for v in value]
    obj = {
        "format": CERTIFICATE_FORMAT,
        "kind": cert.kind,
        "ring_hash": cert.ring_hash,
        "n": cert.n,
        "classes": classes,
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


def verify_certificate_obj(obj: dict, ring: GradedRing) -> Certificate:
    """Re-derive a certificate with the search's own code and return it.

    Kronecker certificates are rebuilt from their recorded classes and the
    dimension bound from the ring; any other kind fails. Raises when the
    recorded data do not obstruct; `verify_document` then compares the
    re-emitted certificate with the recorded one.
    """
    kind = obj["kind"]
    n = int(obj["n"])
    omega = obj.get("omega")
    omega = None if omega is None else RingElement.from_obj(ring, omega)
    if kind == "PrywesBound":
        if n != ring.top_degree:
            raise VerificationFailure("the dimension bound needs n equal to the top degree")
        cert = prywes_bound(ring, n, omega)
    else:  # a Kronecker kind; from_classes rejects any other
        system = KroneckerSystem.from_classes(
            kind, obj.get("classes", {}), lambda o: RingElement.from_obj(ring, o)
        )
        cert = system.certificate(n)
    if cert is None:
        raise VerificationFailure(f"the recorded {kind} data do not obstruct in dimension {n}")
    return cert


def witness_to_obj(witness: HomWitness, omega: RingElement) -> dict:
    obj = witness.to_obj()
    obj["format"] = WITNESS_FORMAT
    obj["omega"] = omega.to_obj()
    return obj


def result_to_obj(result: QueryResult) -> dict:
    """The verdict document; it names its ring by `ring_hash` only, since
    `verify` rebuilds the ring from the query."""
    return {
        "format": VERDICT_FORMAT,
        "query": {
            "manifold": result.query.manifold,
            "omega": result.query.omega,
            "n": result.query.n,
        },
        "ring_hash": result.ring.hash_hex(),
        "omega": result.omega.to_obj(),
        "preconditions": result.preconditions,
        "verdict": result.verdict,
        "certificate": (
            certificate_to_obj(result.certificate) if result.certificate else None
        ),
        "witness": (
            witness_to_obj(result.witness, result.omega) if result.witness else None
        ),
        "search_log": result.search_log,
    }


def document_json(obj: dict) -> str:
    """obj in the canonical encoding that ring hashes use, one line per file."""
    return canonical_json(obj) + "\n"


_ABSENT = object()


def _differences(expected, recorded, path: str = "") -> list[str]:
    """Paths where two JSON values differ in bytes: a missing key is not a
    null one, and 0 is not false nor 1 the same as 1.0, as `==` would say."""
    if isinstance(expected, dict) and isinstance(recorded, dict):
        return [
            bad
            for key in sorted(expected.keys() | recorded.keys())
            for bad in _differences(
                expected.get(key, _ABSENT), recorded.get(key, _ABSENT),
                f"{path}.{key}" if path else key,
            )
        ]
    same = expected is recorded or _ABSENT not in (expected, recorded) and (
        canonical_json(expected) == canonical_json(recorded)
    )
    return [] if same else [path]


def verify_document(obj: dict, ring: GradedRing | None = None) -> str:
    """Re-check an emitted document; returns a summary line.

    The payload is re-derived with the search's own code and re-emitted with
    the emitters' own code, and every top-level key must serialize to the
    recorded bytes; only a verdict's advisory `search_log` is left out. Any
    failure, a malformed document included, raises VerificationFailure.
    """
    try:
        expected, summary = _rederive(obj, ring)
        differing = _differences(expected, obj)
    except VerificationFailure:
        raise
    # a failed proof, or what the search's own code raises on a malformed payload
    except (QrobError, KeyError, TypeError, ValueError, AttributeError,
            ZeroDivisionError, IndexError, OverflowError) as exc:
        raise VerificationFailure(f"{type(exc).__name__}: {exc}") from exc
    if differing:
        raise VerificationFailure(
            "document does not match its re-derivation at " + ", ".join(differing)
        )
    return summary


def _rederive(obj: dict, ring: GradedRing | None) -> tuple[dict, str]:
    """The document that the emitters write for obj's re-derived payload.

    Only a ring document holds a ring. A verdict's ring is rebuilt from its
    query; every other document's ring is `ring`, which the re-emitted
    `ring_hash` must name.
    """
    fmt = obj.get("format")
    if fmt == VERDICT_FORMAT:
        q = obj["query"]
        query = Query(q["manifold"], q["omega"], int(q["n"]))
        _, rebuilt, _, omega, preconditions = _prepare(query)
        if ring is not None and ring != rebuilt:
            raise VerificationFailure("the given ring's ring_hash is not the query's ring_hash")
        verdict = obj["verdict"]
        if verdict != UNKNOWN and not all(preconditions.values()):
            raise VerificationFailure(f"a {verdict} verdict needs both preconditions to hold")
        result = QueryResult(query, rebuilt, omega, verdict, preconditions)
        if verdict == OBSTRUCTED:
            cert = verify_certificate_obj(obj["certificate"], rebuilt)
            if cert.n != query.n or cert.omega != omega:
                raise VerificationFailure("the certificate's n and omega must be the query's")
            result.certificate = cert
            summary = f"certificate re-verified ({cert.kind})"
        elif verdict == WITNESS:
            witness = HomWitness.from_obj(rebuilt, obj["witness"])
            if witness.ambient_n != query.n:
                raise VerificationFailure("witness ambient dimension does not match the query")
            if not verify_hom(witness, omega):
                raise VerificationFailure("witness fails multiplicativity or maps omega to zero")
            result.witness = witness
            summary = "witness re-verified"
        elif verdict == UNKNOWN:
            summary = "preconditions re-verified (verdict UNKNOWN carries no payload)"
        else:
            raise VerificationFailure(f"unknown verdict {verdict!r}")
        expected = result_to_obj(result)
        expected["search_log"] = obj.get("search_log", _ABSENT)  # advisory
        return expected, summary
    if fmt == RING_FORMAT:
        embedded = GradedRing.from_obj(obj["ring"])
        if ring is not None and ring != embedded:
            raise VerificationFailure("--ring is unused: it is not the ring this document holds")
        expected = ring_document(embedded)
        if "pairings" in obj:
            expected["pairings"] = pairings_obj(embedded)
        return expected, "ring re-validated"
    if fmt not in (CERTIFICATE_FORMAT, WITNESS_FORMAT, KUNNETH_IDEAL_FORMAT):
        raise VerificationFailure(f"unrecognized document format {fmt!r}")
    if ring is None:
        raise VerificationFailure("no ring available: pass --ring")
    if fmt == KUNNETH_IDEAL_FORMAT:
        k = obj["degree"]
        expected = kunneth_ideal_basis_doc(ring, k, kunneth_ideal_basis(ring, k))
        summary = "product ideal basis re-derived"
    elif fmt == CERTIFICATE_FORMAT:
        cert = verify_certificate_obj(obj, ring)
        expected = certificate_to_obj(cert)
        summary = f"certificate re-verified ({cert.kind})"
    else:
        witness = HomWitness.from_obj(ring, obj)
        omega = RingElement.from_obj(ring, obj["omega"])
        if not verify_hom(witness, omega):
            raise VerificationFailure("witness fails multiplicativity or maps omega to zero")
        expected = witness_to_obj(witness, omega)
        summary = "witness re-verified"
    return expected, summary


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
        "format": KUNNETH_IDEAL_FORMAT,
        "ring_hash": ring.hash_hex(),
        "degree": k,
        "dim": len(basis),
        "basis": [b.to_obj() for b in basis],
    }


def pairings_obj(ring: GradedRing) -> dict:
    """The duality pairing matrices that `ring show` adds to a ring document."""
    return {
        str(k): [[fraction_to_str(c) for c in row] for row in poincare_pairing(ring, k)]
        for k in range(ring.top_degree + 1)
    }
