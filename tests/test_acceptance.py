"""Acceptance criteria, one test per criterion with its stated time budget.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""

import io
import json
import random
import time
from contextlib import contextmanager, redirect_stdout

from conftest import (
    CATALOG,
    LAW_RINGS,
    found_system,
    ring_law_failure,
    wedge_blades_oracle,
)
from qrob import (
    Sphere,
    Torus,
    build,
    build_with_classes,
    dim_component,
    in_kunneth_ideal,
    kunneth_ideal_basis,
    parse_manifold,
    parse_omega,
    poincare_pairing,
    search_obstruction,
    wedge,
    witness_template,
)
from qrob.cli import main
from qrob.exterior import ExtElement, blades, merge_axes
from qrob.homsearch import enumerate_hom_detailed
from qrob.pipeline import verify_document
from conftest import _oracle_rank, convolve


@contextmanager
def criterion(number: int, description: str, budget_s: float):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s ({elapsed:.1f}s)"
    print(f"[criterion {number}] PASS ({elapsed:.2f}s < {budget_s:.0f}s): {description}")


def _check(tmpdir, manifold, omega, n, **extra):
    out = tmpdir / f"verdict_{abs(hash((manifold, omega, n)))}.json"
    argv = ["check", manifold, "--omega", omega, "--n", str(n), "-o", str(out)]
    for key, value in extra.items():
        argv += [f"--{key}", str(value)]
    with redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, json.loads(out.read_text())


def test_criterion_1_surface_family(tmp_path):
    with criterion(1, "surface(g) x cp(2): obstructed for g>=2 with m=2g, witness for g=1", 5 * 5):
        for g in (2, 3, 4, 5):
            start = time.monotonic()
            code, doc = _check(tmp_path, f"surface({g})*cp(2)", "vol(1)^sym(2)", 4)
            assert time.monotonic() - start < 5
            assert code == 1 and doc["verdict"] == "OBSTRUCTED"
            cert = doc["certificate"]
            assert cert["kind"] == "H1Annihilator"
            # the search finds all 2g annihilators; the certificate records
            # the least family that breaks m >= 4
            query = (f"surface({g})*cp(2)", "vol(1)^sym(2)", 4)
            assert len(found_system(query).rows) == 2 * g
            assert cert["inequality"] == {"lhs": 4, "rel": ">=", "rhs": 4}
            assert len(cert["classes"]["annihilators"]) == 4
            verify_document(doc)
        start = time.monotonic()
        code, doc = _check(tmp_path, "surface(1)*cp(2)", "vol(1)^sym(2)", 4)
        assert time.monotonic() - start < 5
        assert code == 0 and doc["verdict"] == "WITNESS"
        assert verify_document(doc) == "witness re-verified"


def test_criterion_2_connsum_family(tmp_path):
    with criterion(2, "connsum(s2xs2,v) x cp(2): obstructed for v>=8 with m=2v vs 15; open below", 30 * 10):
        for nu in (8, 9, 10):
            start = time.monotonic()
            code, doc = _check(
                tmp_path, f"connsum(s2xs2,{nu})*cp(2)", "vol(1)^sym(2)", 6
            )
            assert time.monotonic() - start < 30
            assert code == 1 and doc["verdict"] == "OBSTRUCTED"
            cert = doc["certificate"]
            assert cert["kind"] == "DualPair"
            query = (f"connsum(s2xs2,{nu})*cp(2)", "vol(1)^sym(2)", 6)
            assert len(found_system(query).rows) == 2 * nu
            assert cert["inequality"] == {"lhs": 16, "rel": ">", "rhs": 15}
            assert len(cert["classes"]["left"]) == 16
            verify_document(doc)
        for nu in range(1, 8):
            start = time.monotonic()
            code, doc = _check(
                tmp_path, f"connsum(s2xs2,{nu})*cp(2)", "vol(1)^sym(2)", 6
            )
            assert time.monotonic() - start < 30
            assert doc["verdict"] in ("WITNESS", "UNKNOWN")
            assert doc["verdict"] != "OBSTRUCTED" and code in (0, 2)


def test_criterion_3_kunneth_suite():
    with criterion(3, "product-ideal layers: spheres empty, torus volumes, cp powers, sum class", 4):
        for n in range(2, 7):
            start = time.monotonic()
            ring = build(Sphere(n))
            assert kunneth_ideal_basis(ring, n) == []
            assert not in_kunneth_ideal(ring, ring.fundamental_class())
            assert time.monotonic() - start < 1
        for n in range(2, 6):
            start = time.monotonic()
            ring = build(Torus(n))
            assert in_kunneth_ideal(ring, ring.fundamental_class())
            assert time.monotonic() - start < 1
        for m in (2, 3):
            start = time.monotonic()
            ring, factors = build_with_classes(parse_manifold(f"cp({m + 1})"))
            power = parse_omega("^".join(["sym(1)"] * m), ring, factors)
            assert not power.is_zero()
            assert in_kunneth_ideal(ring, power)
            assert time.monotonic() - start < 1
        start = time.monotonic()
        ring, factors = build_with_classes(parse_manifold("surface(2)*surface(2)"))
        omega = parse_omega("vol(1) + vol(2)", ring, factors)
        assert in_kunneth_ideal(ring, omega)
        assert time.monotonic() - start < 1


def test_criterion_4_ring_properties(capsys):
    with criterion(4, "catalog and workload rings: laws, pairings, dims arithmetic", 10):
        for manifold in LAW_RINGS:
            ring = build(parse_manifold(manifold))
            ring.validate()  # commutativity, words, generator-left associativity, pairing
            assert ring_law_failure(ring.to_obj()) is None, manifold  # exhaustive
            one = ring.unit()
            for k in range(ring.top_degree + 1):
                mat = poincare_pairing(ring, k)
                assert _oracle_rank(mat) == ring.dims[k]
                for x in ring.basis(k):
                    assert one * x == x and x * one == x
        for left_text, right_text in [("surface(2)", "cp(2)"), ("torus(3)", "torus(2)")]:
            left = build(parse_manifold(left_text))
            right = build(parse_manifold(right_text))
            prod = build(parse_manifold(f"{left_text} * {right_text}"))
            assert list(prod.dims) == convolve(list(left.dims), list(right.dims))
        for nu in (2, 5):
            ring = build(parse_manifold(f"connsum(s2xs2,{nu})"))
            single = build(parse_manifold("s2xs2"))
            for k in range(1, ring.top_degree):
                assert ring.dims[k] == nu * single.dims[k]
            assert ring.dims[0] == ring.dims[ring.top_degree] == 1


def test_criterion_5_exterior_oracle():
    with criterion(5, "wedge kernel vs permutation oracle; counts; anticommutativity", 10):
        for n in range(1, 6):
            for p in range(n + 1):
                for q in range(n + 1):
                    for a in blades(n, p):
                        for b in blades(n, q):
                            assert merge_axes(a, b) == wedge_blades_oracle(a, b)
            for k in range(n + 2):
                assert dim_component(n, k) == len(list(blades(n, k)))
        rng = random.Random(5)
        n = 5
        basis_by_degree = {k: list(blades(n, k)) for k in range(1, n + 1)}

        def rand(degree):
            basis = basis_by_degree[degree]
            terms = {}
            for _ in range(2):
                axes = rng.choice(basis)
                terms[axes] = terms.get(axes, 0) + rng.randint(-3, 3)
            return ExtElement(n, {a: c for a, c in terms.items() if c})

        for p in range(1, n + 1):
            for q in range(1, n + 1):
                sign = -1 if (p * q) % 2 else 1
                for _ in range(1000):
                    a, b = rand(p), rand(q)
                    assert wedge(a, b) == wedge(b, a).scale(sign)


def test_criterion_6_round_trip_and_tampering(tmp_path):
    with criterion(6, "emitted documents re-verify; single-coefficient tampering detected", 5):
        cases = [
            ("surface(1)*cp(2)", "vol(1)^sym(2)", 4),   # witness
            ("surface(2)*cp(2)", "vol(1)^sym(2)", 4),   # annihilator certificate
            ("connsum(s2xs2,8)*cp(2)", "vol(1)^sym(2)", 6),  # dual-pair certificate
        ]
        docs = []
        for manifold, omega, n in cases:
            _, doc = _check(tmp_path, manifold, omega, n)
            verify_document(doc)
            docs.append(doc)

        def fails(doc):
            try:
                verify_document(doc)
            except Exception:
                return True
            return False

        tampered = json.loads(json.dumps(docs[0]))
        tampered["witness"]["images"]["1"][0]["terms"][0]["coeff"] = "2"
        assert fails(tampered)
        tampered = json.loads(json.dumps(docs[1]))
        tampered["certificate"]["classes"]["duals"][0]["coords"]["1"][0][1] = "3"
        assert fails(tampered)
        tampered = json.loads(json.dumps(docs[2]))
        tampered["certificate"]["classes"]["left"][0]["coords"]["2"][0][1] = "7"
        assert fails(tampered)
        # a verdict names its ring only by hash: another ring's hash fails,
        # and so does an embedded ring, even the query's own
        tampered = json.loads(json.dumps(docs[2]))
        tampered["ring_hash"] = docs[1]["ring_hash"]
        assert fails(tampered)
        tampered = json.loads(json.dumps(docs[2]))
        tampered["ring"] = build(parse_manifold(cases[2][0])).to_obj()
        assert fails(tampered)


def test_criterion_7_soundness_exclusion():
    with criterion(7, "no catalog input admits both a certificate and a witness", 60):
        for manifold, omega_text, n in CATALOG:
            expr = parse_manifold(manifold)
            ring, factors = build_with_classes(expr)
            omega = parse_omega(omega_text, ring, factors)
            assert in_kunneth_ideal(ring, omega)
            certificate = search_obstruction(ring, omega, n)
            witness = witness_template(expr, factors, omega, n)
            if witness is None:
                witness = enumerate_hom_detailed(ring, omega, n, 5_000).witness
            assert not (certificate is not None and witness is not None), manifold


def test_criterion_8_submanifold_bound(tmp_path):
    # a product with a torus factor has the curve x -> (p, pi(x)), with
    # pi: R^n -> T^n the covering map, however large the other factor's
    # cohomology; no restriction to a slice obstructs it
    with criterion(8, "slice products with a torus factor: verified witnesses", 5):
        cases = [
            ("surface(2) * torus(2)", 2),
            ("torus(2) * torus(2)", 2),
            ("connsum(s2xs2,4) * torus(4)", 4),
        ]
        for manifold, n in cases:
            code, doc = _check(tmp_path, manifold, "vol(1) + vol(2)", n)
            assert (code, doc["verdict"]) == (0, "WITNESS"), manifold
            assert verify_document(doc) == "witness re-verified"
            if manifold == "surface(2) * torus(2)":
                labels = build(parse_manifold(manifold)).labels[1]
                images = doc["witness"]["images"]["1"]
                for t, axis in (("t1", 1), ("t2", 2)):
                    assert images[labels.index(f"1⊗{t}")] == {
                        "ambient_n": 2, "terms": [{"axes": [axis], "coeff": "1"}],
                    }
