"""Query pipeline paths and document re-verification."""

import dataclasses
import json
import math
from fractions import Fraction

import pytest

from qrob import (
    GradedRing,
    Query,
    QrobError,
    S2xS2,
    Surface,
    Torus,
    build,
    build_with_classes,
    connsum_power,
    parse_manifold,
    parse_omega,
    prywes_bound,
    run_query,
    slice_restriction,
    submanifold_bound,
    verify_document,
)
from qrob import manifolds
from qrob.cli import main
from qrob.errors import InvalidSystemError, VerificationFailure
from qrob.homsearch import EnumBudget
from qrob.obstruct import _PATTERNS, Inequality, KroneckerSystem
from qrob.pipeline import (
    certificate_to_obj,
    document_json,
    result_to_obj,
    ring_document,
    submanifold_report_obj,
)


def test_prywes_path_end_to_end():
    # a surface alone saturates the degree-1 bound: classical dimension bound
    result = run_query(Query("surface(2)", "vol(1)", 2))
    assert result.verdict == "OBSTRUCTED"
    assert result.certificate.kind == "PrywesBound"
    assert result.certificate.degree == 1
    assert (result.certificate.inequality.lhs, result.certificate.inequality.rhs) == (4, 2)
    doc = result_to_obj(result)
    assert verify_document(doc).startswith("certificate re-verified")


def test_torus_witness_path():
    result = run_query(Query("torus(4)", "vol(1)", 4))
    assert result.verdict == "WITNESS"
    assert result.exit_code == 0
    verify_document(result_to_obj(result))


def test_precondition_omega_zero():
    result = run_query(Query("torus(2) * torus(2)", "vol(1) - vol(1)", 2))
    assert result.verdict == "UNKNOWN"
    assert result.preconditions == {
        "omega_nonzero": False,
        "omega_in_kunneth_ideal": False,
    }
    assert result.exit_code == 2
    verify_document(result_to_obj(result))


def test_precondition_omega_outside_ideal():
    result = run_query(Query("sphere(4)", "vol(1)", 4))
    assert result.verdict == "UNKNOWN"
    assert result.preconditions["omega_nonzero"]
    assert not result.preconditions["omega_in_kunneth_ideal"]


def test_wrong_degree_is_an_error():
    with pytest.raises(QrobError):
        run_query(Query("torus(4)", "vol(1)", 3))
    with pytest.raises(QrobError):
        run_query(Query("torus(4)", "vol(1)", 5))
    with pytest.raises(QrobError):
        run_query(Query("torus(4)", "vol(1)", 1))


def test_mixed_degree_omega_is_an_error():
    with pytest.raises(QrobError):
        run_query(Query("torus(2) * cp(2)", "vol(1) + vol(1)^sym(2)", 2))


def test_unknown_budget_reporting():
    result = run_query(
        Query("connsum(s2xs2,3) * cp(2)", "vol(1)^sym(2)", 6),
        budget=EnumBudget(max_nodes=100),
    )
    assert result.verdict == "UNKNOWN"
    log = result.search_log["enumeration"]
    assert log["nodes"] == 100 and not log["space_exhausted"]


def test_verdict_document_rejects_query_tampering():
    result = run_query(Query("surface(2) * cp(2)", "vol(1)^sym(2)", 4))
    doc = json.loads(document_json(result_to_obj(result)))
    doc["query"]["manifold"] = "surface(3) * cp(2)"
    with pytest.raises(VerificationFailure):
        verify_document(doc)


def test_verdict_document_rejects_verdict_swap():
    result = run_query(Query("surface(2) * cp(2)", "vol(1)^sym(2)", 4))
    doc = result_to_obj(result)
    doc["verdict"] = "WITNESS"
    with pytest.raises(VerificationFailure):
        verify_document(doc)


def test_verdict_document_rejects_downgrade_with_payload():
    result = run_query(Query("surface(2) * cp(2)", "vol(1)^sym(2)", 4))
    doc = result_to_obj(result)
    doc["verdict"] = "UNKNOWN"
    with pytest.raises(VerificationFailure):
        verify_document(doc)


def test_obstructed_verdict_rejects_query_omega_swap():
    # the H1Annihilator certificate obstructs vol(1)^sym(2), not sym(2)^sym(2),
    # for which the query has a witness
    result = run_query(Query("surface(2) * cp(2)", "vol(1)^sym(2)", 4))
    doc = json.loads(document_json(result_to_obj(result)))
    doc["query"]["omega"] = "sym(2)^sym(2)"
    ring, factors = build_with_classes(parse_manifold(doc["query"]["manifold"]))
    doc["omega"] = parse_omega("sym(2)^sym(2)", ring, factors).to_obj()
    with pytest.raises(VerificationFailure, match="omega"):
        verify_document(doc)


def test_obstructed_verdict_requires_certificate_omega():
    result = run_query(Query("surface(2) * cp(2)", "vol(1)^sym(2)", 4))
    doc = json.loads(document_json(result_to_obj(result)))
    del doc["certificate"]["omega"]
    with pytest.raises(VerificationFailure, match="omega"):
        verify_document(doc)


def test_verdict_document_rejects_dimension_swaps():
    result = run_query(Query("connsum(s2xs2,8) * cp(2)", "vol(1)^sym(2)", 6))
    doc = result_to_obj(result)
    doc["query"]["n"] = 4
    with pytest.raises(VerificationFailure):
        verify_document(doc)
    doc = result_to_obj(result)
    doc["certificate"]["n"] = 4
    with pytest.raises(VerificationFailure):
        verify_document(doc)


def test_dual_pair_verdict_requires_cofactor(tmp_path, capsys):
    result = run_query(Query("connsum(s2xs2,8) * cp(2)", "vol(1)^sym(2)", 6))
    assert result.certificate.kind == "DualPair"
    doc = json.loads(document_json(result_to_obj(result)))
    del doc["certificate"]["classes"]["cofactor"]
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 1
    assert "cofactor" in capsys.readouterr().out


def test_dual_pair_certificate_requires_nonzero_omega():
    # a family that pairs off against the target proves nothing about a zero
    # omega = target * cofactor, so the standalone certificate must fail
    result = run_query(Query("connsum(s2xs2,8) * cp(2)", "vol(1)^sym(2)", 6))
    assert result.certificate.kind == "DualPair"
    doc = certificate_to_obj(result.certificate)
    doc["ring"] = result.ring.to_obj()
    assert verify_document(doc) == "certificate re-verified (DualPair)"
    zero = result.ring.zero().to_obj()
    doc["classes"]["cofactor"] = doc["omega"] = zero
    with pytest.raises(VerificationFailure, match="cofactor is zero"):
        verify_document(doc)


def test_prywes_certificate_requires_top_degree_n():
    ring = build(connsum_power(S2xS2(), 8))
    assert prywes_bound(ring, 3) is None  # the bound is unsound below the top degree
    cert = prywes_bound(ring, 4)
    assert cert is not None and cert.degree == 2
    doc = certificate_to_obj(cert)
    doc["ring"] = ring.to_obj()
    assert verify_document(doc) == "certificate re-verified (PrywesBound)"
    # C(3,2) = 3 < 16 still holds, but n = 3 is not the top degree
    doc["n"] = 3
    doc["inequality"]["rhs"] = 3
    with pytest.raises(VerificationFailure, match="top degree"):
        verify_document(doc)


def test_verdict_document_requires_canonical_embedded_ring():
    # an equal value written non-canonically ("2/2" for "1") is rejected too
    result = run_query(Query("surface(2) * cp(2)", "vol(1)^sym(2)", 4))
    doc = json.loads(document_json(result_to_obj(result)))
    verify_document(doc)
    pair = doc["ring"]["structure"][0]["products"][0][2][0]
    value = Fraction(pair[1])
    pair[1] = f"{2 * value.numerator}/{2 * value.denominator}"
    with pytest.raises(VerificationFailure, match="embedded ring"):
        verify_document(doc)


def test_obstructed_verdict_rejects_edited_conclusion():
    result = run_query(Query("surface(2) * cp(2)", "vol(1)^sym(2)", 4))
    doc = json.loads(document_json(result_to_obj(result)))
    doc["certificate"]["conclusion"] = "no homomorphism exists for any omega."
    with pytest.raises(VerificationFailure, match="conclusion"):
        verify_document(doc)


def test_submanifold_certificate_round_trip(tmp_path, capsys):
    left, right = build(Surface(2)), build(Torus(2))
    ring, factors = build_with_classes(parse_manifold("surface(2) * torus(2)"))
    omega = parse_omega("vol(1) + vol(2)", ring, factors)
    iota = slice_restriction(left, right)
    report = submanifold_bound(ring, left, iota, omega, 2)
    cert = submanifold_report_obj(report, ring, left, iota, omega)["certificate"]
    assert cert["kind"] == "SubmanifoldBound" and cert["degree"] == 1
    ring_path = tmp_path / "ring.json"
    ring_path.write_text(document_json(ring_document(ring)))
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(document_json(cert))
    assert main(["verify", str(cert_path), "--ring", str(ring_path)]) == 0
    assert capsys.readouterr().out == "OK: certificate re-verified (SubmanifoldBound)\n"
    cert["degree"] = 9
    cert_path.write_text(document_json(cert))
    assert main(["verify", str(cert_path), "--ring", str(ring_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("FAIL:") and "degree" in captured.out
    assert "Traceback" not in captured.out + captured.err


def test_submanifold_report_verifies_with_ring(tmp_path, capsys):
    left, right = build(Surface(2)), build(Torus(2))
    ring, factors = build_with_classes(parse_manifold("surface(2) * torus(2)"))
    omega = parse_omega("vol(1) + vol(2)", ring, factors)
    iota = slice_restriction(left, right)
    report = submanifold_bound(ring, left, iota, omega, 2)
    doc = json.loads(document_json(submanifold_report_obj(report, ring, left, iota, omega)))
    ring_path, report_path = tmp_path / "ring.json", tmp_path / "report.json"
    ring_path.write_text(document_json(ring_document(ring)))

    def verify(edited):
        report_path.write_text(document_json(edited))
        code = main(["verify", str(report_path), "--ring", str(ring_path)])
        return code, capsys.readouterr().out

    assert verify(doc) == (0, "OK: submanifold report re-derived\n")
    edited = json.loads(json.dumps(doc))
    edited["degrees"][1]["image_dim"] = 3
    code, out = verify(edited)
    assert code == 1 and out.startswith("FAIL:") and "degrees" in out
    # without a certificate the report records no restriction map
    code, out = verify(dict(doc, certificate=None))
    assert code == 1 and out.startswith("FAIL:") and "no restriction map" in out


def test_obstructed_verdict_requires_preconditions(tmp_path, capsys):
    # an honest DualPair certificate, zeroed to match a zero omega: the claim
    # would be vacuous, and check never searches a query whose preconditions fail
    honest = run_query(Query("connsum(s2xs2,8) * cp(2)", "vol(1)^sym(2)", 6))
    assert honest.certificate.kind == "DualPair"
    cert = json.loads(document_json(result_to_obj(honest)))["certificate"]
    zero_query = Query(
        "connsum(s2xs2,8) * cp(2)", "vol(1)^sym(2) - vol(1)^sym(2)", 6
    )
    result = run_query(zero_query)
    assert result.verdict == "UNKNOWN"
    assert not any(result.preconditions.values())
    doc = json.loads(document_json(result_to_obj(result)))
    zero = result.ring.zero().to_obj()
    cert["omega"] = zero
    cert["classes"]["cofactor"] = zero
    doc["verdict"] = "OBSTRUCTED"
    doc["certificate"] = cert
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 1
    assert "preconditions" in capsys.readouterr().out
    with pytest.raises(VerificationFailure, match="preconditions"):
        verify_document(doc)


@pytest.mark.parametrize("n", range(5))
def test_kronecker_certificate_needs_n_equal_to_omega_degree(n):
    # target * cofactor has degree 6: a bound read in any other dimension
    # proves nothing, even though C(n, 3) < 16 for every n below 6
    honest = run_query(Query("connsum(s2xs2,8) * cp(2)", "vol(1)^sym(2)", 6))
    cert = honest.certificate
    assert cert.kind == "DualPair" and cert.omega.degree() == 6
    system = KroneckerSystem.from_classes(cert.kind, cert.classes, lambda x: x)
    with pytest.raises(InvalidSystemError, match="degree n"):
        system.certificate(n)
    # the document that certificate(n) used to write, with the ring embedded
    m, kp, rhs = cert.inequality.lhs, cert.k_prime, math.comb(n, cert.k_prime)
    forged = dataclasses.replace(
        cert, n=n, inequality=Inequality(m, ">", rhs),
        conclusion=_PATTERNS["DualPair"].conclusion.format(m=m, kp=kp, n=n, rhs=rhs),
    )
    doc = dict(certificate_to_obj(forged), ring=honest.ring.to_obj())
    with pytest.raises(VerificationFailure, match="degree n"):
        verify_document(doc)


def test_verdict_document_rejects_dimension_above_top_degree(tmp_path, capsys):
    # check rejects n = 99 on a 4-dimensional ring, so verify must too
    result = run_query(Query("torus(2) * torus(2)", "vol(1) - vol(1)", 2))
    doc = json.loads(document_json(result_to_obj(result)))
    verify_document(doc)
    doc["query"]["n"] = 99
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 1
    assert "top degree" in capsys.readouterr().out
    with pytest.raises(VerificationFailure, match="top degree"):
        verify_document(doc)


def _first_ring_product_index_to_false(doc):
    products = doc["ring"]["structure"][0]["products"]
    assert products[0][0] == 0
    products[0][0] = False


_OBSTRUCTED_QUERY = Query("surface(2) * cp(2)", "vol(1)^sym(2)", 4)
_WITNESS_QUERY = Query("surface(1) * cp(2)", "vol(1)^sym(2)", 4)


@pytest.mark.parametrize("query, edit", [
    pytest.param(_OBSTRUCTED_QUERY, lambda doc: doc["query"].update(n=4.0),
                 id="query-n-float"),
    pytest.param(_OBSTRUCTED_QUERY, _first_ring_product_index_to_false,
                 id="ring-zero-as-false"),
    pytest.param(_WITNESS_QUERY, lambda doc: doc["witness"].update(format="edited"),
                 id="witness-format"),
    pytest.param(_WITNESS_QUERY, lambda doc: doc.update(note="edited"),
                 id="extra-top-level-key"),
    pytest.param(_WITNESS_QUERY, lambda doc: doc.update(certificate=[]),
                 id="witness-verdict-empty-certificate"),
])
def test_verdict_document_rejects_edit_outside_the_payload_checks(query, edit):
    # each edited value compares equal under `==` or sits in a field that no
    # payload check reads; only the byte comparison with the re-emitted
    # document catches it
    doc = json.loads(document_json(result_to_obj(run_query(query))))
    verify_document(doc)
    edit(doc)
    with pytest.raises(VerificationFailure):
        verify_document(doc)


@pytest.mark.parametrize("query", [_OBSTRUCTED_QUERY, _WITNESS_QUERY],
                         ids=["obstructed", "witness"])
def test_verdict_verify_writes_the_rebuilt_ring_once(query, monkeypatch):
    # verify compares the recorded ring with the rebuilt ring's canonical
    # text and takes the embedded copy from the document; writing the rebuilt
    # ring a second time for the expected document would be thrown away
    doc = json.loads(document_json(result_to_obj(run_query(query))))
    monkeypatch.setattr(manifolds, "_BUILD_CACHE", {})
    calls = []
    to_obj = GradedRing.to_obj

    def counted(ring):
        calls.append(ring)
        return to_obj(ring)

    monkeypatch.setattr(GradedRing, "to_obj", counted)
    verify_document(doc)
    assert len(calls) == 1
