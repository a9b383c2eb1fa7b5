"""Query pipeline paths and document re-verification."""

import json

import pytest

from qrob import (
    Query,
    QrobError,
    build_with_classes,
    parse_manifold,
    parse_omega,
    run_query,
    verify_document,
)
from qrob.errors import VerificationFailure
from qrob.homsearch import EnumBudget
from qrob.pipeline import document_json, result_to_obj


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
