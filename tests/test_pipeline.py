"""Query pipeline paths and document re-verification."""

import copy
import json
import math
import pickle

import pytest

import qrob.linalg
import qrob.ring
from conftest import cert_oracle_accepts
from qrob import (
    GradedRing,
    Query,
    QueryResult,
    QrobError,
    S2xS2,
    Surface,
    build,
    build_with_classes,
    connsum_power,
    kunneth_ideal_basis,
    parse_manifold,
    parse_omega,
    prywes_bound,
    run_query,
    verify_document,
)
from qrob.cli import main
from qrob.errors import InvalidSystemError, VerificationFailure
from qrob.obstruct import _PATTERNS, Certificate, Inequality, KroneckerSystem
from qrob.pipeline import (
    certificate_to_obj,
    document_json,
    result_to_obj,
    ring_document,
    witness_to_obj,
)


def test_readme_library_example():
    # the README shows these reprs
    result = run_query(Query("surface(2) * cp(2)", "vol(1)^sym(2)", 4))
    assert repr(result.verdict) == "'OBSTRUCTED'"
    assert repr(result.certificate.inequality) == "Inequality(lhs=4, rel='>=', rhs=4)"


def test_records_are_immutable_or_fresh():
    query = Query("torus(2)", "vol(1)", 2)
    inequality = Inequality(4, ">=", 4)
    for record, name in ((query, "n"), (inequality, "lhs")):
        with pytest.raises(AttributeError):
            setattr(record, name, 3)
        assert getattr(record, name) != 3
    # each certificate built without classes gets its own dict
    first = Certificate("DualPair", "hash", 2, inequality, "conclusion")
    second = Certificate(kind="DualPair", ring_hash="hash", n=2,
                         inequality=inequality, conclusion="conclusion")
    first.classes["left"] = []
    assert second.classes == {} and first.classes is not second.classes
    assert (second.omega, second.degree, second.k_prime) == (None, None, None)


def test_results_pickle_and_copy():
    # a query and its result cross process boundaries, as in a worker pool
    query = Query("surface(2) * cp(2)", "vol(1)^sym(2)", 4)
    result = pickle.loads(pickle.dumps(run_query(query)))
    assert (result.query.manifold, result.verdict) == (query.manifold, "OBSTRUCTED")
    assert result.certificate.inequality.lhs == 4
    expr = parse_manifold(query.manifold)
    assert pickle.loads(pickle.dumps(expr)) == expr == copy.deepcopy(expr)
    assert copy.copy(query).n == 4


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
        max_nodes=100,
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
    assert verify_document(doc, ring=result.ring) == "certificate re-verified (DualPair)"
    zero = result.ring.zero().to_obj()
    doc["classes"]["cofactor"] = doc["omega"] = zero
    with pytest.raises(VerificationFailure, match="cofactor is zero"):
        verify_document(doc, ring=result.ring)


def test_prywes_certificate_requires_top_degree_n():
    ring = build(connsum_power(S2xS2(), 8))
    assert prywes_bound(ring, 3) is None  # the bound is unsound below the top degree
    cert = prywes_bound(ring, 4)
    assert cert is not None and cert.degree == 2
    doc = certificate_to_obj(cert)
    assert verify_document(doc, ring=ring) == "certificate re-verified (PrywesBound)"
    assert cert_oracle_accepts(ring.to_obj(), doc, None)
    # C(3,2) = 3 < 16 still holds, but n = 3 is not the top degree
    doc["n"] = 3
    doc["inequality"]["rhs"] = 3
    with pytest.raises(VerificationFailure, match="top degree"):
        verify_document(doc, ring=ring)
    assert not cert_oracle_accepts(ring.to_obj(), doc, None)


def test_standalone_certificate_rejects_a_stray_iota_star():
    # no certificate kind records a restriction map, so a stray iota_star is
    # not echoed back but differs from the re-derivation
    annihilator = run_query(Query("surface(2) * cp(2)", "vol(1)^sym(2)", 4))
    dual = run_query(Query("connsum(s2xs2,8) * cp(2)", "vol(1)^sym(2)", 6))
    ring = build(connsum_power(S2xS2(), 8))
    cases = [
        (annihilator.certificate, annihilator.ring),
        (dual.certificate, dual.ring),
        (prywes_bound(ring, 4), ring),
    ]
    assert [cert.kind for cert, _ in cases] == ["H1Annihilator", "DualPair", "PrywesBound"]
    for cert, ring in cases:
        doc = certificate_to_obj(cert)
        assert verify_document(doc, ring=ring) == f"certificate re-verified ({cert.kind})"
        doc["iota_star"] = [[["7"]]]
        with pytest.raises(VerificationFailure, match="re-derivation at iota_star$"):
            verify_document(doc, ring=ring)


def test_verdict_document_names_its_ring_only_by_hash():
    # verify rebuilds the ring from the query: an edited ring_hash fails, and
    # so does an embedded ring, even the query's own in canonical form
    result = run_query(Query("surface(2) * cp(2)", "vol(1)^sym(2)", 4))
    doc = json.loads(document_json(result_to_obj(result)))
    verify_document(doc)
    other = build(Surface(3)).hash_hex()
    with pytest.raises(VerificationFailure, match="re-derivation at ring_hash$"):
        verify_document(dict(doc, ring_hash=other))
    with pytest.raises(VerificationFailure, match="re-derivation at ring$"):
        verify_document(dict(doc, ring=result.ring.to_obj()))


def test_verdict_verify_requires_a_given_ring_to_be_the_querys(tmp_path, capsys):
    doc_file, ring_file = tmp_path / "verdict.json", tmp_path / "ring.json"
    assert main(["check", "torus(2)", "--omega", "vol(1)", "--n", "2",
                 "-o", str(doc_file)]) == 0
    for expr, code in (("torus(2)", 0), ("cp(2)", 1)):
        assert main(["export", expr, "-o", str(ring_file)]) == 0
        capsys.readouterr()
        assert main(["verify", str(doc_file), "--ring", str(ring_file)]) == code
        out = capsys.readouterr().out
        if code:
            assert out.startswith("FAIL:") and "ring_hash" in out
        else:
            assert out == "OK: witness re-verified\n"


def _standalone_documents():
    """A certificate and a witness document with their rings."""
    obstructed = run_query(Query("surface(2) * cp(2)", "vol(1)^sym(2)", 4))
    witness = run_query(Query("surface(1) * cp(2)", "vol(1)^sym(2)", 4))
    return [
        (certificate_to_obj(obstructed.certificate), obstructed.ring),
        (witness_to_obj(witness.witness, witness.omega), witness.ring),
    ]


def test_standalone_documents_take_their_ring_from_the_caller():
    for doc, ring in _standalone_documents():
        verify_document(doc, ring=ring)
        with pytest.raises(VerificationFailure, match="no ring available"):
            verify_document(doc)
        with pytest.raises(VerificationFailure, match="no ring available"):
            verify_document(dict(doc, ring=ring.to_obj()))
        with pytest.raises(VerificationFailure, match="re-derivation at ring$"):
            verify_document(dict(doc, ring=ring.to_obj()), ring=ring)


def test_obstructed_verdict_rejects_edited_conclusion():
    result = run_query(Query("surface(2) * cp(2)", "vol(1)^sym(2)", 4))
    doc = json.loads(document_json(result_to_obj(result)))
    doc["certificate"]["conclusion"] = "no homomorphism exists for any omega."
    with pytest.raises(VerificationFailure, match="conclusion"):
        verify_document(doc)


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
    # the document that certificate(n) used to write
    m, kp, rhs = cert.inequality.lhs, cert.k_prime, math.comb(n, cert.k_prime)
    forged = Certificate(
        cert.kind, cert.ring_hash, n, Inequality(m, ">", rhs),
        _PATTERNS["DualPair"].conclusion.format(m=m, kp=kp, n=n, rhs=rhs),
        cert.classes, cert.omega, cert.degree, cert.k_prime,
    )
    with pytest.raises(VerificationFailure, match="degree n"):
        verify_document(certificate_to_obj(forged), ring=honest.ring)


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


@pytest.mark.parametrize("edit", [
    pytest.param(_first_ring_product_index_to_false, id="ring-zero-as-false"),
    pytest.param(lambda doc: doc["ring"].update(top_degree=6.0), id="ring-int-as-float"),
    pytest.param(lambda doc: doc.update(note="edited"), id="extra-top-level-key"),
])
def test_ring_document_rejects_edit_outside_the_payload_checks(edit):
    # False == 0 and 6.0 == 6 under `==`; the ring reader and the byte
    # comparison must still refuse each edit
    doc = json.loads(document_json(ring_document(run_query(_OBSTRUCTED_QUERY).ring)))
    verify_document(doc)
    edit(doc)
    with pytest.raises(VerificationFailure):
        verify_document(doc)


@pytest.mark.parametrize("field", ["query-n", "witness-ambient_n", "witness-axes"])
@pytest.mark.parametrize("number", ["1e400", "Infinity"])
def test_infinite_number_in_a_verdict_fails_without_traceback(tmp_path, capsys, field, number):
    # int() of an infinite float raises OverflowError, which is a failed
    # verification like any other malformed payload
    doc = json.loads(document_json(result_to_obj(run_query(_WITNESS_QUERY))))
    marker = -424242
    if field == "query-n":
        doc["query"]["n"] = marker
    elif field == "witness-ambient_n":
        doc["witness"]["ambient_n"] = marker
    else:
        doc["witness"]["images"]["1"][0]["terms"][0]["axes"][0] = marker
    path = tmp_path / "verdict.json"
    path.write_text(json.dumps(doc).replace(str(marker), number))
    assert main(["verify", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("FAIL:")
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("degree, axes", [
    pytest.param("2", [2, 1], id="descending"),
    pytest.param("2", [1, 1], id="repeated"),
    pytest.param("1", None, id="above-n"),
])
def test_malformed_image_blade_in_a_verdict_fails_without_traceback(
    tmp_path, capsys, degree, axes
):
    # wedge and add trust their inputs, so the witness reader must refuse a
    # blade that is not strictly increasing within 1..n
    doc = json.loads(document_json(result_to_obj(run_query(_WITNESS_QUERY))))
    term = doc["witness"]["images"][degree][-1]["terms"][0]
    term["axes"] = axes or [doc["witness"]["ambient_n"] + 1]
    path = tmp_path / "verdict.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("FAIL:") and "axes" in captured.out
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("query", [_OBSTRUCTED_QUERY, _WITNESS_QUERY],
                         ids=["obstructed", "witness"])
def test_check_writes_the_ring_once(query, monkeypatch):
    # the verdict names its ring by hash, so writing it costs one to_json,
    # the one that the hash is taken over
    calls = _count_ring_writes(monkeypatch)
    document_json(result_to_obj(run_query(query)))
    assert len(calls) == 1


def _count_ring_writes(monkeypatch) -> list:
    """Record every GradedRing.to_json, the one serializer of a ring, which
    to_obj reads back too."""
    calls = []
    to_json = GradedRing.to_json

    def counted(ring):
        calls.append(ring)
        return to_json(ring)

    monkeypatch.setattr(GradedRing, "to_json", counted)
    return calls


@pytest.mark.parametrize("query", [_OBSTRUCTED_QUERY, _WITNESS_QUERY],
                         ids=["obstructed", "witness"])
def test_verdict_verify_writes_the_rebuilt_ring_once(query, monkeypatch):
    # verify writes the rebuilt ring once, for the ring_hash that the
    # re-emitted document must match
    doc = json.loads(document_json(result_to_obj(run_query(query))))
    calls = _count_ring_writes(monkeypatch)
    verify_document(doc)
    assert len(calls) == 1


@pytest.mark.parametrize("query", [_WITNESS_QUERY, Query("torus(7)", "vol(1)", 7)],
                         ids=["surface1-cp2", "torus7"])
def test_check_validates_the_ring_once(query, monkeypatch):
    # the template reads the built ring and each factor's generator count
    # from the build, so no factor ring is built or validated again
    calls = []
    validate = GradedRing.validate

    def counted(ring):
        calls.append(ring)
        return validate(ring)

    monkeypatch.setattr(GradedRing, "validate", counted)
    assert run_query(query).verdict == "WITNESS"
    assert len(calls) == 1


def _forged_volume_annihilator_verdict(result) -> dict:
    """check's torus(2) WITNESS result for vol(1), turned OBSTRUCTED by an
    H1Annihilator certificate whose factor is vol itself, with the unit as
    cofactor: t1 and t2 annihilate vol and pair off with t2 and -t1, and
    2 >= 2. Every product in it holds; only the factor's degree is wrong."""
    query, ring, vol = result.query, result.ring, result.omega
    t1, t2 = ring.basis(1)
    cert = Certificate(
        kind="H1Annihilator", ring_hash=ring.hash_hex(), n=2, degree=2,
        inequality=Inequality(2, ">=", 2),
        classes={"factor": vol, "cofactor": ring.unit(),
                 "annihilators": [t1, t2], "duals": [t2, -t1]},
        omega=vol,
        conclusion=_PATTERNS["H1Annihilator"].conclusion.format(m=2, kp=1, n=2, rhs=2),
    )
    forged = QueryResult(query, ring, vol, "OBSTRUCTED", result.preconditions,
                         certificate=cert)
    return json.loads(document_json(result_to_obj(forged)))


def test_forged_volume_annihilator_verdict_fails_verify(tmp_path, capsys):
    # the WITNESS verdict for the same query verifies, so the OBSTRUCTED one
    # must not: two documents that contradict each other never both verify
    result = run_query(Query("torus(2)", "vol(1)", 2))
    assert verify_document(result_to_obj(result)) == "witness re-verified"
    doc = _forged_volume_annihilator_verdict(result)
    with pytest.raises(VerificationFailure, match="annihilators bound nothing"):
        verify_document(doc)
    assert not cert_oracle_accepts(result.ring.to_obj(), doc["certificate"], doc["omega"])
    path = tmp_path / "forged.json"
    path.write_text(document_json(doc))
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr().out.startswith("FAIL:")


def test_check_and_verify_eliminate_the_ideal_rows_once(monkeypatch):
    # the precondition and the search's guard share one RREF of the degree-6
    # ideal rows, and omega is reduced by its rows rather than ranked with them
    query = Query("connsum(s2xs2,12) * cp(2)", "vol(1)^sym(2)", 6)
    ring = build(parse_manifold(query.manifold))
    ideal = qrob.ring._ideal_rows(ring, 6)
    basis = [b.coords()[6] for b in kunneth_ideal_basis(ring, 6)]
    eliminated = []
    eliminate = qrob.linalg._eliminate

    def counted(m, ncols=None):
        eliminated.append(m[: len(ideal)] == ideal or m[: len(basis)] == basis)
        return eliminate(m, ncols)

    monkeypatch.setattr(qrob.linalg, "_eliminate", counted)
    doc = json.loads(document_json(result_to_obj(run_query(query))))
    # without the shared RREF: 4 in check and 2 in verify
    assert doc["verdict"] == "OBSTRUCTED" and sum(eliminated) == 1
    eliminated.clear()
    verify_document(doc)
    assert sum(eliminated) == 1
