"""Byte identity of the CATALOG verdict documents.

Each digest is the SHA-256 of `document_json(result_to_obj(run_query(q)))`
for one CATALOG query, search_log included, in the canonical compact
encoding that ring hashes use. A change to the search, the certificate or
witness payloads, or the encoding shows up here; when such a change is
intended, update the digest and say why in CHANGES.md.
"""

import functools
import hashlib
import json
from fractions import Fraction

import pytest

from conftest import CATALOG, cert_oracle_accepts
from qrob import Query, VerificationFailure, run_query
from qrob.cli import main
from qrob.pipeline import (
    certificate_to_obj,
    document_json,
    result_to_obj,
    ring_document,
    verify_document,
    witness_to_obj,
)

GOLDEN = {
    ("torus(2)", "vol(1)", 2):
        "0fde6c7f8cad50d8607daf6d72677a6b19f0658a5b09e70812b0dcda84ae8584",
    ("torus(3)", "vol(1)", 3):
        "489f711d30a9247cf0596f9ba76c2ac6b285adab28e9b8646f4b99e5593fa153",
    ("torus(4)", "vol(1)", 4):
        "4010ad7a345b852734e82f02f463a8cb6e4eead12fec976e267d52919e7ccbac",
    ("torus(5)", "vol(1)", 5):
        "6db3481cf786b1e071637186ee1e0d608176d411777a016feef7e595bb6a9d20",
    ("surface(1) * cp(2)", "vol(1)^sym(2)", 4):
        "cf80530d3307a408e64633754c56e42a587ed8fdd527a7dd74ce96d5173c79e2",
    ("surface(2) * cp(2)", "vol(1)^sym(2)", 4):
        "d98ae5697bf04db02de06481a9c69ec953c4b98bea87e9e320195e974df2b5ea",
    ("surface(3) * cp(2)", "vol(1)^sym(2)", 4):
        "0b3b2eb27e5d5ccc00886dfc18e2100a5822b2dfd8843efce935b43f2a7cf8d7",
    ("surface(4) * cp(2)", "vol(1)^sym(2)", 4):
        "990f9e98110f6640f7a772d136223ad516f0a09f3ae0cd3ca12737a751199d4d",
    ("surface(5) * cp(2)", "vol(1)^sym(2)", 4):
        "427a70906bfa426270001e3f40efd990275ccf87a23bcc0551bd6752cb971947",
    ("connsum(s2xs2,1) * cp(2)", "vol(1)^sym(2)", 6):
        "b4b5f8b3c387a197b8a685901c87413a6e92e655a735e2adfba688faf49b1dcf",
    ("connsum(s2xs2,2) * cp(2)", "vol(1)^sym(2)", 6):
        "e62dc414ed959a0800628856a51a8a92e109e0fba53bc91aca74a59b86191dc5",
    ("connsum(s2xs2,3) * cp(2)", "vol(1)^sym(2)", 6):
        "6445ce9896c1fc4c83db3ca50f3d6fcb44b1f1f20f928e735e7a60ae245b967d",
    ("connsum(s2xs2,4) * cp(2)", "vol(1)^sym(2)", 6):
        "261db1bf00ef087642df537fd90bfdc6b3ca3587aee7f332940228dddba0cc75",
    ("connsum(s2xs2,5) * cp(2)", "vol(1)^sym(2)", 6):
        "5221e8c5f192f257335ef9df6f7066a04ff95110f5daf3e02ddfa28f8f60cfbb",
    ("connsum(s2xs2,6) * cp(2)", "vol(1)^sym(2)", 6):
        "3ffd6a067856aad27b97031284095f81d3f543e2cc307d698cb48f3ed1172bef",
    ("connsum(s2xs2,7) * cp(2)", "vol(1)^sym(2)", 6):
        "9ee0209edff449c66f68d5ccbc8f83822aa92ff4d7d522eea591d048550d5fb9",
    ("connsum(s2xs2,8) * cp(2)", "vol(1)^sym(2)", 6):
        "b55980b5a11a29eb0654c3ce867ff04a3b58e1f49070eb39437cb95fe995f47e",
    ("connsum(s2xs2,9) * cp(2)", "vol(1)^sym(2)", 6):
        "2a087d9b430ffd2c65411696d320168f2e04dfa6937859698e41c90cac13ea32",
    ("connsum(s2xs2,10) * cp(2)", "vol(1)^sym(2)", 6):
        "7070c538749e75bd0ab388729d6a670bccfa22d4f0ebe24123caba83ce4ee2b1",
    ("cp(2)", "sym(1)^sym(1)", 4):
        "867fe799a89d5f237b5de59d3575a6452a9878166698ef9eed48c2ebb6f049ca",
    ("cp(3)", "sym(1)^sym(1)^sym(1)", 6):
        "f0b9aa086072164c16b79912963b0783da3e657db50839f2d719169b950bd85b",
}

# Queries whose omega has a non-integral coefficient, so the Fraction path of
# every layer is written out: the SHA-256 of each `check -o` document, with
# the exit code of its verdict.
NONINTEGRAL_GOLDEN = {
    ("surface(2) * cp(2)", "2/3*vol(1)^sym(2)", 4):
        (1, "8ecee5b1cb2c50ceafc8a69ac9b83f59229bd7f48e2d4fb19fc83c3bb9fb6193"),
    ("connsum(s2xs2,8) * cp(2)", "1/2*vol(1)^sym(2)", 6):
        (1, "c816a70c28e4f2064e965212a57c20eb3ee45104eca44f858c566edfa3f7711c"),
    ("torus(4)", "-3/5*vol(1)", 4):
        (0, "6c08fc94d5bd63e0e26c162d43655a7b4d8741b66a558a4b6bf8cde7212e1313"),
    ("cp(3)", "7/2*sym(1)^sym(1)^sym(1)", 6):
        (0, "b963f93ccd55a4a85f20ab9de9bebb2e6c4e1f9be6465ac30d6d7b7fe99a86a9"),
}


@functools.cache
def _result(query):
    return run_query(Query(*query))


def _document(query) -> str:
    return document_json(result_to_obj(_result(query)))


def _documents(query) -> list[dict]:
    """The query's verdict and ring documents, and its certificate or witness."""
    result = _result(query)
    docs = [result_to_obj(result), ring_document(result.ring)]
    if result.certificate is not None:
        docs.append(certificate_to_obj(result.certificate))
    if result.witness is not None:
        docs.append(witness_to_obj(result.witness, result.omega))
    return docs


def _indented(obj: dict) -> str:
    """obj in the indented layout that documents had before the compact
    encoding, json.dumps(obj, sort_keys=True, indent=2) byte for byte."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def test_golden_covers_the_catalog():
    assert set(GOLDEN) == set(CATALOG)


@pytest.mark.parametrize("query", CATALOG,
                         ids=[f"{m}|{o}|{n}" for m, o, n in CATALOG])
def test_catalog_document_bytes(query):
    doc = _document(query)
    assert hashlib.sha256(doc.encode()).hexdigest() == GOLDEN[query]


@pytest.mark.parametrize("query", CATALOG,
                         ids=[f"{m}|{o}|{n}" for m, o, n in CATALOG])
def test_catalog_documents_verify_and_keep_products_sparse(query):
    # no derived products table, no ring but in the ring document, and every
    # ring product is its nonzero coordinates as [index, "coefficient"]
    # pairs in increasing index
    doc = json.loads(_document(query))
    verify_document(doc)
    assert "products_table" not in (doc["certificate"] or {})
    assert "ring" not in doc
    ring_doc = json.loads(document_json(ring_document(_result(query).ring)))
    verify_document(ring_doc)
    for table in ring_doc["ring"]["structure"]:
        for _, _, pairs in table["products"]:
            indexes = [t for t, _ in pairs]
            assert pairs and indexes == sorted(set(indexes)), (table["p"], table["q"])
            assert "0" not in [c for _, c in pairs], (table["p"], table["q"])


@pytest.mark.parametrize("query", CATALOG,
                         ids=[f"{m}|{o}|{n}" for m, o, n in CATALOG])
def test_catalog_documents_round_trip_and_match_the_indented_layout(query):
    for obj in _documents(query):
        text = document_json(obj)
        assert text.endswith("\n") and text.count("\n") == 1
        assert document_json(json.loads(text)) == text
        # the indented layout parses to the same value, to the byte
        assert document_json(json.loads(_indented(obj))) == text


# one verdict per certificate kind and verdict: H1Annihilator, DualPair,
# WITNESS, UNKNOWN
@pytest.mark.parametrize("query", [
    ("surface(2) * cp(2)", "vol(1)^sym(2)", 4),
    ("connsum(s2xs2,8) * cp(2)", "vol(1)^sym(2)", 6),
    ("surface(1) * cp(2)", "vol(1)^sym(2)", 4),
    ("connsum(s2xs2,2) * cp(2)", "vol(1)^sym(2)", 6),
])
def test_indented_documents_verify_alike(query, tmp_path, capsys):
    # verify reads JSON, so whitespace in a document written in the older
    # indented layout changes neither the exit code nor the summary line
    ring_path, doc_path = tmp_path / "ring.json", tmp_path / "doc.json"
    ring_path.write_text(document_json(ring_document(_result(query).ring)))
    for obj in _documents(query):
        outputs = []
        for text in (document_json(obj), _indented(obj)):
            doc_path.write_text(text)
            assert main(["verify", str(doc_path), "--ring", str(ring_path)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] and outputs[0].startswith("OK: ")


@pytest.mark.parametrize("query", NONINTEGRAL_GOLDEN,
                         ids=[f"{m}|{o}|{n}" for m, o, n in NONINTEGRAL_GOLDEN])
def test_nonintegral_omega_document_bytes(query, tmp_path, capsys):
    manifold, omega, n = query
    code, digest = NONINTEGRAL_GOLDEN[query]
    path = tmp_path / "doc.json"
    assert main(["check", manifold, "--omega", omega, "--n", str(n), "-o", str(path)]) == code
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    assert main(["verify", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("OK: ")


def _verify_accepts(obj: dict, ring=None) -> bool:
    try:
        verify_document(obj, ring=ring)
    except VerificationFailure:
        return False
    return True


def _with_one_family_coefficient_doubled(cert: dict) -> dict:
    """A copy of a certificate object whose first row class has its first
    nonzero coefficient doubled."""
    cert = json.loads(json.dumps(cert))
    row = next(v for v in cert["classes"].values() if isinstance(v, list))[0]
    vec = next(iter(row["coords"].values()))
    t = next(t for t, c in enumerate(vec) if Fraction(c))
    vec[t] = str(2 * Fraction(vec[t]))
    return cert


def test_certificate_oracle_agrees_with_verify():
    # every certificate of a CATALOG or NONINTEGRAL_GOLDEN query, in its
    # verdict and as a standalone certificate document, then each with one
    # family coefficient doubled; the oracle shares no code with qrob
    kinds = []
    for query in (*CATALOG, *NONINTEGRAL_GOLDEN):
        result = _result(query)
        if result.certificate is None:
            continue
        kinds.append(result.certificate.kind)
        ring_obj = result.ring.to_obj()
        verdict = json.loads(_document(query))
        standalone = certificate_to_obj(result.certificate)
        for accepted, cert in (
            (True, standalone), (False, _with_one_family_coefficient_doubled(standalone)),
        ):
            assert cert_oracle_accepts(ring_obj, cert, verdict["omega"]) is accepted, query
            assert _verify_accepts(cert, result.ring) is accepted, query
            doc = dict(verdict, certificate=cert)
            assert cert_oracle_accepts(ring_obj, doc["certificate"], doc["omega"]) is accepted
            assert _verify_accepts(doc) is accepted, query
    assert kinds == ["H1Annihilator"] * 4 + ["DualPair"] * 3 + ["H1Annihilator", "DualPair"]
