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

from conftest import CATALOG, cert_oracle_accepts, found_system
from qrob import Query, VerificationFailure, run_query
from qrob.cli import main
from qrob.obstruct import _PATTERNS
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
        "8b674e3d48ae8e427d3132ebde89e638f18c154234ace7c13a819e564256e853",
    ("torus(3)", "vol(1)", 3):
        "0aba245c28202746b04309337f72fe49b739c566f0316133e3170d901c993def",
    ("torus(4)", "vol(1)", 4):
        "726121fd16cd820bc70b441f23c74d32b7aa85134e26ff1dd6882a14a5fd69f8",
    ("torus(5)", "vol(1)", 5):
        "88314a71f24b99a1278bdfc41b8aed49159d14abf6689dc4254dc48d550335a1",
    ("surface(1) * cp(2)", "vol(1)^sym(2)", 4):
        "cfb5949aa64b81d7a5720abbf0bf914c739cbc6dec9202ec5e02defe782d5955",
    ("surface(2) * cp(2)", "vol(1)^sym(2)", 4):
        "bfafba73f4e57729e9e37bbbe3bf317af15302b83e3e525b0aa7941078672044",
    ("surface(3) * cp(2)", "vol(1)^sym(2)", 4):
        "9be41bb08535cd92347c2a79060eb1eb1966d6b2096d016458434a5f5629c291",
    ("surface(4) * cp(2)", "vol(1)^sym(2)", 4):
        "b883af1199a0d84b46ddf7672ba35c23f50403bd72001a958ee76e1daf25c686",
    ("surface(5) * cp(2)", "vol(1)^sym(2)", 4):
        "df0f2afdf7ca085ea82a0724c88575940b610e6cfcc1ffd0108dbbc070a212f2",
    ("connsum(s2xs2,1) * cp(2)", "vol(1)^sym(2)", 6):
        "43d41667973e556fe264da37db5eef0e86dfe70a76e9d829dbd0b885479743d2",
    ("connsum(s2xs2,2) * cp(2)", "vol(1)^sym(2)", 6):
        "d5bb8cb92da847960c4303b96b538e9d6d335e5a623b047fc1ac379f3e672c4e",
    ("connsum(s2xs2,3) * cp(2)", "vol(1)^sym(2)", 6):
        "adf554018855fd17bd4606af68101349aadfaef6e6ad65dc7bd4cb4a435678c2",
    ("connsum(s2xs2,4) * cp(2)", "vol(1)^sym(2)", 6):
        "cb06623c94c59445dc30f6358c975e73fc31fbffab7b9f3602bae9ed3f008c2e",
    ("connsum(s2xs2,5) * cp(2)", "vol(1)^sym(2)", 6):
        "c80558f0d24627b551493c3f45c337a335c206327888760bd37fc6fc8b0fe895",
    ("connsum(s2xs2,6) * cp(2)", "vol(1)^sym(2)", 6):
        "2e32764a5ca518139242301a59c9a3b0c1059408f5840a47f0693149250baea4",
    ("connsum(s2xs2,7) * cp(2)", "vol(1)^sym(2)", 6):
        "dceb5cd00cfe00232e0bb659944ebb4cf604d071c5ef35aa7116e04fd980b5ca",
    ("connsum(s2xs2,8) * cp(2)", "vol(1)^sym(2)", 6):
        "cd365d4792c399ece1f2a07a9c568e8421b726346f1a8fbb998ad944a76957c7",
    ("connsum(s2xs2,9) * cp(2)", "vol(1)^sym(2)", 6):
        "37bf99568c0db0423a170e4ac23237a9053b94cfcd57db86f43ac5516deab838",
    ("connsum(s2xs2,10) * cp(2)", "vol(1)^sym(2)", 6):
        "2dab31aa2d4a5a8536c38b6883d6f3f9dbbd7889210f71ea8f38de96c4561977",
    ("cp(2)", "sym(1)^sym(1)", 4):
        "1dd50df694a683b64fe31d4a4ad998a55a04be1b4b9192e90360d50cd0c1015b",
    ("cp(3)", "sym(1)^sym(1)^sym(1)", 6):
        "a3e6f6dfda19543b616337eb1b7c162d9d79ad2a41ef630ae11912beeafac06d",
}

# Queries whose omega has a non-integral coefficient, so the Fraction path of
# every layer is written out: the SHA-256 of each `check -o` document, with
# the exit code of its verdict.
NONINTEGRAL_GOLDEN = {
    ("surface(2) * cp(2)", "2/3*vol(1)^sym(2)", 4):
        (1, "ed3805dc0c80e23aa705fcbccc95b67a8ff847102dc38348d04096ecbc786619"),
    ("connsum(s2xs2,8) * cp(2)", "1/2*vol(1)^sym(2)", 6):
        (1, "78f3054e7fa859e531c5a4d07e39fd83759b744268638c1241127afa65541374"),
    ("torus(4)", "-3/5*vol(1)", 4):
        (0, "0874d038126f16af0696584226a16a6d6352b06602078e4e915a7b253cbb890c"),
    ("cp(3)", "7/2*sym(1)^sym(1)^sym(1)", 6):
        (0, "b67600acba4fb6e8df9f861ab9c77811df725e9980d5b9ada504bf4b03723dd0"),
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
    coefficient doubled."""
    cert = json.loads(json.dumps(cert))
    row = next(v for v in cert["classes"].values() if isinstance(v, list))[0]
    pair = next(iter(row["coords"].values()))[0]
    pair[1] = str(2 * Fraction(pair[1]))
    return cert


def _with_one_more_pair(cert: dict, query) -> dict | None:
    """A copy of a certificate object whose families gain the next row and
    column of the system the search certified with, a valid system one class
    longer than the least breaking family; None when it has no more."""
    system = found_system(query)
    m = cert["inequality"]["lhs"]
    if len(system.rows) == m:
        return None
    cert = json.loads(json.dumps(cert))
    row, col, _ = _PATTERNS[cert["kind"]].roles
    cert["classes"][row].append(system.rows[m].to_obj())
    cert["classes"][col].append(system.cols[m].to_obj())
    return cert


def test_certificate_oracle_agrees_with_verify():
    # every certificate of a CATALOG or NONINTEGRAL_GOLDEN query, in its
    # verdict and as a standalone certificate document, then each with one
    # family coefficient doubled and, where the search's system has one, with
    # one more valid pair than the least family; the oracle shares no code
    # with qrob
    kinds, longer = [], 0
    for query in (*CATALOG, *NONINTEGRAL_GOLDEN):
        result = _result(query)
        if result.certificate is None:
            continue
        kinds.append(result.certificate.kind)
        ring_obj = result.ring.to_obj()
        verdict = json.loads(_document(query))
        standalone = certificate_to_obj(result.certificate)
        tampered = [_with_one_family_coefficient_doubled(standalone)]
        tampered += [c for c in [_with_one_more_pair(standalone, query)] if c]
        longer += len(tampered) - 1
        for accepted, cert in [(True, standalone), *((False, c) for c in tampered)]:
            assert cert_oracle_accepts(ring_obj, cert, verdict["omega"]) is accepted, query
            assert _verify_accepts(cert, result.ring) is accepted, query
            doc = dict(verdict, certificate=cert)
            assert cert_oracle_accepts(ring_obj, doc["certificate"], doc["omega"]) is accepted
            assert _verify_accepts(doc) is accepted, query
    assert kinds == ["H1Annihilator"] * 4 + ["DualPair"] * 3 + ["H1Annihilator", "DualPair"]
    assert longer == 5  # surface(3..5) * cp(2) and connsum(s2xs2,9..10) * cp(2)
