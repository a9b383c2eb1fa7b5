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

import pytest

from conftest import CATALOG
from qrob import Query, run_query
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
        "201acf3d110eec4ba639d92c5f0eafc78814e1c621b68fd961972adad5c9c554",
    ("torus(3)", "vol(1)", 3):
        "a56ad08607e2e40aad8373b57df90ef7858e1a8dcc2a4e432b370e9ff71bce4a",
    ("torus(4)", "vol(1)", 4):
        "6d085186e965c487c00b3bec86e1c9d3962133d8c5279083f9ccd5f618aff460",
    ("torus(5)", "vol(1)", 5):
        "a36bb74f73a34ba6c51757b72476019ca7ac0075a6631178abcf9c6e7c2c022e",
    ("surface(1) * cp(2)", "vol(1)^sym(2)", 4):
        "4ee117ad9e1b6db9894f127ea17e555c60772d00e478e863d18321acaf4fafbb",
    ("surface(2) * cp(2)", "vol(1)^sym(2)", 4):
        "3eee151459ddf13bba87b9811ade9bec8cdbe8fbff09f32fe800ff244936238e",
    ("surface(3) * cp(2)", "vol(1)^sym(2)", 4):
        "1e9b9e17269af03bfeb5da4c392063b97490cf4305b60d491cd79bcdfa3de716",
    ("surface(4) * cp(2)", "vol(1)^sym(2)", 4):
        "e50f216b587227436d949355767f309879bfb2a3f2dd58550cb2e677dd3283c4",
    ("surface(5) * cp(2)", "vol(1)^sym(2)", 4):
        "7b3129918b4085329264a0d5ad4659949b6ec33c45e4b8809e9613a6b3deaf22",
    ("connsum(s2xs2,1) * cp(2)", "vol(1)^sym(2)", 6):
        "c6b08f7bb4eb09ad82da3421445de8916baed1c031cd51b3800229dc2ec7048c",
    ("connsum(s2xs2,2) * cp(2)", "vol(1)^sym(2)", 6):
        "b38169f5857a51287dc24f8d85be23646a59060df399efedaa912653fd12a8a5",
    ("connsum(s2xs2,3) * cp(2)", "vol(1)^sym(2)", 6):
        "7ef5ffef35963b03eeb8a4d576d2932bf72727720e924a8ab5ae01e9be429120",
    ("connsum(s2xs2,4) * cp(2)", "vol(1)^sym(2)", 6):
        "ea29888f26b29d54b0deb88856dae4cc79f38987e144ce3455a16a9b972b4475",
    ("connsum(s2xs2,5) * cp(2)", "vol(1)^sym(2)", 6):
        "7f2c538a0fb7e5d6cfb304c97d05ad6b324f120c3c567e86b67ebf8e3b50a232",
    ("connsum(s2xs2,6) * cp(2)", "vol(1)^sym(2)", 6):
        "2c1f5226cdcc07dfce24c97281ac44951623c6aebd251a9521f1e344a5b71cb0",
    ("connsum(s2xs2,7) * cp(2)", "vol(1)^sym(2)", 6):
        "6fbd50219d34bc9198c3a370b5d402d2ee29f2b63afda63f71740d148a66440c",
    ("connsum(s2xs2,8) * cp(2)", "vol(1)^sym(2)", 6):
        "b9ca0272dc3788cd2844919a7d4e8b814ab9c46dfd2743797f5dd616b7bc3e75",
    ("connsum(s2xs2,9) * cp(2)", "vol(1)^sym(2)", 6):
        "1e9f1d527f96694a1b8ffa9057ab9ea17806a1dd6518c642b76d6118da044d69",
    ("connsum(s2xs2,10) * cp(2)", "vol(1)^sym(2)", 6):
        "1ee22a5234285fd8d81efb25640d463ec46790a1c6010407ad200877302b42bb",
    ("cp(2)", "sym(1)^sym(1)", 4):
        "7e4ed7f2974d131cb13dbb581ea45f945522f47219772958f845ac0a7097809a",
    ("cp(3)", "sym(1)^sym(1)^sym(1)", 6):
        "a156c69bfc9759a55f11f24303b7f3cd6330bf0f9d65db3376ade8fee19e4b8c",
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
    # no derived products table, and every ring product is its nonzero
    # coordinates as [index, "coefficient"] pairs in increasing index
    doc = json.loads(_document(query))
    verify_document(doc)
    assert "products_table" not in (doc["certificate"] or {})
    for table in doc["ring"]["structure"]:
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
