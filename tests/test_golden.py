"""Byte identity of the CATALOG verdict documents.

Each digest is the SHA-256 of `document_json(result_to_obj(run_query(q)))`
for one CATALOG query, search_log included. A change to the search, the
certificate or witness payloads, or the document layout shows up here; when
such a change is intended, update the digest and say why in CHANGES.md.
"""

import functools
import hashlib
import json

import pytest

from conftest import CATALOG
from qrob import Query, run_query
from qrob.pipeline import document_json, result_to_obj, verify_document

GOLDEN = {
    ("torus(2)", "vol(1)", 2):
        "4c96bcc2bc2ec40ea32e7105d9a7cf7eff649d762dd8e68141c4b30052c9be3a",
    ("torus(3)", "vol(1)", 3):
        "7b72067287b6239c2baaba05f29efceafed316deb0eb29affaa00b21c511181c",
    ("torus(4)", "vol(1)", 4):
        "1d6dfe4f1ecf2f33a5ca4c380c98c689c22de509e9fe0085c9a5907aa0ceda85",
    ("torus(5)", "vol(1)", 5):
        "831f0a16583bede253525a5fe7de66334750edfc9a2d4244d3f0978669dff4aa",
    ("surface(1) * cp(2)", "vol(1)^sym(2)", 4):
        "b1809825b7bc230eebe7632928738c3e968e4f097f7d35c2573b3a6d9ec00a07",
    ("surface(2) * cp(2)", "vol(1)^sym(2)", 4):
        "38d6bc5a28d81f239b9cc64594cd90a3f8cf073182882b3f1ab714b1a170d41d",
    ("surface(3) * cp(2)", "vol(1)^sym(2)", 4):
        "8dcc81efcbb9f9d6b090908a23ba26d6f70cfb1b61e772088cfc1a6e070d2277",
    ("surface(4) * cp(2)", "vol(1)^sym(2)", 4):
        "aab1e4690157e9f3a198c0df08464330e2d56134584e4961a33f780f6c422e81",
    ("surface(5) * cp(2)", "vol(1)^sym(2)", 4):
        "8fac8b92bfd2ead242dfa8c5736a65d2dcc9c1c5ca90ce9995a5ffa9506bcc86",
    ("connsum(s2xs2,1) * cp(2)", "vol(1)^sym(2)", 6):
        "ea464f698e9dfd98fdb379d6de49177fda7f9cffe5c0eb05a7f948f8eca47c2c",
    ("connsum(s2xs2,2) * cp(2)", "vol(1)^sym(2)", 6):
        "7b0c8a58e1310e29def55e454426aed7a96bea2bda4c6ccc51dbc40da62c49b5",
    ("connsum(s2xs2,3) * cp(2)", "vol(1)^sym(2)", 6):
        "c1a1a421cf1dd0fdc5ad1f014148e68bf6fc7f62750b32174e9add2146253b42",
    ("connsum(s2xs2,4) * cp(2)", "vol(1)^sym(2)", 6):
        "2d5a136cd92900065264b7d30ab6a7387b402a3a05b83591ac63fecf326a2a41",
    ("connsum(s2xs2,5) * cp(2)", "vol(1)^sym(2)", 6):
        "8402b22043ccdf69b766bc274799047ebecfa2f149f606b85f04ab6b39270496",
    ("connsum(s2xs2,6) * cp(2)", "vol(1)^sym(2)", 6):
        "ef4dce00a84dd0cad47f2ac63f9416194b92766e98e63707e9beb7e309bff047",
    ("connsum(s2xs2,7) * cp(2)", "vol(1)^sym(2)", 6):
        "dc7757f2b51b559814864f6869b07334993f54ec450e2ac5efedfa49e1787fa0",
    ("connsum(s2xs2,8) * cp(2)", "vol(1)^sym(2)", 6):
        "0a3c90ab4800a9eb3779b0c1b56154d8649c6b63ab8b6273d87c5f59f0f826a5",
    ("connsum(s2xs2,9) * cp(2)", "vol(1)^sym(2)", 6):
        "2885d40e7f9bead08eb4277a9f1724ab475d5acaf9dc1c7bd734a57669525c1a",
    ("connsum(s2xs2,10) * cp(2)", "vol(1)^sym(2)", 6):
        "97b1f1f53bbe4d0afef7de5156c5641430731a5ae562b4f5e95f34b0fb193aae",
    ("cp(2)", "sym(1)^sym(1)", 4):
        "9d178840a6d6556eda66a3bdd494bd667dd241414fc73fa06dd72f8626ffa06f",
    ("cp(3)", "sym(1)^sym(1)^sym(1)", 6):
        "63e927fb582a2a2bc89702729c41dfe9ecf8f28e53fa840990119485bc7c3660",
}


@functools.cache
def _document(query) -> str:
    return document_json(result_to_obj(run_query(Query(*query))))


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
