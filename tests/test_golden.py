"""Byte identity of the CATALOG verdict documents.

Each digest is the SHA-256 of `document_json(result_to_obj(run_query(q)))`
for one CATALOG query, search_log included. A change to the search, the
certificate or witness payloads, or the document layout shows up here; when
such a change is intended, update the digest and say why in CHANGES.md.
"""

import hashlib

import pytest

from conftest import CATALOG
from qrob import Query, run_query
from qrob.pipeline import document_json, result_to_obj

GOLDEN = {
    ("torus(2)", "vol(1)", 2):
        "f066ceec8a6f22f8f2aafda4e7f634150287d34f1897a1c919f572d2fb906ec7",
    ("torus(3)", "vol(1)", 3):
        "adf3b5290adfdcd10b042ab396dabd1d4983d7b21c6bec64366498ee1075874b",
    ("torus(4)", "vol(1)", 4):
        "0f339df1c4c43876f6e8fb87f12ef91178230883d3a0bfa791bdd978ecc00fc6",
    ("torus(5)", "vol(1)", 5):
        "ec4d4dea82769bca87e85d7171719f52d5a7eb31a8f5c3145f14709bc53ab395",
    ("surface(1) * cp(2)", "vol(1)^sym(2)", 4):
        "4560f9d27e2ab5e1d17032c01de1e83ae18977166c0ce2855762240cc3bfd856",
    ("surface(2) * cp(2)", "vol(1)^sym(2)", 4):
        "b1390360852269c0ee3c6eb5b70511c7fe0431118cd36708f47a118eade6526d",
    ("surface(3) * cp(2)", "vol(1)^sym(2)", 4):
        "0e7ceeed87b77a0d0870204599fad25afca46aa3ee2ac4a9de223f929d02e644",
    ("surface(4) * cp(2)", "vol(1)^sym(2)", 4):
        "ded937996be9b5a9f3c32a47f4fd0f5d542b551c406f3460ed891aeb27109e92",
    ("surface(5) * cp(2)", "vol(1)^sym(2)", 4):
        "194b96df024b751e16f626f33b994158c443c0f6bf75cb6068041462d151dde2",
    ("connsum(s2xs2,1) * cp(2)", "vol(1)^sym(2)", 6):
        "02f096eb3f5829a719140586a2f16a3797e31296faa929b2883a95ba0895ca24",
    ("connsum(s2xs2,2) * cp(2)", "vol(1)^sym(2)", 6):
        "bb39128be2fcd3fa9bb3f0f71060a8d85784e55db76dce11c828bf2ba2923cb5",
    ("connsum(s2xs2,3) * cp(2)", "vol(1)^sym(2)", 6):
        "b07240239964b2b5c1abde12dc40a1b852a74c88864217153dd60e5f75fe6c2c",
    ("connsum(s2xs2,4) * cp(2)", "vol(1)^sym(2)", 6):
        "4784539ce1c2b84857b81abd950e628128d7a64a7f43d5529b52a0650b191955",
    ("connsum(s2xs2,5) * cp(2)", "vol(1)^sym(2)", 6):
        "8b156abb540ea7bbe081acd7ea091f1651e1cb378e2bf5d392a9255f9d593cd5",
    ("connsum(s2xs2,6) * cp(2)", "vol(1)^sym(2)", 6):
        "2153604167add9fcf0f1d57132682557596eea91924902f65292e3db985c6013",
    ("connsum(s2xs2,7) * cp(2)", "vol(1)^sym(2)", 6):
        "62e96ebae19dc88798b8c713d183223ad7abe14e5a244dfac72bb9b8a63b9d07",
    ("connsum(s2xs2,8) * cp(2)", "vol(1)^sym(2)", 6):
        "11ce18aa2012d0cc11f6ab802e8dbb50c1d6479f56a8a68e1d8c067dd6136aee",
    ("connsum(s2xs2,9) * cp(2)", "vol(1)^sym(2)", 6):
        "71fc313faa1a32b466c0ce0ef329266c77fe44a52024e32adaad53637d5f0c3b",
    ("connsum(s2xs2,10) * cp(2)", "vol(1)^sym(2)", 6):
        "693e351b9d3d2a763871cb3b33dae2849d5ac29b24bb9aaa4be05c85872c8ac2",
    ("cp(2)", "sym(1)^sym(1)", 4):
        "7f3dd37dff9ef822956646fe451d8745565b583d9bcfb7c2919bc08feb6a9bb5",
    ("cp(3)", "sym(1)^sym(1)^sym(1)", 6):
        "f5523ea02c488324c9deccaaea174f593005e930cfbf47828c4bda02df8cf270",
}


def test_golden_covers_the_catalog():
    assert set(GOLDEN) == set(CATALOG)


@pytest.mark.parametrize("query", CATALOG,
                         ids=[f"{m}|{o}|{n}" for m, o, n in CATALOG])
def test_catalog_document_bytes(query):
    doc = document_json(result_to_obj(run_query(Query(*query))))
    assert hashlib.sha256(doc.encode()).hexdigest() == GOLDEN[query]
