"""The number rule: an exact rational is an int when it is integral and a
Fraction otherwise, never a float or a bool.

Integral values enter as ints wherever a value is read or built (literals,
constructors, ring tables), and Python arithmetic keeps them ints; the one
division, by an elimination pivot other than +-1, yields Fractions.
"""

from fractions import Fraction

import pytest

from conftest import (
    CATALOG,
    WORKLOAD_QUERIES,
    reference_gauss_jordan,
    reference_invert,
    reference_solve_many,
)
from qrob import Query, run_query
from qrob.dsl import parse_manifold, parse_omega
from qrob.exterior import ExtElement
from qrob.homsearch import HomWitness
from qrob.linalg import exact, invert, rref, solve_many
from qrob.manifolds import build_with_classes
from qrob.ring import GradedRing, RingElement

QUERIES = tuple(dict.fromkeys([*CATALOG, *WORKLOAD_QUERIES]))


def _is_exact(c) -> bool:
    return type(c) is int or type(c) is Fraction


def _read_back(c) -> bool:
    """A value read from a document: an int exactly when it is integral."""
    return type(c) is int if c.denominator == 1 else type(c) is Fraction


def _coords(x: RingElement):
    return [c for vec in x.coords().values() for c in vec.values()]


def _image_terms(witness: HomWitness) -> list:
    return [c for per in witness.images.values() for img in per for _, c in img.items()]


def _classes(cert) -> list[RingElement]:
    out = []
    for value in cert.classes.values():
        if isinstance(value, RingElement):
            out.append(value)
        elif isinstance(value, list):
            out.extend(value)
    return out


@pytest.mark.parametrize("query", QUERIES, ids=[f"{m}|{o}|{n}" for m, o, n in QUERIES])
def test_query_values_are_ints_or_fractions(query):
    result = run_query(Query(*query))
    ring, omega = result.ring, result.omega
    # every built-in ring has integral constants, stored as ints, and so
    # does the ring its document reads back to
    reread = GradedRing.from_obj(ring.to_obj())
    for r in (ring, reread):
        assert all(
            type(c) is int
            for table in r.structure.values()
            for vec in table.values()
            for c in vec.values()
        )
    # the query's omega is built from int constants, so it is int too
    assert omega is not None and _coords(omega) and all(type(c) is int for c in _coords(omega))
    assert all(_read_back(c) for c in _coords(RingElement.from_obj(ring, omega.to_obj())))
    if result.certificate is not None:
        classes = _classes(result.certificate)
        assert classes and all(_is_exact(c) for x in classes for c in _coords(x))
        for x in classes:
            assert all(_read_back(c) for c in _coords(RingElement.from_obj(ring, x.to_obj())))
    if result.witness is not None:
        terms = _image_terms(result.witness)
        assert terms and all(_is_exact(c) for c in terms)
        reread_witness = HomWitness.from_obj(ring, result.witness.to_obj())
        assert all(_read_back(c) for c in _image_terms(reread_witness))


def test_constructors_keep_integral_values_int():
    assert [type(exact(x)) for x in (3, True, Fraction(6, 3), 2.0, "4/2")] == [int] * 5
    assert [exact(x) for x in (Fraction(1, 2), 0.25)] == [Fraction(1, 2), Fraction(1, 4)]
    assert type(exact(0.25)) is Fraction
    ring, factors = build_with_classes(parse_manifold("torus(4)"))
    values = [Fraction(2), True, Fraction(1, 2), Fraction(4, 2), 0, 0.5]
    x = RingElement(ring, {2: dict(enumerate(values))})
    types = [int, int, Fraction, int, Fraction]
    assert [type(c) for c in _coords(x)] == types
    assert [type(c) for c in _coords(x.scale(Fraction(3, 1)))] == types
    assert all(type(x.coefficient(k, i)) is int for k, i in [(3, 0), (3, 3), (2, 4)])
    assert all(type(c) is int for c in _coords(ring.basis_element(2, 1)))
    e = ExtElement(3, {(1,): Fraction(4, 2), (2,): True, (3,): Fraction(1, 3)})
    assert [type(c) for _, c in e.items()] == [int, int, Fraction]
    assert type(e.coefficient((1, 2))) is int
    for text, kind in (("4/2*vol(1)", int), ("-3/5*vol(1)", Fraction), ("-vol(1)", int)):
        (c,) = _coords(parse_omega(text, ring, factors))
        assert type(c) is kind, text


def test_elimination_divides_by_pivots_2_and_minus_3():
    # pivot 2 in column 0, then -3 in column 1: the one division, exact
    rows = [{0: 2, 1: 4, 2: 1}, {1: -3, 2: 1}]
    reduced, pivots = rref(rows)
    assert pivots == [0, 1]
    assert reduced == [{0: 1, 2: Fraction(7, 6)}, {1: 1, 2: Fraction(-1, 3)}]
    assert reduced == [
        {c: v for c, v in enumerate(r) if v} for r in reference_gauss_jordan(
            [[2, 4, 1], [0, -3, 1]])[0]
    ]
    assert rows == [{0: 2, 1: 4, 2: 1}, {1: -3, 2: 1}]
    assert all(type(v) is int for row in rows for v in row.values())
    square = [{0: 2, 1: 4}, {1: -3}]
    inverse = invert(square)
    assert inverse == [{0: Fraction(1, 2), 1: Fraction(2, 3)}, {1: Fraction(-1, 3)}]
    assert inverse == [{c: v for c, v in enumerate(r) if v}
                       for r in reference_invert([[2, 4], [0, -3]])]
    (x,) = solve_many(square, [{0: 1, 1: 1}], 2)
    assert x == {0: Fraction(7, 6), 1: Fraction(-1, 3)}
    assert [x[0], x[1]] == reference_solve_many([[2, 4], [0, -3]], [[1, 1]])[0]
    for out in (*reduced, *inverse, x):
        assert all(_is_exact(v) for v in out.values())
        assert not any(isinstance(v, float) for v in out.values())


def test_unit_pivots_keep_int_rows_int():
    # pivots 1 and -1 need no division, so int rows stay int throughout
    rows = [{0: -1, 1: 2, 2: 3}, {0: 1, 1: -1, 2: 5}]
    reduced, pivots = rref(rows)
    assert pivots == [0, 1] and reduced == [{0: 1, 2: 13}, {1: 1, 2: 8}]
    assert all(type(v) is int for row in reduced for v in row.values())
    inverse = invert([{0: 1, 1: 2}, {1: -1}])
    assert inverse == [{0: 1, 1: 2}, {1: -1}]
    assert all(type(v) is int for row in inverse for v in row.values())
