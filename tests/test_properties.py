"""Algebraic laws under randomized inputs."""

import functools
import json
import operator
from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from qrob import (
    ExtElement,
    Query,
    build,
    multiply,
    parse_manifold,
    run_query,
    verify_document,
    wedge,
)
from qrob.errors import VerificationFailure
from qrob.pipeline import document_json, result_to_obj


def ext_elements(max_n=5):
    @st.composite
    def build_elem(draw):
        n = draw(st.integers(min_value=2, max_value=max_n))
        degree = draw(st.integers(min_value=0, max_value=n))
        basis = list(combinations(range(1, n + 1), degree))
        count = draw(st.integers(min_value=0, max_value=min(3, len(basis))))
        terms = {}
        for _ in range(count):
            axes = draw(st.sampled_from(basis))
            coeff = draw(st.integers(min_value=-5, max_value=5))
            terms[axes] = terms.get(axes, 0) + coeff
        return ExtElement(n, {a: c for a, c in terms.items() if c})

    return build_elem()


@st.composite
def ext_pairs(draw):
    a = draw(ext_elements())
    n = a.ambient_n
    degree = draw(st.integers(min_value=0, max_value=n))
    basis = list(combinations(range(1, n + 1), degree))
    terms = {
        draw(st.sampled_from(basis)): draw(st.integers(min_value=-5, max_value=5))
        for _ in range(draw(st.integers(min_value=0, max_value=3)))
    }
    b = ExtElement(n, {k: v for k, v in terms.items() if v})
    return a, b


@settings(max_examples=150, deadline=None)
@given(ext_pairs())
def test_wedge_graded_commutativity(pair):
    a, b = pair
    if a.is_zero() or b.is_zero():
        return
    p, q = a.degree(), b.degree()
    sign = -1 if (p * q) % 2 else 1
    assert wedge(a, b) == wedge(b, a).scale(sign)


@settings(max_examples=100, deadline=None)
@given(ext_elements(), st.data())
def test_wedge_bilinear(a, data):
    n = a.ambient_n
    basis = list(combinations(range(1, n + 1), min(1, n)))
    b = ExtElement(n, {basis[0]: 2})
    c = ExtElement(n, {basis[-1]: -3})
    assert wedge(a, b + c) == wedge(a, b) + wedge(a, c)
    assert wedge(a.scale(Fraction(5, 3)), b) == wedge(a, b).scale(Fraction(5, 3))


@settings(max_examples=100, deadline=None)
@given(ext_elements(max_n=4), ext_elements(max_n=4), ext_elements(max_n=4))
def test_wedge_associative_when_compatible(a, b, c):
    n = max(a.ambient_n, b.ambient_n, c.ambient_n)
    if not (a.ambient_n == b.ambient_n == c.ambient_n == n):
        return
    assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


@settings(max_examples=150, deadline=None)
@given(ext_pairs(), st.sampled_from([0, 1, -1, 3, Fraction(-5, 7)]))
def test_arithmetic_results_keep_the_checked_invariant(pair, factor):
    # wedge, scale, + and - build their results without re-checking them;
    # each must still be what the checked constructor would build
    # a and b have int coefficients, so every result but a scale by a
    # non-integral factor stays int: no Fraction, float or bool appears
    a, b = pair
    results = [wedge(a, b), a.scale(factor), a + b, a - b, -a]
    assert all(type(c) is int for x in (a, b) for _, c in x.items())
    for result in results:
        integral = result is not results[1] or type(factor) is int
        assert all(
            c and (type(c) is int if integral else type(c) is Fraction)
            for _, c in result.items()
        )
        assert result == ExtElement(result.ambient_n, dict(result.items()))
    assert (a - a).items() == []
    assert a.scale(0).is_zero()


@settings(max_examples=80, deadline=None)
@given(ext_elements())
def test_ext_serialization_round_trip(a):
    blob = json.dumps(a.to_obj(), sort_keys=True)
    assert ExtElement.from_obj(json.loads(blob)) == a


_RINGS = [
    parse_manifold("surface(2) * cp(2)"),
    parse_manifold("connsum(s2xs2,2)"),
    parse_manifold("torus(3)"),
]


@st.composite
def ring_elements(draw):
    ring = build(draw(st.sampled_from(_RINGS)))
    coords = {}
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        k = draw(st.integers(min_value=0, max_value=ring.top_degree))
        if ring.dims[k] == 0:
            continue
        vec = coords.setdefault(k, {})
        i = draw(st.integers(min_value=0, max_value=ring.dims[k] - 1))
        vec[i] = vec.get(i, 0) + draw(st.integers(min_value=-3, max_value=3))
    from qrob.ring import RingElement

    return RingElement(ring, coords)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ring_multiplication_laws(data):
    expr = data.draw(st.sampled_from(_RINGS))
    ring = build(expr)

    def element():
        coords = {}
        k = data.draw(st.integers(min_value=0, max_value=ring.top_degree))
        if ring.dims[k]:
            vec = [
                Fraction(data.draw(st.integers(min_value=-2, max_value=2)))
                for _ in range(ring.dims[k])
            ]
            coords[k] = dict(enumerate(vec))
        from qrob.ring import RingElement

        return RingElement(ring, coords)

    x, y, z = element(), element(), element()
    assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))
    assert multiply(x, y + z) == multiply(x, y) + multiply(x, z)
    if not x.is_zero() and not y.is_zero():
        p, q = x.degree(), y.degree()
        sign = -1 if (p * q) % 2 else 1
        assert multiply(x, y) == multiply(y, x).scale(sign)


# One document per verdict and certificate kind: H1Annihilator, DualPair,
# WITNESS, UNKNOWN.
_VERDICT_QUERIES = [
    ("surface(2) * cp(2)", "vol(1)^sym(2)", 4),
    ("connsum(s2xs2,8) * cp(2)", "vol(1)^sym(2)", 6),
    ("surface(1) * cp(2)", "vol(1)^sym(2)", 4),
    ("connsum(s2xs2,2) * cp(2)", "vol(1)^sym(2)", 6),
]

# Edits that replace the leaf, as JSON text.
_REPLACEMENTS = {"1/0": '"1/0"', "2/2": '"2/2"', "[]": "[]", "{}": "{}", "null": "null"}
_EDITS = (*_REPLACEMENTS, "0<->false", "int->float", "delete", "sibling")


@functools.lru_cache(maxsize=None)
def _verdict_documents() -> tuple:
    return tuple(
        document_json(result_to_obj(run_query(Query(*q)))) for q in _VERDICT_QUERIES
    )


def _leaves(value, path=()):
    """(path, value) of every scalar and empty container in a JSON value."""
    if isinstance(value, (dict, list)) and value:
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, child in items:
            yield from _leaves(child, path + (key,))
    else:
        yield path, value


def _applies(edit: str, path: tuple, value) -> bool:
    if edit == "0<->false":
        return value is False or (type(value) is int and value == 0)
    if edit == "int->float":
        return type(value) is int
    if edit == "sibling":
        return isinstance(path[-1], str)  # the leaf sits in an object
    return edit == "delete" or json.dumps(value) != _REPLACEMENTS[edit]


@st.composite
def edited_verdict_documents(draw):
    """A verdict document with one leaf edited, and the path of that leaf."""
    doc = json.loads(draw(st.sampled_from(_verdict_documents())))
    # a document may hold no leaf for an edit: most verdicts have no 0 or
    # false now that the ring lives only in ring documents
    edit = draw(st.sampled_from(
        [e for e in _EDITS if any(_applies(e, p, v) for p, v in _leaves(doc))]
    ))
    leaves = [(p, v) for p, v in _leaves(doc) if _applies(edit, p, v)]
    # pick the top-level key first, so the largest payload does not crowd
    # out the rest
    top = draw(st.sampled_from(sorted({p[0] for p, _ in leaves})))
    path, value = draw(st.sampled_from([leaf for leaf in leaves if leaf[0][0] == top]))
    parent = functools.reduce(operator.getitem, path[:-1], doc)
    key = path[-1]
    if edit == "0<->false":
        parent[key] = 0 if value is False else False
    elif edit == "int->float":
        parent[key] = float(value)
    elif edit == "delete":
        del parent[key]
    elif edit == "sibling":
        parent[key + "_extra"] = 0
    else:
        parent[key] = json.loads(_REPLACEMENTS[edit])
    return path, doc


@settings(max_examples=200, deadline=None)
@given(edited_verdict_documents())
def test_edited_verdict_documents_fail_verification(edited):
    path, doc = edited
    try:
        verify_document(doc)
    except VerificationFailure:
        return
    # an edited cofactor with the same product with the factor still proves
    # the claim; the search log is advisory
    assert path[0] == "search_log" or path[:2] == ("certificate", "classes"), path
