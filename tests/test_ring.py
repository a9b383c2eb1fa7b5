"""Graded ring constructors, products, duality pairings, serialization."""

import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

import qrob.ring
from conftest import (
    CATALOG,
    LAW_RINGS,
    WORKLOAD_QUERIES,
    _oracle_mul,
    convolve,
    dense_vector,
    first_associativity_failure,
    oracle_products,
    reference_factorizations,
    ring_law_failure,
    ring_oracle_accepts,
    wedge_blades_oracle,
)
from qrob import (
    ConnSum,
    CPm,
    GradedRing,
    Product,
    Query,
    RingElement,
    RingMismatchError,
    RingValidationError,
    S2xS2,
    Sphere,
    Surface,
    Torus,
    build,
    build_with_classes,
    connsum_power,
    factorizations,
    multiply,
    parse_manifold,
    parse_omega,
    poincare_pairing,
    run_query,
)
from qrob.manifolds import _torus_ring
from qrob.ring import canonical_json


def test_presentation_records_are_immutable():
    pres = build(Torus(2)).presentation
    generator = pres.generators[0]
    assert repr(generator) == "Generator(degree=1, index=0, name='t1')"
    with pytest.raises(AttributeError):
        generator.index = 99
    with pytest.raises(AttributeError):
        pres.words = ()
    assert generator.index == 0


def test_torus2_products():
    ring = build(Torus(2))
    a, b = ring.basis(1)
    vol = ring.fundamental_class()
    assert a * b == vol
    assert b * a == -vol
    assert (a * a).is_zero()


def test_cp2_products():
    ring = build(CPm(2))
    s = ring.basis_element(2, 0)
    s2 = ring.basis_element(4, 0)
    assert s * s == s2
    assert s2 == ring.fundamental_class()
    assert (s * s2).is_zero()  # degree 6 > 4


def test_connsum_cross_products_vanish():
    # two-summand case with the paper's basis convention: c1*c2 = c3*c4 = vol
    # and all other products of distinct classes vanish.
    ring = build(ConnSum(S2xS2(), S2xS2()))
    c = ring.basis(2)
    vol = ring.fundamental_class()
    for i in range(4):
        for j in range(4):
            expected = vol if {i, j} in ({0, 1}, {2, 3}) and i != j else ring.zero()
            assert c[i] * c[j] == expected


def test_surface_dims():
    for g in range(1, 6):
        assert build(Surface(g)).dims == (1, 2 * g, 1)


def test_connsum_s2xs2_dims():
    for nu in (1, 2, 8):
        assert build(connsum_power(S2xS2(), nu)).dims == (1, 0, 2 * nu, 0, 1)


def test_product_dims_match_convolution():
    cases = [
        (Product(Surface(1), CPm(2)), Surface(1), CPm(2)),
        (Product(Surface(2), Surface(2)), Surface(2), Surface(2)),
        (Product(connsum_power(S2xS2(), 3), CPm(2)), connsum_power(S2xS2(), 3), CPm(2)),
        (Product(Torus(2), Torus(3)), Torus(2), Torus(3)),
    ]
    for expr, left, right in cases:
        expected = convolve(list(build(left).dims), list(build(right).dims))
        assert list(build(expr).dims) == expected
    assert build(Product(Surface(1), CPm(2))).dims == (1, 2, 2, 2, 2, 2, 1)


def test_torus_dims_are_binomials():
    import math

    for n in range(1, 6):
        ring = build(Torus(n))
        assert list(ring.dims) == [math.comb(n, k) for k in range(n + 1)]


def test_torus_tables_match_blade_oracle():
    # GOLDEN pins torus(2..5) only; the benchmark also builds torus(6), torus(7)
    for n in range(1, 9):
        ring = _torus_ring(n)
        by_degree = [list(combinations(range(1, n + 1), k)) for k in range(n + 1)]
        position = [{axes: i for i, axes in enumerate(per)} for per in by_degree]
        expected = {}
        for p in range(1, n):
            for q in range(1, n - p + 1):
                table = expected[(p, q)] = {}
                for i, a in enumerate(by_degree[p]):
                    for j, b in enumerate(by_degree[q]):
                        res = wedge_blades_oracle(a, b)
                        if res is not None:
                            sign, axes = res
                            table[(i, j)] = {position[p + q][axes]: Fraction(sign)}
        assert ring.structure == expected, n
        assert list(ring.structure) == list(expected)
        for pq, table in expected.items():
            assert list(ring.structure[pq]) == list(table), (n, pq)
        # every constant is the int sign of its blade product
        assert all(
            type(c) is int and c in (1, -1)
            for table in ring.structure.values()
            for vec in table.values()
            for c in vec.values()
        )
        oracle = GradedRing(n, ring.dims, ring.labels, expected, ring.presentation)
        assert oracle.hash_hex() == ring.hash_hex()


def test_pairing_torus2():
    ring = build(Torus(2))
    assert poincare_pairing(ring, 1) == [
        [Fraction(0), Fraction(1)],
        [Fraction(-1), Fraction(0)],
    ]


def test_pairing_connsum2_block_diagonal():
    ring = build(connsum_power(S2xS2(), 2))
    block = [[0, 1], [1, 0]]
    expected = [[Fraction(0)] * 4 for _ in range(4)]
    for t in (0, 2):
        for i in range(2):
            for j in range(2):
                expected[t + i][t + j] = Fraction(block[i][j])
    assert poincare_pairing(ring, 2) == expected


def test_pairing_sphere_degree0():
    ring = build(Sphere(4))
    assert poincare_pairing(ring, 0) == [[Fraction(1)]]


def test_pairing_matches_oracle_products_in_every_degree():
    # degrees 0 and d read the unit rows of `_table` like every other degree;
    # the fundamental class is basis_d[0]
    rings = [build(parse_manifold(m)) for m in LAW_RINGS]
    for ring in [*rings, GradedRing.from_obj(_half_torus2_obj())]:
        d, dims = ring.top_degree, ring.dims
        products = oracle_products(ring.to_obj())
        assert poincare_pairing(ring, 0) == poincare_pairing(ring, d) == [[1]], ring
        for k in range(d + 1):
            assert poincare_pairing(ring, k) == [
                [products.get(((k, i), (d - k, j)), {}).get((d, 0), 0) for j in range(dims[d - k])]
                for i in range(dims[k])
            ], (ring, k)


def test_validate_ranks_only_the_stored_pairings(monkeypatch):
    # validate hands `rank` one entry per nonzero (k, d - k) pairing with
    # 0 < 2k <= d, read from the tables, and no dims[k] x dims[d - k] cells
    for text in ("surface(200)", "connsum(s2xs2,30) * cp(2)"):
        ring = build(parse_manifold(text))
        obj = ring.to_obj()
        d, fi = obj["top_degree"], obj["fundamental_index"]
        stored = sum(
            1 for ((p, _), (q, _)), vec in oracle_products(obj).items()
            if 0 < 2 * p <= d and p + q == d and vec.get((d, fi))
        )
        entries, rank = [], qrob.ring.rank
        monkeypatch.setattr(
            qrob.ring, "rank", lambda rows: entries.append(sum(map(len, rows))) or rank(rows)
        )
        ring.validate()
        monkeypatch.undo()
        assert sum(entries) == stored > 0, text


def test_surface_equals_connsum_of_tori():
    direct = build(Surface(3))
    folded = build(connsum_power(Torus(2), 3))
    assert canonical_json(direct.to_obj()) == canonical_json(folded.to_obj())


# Connected sums the DSL's connsum(X, v) cannot write: each case lists its
# groupings of one summand sequence, and the ring hash of their shared ring.
_T2 = Torus(2)
_AST_SUMS = [
    ([ConnSum(Sphere(4), CPm(2))],
     "0035c3b28395ad7cbef7e208e3e55d69843c2951ab6eff8d27e5879d55fa52ae"),
    ([ConnSum(CPm(2), ConnSum(S2xS2(), CPm(2))),
      ConnSum(ConnSum(CPm(2), S2xS2()), CPm(2))],
     "181d6d6b553daa4c21e11e591789c58627f78f1271d6a01876854a39719d59cb"),
    ([ConnSum(_T2, Surface(3)), ConnSum(Surface(3), _T2),
      ConnSum(ConnSum(_T2, _T2), Surface(2)), Surface(4), connsum_power(_T2, 4)],
     "1e491ada8ae6774e1e5c26b68ebffec2de53943ba58e1fea29838ca4b0bb8613"),
    ([ConnSum(Product(_T2, _T2), S2xS2())],
     "1cf2754146bfcae9a6b206322c1f1a29ca6d68f1bbcbe7875da9672d3d195f3d"),
]


@pytest.mark.parametrize("groupings, ring_hash", _AST_SUMS)
def test_connsum_from_the_ast_is_one_ring_however_nested(groupings, ring_hash):
    rings = [build(expr) for expr in groupings]
    assert {canonical_json(ring.to_obj()) for ring in rings} == {
        canonical_json(rings[0].to_obj())
    }
    assert ring_law_failure(rings[0].to_obj()) is None
    assert rings[0].hash_hex() == ring_hash


def test_catalog_rings_validate():
    # the connected sums reach `_connsum_ring`'s middle-degree products and
    # its skip of a later summand's top-degree generator
    extra = ("connsum(cp(3),2)", "connsum(torus(3),2)", "connsum(sphere(4),2)")
    for manifold in (*LAW_RINGS, *extra):
        ring = build(parse_manifold(manifold))
        ring.validate()
        assert ring_law_failure(ring.to_obj()) is None, manifold


def test_build_is_deterministic():
    text = "connsum(s2xs2,2) * cp(2)"
    a = build(parse_manifold(text))
    b = GradedRing.from_obj(json.loads(json.dumps(a.to_obj())))
    assert canonical_json(a.to_obj()) == canonical_json(b.to_obj())
    assert a.hash_hex() == b.hash_hex()


def test_ring_serialization_round_trip():
    for text in (*LAW_RINGS, "connsum(s2xs2,2)"):
        ring = build(parse_manifold(text))
        back = GradedRing.from_obj(ring.to_obj())
        assert back == ring
        assert back.to_obj() == ring.to_obj()


def _sheared_torus3_obj() -> dict:
    """torus(3) in the degree-1 basis t1 + t2, t2, t3, without a presentation,
    so (t1 + t2) * t3 = t1^t3 + t2^t3 has two coordinates. No product lands
    in degree 1, so only the products with a degree-1 factor change."""
    ring = build(Torus(3))

    def basis(k, i):
        return {0: Fraction(1), 1: Fraction(1)} if (k, i) == (1, 0) else {i: Fraction(1)}

    obj = ring.to_obj()
    obj["monomial_presentation"] = None
    obj["structure"] = []
    for p, q in sorted(ring.structure):
        products = []
        for i in range(ring.dims[p]):
            for j in range(ring.dims[q]):
                vec = ring.times(p, basis(p, i), q, basis(q, j))
                if vec:
                    products.append([i, j, [[t, str(c)] for t, c in sorted(vec.items())]])
        obj["structure"].append({"p": p, "q": q, "products": products})
    return obj


def test_product_pairs_are_read_in_any_order_and_written_in_increasing_index():
    obj = _sheared_torus3_obj()
    ring = GradedRing.from_obj(obj)
    assert ring.to_obj() == obj
    assert ring.times(1, {0: 1}, 1, {2: 1}) == {1: 1, 2: 1}
    for table in obj["structure"]:
        for _, _, pairs in table["products"]:
            pairs.reverse()
    assert GradedRing.from_obj(obj).to_obj() == ring.to_obj()


def _pair_ring_obj(ring: GradedRing) -> dict:
    """A ring's serialized object with every product written as the
    [index, "coefficient"] pairs of its nonzero coordinates, in increasing
    index, read off each dense coordinate range."""
    tables = []
    for p, q in sorted(ring.structure):
        table = ring.structure[(p, q)]
        width = ring.dims[p + q]
        products = []
        for i, j in sorted(table):
            vec = table[(i, j)]
            pairs = [[t, str(Fraction(vec[t]))] for t in range(width) if vec.get(t, 0)]
            products.append([i, j, pairs])
        if products:
            tables.append({"p": p, "q": q, "products": products})
    pres = ring.presentation
    return {
        "top_degree": ring.top_degree,
        "dims": list(ring.dims),
        "labels": [list(per_degree) for per_degree in ring.labels],
        "structure": tables,
        "fundamental_index": 0,
        "monomial_presentation": pres and {
            "generators": [
                {"degree": g.degree, "index": g.index, "name": g.name}
                for g in pres.generators
            ],
            "words": [[list(w) for w in per_degree] for per_degree in pres.words],
        },
    }


def test_to_obj_matches_dense_formatting():
    for manifold in LAW_RINGS:
        ring = build(parse_manifold(manifold))
        assert ring.to_obj() == _pair_ring_obj(ring), manifold


def _verdict_classes(result):
    """omega and every class a verdict's certificate records."""
    out = [result.omega]
    cert = result.certificate
    if cert is not None:
        for value in [*cert.classes.values(), cert.omega]:
            out += value if isinstance(value, list) else [value]
    return [x for x in out if isinstance(x, RingElement)]


def _pair_class_obj(x):
    """A class document written coordinate by coordinate: an [index,
    "coefficient"] pair for each nonzero one, in increasing index."""
    ring = x.ring
    return {"coords": {
        str(k): [[i, str(x.coefficient(k, i))] for i in range(ring.dims[k])
                 if x.coefficient(k, i)]
        for k in sorted(x.degrees())
    }}


def test_class_documents_match_pair_reference():
    seen = 0
    for query in CATALOG:
        for x in _verdict_classes(run_query(Query(*query))):
            obj = x.to_obj()
            assert obj == _pair_class_obj(x), query
            assert RingElement.from_obj(x.ring, obj) == x
            seen += 1
    assert seen > 2 * len(CATALOG)


@pytest.mark.parametrize("coords, message", [
    ({"3": [[0, "1"]]}, "degree 3 out of range"),
    ({"-1": [[0, "1"]]}, "degree -1 out of range"),
    ({"1": [[2, "1"]]}, "index 2 out of range in degree 1"),
    ({"2": [[-1, "1"]]}, "index -1 out of range in degree 2"),
    ({"1": [[0, "1/0"]]}, "zero denominator in '1/0'"),
    ({"1": [[1, "0.5"]]}, "not an exact rational literal: '0.5'"),
    ({"1": [[0, 1]]}, "not an exact rational literal: 1"),
    # every literal is read before any degree is checked
    ({"5": [[0, "1"]], "1": [[1, "1/0"]]}, "zero denominator in '1/0'"),
    # the pair reader that ring files' products go through
    ({"1": ["1", "0"]}, 'a class is written as [index, "coefficient"] pairs, got \'1\''),
    ({"1": [[0, "1", "2"]]}, 'a class is written as [index, "coefficient"] pairs, '
                             "got [0, '1', '2']"),
    ({"1": [["0", "1"]]}, "class coordinate index must be an integer, got '0'"),
    ({"1": [[1.0, "1"]]}, "class coordinate index must be an integer, got 1.0"),
    ({"1": [[0, "1"], [0, "0"]]}, "class coordinate index 0 is repeated"),
])
def test_class_document_errors(coords, message):
    ring = build(Torus(2))
    with pytest.raises((ValueError, RingValidationError)) as err:
        RingElement.from_obj(ring, {"coords": coords})
    assert str(err.value) == message


def test_class_document_zero_degree_is_absent():
    ring = build(Torus(2))
    obj = {"coords": {"0": [], "1": [[0, "0/3"], [1, "-2"]], "2": [[0, "0"]]}}
    x = RingElement.from_obj(ring, obj)
    assert x.degrees() == {1} and x.coords() == {1: {1: Fraction(-2)}}
    assert x == RingElement(ring, {1: {0: 0, 1: -2}})
    assert RingElement.from_obj(ring, {"coords": {"1": [[0, "0"], [1, "0"]]}}).is_zero()
    assert x.to_obj() == {"coords": {"1": [[1, "-2"]]}}


@pytest.mark.parametrize("coords, message", [
    ({3: {0: 1}}, "degree 3 out of range"),
    ({"1": {0: 1}}, "degree '1' out of range"),
    ({True: {0: 1}}, "degree True out of range"),
    ({1: {2: 1}}, "index 2 out of range in degree 1"),
    ({1: {1.0: 1}}, "index 1.0 out of range in degree 1"),
    ({2: {False: 1}}, "index False out of range in degree 2"),
])
def test_constructor_checks_degrees_and_indices(coords, message):
    with pytest.raises(ValueError) as err:
        RingElement(build(Torus(2)), coords)
    assert str(err.value) == message


def test_constructor_makes_coefficients_exact():
    ring = build(Torus(2))
    x = RingElement(ring, {0: {0: 0}, 1: {0: Fraction(4, 2), 1: 0.5}, 2: {0: 0.0}})
    assert x.coords() == {1: {0: 2, 1: Fraction(1, 2)}}
    assert [type(c) for c in x.coords()[1].values()] == [int, Fraction]


def _torus3_with_word(k, i, word):
    obj = build(Torus(3)).to_obj()
    obj["monomial_presentation"]["words"][k][i] = word
    return obj


def test_presentation_word_sharing_a_valid_prefix_is_named():
    # torus(3) writes basis_2[1] = t1^t3 as [0, 2]; [0, 1] extends [0], the
    # word of basis_1[0], into the word of basis_2[0], both multiplied out
    # before it
    with pytest.raises(RingValidationError) as err:
        GradedRing.from_obj(_torus3_with_word(2, 1, [0, 1]))
    assert str(err.value) == "presentation word for (2,1) does not multiply out"


def test_presentation_word_generator_ids_are_checked_before_products(monkeypatch):
    # built before `times` is counted, since every build validates
    obj = _torus3_with_word(1, 0, [0, 7])
    calls = []
    times = GradedRing.times

    def counting(self, *args):
        calls.append(args)
        return times(self, *args)

    monkeypatch.setattr(GradedRing, "times", counting)
    # basis_1[0] is the first word with a letter, so no product precedes it
    with pytest.raises(RingValidationError) as err:
        GradedRing.from_obj(obj)
    assert str(err.value) == "presentation word for (1,0) names no generator 7"
    assert calls == []


def test_from_obj_rejects_corruption():
    ring = build(Torus(2))
    obj = ring.to_obj()
    obj["structure"][0]["products"][0][2][0][1] = "5"  # break commutativity
    with pytest.raises(RingValidationError):
        GradedRing.from_obj(obj)


@pytest.mark.parametrize("zero_first", [False, True])
def test_from_obj_rejects_a_repeated_table_or_product(zero_first):
    # Read last-wins, each edit puts the true torus(2) tables back; a zero
    # product, which reading drops, still counts as the first entry.
    obj = build(Torus(2)).to_obj()
    table = obj["structure"][0]
    first = [0, 1, []] if zero_first else [0, 1, [[0, "5"]]]
    table["products"].insert(0, first)
    with pytest.raises(RingValidationError) as err:
        GradedRing.from_obj(obj)
    assert str(err.value) == "product (0, 1) of table (1, 1) is repeated"
    del table["products"][0]
    obj["structure"].insert(0, {"p": 1, "q": 1, "products": [first]})
    with pytest.raises(RingValidationError) as err:
        GradedRing.from_obj(obj)
    assert str(err.value) == "structure table (1, 1) is repeated"
    del obj["structure"][0]
    assert GradedRing.from_obj(obj) == build(Torus(2))


def _set_coefficient(obj: dict, p: int, q: int, i: int, j: int, t: int, value) -> None:
    """Set coordinate t of basis_p[i] * basis_q[j] in a ring object's tables:
    edit the coefficient of its [t, "c"] pair, or insert the pair in index
    order. A zero is written as "0", which reading drops."""
    table = next((e for e in obj["structure"] if (e["p"], e["q"]) == (p, q)), None)
    if table is None:
        table = {"p": p, "q": q, "products": []}
        obj["structure"].append(table)
    entry = next((e for e in table["products"] if (e[0], e[1]) == (i, j)), None)
    if entry is None:
        entry = [i, j, []]
        table["products"].append(entry)
    pairs = entry[2]
    pair = next((pair for pair in pairs if pair[0] == t), None)
    if pair is None:
        pair = [t, None]
        pairs.append(pair)
        pairs.sort(key=lambda pair: pair[0])
    pair[1] = str(value)


def test_from_obj_agrees_with_oracle_on_corruptions():
    # Random edits of one product coefficient, most of them mirrored so that
    # graded commutativity still holds and the later checks are reached; a
    # zero deletes a product. In torus(2) a mirrored edit of a square breaks
    # only commutativity.
    rng = random.Random(7)
    rings = [
        build(parse_manifold(m)).to_obj()
        for m in ("torus(2)", "torus(3)", "torus(4)", "cp(3)", "surface(1) * cp(2)",
                  "s2xs2 * cp(2)")
    ]
    outcomes = {"accepted": 0, "rejected": 0}
    generator_left = 0
    for _ in range(300):
        obj = json.loads(json.dumps(rng.choice(rings)))
        d, dims = obj["top_degree"], obj["dims"]
        p, q = rng.choice(
            [(p, q) for p in range(1, d) for q in range(1, d - p + 1) if dims[p] and dims[q]]
        )
        i, j, t = rng.randrange(dims[p]), rng.randrange(dims[q]), rng.randrange(dims[p + q])
        value = Fraction(rng.choice([-2, -1, 0, 0, 0, 1, 2, 3])) / rng.choice([1, 1, 2])
        _set_coefficient(obj, p, q, i, j, t, value)
        if rng.random() < 0.8:
            _set_coefficient(obj, q, p, j, i, t, (-1) ** (p * q) * value)
        for with_presentation in (True, False):
            if not with_presentation:
                obj["monomial_presentation"] = None
            expected = ring_oracle_accepts(obj)
            triple = first_associativity_failure(obj)
            try:
                GradedRing.from_obj(obj)
                accepted = True
            except RingValidationError as exc:
                accepted = False
                message = str(exc)
                generator_left += with_presentation and "associativity fails" in message
                # the edits keep the tables well formed, and only commutativity
                # and the presentation words are checked before associativity,
                # so any other failure names the oracle's triple
                if message.startswith("associativity fails") or triple and not (
                    message.startswith(("graded commutativity", "presentation word"))
                ):
                    assert message == triple, (obj, with_presentation)
            assert accepted == expected, (obj, with_presentation)
            outcomes["accepted" if accepted else "rejected"] += 1
    assert min(outcomes.values()) > 50, outcomes
    assert generator_left >= 10, generator_left


def test_associativity_failure_behind_a_vanishing_product():
    # s * s^2 := vol*s in s2xs2 * cp(2): (s*s)*s^2 = s^4 = 0 but s*(s*s^2) =
    # vol*s^2, so the failure shows only through the nonzero y*z.
    obj = build(parse_manifold("s2xs2 * cp(2)")).to_obj()
    _set_coefficient(obj, 2, 4, 0, 0, 2, 1)
    _set_coefficient(obj, 4, 2, 0, 0, 2, 1)
    assert ring_law_failure(obj) is not None
    with pytest.raises(RingValidationError, match=r"associativity fails at \(2,0\)\*\(2,0\)"):
        GradedRing.from_obj(obj)


def _validation_message(obj: dict) -> str | None:
    try:
        GradedRing.from_obj(obj)
    except RingValidationError as exc:
        return str(exc)
    return None


def test_associativity_failure_through_a_non_generator():
    # (t1^t2^t3) * (t4^t5^t6) := 2 vol in torus(6), mirrored so graded
    # commutativity holds. Every presentation generator has degree 1, so the
    # (3, 3) table is reached only as (x*y)*z with y of degree 2.
    obj = build(Torus(6)).to_obj()
    _set_coefficient(obj, 3, 3, 0, 19, 0, 2)
    _set_coefficient(obj, 3, 3, 19, 0, 0, -2)
    assert ring_law_failure(obj) is not None
    assert _validation_message(obj) == "associativity fails at (1,0)*(2,5)*(3,19)"


def test_associativity_failure_names_the_least_z():
    # c1 * c1 := c1⊗s in s2xs2 * cp(2) (its own mirror) breaks (x*y)*z for
    # x = y = c1 at z = 1⊗s and at z = c2⊗1; the first z is named
    obj = build(parse_manifold("s2xs2 * cp(2)")).to_obj()
    _set_coefficient(obj, 2, 2, 1, 1, 1, 1)
    assert _validation_message(obj) == "associativity fails at (2,1)*(2,1)*(2,0)"


def test_associativity_with_a_half_coefficient():
    # Tables with a denominator 2 are compared in exact Fractions: t1 *
    # (t2^t3) := vol/2 in torus(3) breaks associativity, while x * x := x^2/2
    # in cp(3) without a presentation is only a rescaled basis and stays valid.
    obj = build(Torus(3)).to_obj()
    _set_coefficient(obj, 1, 2, 0, 2, 0, "1/2")
    _set_coefficient(obj, 2, 1, 2, 0, 0, "1/2")
    assert _validation_message(obj) == "associativity fails at (1,0)*(1,1)*(1,2)"
    obj = build(CPm(3)).to_obj()
    _set_coefficient(obj, 2, 2, 0, 0, 0, "1/2")
    obj["monomial_presentation"] = None
    assert ring_oracle_accepts(obj)
    assert _validation_message(obj) is None


def test_pairing_degeneracy_above_half_degree_reports_its_mirror():
    # b * a := 0 in S^2 x S^3 (d = 5) with its mirror a * b := 0: the pairing
    # of degree 3 > d/2 is degenerate, and so is its transpose in degree 2,
    # the only one whose rank is taken.
    obj = build(parse_manifold("sphere(2) * sphere(3)")).to_obj()
    _set_coefficient(obj, 3, 2, 0, 0, 0, 0)
    _set_coefficient(obj, 2, 3, 0, 0, 0, 0)
    obj["monomial_presentation"] = None
    assert not ring_oracle_accepts(obj)
    assert _validation_message(obj) == "degenerate duality pairing in degree 2"


def test_commutativity_failure_names_the_first_product():
    # t2 * t1 := t1^t2 in torus(3), the mirror of t1 * t2 without its sign:
    # (1,0)*(1,1) and (1,1)*(1,0) both fail, and the (1, 1) table lists
    # (0, 1) first. (t1^t2) * t3 := -vol breaks an even sign. s * s^2 :=
    # vol*s in s2xs2 * cp(2) has no mirror and fails from its own side.
    obj = build(Torus(3)).to_obj()
    _set_coefficient(obj, 1, 1, 1, 0, 0, 1)
    assert _validation_message(obj) == "graded commutativity fails at (1,0)*(1,1)"
    obj = build(Torus(3)).to_obj()
    _set_coefficient(obj, 2, 1, 0, 2, 0, -1)
    assert _validation_message(obj) == "graded commutativity fails at (1,2)*(2,0)"
    obj = build(parse_manifold("s2xs2 * cp(2)")).to_obj()
    _set_coefficient(obj, 2, 4, 0, 0, 2, 1)
    assert _validation_message(obj) == "graded commutativity fails at (2,0)*(4,0)"


def test_validation_faults_keep_their_messages():
    # validation compares commutativity and associativity on the stored
    # constants, range-checked and indexed in one pass. t2 * (t1^t3) = -vol
    # in torus(3) against a mirror (t1^t3) * t2 := +vol; in cp(3), s * s^2 :=
    # vol/2 against a mirror of vol; and a coordinate out of range in the
    # last table of torus(3) is reported before the commutativity fault of
    # its first table.
    obj = build(Torus(3)).to_obj()
    _set_coefficient(obj, 2, 1, 1, 1, 0, 1)
    assert _validation_message(obj) == "graded commutativity fails at (1,1)*(2,1)"
    obj = build(CPm(3)).to_obj()
    _set_coefficient(obj, 2, 4, 0, 0, 0, "1/2")
    assert _validation_message(obj) == "graded commutativity fails at (2,0)*(4,0)"
    obj = build(Torus(3)).to_obj()
    _set_coefficient(obj, 1, 1, 1, 0, 0, 1)
    _set_coefficient(obj, 2, 1, 0, 2, 5, 1)
    assert [(e["p"], e["q"]) for e in obj["structure"]] == [(1, 1), (1, 2), (2, 1)]
    assert _validation_message(obj) == "product coordinate out of range in table (2,1)"
    # a constant must be an int or a Fraction: a float is not exact, and a
    # bool is no coefficient, though both would multiply as numbers
    for c in (0.5, True):
        ring = _torus2_with(c)
        with pytest.raises(RingValidationError) as exc:
            ring.validate()
        assert str(exc.value) == (
            f"structure constant {c!r} in table (1,1) is not an int or a Fraction"
        )


def _torus2_with(c) -> GradedRing:
    """torus(2)'s ring built with t1 * t2 = c vol, t2 * t1 = -c vol and no
    presentation, not yet validated."""
    products = {(0, 1): {0: c}, (1, 0): {0: -c}}
    return GradedRing(2, [1, 2, 1], [["1"], ["t1", "t2"], ["vol"]], {(1, 1): products})


def _half_torus2_obj() -> dict:
    """torus(2)'s ring object with t1 * t2 = vol/2 and no presentation."""
    half = build(Torus(2)).to_obj()
    _set_coefficient(half, 1, 1, 0, 1, 0, "1/2")
    _set_coefficient(half, 1, 1, 1, 0, 0, "-1/2")
    half["monomial_presentation"] = None
    return half


def test_hash_is_the_sha256_of_the_stdlib_canonical_json():
    # to_json is the one ring writer: hash_hex hashes it and to_obj reads it
    # back, and its bytes are those of json.dumps on the object it writes,
    # which is the dense reference object. Besides the CATALOG rings: torus(2)
    # with t1 * t2 = vol/2 and no presentation, read from a file, and one
    # built with the constant Fraction(2, 1), written "2".
    two = _torus2_with(Fraction(2, 1))
    two.validate()
    assert '[0,1,[[0,"2"]]]' in two.to_json()
    rings = [build(parse_manifold(m)) for m in dict.fromkeys(m for m, _, _ in CATALOG)]
    for ring in [*rings, GradedRing.from_obj(_half_torus2_obj()), two]:
        obj = ring.to_obj()
        text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
        assert ring.hash_hex() == hashlib.sha256(text.encode()).hexdigest(), ring
        assert ring.to_json() == text and obj == _pair_ring_obj(ring), ring


def _factorization_targets(manifold):
    """The ring, the omega of every CATALOG or workload query on it, and, on
    rings of total dimension at most 48 (the dense reference grows with the
    cube of a degree's dimension), the sum of the first and last basis class
    of each nonzero degree from 2 on."""
    ring, factors = build_with_classes(parse_manifold(manifold))
    omegas = [
        parse_omega(text, ring, factors)
        for m, text, _ in dict.fromkeys([*CATALOG, *WORKLOAD_QUERIES]) if m == manifold
    ]
    if sum(ring.dims) <= 48:
        omegas += [
            ring.basis_element(k, 0) + ring.basis_element(k, ring.dims[k] - 1)
            for k in range(2, ring.top_degree + 1) if ring.dims[k]
        ]
    return ring, omegas


def _skewed_form_ring():
    """dims [1, 0, 3, 0, 1] with the intersection form [[0, 1, 1], [1, 1, 0],
    [1, 0, 2]], so x1 * x2 = x1 * x3 = vol: the factorizations of vol by x1
    have a free variable, and which column takes the pivot decides c'."""
    form = [[0, 1, 1], [1, 1, 0], [1, 0, 2]]
    return GradedRing.from_obj({
        "top_degree": 4,
        "dims": [1, 0, 3, 0, 1],
        "labels": [["1"], [], ["x1", "x2", "x3"], [], ["vol"]],
        "structure": [{"p": 2, "q": 2, "products": [
            [i, j, [[0, str(c)]]] for i, row in enumerate(form) for j, c in enumerate(row) if c
        ]}],
    })


def test_factorizations_match_dense_reference():
    found, empty = 0, 0
    skewed = _skewed_form_ring()
    vol = skewed.fundamental_class()
    targets = [_factorization_targets(manifold) for manifold in LAW_RINGS]
    for ring, omegas in [*targets, (skewed, [vol, vol.scale(Fraction(3, 2))])]:
        for omega in omegas:
            k = omega.degree()
            for ell in range(1, k):
                got = factorizations(ring, omega, ell)
                assert got == reference_factorizations(ring, omega, ell), (ring, omega, ell)
                found, empty = found + len(got), empty + (not got)
    assert found and empty


def test_connsum_requires_equal_top_degree():
    with pytest.raises(RingValidationError):
        build(ConnSum(Torus(2), Torus(3)))


def test_surface_zero_rejected():
    with pytest.raises(ValueError):
        build(Surface(0))


def test_ring_mismatch():
    a = build(Torus(2)).basis_element(1, 0)
    b = build(Torus(3)).basis_element(1, 0)
    with pytest.raises(RingMismatchError):
        multiply(a, b)


def test_truncation_above_top_degree():
    ring = build(Torus(2))
    vol = ring.fundamental_class()
    assert (vol * vol).is_zero()
    assert (vol * ring.basis_element(1, 0)).is_zero()


def test_unit_is_two_sided():
    ring = build(Product(Surface(1), CPm(2)))
    one = ring.unit()
    for k in range(ring.top_degree + 1):
        for x in ring.basis(k):
            assert one * x == x
            assert x * one == x


def test_presentation_words_multiply_out():
    # validate() already checks this; spot-check the product ring explicitly.
    ring = build(Product(Surface(1), CPm(2)))
    pres = ring.presentation
    for k in range(1, ring.top_degree + 1):
        for i, word in enumerate(pres.words[k]):
            acc = ring.unit()
            for gid in word:
                g = pres.generators[gid]
                acc = acc * ring.basis_element(g.degree, g.index)
            assert acc == ring.basis_element(k, i)


def _random_element(ring, rng):
    coords = {}
    for k in rng.sample(range(ring.top_degree + 1), rng.randint(0, 2)):
        coords[k] = {
            i: Fraction(rng.choice([0, 0, 1, -1, 2]), rng.choice([1, 3]))
            for i in range(ring.dims[k])
        }
    return RingElement(ring, coords)


def _assert_stored_sparse(x):
    """x equals, and hashes and serializes like, the public constructor built
    from its coordinates, and stores no zero coefficient or empty degree."""
    public = RingElement(x.ring, x.coords())
    assert x == public and hash(x) == hash(public)
    assert x.to_obj() == public.to_obj()
    assert x.degrees() == public.degrees()
    assert x.is_zero() == public.is_zero()
    assert all(vec and all(vec.values()) for vec in x.coords().values())


def test_multiply_matches_public_constructor():
    # results use the trusted constructor; they must equal the checked one
    rng, f = random.Random(5), Fraction(-2, 3)
    for text in ("torus(3)", "surface(2) * cp(2)", "connsum(s2xs2,3) * cp(2)"):
        ring = build(parse_manifold(text))
        zeros = 0  # zero products of nonzero factors
        for _ in range(300):
            x, y = _random_element(ring, rng), _random_element(ring, rng)
            prod = multiply(x, y)
            for result in (prod, x + y, x - y, x.scale(f), x.scale(0), x - x):
                _assert_stored_sparse(result)
            assert (x - x).is_zero() and x.scale(0).is_zero()
            for k in range(ring.top_degree + 1):
                xk, yk = dense_vector(x, k), dense_vector(y, k)
                assert dense_vector(x + y, k) == [a + b for a, b in zip(xk, yk)]
                assert dense_vector(x - y, k) == [a - b for a, b in zip(xk, yk)]
                assert dense_vector(x.scale(f), k) == [f * a for a in xk]
            zeros += prod.is_zero() and not (x.is_zero() or y.is_zero())
        assert zeros
        for k in range(ring.top_degree + 1):
            for i, x in enumerate(ring.basis(k)):
                public = RingElement(ring, {k: {i: 1}})
                assert x == public and hash(x) == hash(public)


def _in_degree(vec: dict) -> dict:
    """An oracle product {(degree, index): c} as {index: c}."""
    return {t: c for (_, t), c in vec.items()}


def test_times_matches_oracle():
    # the product kernel against products read from the raw ring object, on
    # every basis pair (unit factors and sums above the top degree included)
    # and on seeded random sparse operands, explicit zeros among them
    rng = random.Random(17)
    coefficients = [0, 1, -1, 2, Fraction(1, 3), Fraction(-5, 2)]
    for manifold in LAW_RINGS:
        ring = build(parse_manifold(manifold))
        products = oracle_products(ring.to_obj())
        d = ring.top_degree
        basis = [(p, i) for p in range(d + 1) for i in range(ring.dims[p])]
        for p, i in basis:
            for q, j in basis:
                got = ring.times(p, {i: 1}, q, {j: 1})
                assert got == _in_degree(products.get(((p, i), (q, j)), {})), (
                    manifold, p, i, q, j,
                )
        for _ in range(200):
            p, q = rng.randint(0, d), rng.randint(0, d)
            x, y = (
                {
                    i: rng.choice(coefficients)
                    for i in range(ring.dims[k])
                    if rng.random() < 0.5
                }
                for k in (p, q)
            )
            got = ring.times(p, x, q, y)
            expected = _oracle_mul(
                products,
                {(p, i): a for i, a in x.items()},
                {(q, j): b for j, b in y.items()},
            )
            assert got == _in_degree(expected), (manifold, p, x, q, y)
            assert all(got.values())
