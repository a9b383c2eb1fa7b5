"""Homomorphism witnesses: verification, templates, bounded enumeration."""

import json
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, islice, product

import pytest

from conftest import CATALOG, e, hom_oracle_accepts, random_element, wedge_oracle
from qrob import (
    CPm,
    ExtElement,
    GradedRing,
    HomWitness,
    MissingPresentationError,
    Query,
    S2xS2,
    Sphere,
    Surface,
    Torus,
    build,
    build_with_classes,
    connsum_power,
    parse_manifold,
    parse_omega,
    run_query,
    verify_document,
    verify_hom,
    witness_template,
)
from qrob.errors import VerificationFailure
from qrob.homsearch import (
    _factor_gen_images,
    enumerate_hom_detailed,
    witness_from_generators,
)
from qrob.pipeline import witness_to_obj


def _t1_cp2():
    ring, factors = build_with_classes(parse_manifold("surface(1) * cp(2)"))
    omega = parse_omega("vol(1)^sym(2)", ring, factors)
    return ring, omega


def _explicit_t1_witness(ring, s_image):
    # generators are (c1, c2, s) in flatten order
    return witness_from_generators(
        ring, [e(4, 1), e(4, 2), s_image], 4
    )


def _image(witness, x):
    """phi(x): the sum over the degrees of x of `apply_vec`."""
    parts = (witness.apply_vec(k, vec) for k, vec in x.coords().items())
    return sum(parts, ExtElement.zero(witness.ambient_n))


def test_verify_hom_t1_cp2_witness():
    ring, omega = _t1_cp2()
    witness = _explicit_t1_witness(ring, e(4, 3, 4))
    assert verify_hom(witness, omega)
    assert _image(witness, omega) == e(4, 1, 2, 3, 4)


def test_verify_hom_rejects_degenerate_s_image():
    ring, omega = _t1_cp2()
    witness = _explicit_t1_witness(ring, e(4, 1, 2))
    assert not verify_hom(witness, omega)  # omega maps to e12^e12 = 0


def test_verify_hom_torus_identity_style():
    for n in (2, 3, 4):
        ring = build(Torus(n))
        witness = witness_from_generators(
            ring, [e(n, i + 1) for i in range(n)], n
        )
        assert verify_hom(witness, ring.fundamental_class())
        full = _image(witness, ring.fundamental_class())
        assert full == ExtElement.basis(n, tuple(range(1, n + 1)))


def test_witness_apply_is_linear():
    ring, omega = _t1_cp2()
    witness = _explicit_t1_witness(ring, e(4, 3, 4))
    x = ring.basis_element(2, 0)
    y = ring.basis_element(2, 1)
    combo = x.scale(3) + y.scale(-2)
    assert _image(witness, combo) == _image(witness, x).scale(3) + _image(witness, y).scale(-2)


def test_witness_template_torus4():
    ring, factors = build_with_classes(Torus(4))
    witness = witness_template(Torus(4), factors, ring.fundamental_class(), 4)
    assert witness is not None
    assert verify_hom(witness, ring.fundamental_class())


def test_witness_template_t1_cp2_matches_spec_images():
    expr = parse_manifold("surface(1) * cp(2)")
    ring, factors = build_with_classes(expr)
    omega = parse_omega("vol(1)^sym(2)", ring, factors)
    witness = witness_template(expr, factors, omega, 4)
    assert witness is not None
    by_label = {
        ring.labels[k][i]: img
        for k, per in witness.images.items()
        for i, img in enumerate(per)
    }
    assert by_label["c1⊗1"] == e(4, 1)
    assert by_label["c2⊗1"] == e(4, 2)
    assert by_label["1⊗s"] == e(4, 3, 4)


def test_witness_template_t2_cp2_fails():
    ring, factors = build_with_classes(parse_manifold("surface(2) * cp(2)"))
    omega = parse_omega("vol(1)^sym(2)", ring, factors)
    assert witness_template(parse_manifold("surface(2) * cp(2)"), factors, omega, 4) is None


def test_witness_template_kills_unused_factor():
    # a form class living on one factor only: the other factor maps to zero
    ring, factors = build_with_classes(parse_manifold("surface(3) * cp(2)"))
    omega = parse_omega("sym(2)", ring, factors)
    witness = witness_template(parse_manifold("surface(3) * cp(2)"), factors, omega, 2)
    assert witness is not None
    assert verify_hom(witness, omega)
    assert all(img.is_zero() for img in witness.images[1])


def test_connsum_template_takes_its_leftmost_summand_at_any_depth(monkeypatch):
    # a chain of 5000 summands is walked by a loop, not one call per summand,
    # and no ring is built for it
    import qrob.manifolds

    def no_build(expr):
        raise AssertionError("the template built a ring")

    monkeypatch.setattr(qrob.manifolds, "_construct", no_build)
    chain = connsum_power(S2xS2(), 5000)
    assert _factor_gen_images(chain, (1, 2, 3, 4), 4) == [e(4, 1, 2), e(4, 3, 4)]
    assert _factor_gen_images(chain, (1, 2), 4) is None


def test_enumerate_torus2_finds_axis_witness():
    ring = build(Torus(2))
    witness = enumerate_hom_detailed(ring, ring.fundamental_class(), 2).witness
    assert witness is not None
    assert witness.images[1] == [e(2, 1), e(2, 2)]


def test_enumerate_surface2_exhausts_without_witness():
    ring = build(Surface(2))
    outcome = enumerate_hom_detailed(ring, ring.fundamental_class(), 2)
    assert outcome.witness is None
    assert outcome.space_exhausted


def test_enumerate_cp2_finds_two_blade_witness():
    ring = build(CPm(2))
    s2 = ring.fundamental_class()
    witness = enumerate_hom_detailed(ring, s2, 4).witness
    assert witness is not None
    image = witness.images[2][0]
    assert image == e(4, 1, 2) + e(4, 3, 4)
    # the square is 2*e1234, cross-checked by the brute-force oracle
    assert _image(witness, s2) == wedge_oracle(image, image)
    assert _image(witness, s2) == 2 * e(4, 1, 2, 3, 4)


def test_enumerate_budget_cap():
    ring, factors = build_with_classes(parse_manifold("connsum(s2xs2,2) * cp(2)"))
    omega = parse_omega("vol(1)^sym(2)", ring, factors)
    outcome = enumerate_hom_detailed(ring, omega, 6, max_nodes=500)
    assert outcome.witness is None
    assert outcome.nodes == 500
    assert not outcome.space_exhausted


def test_enumerate_deterministic():
    ring = build(CPm(2))
    a = enumerate_hom_detailed(ring, ring.fundamental_class(), 4).witness
    b = enumerate_hom_detailed(ring, ring.fundamental_class(), 4).witness
    assert a.to_obj() == b.to_obj()


def test_enumerate_needs_presentation():
    ring = build(Torus(2))
    stripped = type(ring)(
        ring.top_degree, ring.dims, ring.labels, ring.structure, None,
    )
    with pytest.raises(MissingPresentationError):
        enumerate_hom_detailed(stripped, stripped.fundamental_class(), 2)


def test_witness_shape_check():
    ring, omega = _t1_cp2()
    witness = _explicit_t1_witness(ring, e(4, 3, 4))
    del witness.images[2]
    from qrob import ShapeMismatchError

    with pytest.raises(ShapeMismatchError):
        verify_hom(witness, omega)


def test_witness_json_round_trip():
    ring, omega = _t1_cp2()
    witness = _explicit_t1_witness(ring, e(4, 3, 4))
    back = HomWitness.from_obj(ring, witness.to_obj())
    assert back.to_obj() == witness.to_obj()
    assert verify_hom(back, omega)


@pytest.mark.parametrize(
    "text", ["torus(4)", "torus(3) * cp(2)", "connsum(s2xs2,2) * cp(2)"]
)
def test_witness_images_match_naive_word_fold(text):
    ring = build(parse_manifold(text))
    pres = ring.presentation
    rng = random.Random(text)
    for n in (4, 6):
        for _ in range(6):
            # zero images, and up to three terms with coefficients in -4..4
            gens = [
                random_element(rng, n, g.degree, rng.randint(0, 3))
                for g in pres.generators
            ]
            witness = witness_from_generators(ring, gens, n)
            assert set(witness.images) == set(range(1, min(ring.top_degree, n) + 1))
            for k, per in witness.images.items():
                assert len(per) == len(pres.words[k])
                for word, image in zip(pres.words[k], per):
                    acc = ExtElement.scalar(n, 1)
                    for gid in word:
                        acc = wedge_oracle(acc, gens[gid])
                    assert image == acc, (k, word)
                if not per:
                    continue
                # apply_vec on several terms with coefficients other than 1
                support = rng.sample(range(len(per)), min(3, len(per)))
                vec = {i: rng.choice((-1, 2, Fraction(-3, 2))) for i in support}
                expected = {}
                for i, c in vec.items():
                    for axes, coeff in per[i].items():
                        expected[axes] = expected.get(axes, 0) + c * coeff
                assert witness.apply_vec(k, vec) == ExtElement(n, expected)
                i = support[0]
                assert witness.apply_vec(k, {i: Fraction(1)}) == per[i]
                assert witness.apply_vec(k, {i: 0}).is_zero()


# -- brute-force enumeration oracle ---------------------------------------------


def _oracle_images(n, degree):
    """One generator's candidates: zero, then by support size, blades, signs."""
    yield ExtElement.zero(n)
    if degree > n:
        return
    basis = list(combinations(range(1, n + 1), degree))
    for size in range(1, len(basis) + 1):
        for support in combinations(basis, size):
            for pattern in product((1, -1), repeat=size):
                yield ExtElement(n, dict(zip(support, pattern)))


def _oracle_word(n, factors):
    acc = ExtElement.scalar(n, 1)
    for factor in factors:
        acc = wedge_oracle(acc, factor)
    return acc


def _oracle_enumerate(ring, omega, n, max_nodes):
    """(witness, nodes, space_exhausted) from every index tuple sorted by (sum, tuple).

    No stage beyond max_nodes is ever reached, so each generator needs at most
    max_nodes + 1 candidates; the stage bound grows until its tuples outnumber
    the budget or cover the whole space.
    """
    pres = ring.presentation
    pools = [
        list(islice(_oracle_images(n, g.degree), max_nodes + 1))
        for g in pres.generators
    ]
    bound = 0
    while True:
        ranges = [range(min(len(pool), bound + 1)) for pool in pools]
        tuples = sorted(
            (t for t in product(*ranges) if sum(t) <= bound),
            key=lambda t: (sum(t), t),
        )
        if len(tuples) > max_nodes or bound >= sum(len(p) - 1 for p in pools):
            break
        bound += 1
    words = [
        (c, pres.words[k][i])
        for k, vec in sorted(omega.coords().items())
        for i, c in sorted(vec.items())
    ]
    nodes = 0
    for combo in tuples:
        if nodes >= max_nodes:
            return None, nodes, False
        nodes += 1
        gens = [pools[g][i] for g, i in enumerate(combo)]
        phi_omega = ExtElement.zero(n)
        for c, word in words:
            phi_omega = phi_omega + _oracle_word(n, [gens[g] for g in word]).scale(c)
        if phi_omega.is_zero():
            continue
        images = {
            k: [_oracle_word(n, [gens[g] for g in word]) for word in pres.words[k]]
            for k in range(1, min(ring.top_degree, n) + 1)
        }
        witness = HomWitness(ring, n, images)
        if verify_hom(witness, omega):
            return witness, nodes, False
    return None, nodes, True


def _query(manifold, omega_text):
    ring, factors = build_with_classes(parse_manifold(manifold))
    return ring, parse_omega(omega_text, ring, factors)


def _assert_matches_oracle(manifold, omega_text, n, max_nodes):
    ring, omega = _query(manifold, omega_text)
    outcome = enumerate_hom_detailed(ring, omega, n, max_nodes)
    witness, nodes, exhausted = _oracle_enumerate(ring, omega, n, max_nodes)
    assert (outcome.nodes, outcome.space_exhausted) == (nodes, exhausted)
    if witness is None:
        assert outcome.witness is None
    else:
        assert outcome.witness.to_obj() == witness.to_obj()
    return outcome


# Stages end where every index sum up to a bound is used: for two or three
# degree-1 generators at 1, 3, 6, ... and 1, 4, 10, 20, 35, 56, ..., and for
# five generators at 1, 6, 21, 56, 126, 252, ...
@pytest.mark.parametrize(
    "manifold, omega_text, n, budgets",
    [
        # stage 0 only, the end of stage 1, past the witness at node 12
        ("torus(2)", "vol(1)", 2, (0, 3, 100)),
        # inside stage 5, past the witness at node 179
        ("torus(3)", "vol(1)", 3, (40, 400)),
        # omega has no word of degree 2: every stage is counted in bulk, and
        # 9^3 = 729 assignments exhaust the space
        ("torus(3)", "vol(1)", 2, (5, 728, 729, 1000)),
        # one generator, so every stage is one node: short of the witness at
        # node 30, at it, and past it
        ("cp(2)", "sym(1)^sym(1)", 4, (10, 29, 30, 100)),
        # inside stage 7, past the witness at node 500
        ("surface(1) * cp(2)", "vol(1)^sym(2)", 4, (100, 1000)),
        # the end of stage 0, inside stage 5, its end, and one past it
        ("connsum(s2xs2,2) * cp(2)", "vol(1)^sym(2)", 6, (1, 200, 252, 253)),
        # the degree-3 sphere class has only the zero image at n = 2, and
        # 9^4 = 6561 assignments exhaust the space
        ("surface(2) * sphere(3)", "vol(1)", 2, (6560, 6561, 6562)),
    ],
)
def test_enumeration_matches_brute_force_oracle(manifold, omega_text, n, budgets):
    for max_nodes in budgets:
        _assert_matches_oracle(manifold, omega_text, n, max_nodes)


@pytest.mark.parametrize(
    "max_nodes, nodes, exhausted",
    [(6560, 6560, False), (6561, 6561, True), (6562, 6561, True)],
)
def test_enumeration_budget_edges_against_oracle(max_nodes, nodes, exhausted):
    # four degree-1 generators with 3^2 candidates each: 6561 assignments in all
    outcome = _assert_matches_oracle("surface(2)", "vol(1)", 2, max_nodes)
    assert outcome.witness is None
    assert (outcome.nodes, outcome.space_exhausted) == (nodes, exhausted)


def test_enumeration_counts_skipped_assignments(monkeypatch):
    # every assignment that leaves c1 at zero already forces phi(omega) = 0;
    # those subtrees are counted in bulk rather than visited
    ring, omega = _query("connsum(s2xs2,5) * cp(2)", "vol(1)^sym(2)")
    calls = []
    original = ExtElement.wedge

    def counting_wedge(self, other):
        calls.append(None)
        return original(self, other)

    monkeypatch.setattr(ExtElement, "wedge", counting_wedge)
    outcome = enumerate_hom_detailed(ring, omega, 6)
    assert outcome.witness is None and not outcome.space_exhausted
    assert outcome.nodes == 50_000
    assert len(calls) < 1_000


def test_verify_hom_wedges_generator_times_basis(monkeypatch):
    # at most one wedge per (generator, positive-degree basis element):
    # 7 x 127 for torus(7)
    ring, factors = build_with_classes(parse_manifold("torus(7)"))
    omega = ring.fundamental_class()
    witness = witness_template(parse_manifold("torus(7)"), factors, omega, 7)
    calls = []
    original = ExtElement.wedge

    def counting_wedge(self, other):
        calls.append(None)
        return original(self, other)

    monkeypatch.setattr(ExtElement, "wedge", counting_wedge)
    assert verify_hom(witness, omega)
    assert len(calls) <= 7 * 127


def _edit_one_coefficient(rng: random.Random, witness_obj: dict) -> dict:
    """A copy of a witness object with one image coefficient changed."""
    obj = json.loads(json.dumps(witness_obj))
    n = obj["ambient_n"]
    k, i = rng.choice(
        [(k, i) for k, per in obj["images"].items() for i in range(len(per))]
    )
    axes = list(rng.choice(list(combinations(range(1, n + 1), int(k)))))
    terms = obj["images"][k][i]["terms"]
    old = next((t for t in terms if t["axes"] == axes), None)
    choices = ("-2", "-1", "0", "1", "2", "1/2")
    value = rng.choice([c for c in choices if old is None or c != old["coeff"]])
    kept = [t for t in terms if t is not old]
    if value != "0":
        kept.append({"axes": axes, "coeff": value})
    obj["images"][k][i]["terms"] = sorted(kept, key=lambda t: t["axes"])
    return obj


def test_verify_hom_agrees_with_all_pairs_oracle():
    # every CATALOG witness and 25 one-coefficient edits of each, on the
    # built ring and on the same ring loaded without a presentation (where
    # every basis element is a left factor)
    rng = random.Random(8)
    counts = Counter()
    runs = []
    for query in CATALOG:
        result = run_query(Query(*query))
        if result.verdict == "WITNESS":
            witness_obj = result.witness.to_obj()
            cases = [witness_obj] + [
                _edit_one_coefficient(rng, witness_obj) for _ in range(25)
            ]
            runs.append((query, result.ring, result.omega, cases))
    # and one map into more axes than the top degree: x * x = 0 in H*(S^2),
    # but (e12 + e34)^(e12 + e34) = 2 e1234
    sphere = build(Sphere(2))
    over_top = HomWitness(sphere, 4, {1: [], 2: [e(4, 1, 2) + e(4, 3, 4)]})
    runs.append(("sphere(2), n = 4", sphere, sphere.fundamental_class(),
                 [over_top.to_obj()]))
    for query, built, omega, cases in runs:
        ring_obj, omega_obj = built.to_obj(), omega.to_obj()
        bare = GradedRing.from_obj(dict(ring_obj, monomial_presentation=None))
        for obj in cases:
            expected = hom_oracle_accepts(ring_obj, obj, omega_obj)
            for ring in (built, bare):
                witness = HomWitness.from_obj(ring, obj)
                accepted = verify_hom(witness, omega)
                assert accepted == expected, (query, obj, ring.presentation is None)
                counts[ring.presentation is not None, accepted] += 1
    vol = sphere.fundamental_class().to_obj()
    assert not hom_oracle_accepts(sphere.to_obj(), over_top.to_obj(), vol)
    assert len(counts) == 4, counts  # accepts and rejects on both paths


def test_witness_document_above_top_degree_fails():
    # the same map as a standalone witness document
    sphere = build(Sphere(2))
    witness = HomWitness(sphere, 4, {1: [], 2: [e(4, 1, 2) + e(4, 3, 4)]})
    doc = witness_to_obj(witness, sphere.fundamental_class())
    with pytest.raises(VerificationFailure, match="multiplicativity"):
        verify_document(doc, ring=sphere)
