"""Product-ideal layers: membership, bases, factorizations."""

from fractions import Fraction

import pytest

from conftest import CATALOG, LAW_RINGS, reference_kunneth_bases
from qrob import (
    CPm,
    GradedRing,
    IdealUndefinedError,
    NonHomogeneousError,
    RingElement,
    Sphere,
    Torus,
    build,
    build_with_classes,
    factorizations,
    in_kunneth_ideal,
    kunneth_ideal_basis,
    parse_manifold,
    parse_omega,
)


def test_sphere_ideal_vanishes():
    for n in range(2, 7):
        ring = build(Sphere(n))
        for k in range(2, n + 1):
            assert kunneth_ideal_basis(ring, k) == []
        assert not in_kunneth_ideal(ring, ring.fundamental_class())


def test_torus_volume_is_decomposable():
    for n in range(2, 6):
        ring = build(Torus(n))
        vol = ring.fundamental_class()
        # oracle: the orientation class is literally the product of the
        # degree-1 generators, so membership must hold.
        prod = ring.unit()
        for i in range(n):
            prod = prod * ring.basis_element(1, i)
        assert prod == vol
        assert in_kunneth_ideal(ring, vol)


def test_cp_power_classes():
    ring2 = build(CPm(2))
    s = ring2.basis_element(2, 0)
    assert in_kunneth_ideal(ring2, s * s)
    assert not (s * s).is_zero()
    basis = kunneth_ideal_basis(ring2, 4)
    assert len(basis) == 1 == ring2.dims[4]

    # s^m in the 2m-layer of CP^(m+1), nonzero, for m = 2, 3
    for m in (2, 3):
        ring = build(CPm(m + 1))
        s = ring.basis_element(2, 0)
        power = ring.unit()
        for _ in range(m):
            power = power * s
        assert not power.is_zero()
        assert in_kunneth_ideal(ring, power)


def test_product_class_in_ideal():
    ring, factors = build_with_classes(parse_manifold("surface(1) * cp(2)"))
    omega = parse_omega("vol(1)^sym(2)", ring, factors)
    assert omega.degree() == 4
    basis = kunneth_ideal_basis(ring, 4)
    assert in_kunneth_ideal(ring, omega)
    assert any(not b.is_zero() for b in basis)


def test_sum_of_volumes_in_degree2_layer():
    ring, factors = build_with_classes(parse_manifold("surface(2) * surface(2)"))
    omega = parse_omega("vol(1) + vol(2)", ring, factors)
    assert omega.degree() == 2
    assert in_kunneth_ideal(ring, omega)


def test_ideal_layer_bounds():
    for manifold, _, _ in CATALOG:
        ring = build(parse_manifold(manifold))
        for k in range(2, ring.top_degree + 1):
            assert len(kunneth_ideal_basis(ring, k)) <= ring.dims[k]


def test_ideal_basis_spans_all_pairwise_products():
    for text in ("surface(2) * cp(2)", "connsum(s2xs2,2)", "torus(4)"):
        ring = build(parse_manifold(text))
        for k in range(2, ring.top_degree + 1):
            basis = kunneth_ideal_basis(ring, k)
            for ell in range(1, k):
                for b in ring.basis(ell):
                    for b2 in ring.basis(k - ell):
                        assert in_kunneth_ideal(ring, b * b2)
            for elem in basis:
                assert in_kunneth_ideal(ring, elem)


def test_ideal_basis_and_membership_match_reference():
    # without a presentation every basis class is a left factor, so both
    # ways of listing the ideal's spanning rows are compared
    obj = build(parse_manifold("surface(2) * cp(2)")).to_obj()
    obj["monomial_presentation"] = None
    rings = [build(parse_manifold(text)) for text in LAW_RINGS]
    seen = {True: 0, False: 0}
    for ring in rings + [GradedRing.from_obj(obj)]:
        for k, expected in reference_kunneth_bases(ring.to_obj()).items():
            basis = kunneth_ideal_basis(ring, k)
            assert [b.vector(k) for b in basis] == expected, (ring, k)
            probes = ring.basis(k)
            if probes:
                probes.append(probes[0] + probes[-1])
            # a rational combination of every reference row, which is in the
            # ideal, alone and with each basis class added
            combo = [
                sum((Fraction((-1) ** t * (t + 1), 2 * t + 3) * row[c]
                     for t, row in enumerate(expected)), Fraction(0))
                for c in range(ring.dims[k])
            ]
            if any(combo):
                combo = RingElement(ring, {k: combo})
                probes += [combo] + [combo + b for b in ring.basis(k)]
            for omega in probes:
                member = _in_rref_span(expected, omega.vector(k))
                assert in_kunneth_ideal(ring, omega) == member, (ring, k, omega)
                seen[member] += 1
    assert seen[True] and seen[False]


def _in_rref_span(rows, vec):
    """Whether vec is in the span of RREF rows: each row's pivot is 1 and the
    other rows are 0 there, so vec must be the sum of the rows each times
    vec's entry at its pivot."""
    rest = list(vec)
    for row in rows:
        f = vec[next(c for c, x in enumerate(row) if x)]
        if f:
            rest = [a - f * b for a, b in zip(rest, row)]
    return not any(rest)


def test_symplectic_class_not_decomposable_in_product():
    # in surface(1) x cp(2) the pulled-back degree-2 generator is not a
    # product of positive-degree classes, unlike the volume pull-back
    ring, factors = build_with_classes(parse_manifold("surface(1) * cp(2)"))
    assert not in_kunneth_ideal(ring, factors[1]["sym"])
    assert in_kunneth_ideal(ring, factors[0]["vol"])


def test_ideal_errors():
    ring = build(Torus(2))
    with pytest.raises(IdealUndefinedError):
        kunneth_ideal_basis(ring, 1)
    with pytest.raises(IdealUndefinedError):
        kunneth_ideal_basis(ring, 3)
    mixed = ring.unit() + ring.fundamental_class()
    with pytest.raises(NonHomogeneousError):
        in_kunneth_ideal(ring, mixed)


def test_degree_one_class_not_in_ideal():
    ring = build(Torus(2))
    assert not in_kunneth_ideal(ring, ring.basis_element(1, 0))
    assert in_kunneth_ideal(ring, ring.zero())


def test_factorizations_torus():
    ring = build(Torus(2))
    a, b = ring.basis(1)
    vol = ring.fundamental_class()
    pairs = factorizations(ring, vol, 1)
    assert (a, b) in pairs
    for c, cof in pairs:
        assert c * cof == vol


def test_factorizations_product_includes_volume_factor():
    ring, factors = build_with_classes(parse_manifold("surface(2) * cp(2)"))
    omega = parse_omega("vol(1)^sym(2)", ring, factors)
    pairs = factorizations(ring, omega, 2)
    vol1 = factors[0]["vol"]
    sym2 = factors[1]["sym"]
    assert (vol1, sym2) in pairs
    for c, cof in pairs:
        assert c * cof == omega


def test_factorizations_sphere_empty():
    ring = build(Sphere(4))
    assert factorizations(ring, ring.fundamental_class(), 1) == []


def test_factorizations_validates_layer():
    ring = build(Torus(2))
    with pytest.raises(ValueError):
        factorizations(ring, ring.fundamental_class(), 2)
