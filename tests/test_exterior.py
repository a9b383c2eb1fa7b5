"""Exterior algebra kernel against the permutation-sign oracle."""

import json
import random
from fractions import Fraction

import pytest

from conftest import e, random_element, wedge_blades_oracle, wedge_oracle
from qrob import DimensionMismatchError, ExtElement, dim_component, wedge
from qrob.exterior import blades, merge_axes


def test_degree_one_antisymmetry():
    assert wedge(e(4, 1), e(4, 2)) == e(4, 1, 2)
    assert wedge(e(4, 2), e(4, 1)) == -e(4, 1, 2)


def test_disjoint_ascending_blades():
    assert wedge(e(4, 1, 2), e(4, 3, 4)) == e(4, 1, 2, 3, 4)


def test_repeated_axis_vanishes():
    assert wedge(e(4, 1, 2), e(4, 2, 3)).is_zero()
    assert wedge(e(3, 1), e(3, 1)).is_zero()


def test_wedge_matches_oracle_on_all_blade_pairs_up_to_n5():
    for n in range(1, 6):
        for p in range(n + 1):
            for q in range(n + 1):
                for a in blades(n, p):
                    for b in blades(n, q):
                        got = merge_axes(a, b)
                        assert got == wedge_blades_oracle(a, b)


def test_wedge_matches_elementwise_oracle_random_degree2():
    rng = random.Random(20240)
    for _ in range(50):
        a = random_element(rng, 4, 2)
        b = random_element(rng, 4, 2)
        assert wedge(a, b) == wedge_oracle(a, b)


def test_graded_anticommutativity_random():
    rng = random.Random(11)
    for n in range(2, 6):
        for p in range(1, n):
            for q in range(1, n - p + 1):
                a = random_element(rng, n, p)
                b = random_element(rng, n, q)
                sign = -1 if (p * q) % 2 else 1
                assert wedge(a, b) == wedge(b, a).scale(sign)


def test_associativity_random():
    rng = random.Random(12)
    for _ in range(100):
        n = rng.randint(2, 5)
        a = random_element(rng, n, rng.randint(0, n))
        b = random_element(rng, n, rng.randint(0, n))
        c = random_element(rng, n, rng.randint(0, n))
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def test_odd_degree_squares_vanish():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(2, 6)
        k = rng.choice([d for d in range(1, n + 1) if d % 2])
        a = random_element(rng, n, k)
        assert wedge(a, a).is_zero()


def test_dim_component_values():
    assert dim_component(6, 2) == 15
    assert dim_component(4, 1) == 4
    for n in range(1, 7):
        assert dim_component(n, 0) == 1
        assert dim_component(n, n + 1) == 0
        for k in range(n + 1):
            assert dim_component(n, k) == len(list(blades(n, k)))


def test_dim_component_rejects_bad_input():
    with pytest.raises(ValueError):
        dim_component(0, 1)
    with pytest.raises(ValueError):
        dim_component(3, -1)


def test_mixed_degree_elements_allowed():
    x = e(4, 1) + e(4, 2, 3)
    assert not x.is_homogeneous()
    assert sorted(x.degrees()) == [1, 2]
    assert x.coefficient((1,)) == 1 and x.coefficient((2, 3)) == 1


def test_ambient_mismatch_raises():
    with pytest.raises(DimensionMismatchError):
        wedge(e(3, 1), e(4, 1))


def test_blade_validation():
    # descending, repeated, zero, above n, and above n after a valid axis
    for axes in [(2, 1), (1, 1), (0,), (5,), (1, 5)]:
        with pytest.raises(ValueError):
            ExtElement(4, {axes: 1})
        # a zero coefficient does not excuse a malformed blade
        with pytest.raises(ValueError):
            ExtElement(4, {axes: 0})
        obj = {"ambient_n": 4, "terms": [{"axes": list(axes), "coeff": "1"}]}
        with pytest.raises(ValueError):
            ExtElement.from_obj(obj)
    for n in (0, -1):
        with pytest.raises(DimensionMismatchError):
            ExtElement(n, {})
        with pytest.raises(DimensionMismatchError):
            ExtElement.from_obj({"ambient_n": n, "terms": []})


def test_zero_handling():
    z = ExtElement.zero(4)
    assert z.is_zero() and z.is_homogeneous()
    assert (e(4, 1) - e(4, 1)).is_zero()
    assert wedge(z, e(4, 1)).is_zero()


def test_scalar_unit():
    one = ExtElement.scalar(4, 1)
    x = e(4, 1, 3)
    assert wedge(one, x) == x
    assert wedge(x, one) == x
    assert ExtElement.scalar(4, Fraction(3, 2)).coefficient(()) == Fraction(3, 2)


def test_serialization_round_trip_bit_exact():
    x = ExtElement(4, {(1, 2): Fraction(3, 7), (2, 4): -2, (): Fraction(5)})
    blob = json.dumps(x.to_obj(), sort_keys=True)
    back = ExtElement.from_obj(json.loads(blob))
    assert back == x
    assert json.dumps(back.to_obj(), sort_keys=True) == blob
    # no decimal-format coefficients are accepted
    bad = x.to_obj()
    bad["terms"][0]["coeff"] = "0.5"
    with pytest.raises(ValueError):
        ExtElement.from_obj(bad)
