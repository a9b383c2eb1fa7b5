"""Expression grammars for manifolds and form classes."""

from fractions import Fraction

import pytest

from qrob import (
    ConnSum,
    CPm,
    ParseError,
    Product,
    S2xS2,
    Sphere,
    Surface,
    Torus,
    build_with_classes,
    parse_manifold,
    parse_omega,
)


def test_parse_atoms():
    assert parse_manifold("sphere(4)") == Sphere(4)
    assert parse_manifold("torus(3)") == Torus(3)
    assert parse_manifold("surface(2)") == Surface(2)
    assert parse_manifold("cp(2)") == CPm(2)
    assert parse_manifold("s2xs2") == S2xS2()


def test_parse_product_left_associative():
    expr = parse_manifold("torus(2) * cp(2) * sphere(2)")
    assert expr == Product(Product(Torus(2), CPm(2)), Sphere(2))


def test_parse_connsum_fold():
    expr = parse_manifold("connsum(s2xs2, 3)")
    assert expr == ConnSum(ConnSum(S2xS2(), S2xS2()), S2xS2())
    assert parse_manifold("connsum(s2xs2, 1)") == S2xS2()


def test_parse_nested():
    expr = parse_manifold("connsum(torus(2), 2) * cp(2)")
    assert expr == Product(ConnSum(Torus(2), Torus(2)), CPm(2))


def test_nodes_of_different_classes_are_different_keys():
    # the build cache is keyed by expression: equal fields under another
    # class are another manifold
    assert Sphere(2) != Torus(2)
    assert Product(S2xS2(), CPm(2)) != ConnSum(S2xS2(), CPm(2))
    keys = {Sphere(2): "S2", Torus(2): "T2"}
    keys[Product(S2xS2(), CPm(2))] = "product"
    keys[ConnSum(S2xS2(), CPm(2))] = "connected sum"
    assert len(keys) == 4 and keys[Sphere(n=2)] == "S2"
    assert keys[Product(left=S2xS2(), right=CPm(m=2))] == "product"


def test_two_parses_are_equal_and_hash_equal():
    text = "connsum(surface(2) * sphere(3), 3) * cp(2) * s2xs2"
    first, second = parse_manifold(text), parse_manifold(text)
    assert first is not second
    assert first == second and hash(first) == hash(second)


@pytest.mark.parametrize("node", [Sphere(2), CPm(2), S2xS2(), Product(Torus(1), CPm(1))])
def test_nodes_are_immutable(node):
    with pytest.raises(AttributeError):
        node.n = 3
    with pytest.raises(AttributeError):
        node.left = Sphere(1)


@pytest.mark.parametrize("node, message", [
    (Sphere, "sphere dimension must be >= 1"),
    (Torus, "torus dimension must be >= 1"),
    (Surface, "surface genus must be >= 1 (the sphere is excluded)"),
    (CPm, "projective space needs m >= 1"),
])
def test_atom_below_one_is_a_value_error(node, message):
    with pytest.raises(ValueError) as err:
        node(0)
    assert str(err.value) == message


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_manifold("torus(2) * blob(3)")
    assert err.value.position == 11
    with pytest.raises(ParseError):
        parse_manifold("torus(2")
    with pytest.raises(ParseError):
        parse_manifold("torus(2) extra")
    with pytest.raises(ParseError):
        parse_manifold("connsum(s2xs2, 0)")
    with pytest.raises(ParseError):
        parse_manifold("surface(0)")


def _env(text):
    ring, factors = build_with_classes(parse_manifold(text))
    return ring, factors


def test_omega_wedge():
    ring, factors = _env("surface(1) * cp(2)")
    omega = parse_omega("vol(1)^sym(2)", ring, factors)
    assert omega == factors[0]["vol"] * factors[1]["sym"]


def test_omega_sum_and_scalars():
    ring, factors = _env("torus(2) * torus(2)")
    omega = parse_omega("2*vol(1) - vol(2)", ring, factors)
    assert omega == factors[0]["vol"].scale(2) - factors[1]["vol"]
    half = parse_omega("1/2*vol(1)", ring, factors)
    assert half == factors[0]["vol"].scale(Fraction(1, 2))


def test_omega_unary_minus_and_parens():
    ring, factors = _env("torus(2) * torus(2)")
    omega = parse_omega("-(vol(1) + vol(2))", ring, factors)
    assert omega == (factors[0]["vol"] + factors[1]["vol"]).scale(-1)


def test_omega_power_by_repetition():
    ring, factors = _env("cp(3)")
    omega = parse_omega("sym(1)^sym(1)^sym(1)", ring, factors)
    s = factors[0]["sym"]
    assert omega == s * s * s
    assert not omega.is_zero()


def test_factor_generator_count_is_not_an_omega_name():
    # the build records each factor's generator count for the template, but
    # the grammar names only vol(i) and sym(i)
    ring, factors = _env("torus(2) * cp(2)")
    assert [f["generators"] for f in factors] == [2, 1]
    with pytest.raises(ParseError, match="unknown class name 'generators'"):
        parse_omega("generators(1)", ring, factors)


def test_omega_errors():
    ring, factors = _env("torus(2) * cp(2)")
    with pytest.raises(ParseError):
        parse_omega("vol(3)", ring, factors)  # factor index out of range
    with pytest.raises(ParseError):
        parse_omega("sym(1)", ring, factors)  # torus has no symplectic class
    with pytest.raises(ParseError):
        parse_omega("curl(1)", ring, factors)
    with pytest.raises(ParseError):
        parse_omega("vol(1) +", ring, factors)


def test_single_factor_volume():
    ring, factors = _env("torus(4)")
    omega = parse_omega("vol(1)", ring, factors)
    assert omega == ring.fundamental_class()
