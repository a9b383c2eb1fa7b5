"""Obstruction verifiers and searchers, including the hand-built paper systems."""

import json
from fractions import Fraction

import pytest

import qrob.obstruct
import qrob.ring
from conftest import (
    CATALOG,
    LAW_RINGS,
    WORKLOAD_QUERIES,
    dense_vector,
    found_system,
    reference_annihilators,
    reference_kronecker_search,
    reference_lambda,
)

from qrob import (
    CPm,
    GradedRing,
    InvalidSystemError,
    KroneckerSystem,
    Product,
    RingElement,
    RingMismatchError,
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
    prywes_bound,
    pull_left,
    pull_right,
    search_obstruction,
)
from qrob.errors import VerificationFailure
from qrob.obstruct import (
    _PATTERNS,
    _annihilator_bounds,
    _annihilator_candidates,
    _lambdas,
    _product_table,
    kronecker_systems,
)
from qrob.pipeline import (
    Query,
    certificate_to_obj,
    run_query,
    verify_certificate_obj,
    verify_document,
)
from qrob.ring import _cofactor, _left_products


def test_prywes_bound_connsum8():
    ring = build(connsum_power(S2xS2(), 8))
    cert = prywes_bound(ring, 4)
    assert cert is not None
    assert cert.degree == 2
    assert (cert.inequality.lhs, cert.inequality.rhs) == (16, 6)


def test_prywes_bound_none_cases():
    assert prywes_bound(build(Torus(4)), 4) is None
    assert prywes_bound(build(Sphere(6)), 6) is None


def _paired_right_classes(classes, signs):
    """The convention right[i] = left[i+1] for odd slots, sign*left[i-1] for even."""
    out = []
    for i in range(len(classes)):
        if i % 2 == 0:
            out.append(classes[i + 1])
        else:
            out.append(classes[i - 1].scale(signs))
    return out


def test_dual_system_s8_times_cp2():
    expr = Product(connsum_power(S2xS2(), 8), CPm(2))
    ring = build(expr)
    left_ring = build(connsum_power(S2xS2(), 8))
    right_ring = build(CPm(2))
    target = pull_left(ring, left_ring, right_ring, left_ring.fundamental_class())
    cofactor = pull_right(ring, left_ring, right_ring, right_ring.basis_element(2, 0))
    lefts = [
        pull_left(ring, left_ring, right_ring, c) for c in left_ring.basis(2)
    ]
    rights = _paired_right_classes(lefts, 1)  # even classes commute, no sign
    system = KroneckerSystem("DualPair", target, cofactor, lefts, rights)
    cert = system.certificate(6)
    assert cert is not None
    assert cert.kind == "DualPair"
    assert (cert.inequality.lhs, cert.inequality.rel, cert.inequality.rhs) == (
        16,
        ">",
        15,
    )


def test_dual_system_small_returns_none():
    ring = build(Torus(2))
    a, b = ring.basis(1)
    system = KroneckerSystem(
        "DualPair", ring.fundamental_class(), ring.unit(), [a], [b]
    )
    assert system.certificate(2) is None


def test_dual_system_corruption_detected():
    ring = build(Torus(2))
    a, b = ring.basis(1)
    bad = KroneckerSystem(
        "DualPair", ring.fundamental_class(), ring.unit(), [a, b], [b, a]
    )
    with pytest.raises(InvalidSystemError) as err:
        bad.certificate(2)
    assert err.value.detail is not None


def test_annihilator_system_t2_times_cp2():
    expr = Product(Surface(2), CPm(2))
    ring = build(expr)
    left_ring = build(Surface(2))
    right_ring = build(CPm(2))
    factor = pull_left(ring, left_ring, right_ring, left_ring.fundamental_class())
    cofactor = pull_right(ring, left_ring, right_ring, right_ring.basis_element(2, 0))
    anns = [pull_left(ring, left_ring, right_ring, c) for c in left_ring.basis(1)]
    duals = _paired_right_classes(anns, -1)  # odd classes anticommute
    system = KroneckerSystem("H1Annihilator", factor, cofactor, anns, duals)
    cert = system.certificate(4)
    assert cert is not None
    assert cert.kind == "H1Annihilator"
    assert (cert.inequality.lhs, cert.inequality.rel, cert.inequality.rhs) == (
        4,
        ">=",
        4,
    )


def test_annihilator_system_t1_returns_none():
    expr = Product(Surface(1), CPm(2))
    ring = build(expr)
    left_ring = build(Surface(1))
    right_ring = build(CPm(2))
    factor = pull_left(ring, left_ring, right_ring, left_ring.fundamental_class())
    cofactor = pull_right(ring, left_ring, right_ring, right_ring.basis_element(2, 0))
    anns = [pull_left(ring, left_ring, right_ring, c) for c in left_ring.basis(1)]
    duals = _paired_right_classes(anns, -1)
    system = KroneckerSystem("H1Annihilator", factor, cofactor, anns, duals)
    assert system.certificate(4) is None  # m = 2 < 4


def test_annihilator_system_corruption_detected():
    expr = Product(Surface(2), CPm(2))
    ring = build(expr)
    left_ring = build(Surface(2))
    right_ring = build(CPm(2))
    factor = pull_left(ring, left_ring, right_ring, left_ring.fundamental_class())
    cofactor = pull_right(ring, left_ring, right_ring, right_ring.basis_element(2, 0))
    anns = [pull_left(ring, left_ring, right_ring, c) for c in left_ring.basis(1)]
    bad = KroneckerSystem(
        "H1Annihilator", cofactor, factor, anns, _paired_right_classes(anns, -1)
    )
    with pytest.raises(InvalidSystemError):
        bad.certificate(4)  # cofactor * anns[i] != 0


def _volume_annihilator_system(k):
    """The H1Annihilator system on torus(k) whose factor is the volume class
    itself, with the unit as cofactor: every degree-1 class t annihilates
    it, and t's dual is the blade of the other axes, signed so that their
    product is +vol. Its k annihilators meet m >= n = k."""
    ring = build(Torus(k))
    vol = ring.fundamental_class()
    rows = ring.basis(1)
    cols = [
        b.scale(x.coefficient(k, 0))
        for t in rows for b in ring.basis(k - 1) if not (x := t * b).is_zero()
    ]
    return KroneckerSystem("H1Annihilator", vol, ring.unit(), rows, cols)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_annihilator_factor_of_degree_n_yields_no_certificate(k):
    # at degree n every phi(vol) * phi(t) lies in degree n + 1 of the
    # exterior algebra, which is zero, so annihilating vol bounds nothing:
    # torus(k) has a witness for vol(1). Every entry of the forged system
    # holds, so only the degree rule refuses it.
    system = _volume_annihilator_system(k)
    assert all(
        multiply(r, c) == (system.diag if i == j else system.diag.ring.zero())
        for i, r in enumerate(system.rows) for j, c in enumerate(system.cols)
    )
    with pytest.raises(InvalidSystemError, match="annihilators bound nothing"):
        system.certificate(k)
    with pytest.raises(InvalidSystemError, match="H1Annihilator needs a factor of degree below n"):
        system.check()


# every WITNESS row of CATALOG, then more queries with a witness: larger tori,
# slice products with a torus factor, connected sums and products
FORGERY_ROWS = [
    *[(f"torus({k})", "vol(1)", k) for k in range(2, 8)],
    ("surface(1) * cp(2)", "vol(1)^sym(2)", 4),
    ("connsum(s2xs2,1) * cp(2)", "vol(1)^sym(2)", 6),
    ("cp(2)", "sym(1)^sym(1)", 4),
    ("cp(3)", "sym(1)^sym(1)^sym(1)", 6),
    ("surface(2) * torus(2)", "vol(1) + vol(2)", 2),
    ("torus(2) * torus(2)", "vol(1) + vol(2)", 2),
    ("connsum(cp(2),2)", "vol(1)", 4),
    ("connsum(s2xs2,2)", "vol(1)", 4),
    ("s2xs2 * cp(2)", "vol(1)^vol(2)", 8),
    ("cp(3) * torus(2)", "vol(1)^vol(2)", 8),
]


def _basis_systems(ring, omega, n):
    """Every system that `KroneckerSystem` admits from basis data, built
    without the search: each kind, each l in 1..n, each basis class of
    degree l with a cofactor, rows from basis(k') or from the class's
    degree-1 annihilators, and every group that `kronecker_systems` forms."""
    for kind, pattern in _PATTERNS.items():
        for ell in range(1, n + 1):
            for i, stored in _left_products(ring, ell, n - ell).items():
                cofactor = _cofactor(ring, omega, ell, stored)
                if cofactor is None:
                    continue
                factor = ring.basis_element(ell, i)
                for kp in pattern.row_degrees(ell):
                    cols = ring.basis(ell - kp)
                    row_sets = [ring.basis(kp)]
                    row_sets += [_annihilator_candidates(ring, factor)] if kp == 1 else []
                    for rows in filter(None, row_sets):
                        products = _product_table(rows, cols)
                        lam = _lambdas(products).get(i, {})
                        for lefts, rights in kronecker_systems(rows, cols, products, lam, 1):
                            yield KroneckerSystem(kind, factor, cofactor, lefts, rights)


def test_no_basis_system_certifies_a_query_with_a_witness():
    # what verify accepts, not only what the search proposes: a certificate
    # here would contradict a witness that verifies. Without the rule that an
    # annihilating kind's diagonal lies below degree n, torus(k)'s volume
    # class and its k annihilators certify every torus.
    built = 0
    for manifold, omega_text, n in FORGERY_ROWS:
        assert run_query(Query(manifold, omega_text, n)).verdict == "WITNESS", manifold
        ring, omega = _query(manifold, omega_text, n)
        for system in _basis_systems(ring, omega, n):
            built += 1
            try:
                cert = system.certificate(n)
            except InvalidSystemError:
                continue
            assert cert is None, (manifold, system.kind, system.diag.degree())
    assert built > 2000


def _query(manifold, omega_text, n):
    ring, factors = build_with_classes(parse_manifold(manifold))
    return ring, parse_omega(omega_text, ring, factors)


def test_search_surface3_gives_annihilator_certificate():
    ring, omega = _query("surface(3) * cp(2)", "vol(1)^sym(2)", 4)
    cert = search_obstruction(ring, omega, 4)
    assert cert is not None and cert.kind == "H1Annihilator"
    # the six annihilators found are cut to the least family, four
    assert cert.inequality.lhs == 4
    assert len(found_system(("surface(3) * cp(2)", "vol(1)^sym(2)", 4)).rows) == 6
    verify_certificate_obj(certificate_to_obj(cert), ring)


def test_search_connsum9_gives_dual_certificate():
    ring, omega = _query("connsum(s2xs2,9) * cp(2)", "vol(1)^sym(2)", 6)
    cert = search_obstruction(ring, omega, 6)
    assert cert is not None and cert.kind == "DualPair"
    assert (cert.inequality.lhs, cert.inequality.rhs) == (16, 15)
    assert len(found_system(("connsum(s2xs2,9) * cp(2)", "vol(1)^sym(2)", 6)).rows) == 18
    verify_certificate_obj(certificate_to_obj(cert), ring)


def test_search_torus4_finds_nothing():
    ring, omega = _query("torus(4)", "vol(1)", 4)
    assert search_obstruction(ring, omega, 4) is None


def test_search_requires_preconditions():
    from qrob import NonHomogeneousError

    ring, omega = _query("torus(4)", "vol(1)", 4)
    with pytest.raises(ValueError):
        search_obstruction(ring, ring.zero(), 4)
    with pytest.raises(NonHomogeneousError):
        search_obstruction(ring, ring.basis_element(1, 0), 4)
    sphere_ring, vol = _query("sphere(4)", "vol(1)", 4)
    with pytest.raises(ValueError):
        search_obstruction(sphere_ring, vol, 4)  # outside the product ideal


def test_search_deterministic_output():
    ring, omega = _query("surface(2) * cp(2)", "vol(1)^sym(2)", 4)
    a = certificate_to_obj(search_obstruction(ring, omega, 4))
    b = certificate_to_obj(search_obstruction(ring, omega, 4))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def _basis_rows(ring, p):
    """basis(p) plus two sums of basis classes, one of them skewed."""
    rows = ring.basis(p)
    if len(rows) < 2:
        return rows
    return rows + [rows[0] + rows[-1], rows[0] + rows[-1].scale(Fraction(-1, 2))]


def _lambda_matrix(products, width, i):
    """The dense lambda matrix that `_lambdas` gives against basis class i
    over `width` columns: None where a nonzero product has no lambda."""
    lam = _lambdas(products).get(i, {})
    return [
        [lam.get(r, {}).get(c, None if c in row else Fraction(0)) for c in range(width)]
        for r, row in enumerate(products)
    ]


def _basis_index(x):
    """i for the basis class x = basis_k[i]."""
    ((_, vec),) = x.coords().items()
    ((i, _),) = vec.items()
    return i


def test_lambda_matrix_matches_dense_products_on_catalog():
    reached = 0
    for manifold, omega_text, n in CATALOG:
        ring, _ = _query(manifold, omega_text, n)
        for k in range(1, n):
            for i, target in enumerate(ring.basis(k)):
                row_sets = [_annihilator_candidates(ring, target)]
                row_sets += [_basis_rows(ring, p) for p in range(k + 1)]
                for rows in filter(None, row_sets):
                    cols = ring.basis(k - rows[0].degree())
                    if cols:
                        lam = _lambda_matrix(_product_table(rows, cols), len(cols), i)
                        assert lam == reference_lambda(rows, cols, target), (manifold, k, i)
                        reached += any(x for row in lam for x in row)
    assert reached


def test_kronecker_systems_are_exact_on_skewed_rows():
    # the skewed sums first make pivot blocks neither diagonal nor symmetric
    found = 0
    for manifold, omega_text, n in CATALOG[:8]:
        ring, omega = _query(manifold, omega_text, n)
        for ell in range(2, n):
            for target, _ in factorizations(ring, omega, ell)[:2]:
                for kp in range(1, ell):
                    rows, cols = _basis_rows(ring, kp)[::-1], ring.basis(ell - kp)
                    products = _product_table(rows, cols)
                    lam = _lambdas(products).get(_basis_index(target), {})
                    for lefts, rights in kronecker_systems(rows, cols, products, lam, 1):
                        found += 1
                        for i, x in enumerate(lefts):
                            for j, y in enumerate(rights):
                                expected = target if i == j else ring.zero()
                                assert multiply(x, y) == expected, (manifold, ell, kp)
    assert found


def test_product_table_reads_basis_products_without_times(monkeypatch):
    # the (2, 2) table of this ring stores 73 of the 25 x 25 basis products
    ring, _ = _query("connsum(s2xs2,12) * cp(2)", "vol(1)^sym(2)", 6)
    calls = []
    times = GradedRing.times

    def counting(self, *args):
        calls.append(args)
        return times(self, *args)

    monkeypatch.setattr(GradedRing, "times", counting)
    table = _product_table(ring.basis(2), ring.basis(2))
    assert calls == []
    assert sum(map(len, table)) == len(ring.structure[2, 2]) == 73
    for i, row in enumerate(table):
        assert row == {j: ring.structure[2, 2][i, j] for j in sorted(row)}


def test_product_table_stores_exactly_the_nonzero_products():
    # the skewed rows of the test below, against skewed columns of every
    # degree: degree 0 (unit rows) and degrees past the top (no products)
    for manifold, omega_text, n in CATALOG[:8]:
        ring, _ = _query(manifold, omega_text, n)
        for p in range(ring.top_degree + 1):
            rows = _basis_rows(ring, p)[::-1]
            for q in range(ring.top_degree + 1):
                cols = _basis_rows(ring, q)
                if not rows or not cols:
                    continue
                table = _product_table(rows, cols)
                assert len(table) == len(rows)
                for x, stored in zip(rows, table):
                    assert list(stored) == sorted(stored)
                    for c, y in enumerate(cols):
                        expected = multiply(x, y)
                        got = stored.get(c, {})
                        assert RingElement._trusted(ring, {p + q: got} if got else {}) == expected
                        assert all(got.values()), (manifold, p, q, c)
                if p + q > ring.top_degree:
                    assert table == [{}] * len(rows)


def test_kronecker_systems_make_no_multiply_calls(monkeypatch):
    ring, omega = _query("connsum(s2xs2,10) * cp(2)", "vol(1)^sym(2)", 6)
    factor = factorizations(ring, omega, 4)[0][0]
    calls = []

    def counting(x, y):
        calls.append((x, y))
        return multiply(x, y)

    monkeypatch.setattr(qrob.obstruct, "multiply", counting)
    monkeypatch.setattr(qrob.ring, "multiply", counting)
    rows = cols = ring.basis(2)
    products = _product_table(rows, cols)
    lam = _lambdas(products)[_basis_index(factor)]
    systems = list(kronecker_systems(rows, cols, products, lam, 1))
    assert systems and calls == []


# a DualPair and an H1Annihilator certificate of the obstruct_certify workload
CERTIFIED_SYSTEMS = [
    ("connsum(s2xs2,10) * cp(2)", 6, "DualPair"),
    ("surface(3) * cp(2)", 4, "H1Annihilator"),
]


def _certified_system(manifold, n, kind):
    ring, omega = _query(manifold, "vol(1)^sym(2)", n)
    cert = search_obstruction(ring, omega, n)
    assert cert.kind == kind
    return cert, KroneckerSystem.from_classes(kind, cert.classes, lambda x: x)


@pytest.mark.parametrize("manifold,n,kind", CERTIFIED_SYSTEMS)
def test_kronecker_certificate_multiplies_only_diag_by_cofactor(monkeypatch, manifold, n, kind):
    cert, system = _certified_system(manifold, n, kind)
    calls = []

    def counting(x, y):
        calls.append((x, y))
        return multiply(x, y)

    monkeypatch.setattr(qrob.obstruct, "multiply", counting)
    monkeypatch.setattr(qrob.ring, "multiply", counting)
    assert certificate_to_obj(system.certificate(n)) == certificate_to_obj(cert)
    assert calls == [(system.diag, system.cofactor)]


@pytest.mark.parametrize("manifold,n,kind", [
    ("connsum(s2xs2,8) * cp(2)", 6, "DualPair"),
    ("surface(2) * cp(2)", 4, "H1Annihilator"),
])
def test_kronecker_check_accepts_a_diag_that_is_not_a_basis_class(manifold, n, kind):
    # the search only builds systems against basis classes, but the verifier
    # checks rows * cols = delta * diag for any diag: 2 diag, 2 rows and
    # cofactor / 2 still obstruct, while 2 diag alone breaks the diagonal
    cert, system = _certified_system(manifold, n, kind)
    ring, diag = system.diag.ring, _PATTERNS[kind].roles[2]
    scaled = KroneckerSystem(
        kind, system.diag.scale(2), system.cofactor.scale(Fraction(1, 2)),
        [x.scale(2) for x in system.rows], system.cols,
    ).certificate(n)
    assert scaled.omega == cert.omega
    assert scaled.inequality.to_obj() == cert.inequality.to_obj()
    assert verify_document(certificate_to_obj(scaled), ring=ring).startswith("certificate")
    doc = certificate_to_obj(cert)
    doc["classes"][diag] = system.diag.scale(2).to_obj()
    with pytest.raises(VerificationFailure, match=f"is not the {diag}$"):
        verify_document(doc, ring=ring)


def _tampered(system, pairs):
    """The system moved to a copy of its ring in which the basis product of
    each (x, y) in pairs, classes of one term each, is changed: a nonzero
    product becomes zero and a zero one nonzero."""
    ring = system.diag.ring
    structure = {pq: dict(table) for pq, table in ring.structure.items()}
    for x, y in pairs:
        ((p, xv),), ((q, yv),) = x.coords().items(), y.coords().items()
        ((i, _),), ((j, _),) = xv.items(), yv.items()
        table = structure.setdefault((p, q), {})
        table[i, j] = {} if (i, j) in table else {0: Fraction(1)}
    bad = GradedRing(
        ring.top_degree, ring.dims, ring.labels, structure, ring.presentation,
    )

    def move(x):
        return RingElement(bad, x.coords())

    return KroneckerSystem(
        system.kind, move(system.diag), move(system.cofactor),
        [move(x) for x in system.rows], [move(y) for y in system.cols],
    )


def _entries(system):
    """(left role, right role, left, right, on_diagonal) for every product that
    `KroneckerSystem.check` proves, in the order it proves them: diag times
    each row when the kind annihilates the rows, then each row times each
    column; the product is the diag class on the diagonal and zero elsewhere."""
    pattern = qrob.obstruct._PATTERNS[system.kind]
    row, col, diag = pattern.roles
    out = [
        (diag, f"{row}[{i}]", system.diag, x, False)
        for i, x in enumerate(system.rows) if pattern.annihilated
    ]
    out += [
        (f"{row}[{i}]", f"{col}[{j}]", x, y, i == j)
        for i, x in enumerate(system.rows)
        for j, y in enumerate(system.cols)
    ]
    return out


@pytest.mark.parametrize("manifold,n,kind", CERTIFIED_SYSTEMS)
def test_kronecker_check_names_the_first_wrong_entry(manifold, n, kind):
    _, system = _certified_system(manifold, n, kind)
    entries, m = _entries(system), len(system.rows)
    if kind == "H1Annihilator":
        # the factor times the last annihilator, then annihilators[0] * duals[0]:
        # first in check order, though its row comes last
        first, second = entries[m - 1], entries[m]
    else:
        # left[1] * right[0], off the diagonal, then the last diagonal entry
        first, second = entries[m], entries[-1]
    tampered = _tampered(system, [first[2:4], second[2:4]])
    zero = tampered.diag.ring.zero()
    wrong = [
        (a, b) for a, b, x, y, on_diag in _entries(tampered)
        if multiply(x, y) != (tampered.diag if on_diag else zero)
    ]
    assert wrong == [first[:2], second[:2]]
    with pytest.raises(InvalidSystemError) as err:
        tampered.check()
    assert err.value.detail == first[:2]
    assert str(err.value).startswith(f"product of {first[0]} and {first[1]} is not")



@pytest.mark.parametrize("manifold,n,kind", CERTIFIED_SYSTEMS)
def test_kronecker_check_names_the_least_wrong_column_of_a_row(manifold, n, kind):
    # row 1 is wrong at column 3 and on the diagonal; the diagonal comes first
    _, system = _certified_system(manifold, n, kind)
    entries, m = _entries(system), len(system.rows)
    row_one = entries[len(entries) - m * m + m:][:m]
    tampered = _tampered(system, [row_one[3][2:4], row_one[1][2:4]])
    with pytest.raises(InvalidSystemError) as err:
        tampered.check()
    row, col, diag = qrob.obstruct._PATTERNS[kind].roles
    assert err.value.detail == (f"{row}[1]", f"{col}[1]") == row_one[1][:2]
    assert str(err.value) == f"product of {row}[1] and {col}[1] is not the {diag}"


@pytest.mark.parametrize("moved", ["a row", "a column", "every row and column"])
@pytest.mark.parametrize("manifold,n,kind", CERTIFIED_SYSTEMS)
def test_kronecker_check_rejects_classes_of_another_ring(manifold, n, kind, moved):
    # entries are read from product tables, not through `multiply`, so check
    # itself must reject a row or column class that is not in diag's ring
    _, system = _certified_system(manifold, n, kind)
    other = _tampered(system, [_entries(system)[-1][2:4]])
    assert other.diag.ring != system.diag.ring
    rows, cols = list(system.rows), list(system.cols)
    if moved == "a row":
        rows[-1] = other.rows[-1]
    elif moved == "a column":
        cols[0] = other.cols[0]
    else:
        rows, cols = other.rows, other.cols
    moved_system = KroneckerSystem(kind, system.diag, system.cofactor, rows, cols)
    with pytest.raises(RingMismatchError):
        moved_system.check()
    with pytest.raises(RingMismatchError):
        moved_system.certificate(n)

# CATALOG and workload queries, then families where the certifying factor is
# the last one, one of squares (each class pairs with itself), or where no
# kind's bound can be reached.
DIFFERENTIAL_QUERIES = tuple(dict.fromkeys(
    list(CATALOG) + list(WORKLOAD_QUERIES)
    + [("connsum(cp(2),16) * cp(2)", "vol(1)^sym(2)", 6)]
    + [(f"connsum(s2xs2,{v}) * cp(2)", "vol(1)^sym(2)", 6) for v in range(1, 13)]
    + [(f"surface({g}) * cp(2)", "vol(1)^sym(2)", 4) for g in range(1, 11)]
    + [(f"connsum(s2xs2,{v}) * torus(2)", "vol(1)^vol(2)", 6) for v in range(1, 5)]
    + [(f"surface({g}) * torus(2) * cp(2)", "vol(1)^vol(2)", 4) for g in range(1, 5)]
    + [(f"torus({k})", "vol(1)", k) for k in range(2, 5)]
))


@pytest.mark.parametrize("manifold,omega_text,n", DIFFERENTIAL_QUERIES)
def test_search_matches_unpruned_reference(manifold, omega_text, n):
    ring, omega = _query(manifold, omega_text, n)
    found = search_obstruction(ring, omega, n)
    expected = prywes_bound(ring, n, omega)
    if expected is None:
        system = reference_kronecker_search(ring, omega, n)
        expected = system and KroneckerSystem(*system).certificate(n)
    assert (found and certificate_to_obj(found)) == (
        expected and certificate_to_obj(expected)
    )


def _count_calls(monkeypatch, *names):
    """Record the arguments of every call the search makes to these names."""
    calls = {name: [] for name in names}
    for name in names:
        def counting(*args, original=getattr(qrob.obstruct, name), name=name):
            calls[name].append(args)
            return original(*args)
        monkeypatch.setattr(qrob.obstruct, name, counting)
    return calls


def test_search_eliminates_only_the_certifying_group(monkeypatch):
    calls = _count_calls(monkeypatch, "invert", "pivot_rows_cols")
    ring, omega = _query("connsum(s2xs2,12) * cp(2)", "vol(1)^sym(2)", 6)
    assert search_obstruction(ring, omega, 6).inequality.lhs == 16
    # without the size prunes: 49 inversions and 601 pivot searches
    assert len(calls["invert"]) == len(calls["pivot_rows_cols"]) == 1


def test_search_solves_and_lambdas_only_the_certifying_factor(monkeypatch):
    # the certifying DualPair factor is vol⊗1, the last of 2v + 2 degree-4
    # classes; every other class's bound read from the (2, 2) table is below
    # C(6, 2) + 1 = 16
    calls = _count_calls(monkeypatch, "_cofactor", "_lambdas")
    for v in (12, 30):
        ring, omega = _query(f"connsum(s2xs2,{v}) * cp(2)", "vol(1)^sym(2)", 6)
        assert search_obstruction(ring, omega, 6).inequality.lhs == 16
        # one lambda pass over the one shared (2, 2) table, and without the
        # per-class bound 2v + 2 solves
        assert len(calls["_cofactor"]) == len(calls["_lambdas"]) == 1, v
        (products,) = calls["_lambdas"][0]
        assert products == _product_table(ring.basis(2), ring.basis(2)), v
        calls["_cofactor"].clear()
        calls["_lambdas"].clear()


def test_search_skips_degree_one_annihilator_factors(monkeypatch):
    # an H1Annihilator system with l = 1 has the single column basis(0)
    calls = _count_calls(monkeypatch, "_cofactor")
    for g in range(1, 11):
        ring, omega = _query(f"surface({g}) * cp(2)", "vol(1)^sym(2)", 4)
        search_obstruction(ring, omega, 4)
    assert calls["_cofactor"] and all(ell != 1 for _, _, ell, _ in calls["_cofactor"])


def test_search_without_reachable_bound_never_factors_omega(monkeypatch):
    # dims = [1, 0, 15, 0, 16, ...]: no family can exceed C(6, 2) = 15
    calls = _count_calls(monkeypatch, "_cofactor")
    ring, omega = _query("connsum(s2xs2,7) * cp(2)", "vol(1)^sym(2)", 6)
    assert search_obstruction(ring, omega, 6) is None
    assert calls["_cofactor"] == []
    # one more summand reaches the bound, and the count sees its solve
    ring, omega = _query("connsum(s2xs2,8) * cp(2)", "vol(1)^sym(2)", 6)
    assert search_obstruction(ring, omega, 6) is not None
    assert calls["_cofactor"]


def test_annihilator_bounds_cover_every_basis_class():
    # the search skips a factor whose bound is below the kind's min_size, so
    # the bound must never be below the annihilators it stands for
    tight = 0
    for manifold in LAW_RINGS:
        ring = build(parse_manifold(manifold))
        for ell in range(1, ring.top_degree + 1):
            bounds = _annihilator_bounds(ring, ell)
            assert len(bounds) == ring.dims[ell]
            for i, bound in enumerate(bounds):
                count = len(_annihilator_candidates(ring, ring.basis_element(ell, i)))
                assert bound >= count, (manifold, ell, i)
                tight += bound == count
    assert tight


def test_annihilator_candidates_match_reference_kernels():
    for manifold in LAW_RINGS:
        ring = build(parse_manifold(manifold))
        obj = ring.to_obj()
        for ell in range(1, ring.top_degree):
            for i, kernel in enumerate(reference_annihilators(obj, ell)):
                rows = _annihilator_candidates(ring, ring.basis_element(ell, i))
                assert [dense_vector(x, 1) for x in rows] == kernel, (manifold, ell, i)


def test_search_on_tori_neither_factors_nor_annihilates(monkeypatch):
    # dims[1] = n, and every class c of degree l < n has c * H^1 != 0, so no
    # factor can have n annihilators; no DualPair family can exceed C(n, k')
    calls = _count_calls(monkeypatch, "_cofactor", "_annihilator_candidates")
    for n in (5, 6, 7):
        ring, omega = _query(f"torus({n})", "vol(1)", n)
        assert search_obstruction(ring, omega, n) is None
    assert calls == {"_cofactor": [], "_annihilator_candidates": []}
    # a surface's factors do reach the bound, and the counts see them
    ring, omega = _query("surface(2) * cp(2)", "vol(1)^sym(2)", 4)
    assert search_obstruction(ring, omega, 4).kind == "H1Annihilator"
    assert calls["_cofactor"] and calls["_annihilator_candidates"]


def test_certificate_m_matches_family_parameters():
    for g in range(2, 6):
        ring, omega = _query(f"surface({g}) * cp(2)", "vol(1)^sym(2)", 4)
        cert = search_obstruction(ring, omega, 4)
        assert cert.kind == "H1Annihilator" and cert.inequality.lhs == 4
        assert len(cert.classes["annihilators"]) == len(cert.classes["duals"]) == 4
        query = (f"surface({g}) * cp(2)", "vol(1)^sym(2)", 4)
        assert len(found_system(query).rows) == 2 * g
    for nu in range(8, 11):
        ring, omega = _query(f"connsum(s2xs2,{nu}) * cp(2)", "vol(1)^sym(2)", 6)
        cert = search_obstruction(ring, omega, 6)
        assert cert.kind == "DualPair" and cert.inequality.lhs == 16
        assert len(cert.classes["left"]) == len(cert.classes["right"]) == 16
        query = (f"connsum(s2xs2,{nu}) * cp(2)", "vol(1)^sym(2)", 6)
        assert len(found_system(query).rows) == 2 * nu
