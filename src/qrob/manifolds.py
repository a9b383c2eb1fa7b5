"""Ring constructors for the built-in manifold expressions.

The expression AST covers spheres, tori, orientable surfaces, complex
projective spaces, S2xS2, binary products (via the tensor-product basis with
the Koszul sign rule) and connected sums. A connected sum is built in one
pass over its flattened summands: it identifies the top classes, takes
direct sums in middle degrees in summand order, and sets cross-summand
products of positive degree to zero; the duality check in
`GradedRing.validate` guards that rule after every build. Its presentation
keeps every generator of the first summand, then the middle-degree
generators of the others, and its middle classes are labelled c1..cN.
"""

from __future__ import annotations

from itertools import combinations
from operator import attrgetter

from .errors import RingValidationError
from .record import Frozen
from .ring import Generator, GradedRing, Presentation, RingElement, SparseVec


class _Node(Frozen):
    """An expression node, equal to a node of the same class with equal
    fields, so parses compare by value. No cache is keyed by nodes: hashing a
    long ConnSum chain recurses down it."""

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        # the class and then the fields, read by one C getter per class
        cls._key = property(attrgetter("__class__", *cls.__slots__))

    def __eq__(self, other):
        return self._key == other._key if isinstance(other, _Node) else NotImplemented

    def __hash__(self):
        return hash(self._key)


class _Atom(_Node):
    """A node with one integer parameter, which must be at least 1."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if getattr(self, self.__slots__[0]) < 1:
            raise ValueError(self._too_small)


class Sphere(_Atom):
    __slots__ = ("n",)
    _too_small = "sphere dimension must be >= 1"


class Torus(_Atom):
    __slots__ = ("n",)
    _too_small = "torus dimension must be >= 1"


class Surface(_Atom):
    __slots__ = ("g",)
    _too_small = "surface genus must be >= 1 (the sphere is excluded)"


class CPm(_Atom):
    __slots__ = ("m",)
    _too_small = "projective space needs m >= 1"


class S2xS2(_Node):
    __slots__ = ()


class Product(_Node):
    __slots__ = ("left", "right")


class ConnSum(_Node):
    __slots__ = ("left", "right")


ManifoldExpr = Sphere | Torus | Surface | CPm | S2xS2 | Product | ConnSum


def connsum_power(expr: ManifoldExpr, nu: int) -> ManifoldExpr:
    if nu < 1:
        raise ValueError("connected-sum multiplicity must be >= 1")
    out: ManifoldExpr = expr
    for _ in range(nu - 1):
        out = ConnSum(out, expr)
    return out


def factor_list(expr: ManifoldExpr) -> list[ManifoldExpr]:
    """Flatten nested products left-to-right into the factor sequence."""
    if isinstance(expr, Product):
        return factor_list(expr.left) + factor_list(expr.right)
    return [expr]


# -- atomic constructors ----------------------------------------------------


def _sphere_ring(n: int) -> GradedRing:
    dims = [1] + [0] * (n - 1) + [1]
    labels = [["1"]] + [[] for _ in range(n - 1)] + [["vol"]]
    words = ((),), *[()] * (n - 1), ((0,),)
    return GradedRing(n, dims, labels, {}, 0, Presentation((Generator(n, 0, "vol"),), words))


def _torus_ring(n: int) -> GradedRing:
    """The exterior algebra on t1..tn. Blades are bit masks here: a product
    is nonzero iff the masks are disjoint, and its sign is the parity of the
    inversions, the pairs x in a, y in b with x > y: the parity of b & odd,
    where a's mask `odd` holds the axes y with an odd number of a's above y."""
    axes_by_degree = [list(combinations(range(1, n + 1), k)) for k in range(n + 1)]
    masks = [[sum(1 << a for a in axes) for axes in per] for per in axes_by_degree]
    odd_masks = [[sum(1 << y for y in range(1, n + 1) if (a >> (y + 1)).bit_count() & 1)
                  for a in per] for per in masks]
    position = [{m: i for i, m in enumerate(per)} for per in masks]
    dims = [len(per) for per in axes_by_degree]
    labels = [["1"]] + [
        ["^".join(f"t{a}" for a in axes) for axes in per] for per in axes_by_degree[1:n]
    ] + [["vol"]]
    structure = {}
    for p in range(1, n):
        for q in range(1, n - p + 1):
            table = {}
            target = position[p + q]
            for i, (a, odd) in enumerate(zip(masks[p], odd_masks[p])):
                for j, b in enumerate(masks[q]):
                    if not a & b:
                        sign = -1 if (b & odd).bit_count() & 1 else 1
                        table[(i, j)] = {target[a | b]: sign}
            structure[(p, q)] = table
    gens = tuple(Generator(1, i, f"t{i + 1}") for i in range(n))
    words = tuple(
        tuple(tuple(a - 1 for a in axes) for axes in per) for per in axes_by_degree
    )
    return GradedRing(n, dims, labels, structure, 0, Presentation(gens, words))


def _cpm_ring(m: int) -> GradedRing:
    d = 2 * m
    dims = [1 if k % 2 == 0 else 0 for k in range(d + 1)]
    labels = [
        [] if k % 2 else ["1"] if k == 0 else ["s"] if k == 2 else [f"s^{k // 2}"]
        for k in range(d + 1)
    ]
    structure = {}
    for p in range(2, d, 2):
        for q in range(2, d - p + 1, 2):
            structure[(p, q)] = {(0, 0): {0: 1}}
    gens = (Generator(2, 0, "s"),)
    words = tuple(
        ((0,) * (k // 2),) if k % 2 == 0 else () for k in range(d + 1)
    )
    return GradedRing(d, dims, labels, structure, 0, Presentation(gens, words))


def _s2xs2_ring() -> GradedRing:
    dims = [1, 0, 2, 0, 1]
    labels = [["1"], [], ["c1", "c2"], [], ["vol"]]
    structure = {(2, 2): {(0, 1): {0: 1}, (1, 0): {0: 1}}}
    gens = (Generator(2, 0, "c1"), Generator(2, 1, "c2"))
    words = ((() ,), (), ((0,), (1,)), (), ((0, 1),))
    return GradedRing(4, dims, labels, structure, 0, Presentation(gens, words))


# -- product (tensor basis with Koszul signs) --------------------------------


def kunneth_layout(
    left: GradedRing, right: GradedRing
) -> tuple[list[list[tuple[int, int, int, int]]], dict]:
    """Basis layout of the product ring.

    Degree-k basis elements are the pairs (p, i, q, j) with p + q = k,
    ordered by (p, i, j); the returned dict maps each tuple to its index.
    """
    d = left.top_degree + right.top_degree
    layout: list[list[tuple[int, int, int, int]]] = []
    index: dict[tuple[int, int, int, int], int] = {}
    for k in range(d + 1):
        per = []
        for p in range(0, min(k, left.top_degree) + 1):
            q = k - p
            if q > right.top_degree:
                continue
            for i in range(left.dims[p]):
                for j in range(right.dims[q]):
                    index[(p, i, q, j)] = len(per)
                    per.append((p, i, q, j))
        layout.append(per)
    return layout, index


def _products(ring: GradedRing) -> dict[tuple[int, int], dict]:
    """The nonzero products basis_p[i] * basis_q[j], as {(i, j): vec} for each
    degree pair (p, q) up to the top degree, with the unit rows of degree 0."""
    d = ring.top_degree
    return {(p, q): ring._table(p, q) for p in range(d + 1) for q in range(d + 1 - p)}


def _product_ring(
    left: GradedRing, right: GradedRing, layout: list, index: dict
) -> GradedRing:
    dims = [len(per) for per in layout]
    labels = [
        [f"{left.labels[p][i]}⊗{right.labels[q][j]}" for (p, i, q, j) in per]
        for per in layout
    ]
    # (p, i, q, j) * (r, s, t, u) = ±(basis_p[i] * basis_r[s]) ⊗ (basis_q[j] *
    # basis_t[u]): walk the pairs of nonzero factor products only
    tables: dict[tuple[int, int], dict] = {}
    right_products = _products(right)
    for (p, r), ltable in _products(left).items():
        for (q, t), rtable in right_products.items():
            if not (p + q and r + t):
                continue
            table, odd = tables.setdefault((p + q, r + t), {}), q * r % 2
            for (i, s), lvec in ltable.items():
                for (j, u), rvec in rtable.items():
                    vec = table[(index[(p, i, q, j)], index[(r, s, t, u)])] = {}
                    for li, lc in lvec.items():
                        f = -lc if odd else lc
                        for ri, rc in rvec.items():
                            vec[index[(p + r, li, q + t, ri)]] = f * rc
    # (x, y) keys in basis order, the order in which the searches read them
    structure = {ab: dict(sorted(tab.items())) for ab, tab in sorted(tables.items()) if tab}
    fund = index[(left.top_degree, left.fundamental_index,
                  right.top_degree, right.fundamental_index)]
    lg = left.presentation.generators
    rg = right.presentation.generators
    gens = tuple(
        Generator(g.degree, index[(g.degree, g.index, 0, 0)], f"{g.name}⊗1") for g in lg
    ) + tuple(
        Generator(g.degree, index[(0, 0, g.degree, g.index)], f"1⊗{g.name}") for g in rg
    )
    words = tuple(
        tuple(
            tuple(left.presentation.words[p][i])
            + tuple(w + len(lg) for w in right.presentation.words[q][j])
            for (p, i, q, j) in per
        )
        for per in layout
    )
    pres = Presentation(gens, words)
    d = left.top_degree + right.top_degree
    return GradedRing(d, dims, labels, structure, fund, pres)


def _pull_back(
    product_ring: GradedRing, index: dict, x: RingElement, left: bool
) -> RingElement:
    """Image of a left (or right) factor class; index is the product's
    `kunneth_layout` index."""
    coords = {
        k: {index[(k, i, 0, 0) if left else (0, 0, k, i)]: c for i, c in vec.items()}
        for k, vec in x._coords.items()
    }
    return RingElement._trusted(product_ring, coords)


def pull_left(
    product_ring: GradedRing, left: GradedRing, right: GradedRing, x: RingElement
) -> RingElement:
    """Image of a left-factor class under the projection pull-back."""
    return _pull_back(product_ring, kunneth_layout(left, right)[1], x, True)


def pull_right(
    product_ring: GradedRing, left: GradedRing, right: GradedRing, x: RingElement
) -> RingElement:
    """Image of a right-factor class under the projection pull-back."""
    return _pull_back(product_ring, kunneth_layout(left, right)[1], x, False)


# -- connected sum ------------------------------------------------------------


def _connsum_summands(expr: ManifoldExpr) -> list[ManifoldExpr]:
    """Flatten nested connected sums left-to-right, by a loop: any depth."""
    summands, stack = [], [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, ConnSum):
            stack += (node.right, node.left)
        else:
            summands.append(node)
    return summands


def _connsum_ring(rings: list[GradedRing]) -> GradedRing:
    d = rings[0].top_degree
    for ring in rings[1:]:
        if ring.top_degree != d:
            raise RingValidationError(
                f"connected sum needs equal top degrees, got {d} and {ring.top_degree}"
            )
    if d < 2:
        raise RingValidationError("connected sum needs top degree >= 2")
    # index offsets per degree: each summand's middle classes follow those of
    # the summands before it; products into degree d land on the one
    # fundamental class
    offsets = [[0] * (d + 1)]
    for ring in rings:
        offsets.append([o + dim for o, dim in zip(offsets[-1], ring.dims)])
    dims = [1, *offsets.pop()[1:d], 1]
    structure = {}
    for p in range(1, d):
        for q in range(1, d - p + 1):
            table: dict[tuple[int, int], SparseVec] = {}
            for ring, off in zip(rings, offsets):
                for (i, j), vec in ring._table(p, q).items():
                    if p + q == d:
                        c = vec.get(ring.fundamental_index)
                        vec = {0: c} if c else {}
                    else:
                        vec = {t + off[p + q]: c for t, c in vec.items()}
                    if vec:
                        table[(i + off[p], j + off[q])] = vec
            if table:
                structure[(p, q)] = table
    labels = [["1"], *([f"c{i + 1}" for i in range(n)] for n in dims[1:d]), ["vol"]]

    # every generator of the first summand, then the middle-degree ones of the
    # rest: a later summand's top class is identified away
    gens: list[Generator] = []
    words: list[list[tuple[int, ...]]] = [[()]] + [[] for _ in range(1, d)]
    for pos, (ring, off) in enumerate(zip(rings, offsets)):
        remap: dict[int, int] = {}
        for gid, g in enumerate(ring.presentation.generators):
            if pos and g.degree >= d:
                continue
            remap[gid] = len(gens)
            index = g.index + off[g.degree]
            gens.append(Generator(g.degree, index, labels[g.degree][index]))
        for k in range(1, d):
            words[k].extend(
                tuple(remap[gid] for gid in w) for w in ring.presentation.words[k]
            )
    first = rings[0]
    words.append([tuple(first.presentation.words[d][first.fundamental_index])])
    pres = Presentation(tuple(gens), tuple(tuple(per) for per in words))
    return GradedRing(d, dims, labels, structure, 0, pres)


# -- build --------------------------------------------------------------------

# a factor's classes "vol" and "sym" (None if it has none), which omega names,
# and "generators", its generator count, which only the template reads
FactorClasses = dict[str, RingElement | int | None]


def _construct(expr: ManifoldExpr) -> tuple[GradedRing, tuple[FactorClasses, ...]]:
    if isinstance(expr, Sphere):
        ring = _sphere_ring(expr.n)
    elif isinstance(expr, Torus):
        ring = _torus_ring(expr.n)
    elif isinstance(expr, CPm):
        ring = _cpm_ring(expr.m)
    elif isinstance(expr, S2xS2):
        ring = _s2xs2_ring()
    elif isinstance(expr, Surface):
        ring = _connsum_ring([_torus_ring(2)] * expr.g)
    elif isinstance(expr, ConnSum):
        ring = _connsum_ring([_construct(s)[0] for s in _connsum_summands(expr)])
    elif isinstance(expr, Product):
        lring, lclasses = _construct(expr.left)
        rring, rclasses = _construct(expr.right)
        layout, index = kunneth_layout(lring, rring)
        ring = _product_ring(lring, rring, layout, index)
        sides = [True] * len(lclasses) + [False] * len(rclasses)
        classes = tuple(
            {k: _pull_back(ring, index, x, left) if isinstance(x, RingElement) else x
             for k, x in fc.items()}
            for fc, left in zip(lclasses + rclasses, sides)
        )
        return ring, classes
    else:
        raise TypeError(f"not a manifold expression: {expr!r}")
    classes: FactorClasses = {
        "vol": ring.fundamental_class(),
        "sym": None,
        "generators": len(ring.presentation.generators),
    }
    if isinstance(expr, CPm):
        classes["sym"] = ring.basis_element(2, 0)
    return ring, (classes,)


def build_with_classes(
    expr: ManifoldExpr,
) -> tuple[GradedRing, tuple[FactorClasses, ...]]:
    """Build and validate the ring, with the named classes of each factor."""
    ring, classes = _construct(expr)
    ring.validate()
    return ring, classes


def build(expr: ManifoldExpr) -> GradedRing:
    """Build and validate the ring for a manifold expression."""
    return build_with_classes(expr)[0]
