"""Construction and exact verification of graded homomorphism witnesses.

A witness maps each basis class of degree 1..min(top, n) to an element of
the exterior algebra on n generators; degrees above n go to zero. Searchers
(template catalog, bounded enumeration) only propose candidates - every
returned witness has passed `verify_hom`.
"""

from __future__ import annotations

from itertools import combinations, islice, product

from .errors import MissingPresentationError, ShapeMismatchError
from .exterior import ExtElement, blades, wedge
from .manifolds import (
    ConnSum,
    CPm,
    FactorClasses,
    ManifoldExpr,
    S2xS2,
    Sphere,
    Surface,
    Torus,
    factor_list,
)
from .record import Record
from .ring import GradedRing, RingElement, SparseVec


class HomWitness(Record):
    """Per-degree images of the basis classes under a graded linear map."""

    __slots__ = ("ring", "ambient_n", "images")

    def check_shape(self) -> None:
        expected = set(range(1, min(self.ring.top_degree, self.ambient_n) + 1))
        if set(self.images) != expected:
            raise ShapeMismatchError(
                f"witness must cover degrees {sorted(expected)}, "
                f"got {sorted(self.images)}"
            )
        for k, per in self.images.items():
            if len(per) != self.ring.dims[k]:
                raise ShapeMismatchError(f"wrong image count in degree {k}")
            for i, img in enumerate(per):
                if img.ambient_n != self.ambient_n:
                    raise ShapeMismatchError(
                        f"image ({k},{i}) has wrong ambient dimension"
                    )
                if not img.is_zero() and (
                    not img.is_homogeneous() or img.degree() != k
                ):
                    raise ShapeMismatchError(
                        f"image ({k},{i}) is not homogeneous of degree {k}"
                    )

    def apply_vec(self, k: int, vec: SparseVec) -> ExtElement:
        """Image of the degree-k class with sparse coordinates vec."""
        if k == 0:
            return ExtElement.scalar(self.ambient_n, vec.get(0, 0))
        out = None
        if k <= self.ambient_n and k <= self.ring.top_degree:
            for i, c in vec.items():
                if c:
                    term = self.images[k][i] if c == 1 else self.images[k][i].scale(c)
                    out = term if out is None else out + term
        return ExtElement.zero(self.ambient_n) if out is None else out

    def to_obj(self) -> dict:
        return {
            "ring_hash": self.ring.hash_hex(),
            "ambient_n": self.ambient_n,
            "images": {
                str(k): [img.to_obj() for img in per]
                for k, per in sorted(self.images.items())
            },
        }

    @classmethod
    def from_obj(cls, ring: GradedRing, obj: dict) -> "HomWitness":
        n = int(obj["ambient_n"])
        images = {
            int(k): [ExtElement.from_obj(o) for o in per]
            for k, per in obj["images"].items()
        }
        return cls(ring, n, images)


def verify_hom(witness: HomWitness, omega: RingElement) -> bool:
    """Exact check: the witness map phi is multiplicative and omega maps
    nonzero.

    phi(x*y) = phi(x)^phi(y) is checked for x = basis_p[i] in the ring's
    `left_factors()` and y = basis_q[j] any basis element of positive degree
    with p + q at most top = max(top degree, ambient n), the larger of the
    two algebras' top degrees. A pair with a factor in a degree the images
    omit holds, as both sides are zero; above the ring's top degree its
    product is zero, so there the wedge must vanish too. Without a
    presentation the left factors are every basis element, so every pair is
    checked. With one, the check is exact because the ring is validated,
    phi(1) = 1 and the exterior algebra is associative: let P(m) say
    phi(u*y) = phi(u)phi(y) for every product u of m generators and every
    basis element y with deg u + deg y at most top. P(0) holds because
    phi(1) = 1. For u = u'g with u' a product of m - 1 generators,
    associativity, P(m - 1) and the check give
    phi(u*y) = phi(u'*(g*y)) = phi(u')phi(g*y) = phi(u')phi(g)phi(y),
    and P(m - 1) with y = g gives phi(u')phi(g) = phi(u), so P(m) holds.
    Validation makes every basis element the product of its presentation
    word, so the law holds on every basis pair. omega is tested degree by
    degree, since images of different degrees cannot cancel.
    """
    witness.check_shape()
    ring, images = witness.ring, witness.images
    top = max(ring.top_degree, witness.ambient_n)
    for p, i in ring.left_factors():
        if p not in images:
            continue
        x = images[p][i]
        for q in range(1, min(ring.top_degree, top - p) + 1):
            table = ring._table(p, q)
            for j, y in enumerate(images.get(q, ())):
                if witness.apply_vec(p + q, table.get((i, j), {})) != x.wedge(y):
                    return False
    return any(not witness.apply_vec(k, vec).is_zero() for k, vec in omega.coords().items())


def witness_from_generators(
    ring: GradedRing, gen_images: list[ExtElement], n: int
) -> HomWitness:
    """Induce basis images from generator images via the monomial words.

    A word's image is its prefix's image wedged with its last generator's,
    and every prefix image is built once."""
    pres = ring.presentation
    if pres is None:
        raise MissingPresentationError("ring carries no monomial presentation")
    if len(gen_images) != len(pres.generators):
        raise ShapeMismatchError("one image per generator required")
    built: dict[tuple[int, ...], ExtElement] = {(): ExtElement.scalar(n, 1)}

    def image(word: tuple[int, ...]) -> ExtElement:
        if word not in built:
            built[word] = wedge(image(word[:-1]), gen_images[word[-1]])
        return built[word]

    images = {
        k: [image(word) for word in pres.words[k]]
        for k in range(1, min(ring.top_degree, n) + 1)
    }
    return HomWitness(ring, n, images)


# -- template catalog ---------------------------------------------------------


def _compositions(total: int, maxima: list[int]):
    """All tuples with given bounds summing to total, lexicographically."""
    if not maxima:
        if total == 0:
            yield ()
        return
    for first in range(0, min(total, maxima[0]) + 1):
        for rest in _compositions(total - first, maxima[1:]):
            yield (first,) + rest


def _factor_gen_images(
    expr: ManifoldExpr, axes: tuple[int, ...], n: int
) -> list[ExtElement] | None:
    """Images of a prefix of one factor's generators on a nonempty block of
    axes; None if no template. The remaining generators map to zero.

    Catalog: torus generators to distinct axes, the projective-space generator
    to a sum of disjoint 2-blades, sphere and S2xS2 classes to full blocks,
    connected sums to the template of their leftmost summand, whose generators
    come first in the sum's ring.
    """
    while isinstance(expr, ConnSum):
        expr = expr.left
    size = len(axes)
    if isinstance(expr, Torus):
        return [ExtElement.basis(n, (a,)) for a in axes] if size <= expr.n else None
    if isinstance(expr, Sphere):
        return [ExtElement.basis(n, axes)] if size == expr.n else None
    if isinstance(expr, CPm):
        if size % 2 or size > 2 * expr.m:
            return None
        blocks = (ExtElement.basis(n, axes[i : i + 2]) for i in range(0, size, 2))
        return [sum(blocks, ExtElement.zero(n))]
    if isinstance(expr, S2xS2):
        return [ExtElement.basis(n, b) for b in (axes[:2], axes[2:])] if size == 4 else None
    if isinstance(expr, Surface):
        return [ExtElement.basis(n, (a,)) for a in axes] if size == 2 else None
    return None


def witness_template(
    expr: ManifoldExpr, factors: tuple[FactorClasses, ...], omega: RingElement, n: int
) -> HomWitness | None:
    """Try the template catalog over axis-block allocations; verified only.

    `factors` and omega's ring are what the build of expr gives. A factor
    given no axes maps all its generators to zero; each block is padded with
    zeros up to the factor's generator count, and its top degree is vol's."""
    maxima = [min(n, f["vol"].degree()) for f in factors]
    zero = ExtElement.zero(n)
    for sizes in _compositions(n, maxima):
        start = 1
        gen_images: list[ExtElement] = []
        for f_expr, f, size in zip(factor_list(expr), factors, sizes):
            axes = tuple(range(start, start + size))
            start += size
            block = _factor_gen_images(f_expr, axes, n) if axes else []
            if block is None:
                break
            gen_images += block + [zero] * (f["generators"] - len(block))
        else:
            witness = witness_from_generators(omega.ring, gen_images, n)
            if verify_hom(witness, omega):
                return witness
    return None


# -- bounded enumeration --------------------------------------------------------


# the nonzero coefficients a candidate image's blades take, in this order
COEFFICIENTS = (1, -1)
# the enumeration's default cap on visited and counted assignments
MAX_NODES = 50_000


def _image_stream(n: int, k: int):
    """Candidate images of one degree-k generator, by support size then blades,
    then sign patterns over COEFFICIENTS.

    Above degree n there are no blades, and zero is the only candidate.
    """
    yield ExtElement.zero(n)
    base = list(blades(n, k))
    for size in range(1, len(base) + 1):
        for support in combinations(base, size):
            for pattern in product(COEFFICIENTS, repeat=size):
                yield ExtElement._trusted(n, dict(zip(support, pattern)))


def _extend_counts(counts: list[list[int]], running: list[list[int]], caps: list[int]):
    """Append the next stage's column to the bounded-composition count table.

    counts[g][s] is the number of index tuples for generators g.. within their
    caps that sum to s; running[g][s] sums counts[g][:s + 1]. A cap below the
    stage is the pool's last index and a cap at the stage never binds a
    smaller sum, so earlier columns stay valid and a column costs one
    subtraction per generator.
    """
    t = len(counts[-1])
    size = len(caps)
    for g in range(size, -1, -1):
        if g == size:
            column = 1 if t == 0 else 0
        else:
            below = running[g + 1]
            column = below[t] - (below[t - caps[g] - 1] if t > caps[g] else 0)
        counts[g].append(column)
        running[g].append(column + (running[g][-1] if t else 0))


def _reorder_sign(word: tuple[int, ...], degrees: list[int]) -> int:
    """Sign that sorts a word's homogeneous factors into generator order."""
    odd = sum(
        degrees[a] * degrees[b]
        for i, a in enumerate(word)
        for b in word[i + 1:]
        if a > b
    )
    return -1 if odd % 2 else 1


class EnumerationOutcome(Record):
    __slots__ = ("witness", "nodes", "space_exhausted")


def enumerate_hom_detailed(
    ring: GradedRing,
    omega: RingElement,
    n: int,
    max_nodes: int = MAX_NODES,
) -> EnumerationOutcome:
    """Staged deterministic enumeration of generator-image assignments.

    Assignments are ordered by the total of the per-generator sequence
    indices, then lexicographically, so simple witnesses on any generator are
    found early. Each stage is walked depth first over the generators, keeping
    for every support word of omega the wedge of its assigned images. Once all
    of these vanish, no completion maps omega to nonzero (the images are
    homogeneous, so reordering a word only changes its sign), and the
    completions are added to `nodes` without being visited. Every other
    assignment is one node: the image of omega is checked first as a cheap
    filter, then `verify_hom`; the first assignment passing both wins.
    """
    pres = ring.presentation
    if pres is None:
        raise MissingPresentationError("enumeration needs a monomial presentation")
    streams = [_image_stream(n, g.degree) for g in pres.generators]
    pools: list[list[ExtElement]] = [[] for _ in streams]
    size = len(streams)
    degrees = [g.degree for g in pres.generators]
    # (signed coefficient, word) for omega's support; words above n map to 0
    words = [
        (c * _reorder_sign(pres.words[k][i], degrees), pres.words[k][i])
        for k, vec in omega.coords().items()
        if k <= n
        for i, c in sorted(vec.items())
    ]
    # touches[g]: (word position, multiplicity) for each omega word using g
    touches = [
        [(w, word.count(g)) for w, (_, word) in enumerate(words) if g in word]
        for g in range(size)
    ]
    roots = [ExtElement.scalar(n, c) for c, _ in words]
    counts: list[list[int]] = [[] for _ in range(size + 1)]
    running: list[list[int]] = [[] for _ in range(size + 1)]
    nodes = 0
    witness: HomWitness | None = None

    def walk(g: int, remaining: int, partials: list, chosen: list) -> bool:
        """Count or visit this stage's assignments below a prefix; True stops."""
        nonlocal nodes, witness
        if g == size:
            if nodes >= max_nodes:
                return True
            nodes += 1
            if sum(partials, ExtElement.zero(n)).is_zero():
                return False
            candidate = witness_from_generators(ring, chosen, n)
            if verify_hom(candidate, omega):
                witness = candidate
                return True
            return False
        lowest = max(0, remaining - reach[g + 1])
        for i in range(lowest, min(remaining, caps[g]) + 1):
            image = pools[g][i]
            extended = partials
            if touches[g]:
                extended = list(partials)
                for w, mult in touches[g]:
                    for _ in range(mult):
                        if extended[w].is_zero():
                            break
                        extended[w] = extended[w].wedge(image)
            if all(part.is_zero() for part in extended):
                subtree = counts[g + 1][remaining - i]
                if nodes + subtree > max_nodes:
                    # a node-by-node walk would stop inside this subtree
                    nodes = max(nodes, max_nodes)
                    return True
                nodes += subtree
                continue
            chosen.append(image)
            stop = walk(g + 1, remaining - i, extended, chosen)
            chosen.pop()
            if stop:
                return True
        return False

    total = 0
    while True:
        # indices never exceed the stage; a stream that has not run out fills
        # its pool to index total, so total > sum(caps) only once all have
        for pool, stream in zip(pools, streams):
            pool.extend(islice(stream, total + 1 - len(pool)))
        caps = [min(total, len(pool) - 1) for pool in pools]
        if total > sum(caps):
            return EnumerationOutcome(None, nodes, True)
        # reach[g]: the largest index sum generators g.. can still absorb
        reach = [sum(caps[g:]) for g in range(size + 1)]
        _extend_counts(counts, running, caps)
        if walk(0, total, roots, []):
            return EnumerationOutcome(witness, nodes, False)
        total += 1

