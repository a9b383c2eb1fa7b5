"""Finite-dimensional graded commutative algebras over the rationals.

A ring is given by per-degree dimensions, basis labels, and sparse structure
constants; products of total degree above the top degree vanish (the ring
models the full cohomology of a closed oriented manifold of that dimension).
Coefficients are exact rationals, ints when integral and Fractions otherwise
(`linalg`); the built-in rings store int constants, and validation rejects a
structure constant of any other type. Rings and their elements are immutable
after construction and every query here is a pure function, so values are
safe to share across threads.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .errors import (
    IdealUndefinedError,
    NonHomogeneousError,
    RingMismatchError,
    RingValidationError,
)
from .linalg import (
    Rational,
    SparseVec,
    exact,
    fraction_from_str,
    fraction_to_str,
    rank,
    row_space_basis,
    solve_many,
)
from .record import Frozen

RING_FORMAT = "qrob.ring/2"


def canonical_json(obj) -> str:
    """The one JSON encoding: compact, key-sorted and ASCII-escaped. Ring
    hashes are the SHA-256 of it, and every document is written in it."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


Matrix = list[list[Rational]]  # dense rows, as documents write a matrix
# structure[(p, q)][(i, j)] = sparse coordinate vector of basis_p[i] * basis_q[j]
# in degree p+q, ints where integral; only degrees p, q >= 1 with p+q <=
# top_degree are stored, and missing entries mean the product is zero.
Structure = dict[tuple[int, int], dict[tuple[int, int], SparseVec]]
_ZERO: SparseVec = {}


class Generator(Frozen):
    __slots__ = ("degree", "index", "name")


class Presentation(Frozen):
    """Each basis element written as an exact ordered product of generators."""

    __slots__ = ("generators", "words")  # words[degree][index] -> generator ids

    @classmethod
    def from_obj(cls, obj: dict) -> "Presentation":
        gens = tuple(
            Generator(
                _require_int(g["degree"], "generator degree"),
                _require_int(g["index"], "generator index"),
                str(g["name"]),
            )
            for g in obj["generators"]
        )
        words = tuple(
            tuple(
                tuple(_require_int(i, "word generator id") for i in w)
                for w in per_degree
            )
            for per_degree in obj["words"]
        )
        return cls(gens, words)


def _require_int(value, field: str) -> int:
    """A ring file's integer field; a float or bool would be truncated."""
    if type(value) is not int:
        raise RingValidationError(f"{field} must be an integer, got {value!r}")
    return value


def _read_pairs(pairs, role: str) -> SparseVec:
    """The nonzero coordinates of a ring file's product or a document's class
    (named by role) from its [index, "coefficient"] pairs."""
    vec: SparseVec = {}
    for pair in pairs:
        if type(pair) is not list or len(pair) != 2:
            raise RingValidationError(
                f'a {role} is written as [index, "coefficient"] pairs, got {pair!r}'
            )
        t = _require_int(pair[0], f"{role} coordinate index")
        if t in vec:
            raise RingValidationError(f"{role} coordinate index {t} is repeated")
        vec[t] = fraction_from_str(pair[1])
    return {t: c for t, c in vec.items() if c}


class GradedRing:
    __slots__ = (
        "top_degree",
        "dims",
        "labels",
        "structure",
        "presentation",
        "_hash_hex",
        "_ideal_bases",
    )

    def __init__(
        self,
        top_degree: int,
        dims,
        labels,
        structure: Structure,
        presentation: Presentation | None = None,
    ):
        self.top_degree = int(top_degree)
        self.dims = tuple(int(d) for d in dims)
        self.labels = tuple(tuple(str(s) for s in per_degree) for per_degree in labels)
        # the given product dicts are kept, not copied; only empty ones are dropped
        self.structure = {
            pq: {ij: vec for ij, vec in table.items() if vec}
            for pq, table in structure.items()
        }
        self.presentation = presentation
        self._hash_hex = None
        self._ideal_bases: dict[int, tuple[RingElement, ...]] = {}

    # -- elements ---------------------------------------------------------

    def zero(self) -> "RingElement":
        return RingElement(self, {})

    def unit(self) -> "RingElement":
        return self.basis_element(0, 0)

    def fundamental_class(self) -> "RingElement":
        return self.basis_element(self.top_degree, 0)

    def basis_element(self, k: int, i: int) -> "RingElement":
        if not (0 <= k <= self.top_degree) or not (0 <= i < self.dims[k]):
            raise ValueError(f"no basis element ({k}, {i})")
        return RingElement._trusted(self, {k: {i: 1}})

    def basis(self, k: int) -> list["RingElement"]:
        return [self.basis_element(k, i) for i in range(self.dims[k])]

    # -- product ----------------------------------------------------------

    def _table(self, p: int, q: int) -> dict[tuple[int, int], SparseVec]:
        """The nonzero products basis_p[i] * basis_q[j], as {(i, j): vec}: the
        stored table, the unit rows when p or q is 0, and nothing above the
        top degree, as `times` multiplies."""
        if p + q > self.top_degree:
            return _ZERO
        if p and q:
            return self.structure.get((p, q), _ZERO)
        return {(i, 0) if q == 0 else (0, i): {i: 1} for i in range(self.dims[p or q])}

    def times(self, p: int, x: SparseVec, q: int, y: SparseVec) -> SparseVec:
        """Sparse coordinates of x * y in degree p+q, for sparse x of degree p
        and y of degree q; zeros dropped. Every product of classes is summed
        here, and a product above the top degree is zero."""
        if p + q > self.top_degree:
            return {}
        if p == 0 or q == 0:
            # degree 0 is spanned by the unit, basis_0[0]
            f, vec = (x.get(0, 0), y) if p == 0 else (y.get(0, 0), x)
            return {t: f * c for t, c in vec.items() if c} if f else {}
        table = self.structure.get((p, q), {})
        out: SparseVec = {}
        for i, a in x.items():
            for j, b in y.items():
                vec = table.get((i, j))
                if vec:
                    f = a * b
                    for t, c in vec.items():
                        out[t] = out[t] + f * c if t in out else f * c
        return {t: c for t, c in out.items() if c}

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        """The one serializer of a ring, in the canonical encoding, written
        straight from the tables (a test checks it against `canonical_json`):
        `hash_hex` hashes this text and `to_obj` reads it back."""
        enc, pres = encode_basestring_ascii, self.presentation
        pres_text = "null"
        tables = []
        for p, q in sorted(self.structure):
            table, products = self.structure[p, q], []
            for i, j in sorted(table):
                # a validated constant is an int or a Fraction: str is its literal
                coords = ",".join([f'[{t},"{c}"]' for t, c in sorted(table[i, j].items())])
                products.append(f"[{i},{j},[{coords}]]")
            if products:
                tables.append(f'{{"p":{p},"products":[{",".join(products)}],"q":{q}}}')
        labels = ",".join("[" + ",".join(map(enc, per)) + "]" for per in self.labels)
        if pres:
            gens = ",".join(
                f'{{"degree":{g.degree},"index":{g.index},"name":{enc(g.name)}}}'
                for g in pres.generators
            )
            words = ",".join("[" + ",".join(f"[{','.join(map(str, w))}]" for w in per) + "]"
                             for per in pres.words)
            pres_text = f'{{"generators":[{gens}],"words":[{words}]}}'
        return (
            f'{{"dims":[{",".join(map(str, self.dims))}],'
            f'"fundamental_index":0,"labels":[{labels}],'
            f'"monomial_presentation":{pres_text},"structure":[{",".join(tables)}],'
            f'"top_degree":{self.top_degree}}}'
        )

    def to_obj(self) -> dict:
        return json.loads(self.to_json())

    @classmethod
    def from_obj(cls, obj: dict) -> "GradedRing":
        if not isinstance(obj, dict):
            raise RingValidationError(f"a ring must be a JSON object, got {obj!r}")
        try:
            structure: Structure = {}
            for entry in obj.get("structure", []):
                p = _require_int(entry["p"], "table p")
                q = _require_int(entry["q"], "table q")
                if p < 1 or q < 1:
                    raise RingValidationError(
                        "structure tables exist only for p, q >= 1"
                    )
                if (p, q) in structure:
                    raise RingValidationError(f"structure table ({p}, {q}) is repeated")
                table = structure[p, q] = {}
                for i, j, pairs in entry["products"]:
                    ij = tuple(_require_int(x, "product index") for x in (i, j))
                    if ij in table:
                        raise RingValidationError(
                            f"product ({i}, {j}) of table ({p}, {q}) is repeated"
                        )
                    table[ij] = _read_pairs(pairs, "product")
            pres_obj = obj.get("monomial_presentation")
            ring = cls(
                _require_int(obj["top_degree"], "top_degree"),
                [_require_int(dim, "dims entry") for dim in obj["dims"]],
                obj["labels"],
                structure,
                Presentation.from_obj(pres_obj) if pres_obj else None,
            )
            # the fundamental class is basis_d[0]: the field is always 0
            if _require_int(obj.get("fundamental_index", 0), "fundamental_index"):
                raise RingValidationError("fundamental class index out of range")
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise RingValidationError(f"malformed ring object: {exc!r}") from exc
        ring.validate()
        return ring

    def hash_hex(self) -> str:
        """The SHA-256 of the ring's canonical JSON, computed once."""
        if self._hash_hex is None:
            self._hash_hex = hashlib.sha256(self.to_json().encode("ascii")).hexdigest()
        return self._hash_hex

    def __eq__(self, other) -> bool:
        return isinstance(other, GradedRing) and self.hash_hex() == other.hash_hex()

    def __hash__(self) -> int:
        return hash(self.hash_hex())

    def __repr__(self) -> str:
        return f"GradedRing(top_degree={self.top_degree}, dims={list(self.dims)})"

    # -- invariants ---------------------------------------------------------

    def validate(self) -> None:
        """Check every structural invariant; raise RingValidationError.

        The order is tables, graded commutativity, presentation words,
        associativity, duality pairing. Associativity is checked on the
        triples (g*y)*z = g*(y*z) with y, z basis elements and g a
        presentation generator, or every basis element when the ring has no
        presentation. That is exact: once commutativity holds and every basis
        element is the left-nested product of its word's generators, induction
        on the length of a left-nested product w'g gives
        ((w'g)y)z = ±(g(w'y))z = ±g((w'y)z) = ±g(w'(yz)) = (w'g)(yz),
        where the sign ± is that of commuting w' past g, so associativity
        holds on every triple of basis elements.
        """
        d = self.top_degree
        if d < 1:
            raise RingValidationError("top degree must be >= 1")
        if len(self.dims) != d + 1 or len(self.labels) != d + 1:
            raise RingValidationError("dims/labels must cover degrees 0..top")
        if self.dims[0] != 1:
            raise RingValidationError("degree 0 must be one-dimensional (the unit)")
        if any(dim < 0 for dim in self.dims):
            raise RingValidationError("negative dimension")
        if any(len(self.labels[k]) != self.dims[k] for k in range(d + 1)):
            raise RingValidationError("label count must match dimension")
        if not self.dims[d]:
            raise RingValidationError("fundamental class index out of range")
        rows, by_result = self._indexed_tables()
        self._validate_commutativity()
        self._validate_presentation()
        self._validate_associativity(self.left_factors(), rows, by_result)
        self._validate_pairing()

    def left_factors(self) -> list[tuple[int, int]]:
        """The basis elements (degree, index) that generator-left checks take
        as the left factor: the presentation generators, or every basis
        element of positive degree when the ring has no presentation."""
        if self.presentation is None:
            d = self.top_degree
            return [(p, i) for p in range(1, d + 1) for i in range(self.dims[p])]
        return [(g.degree, g.index) for g in self.presentation.generators]

    def _indexed_tables(self):
        """Range-check every stored product and its constants, and index the
        stored vectors in one pass: rows[(p, q)][i][j] is the vector of
        basis_p[i] * basis_q[j], and by_result[(p, q)][t] = [(i, j, its
        coordinate t)]. A constant must be an int or a Fraction: a float is
        not exact, and a bool is no coefficient."""
        d, dims = self.top_degree, self.dims
        rows: dict[tuple[int, int], dict[int, dict[int, SparseVec]]] = {}
        by_result: dict[tuple[int, int], dict[int, list[tuple[int, int, Rational]]]] = {}
        for (p, q), table in self.structure.items():
            if p < 1 or q < 1 or p + q > d:
                raise RingValidationError(f"illegal structure table ({p}, {q})")
            dp, dq, dpq = dims[p], dims[q], dims[p + q]
            per_i = rows[p, q] = {}
            per_t = by_result[p, q] = {}
            for (i, j), vec in table.items():
                if not (0 <= i < dp and 0 <= j < dq):
                    raise RingValidationError(f"index out of range in table ({p},{q})")
                per_i.setdefault(i, {})[j] = vec
                for t, c in vec.items():
                    if not 0 <= t < dpq:
                        raise RingValidationError(
                            f"product coordinate out of range in table ({p},{q})"
                        )
                    if type(c) is not int and type(c) is not Fraction:
                        raise RingValidationError(
                            f"structure constant {c!r} in table ({p},{q}) "
                            "is not an int or a Fraction"
                        )
                    per_t.setdefault(t, []).append((i, j, c))
        return rows, by_result

    def _validate_commutativity(self) -> None:
        # every nonzero product against its mirror, in table order: the mirror
        # has the same support and, for odd p*q, negated coefficients, so a
        # missing mirror fails from one side
        for (p, q), table in self.structure.items():
            mirror, odd = self.structure.get((q, p), _ZERO), p * q % 2
            for (i, j), vec in table.items():
                other = mirror.get((j, i), _ZERO)
                if other.keys() != vec.keys() or (
                    any(other[t] != -a for t, a in vec.items()) if odd else other != vec
                ):
                    raise RingValidationError(
                        f"graded commutativity fails at ({p},{i})*({q},{j})"
                    )

    def _validate_associativity(self, left: list[tuple[int, int]], rows, by_result) -> None:
        """(x*y)*z == x*(y*z) for each left factor x = (p, i), y and z basis
        elements of positive degree and total degree at most the top.

        For each x and degrees q of y and r of z, both sides are built as one
        row {(j, k, u): coefficient} over every y = basis_q[j] and
        z = basis_r[k] at once. (x*y)*z is read from x's row of the (p, q)
        table and the (p+q, r) rows. x*(y*z) is read from the (q, r) table
        indexed by result coordinate, s -> [(j, k, coefficient)], for only
        the s with x*basis_{q+r}[s] nonzero. Both read the stored constants,
        ints or Fractions, through the index of `_indexed_tables`, so their
        equality is exact. A failure names the least (j, k) with a nonzero difference,
        the first pair a scan of y, then z, in index order meets."""
        d = self.top_degree
        for p, i in left:
            for q in range(1, d - p):
                xy_row = rows.get((p, q), {}).get(i, _ZERO)
                for r in range(1, d - p - q + 1):
                    xy_z = rows.get((p + q, r), _ZERO)
                    yz_by_s = by_result.get((q, r), _ZERO)
                    x_row = rows.get((p, q + r), {}).get(i, _ZERO)
                    # (x*y)*z - x*(y*z), keyed by (j, k, u)
                    diff: dict[tuple[int, int, int], Rational] = {}
                    for j, xy in xy_row.items():
                        for t, a in xy.items():
                            for k, vec in xy_z.get(t, _ZERO).items():
                                for u, b in vec.items():
                                    key = j, k, u
                                    diff[key] = diff.get(key, 0) + a * b
                    for s, xs in x_row.items():
                        for j, k, a in yz_by_s.get(s, ()):
                            for u, b in xs.items():
                                key = j, k, u
                                diff[key] = diff.get(key, 0) - a * b
                    if any(diff.values()):
                        j, k = min((j, k) for (j, k, _), c in diff.items() if c)
                        raise RingValidationError(
                            f"associativity fails at ({p},{i})*({q},{j})*({r},{k})"
                        )

    def _validate_pairing(self) -> None:
        """dims[k] == dims[d - k] for every k and the pairing of degree k has
        full rank for 2k <= d. The other ranks follow: with graded
        commutativity checked, P_{d-k} = +-P_k^T (the unit rules make this
        hold for k = 0 too), so P_{d-k} has the rank of P_k. P_0 is the unit
        row, of rank 1 = dims[0]."""
        d = self.top_degree
        for k in range(d + 1):
            if self.dims[k] != self.dims[d - k]:
                raise RingValidationError(
                    f"duality dimension mismatch: dims[{k}] != dims[{d - k}]"
                )
            if 0 < 2 * k <= d and rank(_pairing_rows(self, k)) != self.dims[k]:
                raise RingValidationError(f"degenerate duality pairing in degree {k}")

    def _validate_presentation(self) -> None:
        pres = self.presentation
        if pres is None:
            return
        d = self.top_degree
        if len(pres.words) != d + 1:
            raise RingValidationError("presentation must cover degrees 0..top")
        for g in pres.generators:
            if not (1 <= g.degree <= d and 0 <= g.index < self.dims[g.degree]):
                raise RingValidationError(f"generator out of range: {g}")
        # the word prefixes as a trie, (node, generator id) -> node, with each
        # node's (degree, coordinates): every prefix is multiplied out once
        nodes: list[tuple[int, SparseVec]] = [(0, {0: 1})]
        child: dict[tuple[int, int], int] = {}
        for k in range(d + 1):
            if len(pres.words[k]) != self.dims[k]:
                raise RingValidationError(f"presentation incomplete in degree {k}")
            for i, word in enumerate(pres.words[k]):
                for gid in word:
                    if not 0 <= gid < len(pres.generators):
                        raise RingValidationError(
                            f"presentation word for ({k},{i}) names no generator {gid}"
                        )
                node = 0
                for gid in word:
                    if (node, gid) not in child:
                        degree, acc = nodes[node]
                        g = pres.generators[gid]
                        child[node, gid] = len(nodes)
                        nodes.append((
                            degree + g.degree,
                            self.times(degree, acc, g.degree, {g.index: 1}),
                        ))
                    node = child[node, gid]
                if nodes[node] != (k, {i: 1}):
                    raise RingValidationError(
                        f"presentation word for ({k},{i}) does not multiply out"
                    )


class RingElement:
    """A ring element as sparse exact coordinates per degree, {degree: {index:
    coefficient}}, holding nonzero coefficients and nonempty degrees only."""

    __slots__ = ("ring", "_coords")

    def __init__(self, ring: GradedRing, coords: dict[int, dict[int, Rational]]):
        """Take sparse coordinates, {degree: {index: coefficient}}: degrees
        and indices must be ints in range, else ValueError; coefficients are
        made exact and zeros dropped."""
        self.ring, self._coords = ring, {}
        for k, vec in coords.items():
            if type(k) is not int or not 0 <= k <= ring.top_degree:
                raise ValueError(f"degree {k!r} out of range")
            for i in vec:
                if type(i) is not int or not 0 <= i < ring.dims[k]:
                    raise ValueError(f"index {i!r} out of range in degree {k}")
            if sparse := {i: x for i, c in vec.items() if (x := exact(c))}:
                self._coords[k] = sparse

    @classmethod
    def _trusted(cls, ring: GradedRing, coords: dict[int, SparseVec]):
        """Wrap sparse coordinates in range, exact rationals (ints or
        Fractions), none of them zero and no degree empty."""
        self = object.__new__(cls)
        self.ring, self._coords = ring, coords
        return self

    def coords(self) -> dict[int, SparseVec]:
        """Sparse copies of the coordinates, {degree: {index: coefficient}}."""
        return {k: dict(vec) for k, vec in self._coords.items()}

    def is_zero(self) -> bool:
        return not self._coords

    def degrees(self) -> set[int]:
        return set(self._coords)

    def is_homogeneous(self) -> bool:
        return len(self._coords) <= 1

    def degree(self) -> int:
        if len(self._coords) != 1:
            raise NonHomogeneousError(
                f"element has degrees {sorted(self._coords)}"
            )
        return next(iter(self._coords))

    def coefficient(self, k: int, i: int) -> Rational:
        return self._coords.get(k, _ZERO).get(i, 0)

    def scale(self, factor) -> "RingElement":
        f = exact(factor)
        if not f:
            return self.ring.zero()
        scaled = {k: {i: f * c for i, c in v.items()} for k, v in self._coords.items()}
        return RingElement._trusted(self.ring, scaled)

    def __add__(self, other: "RingElement") -> "RingElement":
        self._check_ring(other)
        return _summed(self.ring, [*self._coords.items(), *other._coords.items()])

    def __sub__(self, other: "RingElement") -> "RingElement":
        return self + other.scale(-1)

    def __neg__(self) -> "RingElement":
        return self.scale(-1)

    def __rmul__(self, factor) -> "RingElement":
        return self.scale(factor)

    def __mul__(self, other) -> "RingElement":
        if not isinstance(other, RingElement):
            return self.scale(other)
        self._check_ring(other)
        return multiply(self, other)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RingElement)
            and self.ring == other.ring
            and self._coords == other._coords
        )

    def __hash__(self) -> int:
        coords = frozenset((k, frozenset(v.items())) for k, v in self._coords.items())
        return hash((self.ring.hash_hex(), coords))

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k in sorted(self._coords):
            for i, c in sorted(self._coords[k].items()):
                label = self.ring.labels[k][i]
                if c == 1:
                    parts.append(label)
                elif c == -1:
                    parts.append(f"-{label}")
                else:
                    parts.append(f"{c}*{label}")
        return " + ".join(parts).replace("+ -", "- ")

    def _check_ring(self, other: "RingElement") -> None:
        if self.ring is not other.ring and self.ring != other.ring:
            raise RingMismatchError("elements belong to different rings")

    def to_obj(self) -> dict:
        """Each nonempty degree's nonzero coordinates as [index, "coefficient"]
        pairs in increasing index, as a ring file writes a product."""
        return {"coords": {
            str(k): [[i, fraction_to_str(c)] for i, c in sorted(vec.items())]
            for k, vec in self._coords.items()
        }}

    @classmethod
    def from_obj(cls, ring: GradedRing, obj: dict) -> "RingElement":
        """The class a document writes as `to_obj` does: each degree's pairs
        read as a ring file's product, then checked by the constructor."""
        return cls(ring, {
            int(k): _read_pairs(pairs, "class") for k, pairs in obj["coords"].items()
        })


def _summed(ring: GradedRing, parts) -> RingElement:
    """The sum of sparse (degree, coordinates) parts, zeros dropped."""
    out: dict[int, SparseVec] = {}
    for k, vec in parts:
        acc = out.setdefault(k, {})
        for i, c in vec.items():
            acc[i] = acc[i] + c if i in acc else c
    coords = {k: {i: c for i, c in acc.items() if c} for k, acc in out.items()}
    return RingElement._trusted(ring, {k: vec for k, vec in coords.items() if vec})


def multiply(x: RingElement, y: RingElement) -> RingElement:
    """Bilinear extension of the structure tables; truncates above top degree."""
    x._check_ring(y)
    ring = x.ring
    parts = [
        (p + q, ring.times(p, xv, q, yv))
        for p, xv in x._coords.items()
        for q, yv in y._coords.items()
    ]
    return _summed(ring, parts)


def _pairing_rows(ring: GradedRing, k: int) -> list[SparseVec]:
    """Row i holds the nonzero fundamental-class coefficients of
    basis_k[i] * basis_{d-k}[j], keyed by j; the fundamental class is
    basis_d[0], and `_table` gives the unit rows for k = 0 and k = d."""
    rows: list[SparseVec] = [{} for _ in range(ring.dims[k])]
    for (i, j), vec in ring._table(k, ring.top_degree - k).items():
        if 0 in vec:
            rows[i][j] = vec[0]
    return rows


def poincare_pairing(ring: GradedRing, k: int) -> Matrix:
    """P[i][j] = fundamental-class coefficient of basis_k[i] * basis_{d-k}[j]."""
    d = ring.top_degree
    if not (0 <= k <= d):
        raise ValueError(f"degree {k} out of range 0..{d}")
    cols = range(ring.dims[d - k])
    return [[row.get(j, 0) for j in cols] for row in _pairing_rows(ring, k)]


def _ideal_rows(ring: GradedRing, k: int) -> list[SparseVec]:
    """Rows spanning the degree-k product ideal: every stored product
    g * y with g in `left_factors()` and y a basis element of degree k - deg g.

    On a validated ring these span every product x * y of positive-degree
    classes. Without a presentation g runs over every x. With one, x is the
    product of its word's generators, so by graded commutativity
    x = +-g * x' for a generator g and a product x' of the others (x = g when
    the word has one letter); associativity gives x * y = +-g * (x' * y), and
    x' * y is a combination of basis elements of degree k - deg g."""
    if k < 2:
        raise IdealUndefinedError("the product ideal starts at degree 2")
    if k > ring.top_degree:
        raise IdealUndefinedError(f"degree {k} exceeds top degree {ring.top_degree}")
    lefts: dict[int, set[int]] = {}
    for p, i in ring.left_factors():
        lefts.setdefault(p, set()).add(i)
    return [
        vec for p in range(1, k) for (i, _), vec in ring._table(p, k - p).items()
        if i in lefts.get(p, ())
    ]


def kunneth_ideal_basis(ring: GradedRing, k: int) -> list[RingElement]:
    """Canonical basis of the span of positive-degree products in degree k,
    once per ring and degree: the RREF basis of `_ideal_rows`, which is unique,
    so neither the order of the rows nor their choice among spanning sets changes it."""
    if k not in ring._ideal_bases:
        basis = row_space_basis(_ideal_rows(ring, k))
        ring._ideal_bases[k] = tuple(RingElement._trusted(ring, {k: row}) for row in basis)
    return list(ring._ideal_bases[k])


def in_kunneth_ideal(ring: GradedRing, omega: RingElement) -> bool:
    """Exact membership of a homogeneous class in the product ideal: each
    RREF basis row is 1 at its pivot, its least column, and 0 at the other
    pivots, so omega is in it iff omega less each pivot entry times its row is 0."""
    if omega.is_zero():
        return True
    if not omega.is_homogeneous():
        raise NonHomogeneousError("ideal membership needs a homogeneous class")
    k = omega.degree()
    if k < 2:
        return False
    vec = omega._coords[k]
    rest = dict(vec)
    for b in kunneth_ideal_basis(ring, k):
        row = b._coords[k]
        f = vec.get(min(row))
        for t, x in row.items() if f else ():
            rest[t] = rest.get(t, 0) - f * x
    return not any(rest.values())


def _left_products(ring: GradedRing, ell: int, q: int) -> dict[int, list[tuple[int, SparseVec]]]:
    """i -> [(j, basis_ell[i] * basis_q[j])] over the stored (ell, q) table, in increasing i."""
    by_left: dict[int, list[tuple[int, SparseVec]]] = {}
    for (i, j), vec in ring._table(ell, q).items():
        by_left.setdefault(i, []).append((j, vec))
    return dict(sorted(by_left.items()))


def _cofactor(ring: GradedRing, omega: RingElement, ell: int, products) -> RingElement | None:
    """The canonical exact c' with c * c' = omega, or None, for a degree-ell
    basis class c with the stored products [(j, vec)] that `_left_products`
    lists: the matrix of y -> c * y has a sparse row per coordinate t of
    omega's degree, holding coordinate t of each product at column j."""
    k = omega.degree()
    system: list[SparseVec] = [{} for _ in range(ring.dims[k])]
    for j, vec in products:
        for t, c in vec.items():
            system[t][j] = c
    (x,) = solve_many(system, [omega._coords[k]], ring.dims[k - ell])
    # a solution for a nonzero omega is never zero
    return None if x is None else RingElement._trusted(ring, {k - ell: x})


def factorizations(
    ring: GradedRing, omega: RingElement, ell: int
) -> list[tuple[RingElement, RingElement]]:
    """All pairs (c, c') with c a degree-ell basis element and c * c' = omega,
    c' from `_cofactor`; an empty list is a valid answer. A class with no
    stored product has c * y = 0 for every y."""
    if omega.is_zero():
        return []
    if not omega.is_homogeneous():
        raise NonHomogeneousError("factorization needs a homogeneous class")
    k = omega.degree()
    if not (1 <= ell <= k - 1):
        raise ValueError(f"cofactor degree must satisfy 1 <= {ell} <= {k - 1}")
    stored = _left_products(ring, ell, k - ell)
    cofactors = {i: _cofactor(ring, omega, ell, products) for i, products in stored.items()}
    return [(ring.basis_element(ell, i), c) for i, c in cofactors.items() if c is not None]
