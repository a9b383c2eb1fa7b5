"""Sparse exact arithmetic in the exterior algebra on n generators.

Elements are maps from basis blades (strictly increasing axis tuples within
1..n) to nonzero exact rationals, ints when integral and Fractions otherwise
(`linalg`). The zero element is the empty map. Values are immutable after
construction and all operations are pure.

The constructor and `ExtElement.from_obj` check every input term. Results of
wedge, add and scale are valid by construction and are built trusted, without
a second pass over their terms.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from itertools import combinations

from .errors import DimensionMismatchError, NonHomogeneousError
from .linalg import Rational, exact, fraction_from_str, fraction_to_str

Axes = tuple[int, ...]


def merge_axes(a: Axes, b: Axes) -> tuple[int, Axes] | None:
    """Merge two ascending axis tuples; None when an axis repeats.

    The sign is the parity of moving b's axes into place, i.e. the number
    of inversions between the two tuples.
    """
    out: list[int] = []
    i = j = inversions = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return None
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            inversions += len(a) - i
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return (-1 if inversions % 2 else 1, tuple(out))


def blades(n: int, k: int) -> Iterator[Axes]:
    """Degree-k basis blades for ambient dimension n, in lexicographic order."""
    return combinations(range(1, n + 1), k)


def dim_component(n: int, k: int) -> int:
    """Dimension of the degree-k component: C(n, k), zero above n."""
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    return math.comb(n, k) if k <= n else 0


class ExtElement:
    """A sparse exterior-algebra element; mixed degrees are allowed."""

    __slots__ = ("ambient_n", "_terms")

    def __init__(self, ambient_n: int, terms=None):
        if ambient_n < 1:
            raise DimensionMismatchError("ambient dimension must be positive")
        self.ambient_n = ambient_n
        clean: dict[Axes, Rational] = {}
        for key, coeff in (terms or {}).items():
            axes = tuple(key)
            if any(a < 1 or a > ambient_n for a in axes):
                raise ValueError(f"axes out of range 1..{ambient_n}: {axes}")
            if any(axes[i] >= axes[i + 1] for i in range(len(axes) - 1)):
                raise ValueError(f"axes must be strictly increasing: {axes}")
            c = exact(coeff)
            if c:
                clean[axes] = clean.get(axes, 0) + c
                if not clean[axes]:
                    del clean[axes]
        self._terms = clean

    @classmethod
    def _trusted(cls, n: int, terms: dict[Axes, Rational]) -> "ExtElement":
        """Wrap terms whose axes are valid blades of 1..n and whose
        coefficients are exact rationals; zero coefficients are dropped."""
        self = object.__new__(cls)
        self.ambient_n, self._terms = n, {a: c for a, c in terms.items() if c}
        return self

    @classmethod
    def zero(cls, n: int) -> "ExtElement":
        return cls(n)

    @classmethod
    def scalar(cls, n: int, value) -> "ExtElement":
        return cls(n, {(): value})

    @classmethod
    def basis(cls, n: int, axes) -> "ExtElement":
        return cls(n, {tuple(axes): 1})

    def items(self) -> list[tuple[Axes, Rational]]:
        return sorted(self._terms.items(), key=lambda kv: (len(kv[0]), kv[0]))

    def coefficient(self, axes) -> Rational:
        return self._terms.get(tuple(axes), 0)

    def is_zero(self) -> bool:
        return not self._terms

    def degrees(self) -> set[int]:
        return {len(axes) for axes in self._terms}

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def degree(self) -> int:
        """Degree of a homogeneous nonzero element."""
        degs = self.degrees()
        if len(degs) != 1:
            raise NonHomogeneousError(f"element has degrees {sorted(degs)}")
        return degs.pop()

    def wedge(self, other: "ExtElement") -> "ExtElement":
        if self.ambient_n != other.ambient_n:
            raise DimensionMismatchError(
                f"ambient dimensions differ: {self.ambient_n} vs {other.ambient_n}"
            )
        acc: dict[Axes, Rational] = {}
        for a, ca in self._terms.items():
            for b, cb in other._terms.items():
                merged = merge_axes(a, b)
                if merged is None:
                    continue
                sign, axes = merged
                c = ca * cb if sign > 0 else -(ca * cb)
                acc[axes] = acc[axes] + c if axes in acc else c
        return ExtElement._trusted(self.ambient_n, acc)

    def scale(self, factor) -> "ExtElement":
        f = exact(factor)
        return ExtElement._trusted(
            self.ambient_n, {a: f * c for a, c in self._terms.items()}
        )

    def __add__(self, other: "ExtElement") -> "ExtElement":
        if self.ambient_n != other.ambient_n:
            raise DimensionMismatchError("ambient dimensions differ")
        acc = dict(self._terms)
        for a, c in other._terms.items():
            acc[a] = acc[a] + c if a in acc else c
        return ExtElement._trusted(self.ambient_n, acc)

    def __sub__(self, other: "ExtElement") -> "ExtElement":
        return self + other.scale(-1)

    def __neg__(self) -> "ExtElement":
        return self.scale(-1)

    def __rmul__(self, factor) -> "ExtElement":
        return self.scale(factor)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExtElement)
            and self.ambient_n == other.ambient_n
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return hash((self.ambient_n, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for axes, c in self.items():
            name = "1" if not axes else "e" + "".join(
                str(a) for a in axes
            ) if self.ambient_n <= 9 else "e(" + ",".join(str(a) for a in axes) + ")"
            parts.append(name if c == 1 else f"{c}*{name}" if c != -1 else f"-{name}")
        return " + ".join(parts).replace("+ -", "- ")

    def to_obj(self) -> dict:
        return {
            "ambient_n": self.ambient_n,
            "terms": [
                {"axes": list(axes), "coeff": fraction_to_str(c)}
                for axes, c in self.items()
            ],
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "ExtElement":
        n = int(obj["ambient_n"])
        terms = {
            tuple(int(a) for a in t["axes"]): fraction_from_str(t["coeff"])
            for t in obj["terms"]
        }
        return cls(n, terms)


def wedge(a: ExtElement, b: ExtElement) -> ExtElement:
    return a.wedge(b)
