"""The permutation representation of F on l2(Omega_2), at finite support.

pi_2(f) relabels basis vectors delta_p by the coset action.  Any finite
family of distinct group elements moves some basis vector to pairwise
distinct images (a separating point), which yields machine-checkable
linear-independence certificates.  `independence_certificate` looks only
among the points g . 1 for g in the generator ball of radius `max_radius`
(8 by default) and raises `SearchExhausted` if none separates, as for e
and an H_2 element that moves only points inside I(2^12).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Mapping, Sequence

from ._frozen import Frozen
from ._packed import PackedElement
from .elements import GroupElement, NotInF, is_order_preserving
from .generators import _next_sphere
from .omega import DiagonalProjection, _wrap, act, omega2_member


class SearchExhausted(RuntimeError):
    """Bounded search for a separating point failed; the radius is reported."""

    def __init__(self, radius: int) -> None:
        super().__init__(f"no separating point in the generator ball of radius {radius}")
        self.radius = radius


class FormalVector(Frozen):
    """Finitely supported rational combination of basis projections."""

    coefficients: tuple[tuple[DiagonalProjection, Fraction], ...]

    def __init__(
        self, coefficients: Mapping[DiagonalProjection, Fraction | int]
    ) -> None:
        items = []
        for p, c in coefficients.items():
            if not isinstance(c, (int, Fraction)):  # exact: no floats, no strings
                raise TypeError(f"coefficient {c!r} is not an int or a Fraction")
            c = Fraction(c)
            if c == 0:
                continue
            if omega2_member(p) is None:
                raise ValueError(f"basis projection {p} is not in Omega_2")
            items.append((p, c))
        items.sort(key=lambda pc: pc[0].support)
        self.__dict__["coefficients"] = tuple(items)

    @classmethod
    def basis(cls, p: DiagonalProjection) -> "FormalVector":
        return cls({p: Fraction(1)})

    def __str__(self) -> str:
        if not self.coefficients:
            return "0"
        return " + ".join(f"{c}*d[{p}]" for p, c in self.coefficients)


def apply(f: GroupElement, v: FormalVector) -> FormalVector:
    """pi_2(f) v: relabel each basis projection by the action."""
    if not is_order_preserving(f):
        raise NotInF("pi_2 is a representation of F")
    out: dict[DiagonalProjection, Fraction] = {}
    for p, c in v.coefficients:
        q = act(f, p)
        out[q] = out.get(q, Fraction(0)) + c
    return FormalVector(out)


@cache
def _layer(radius: int) -> tuple[tuple[GroupElement, ...], tuple[tuple, ...]]:
    """(sphere, points) at one radius of the breadth-first walk of the generator
    ball: the elements g of word length `radius`, in discovery order, and the
    points g . 1, as (n, ends), that no smaller radius met, in the same order.

    The layers are group constants, cached once per process.  Each is immutable,
    so threads that race compute equal layers and need no lock, and an exception
    caches nothing for its radius.  Through radius 8 the layers hold the ball's
    11,237 elements and 5,716 points: 10.9 MB (tracemalloc, Python 3.11)."""
    if radius == 0:
        sphere, met = (GroupElement.identity(),), set()
    else:
        inner = _layer(radius - 2)[0] if radius > 1 else ()
        sphere = tuple(_next_sphere(inner, _layer(radius - 1)[0]))
        met = {p for r in range(radius) for p in _layer(r)[1]}
    points = []
    for g in sphere:
        p = PackedElement(g._quads).act(0, (0, 1))  # g keeps no map
        if p not in met:
            met.add(p)
            points.append(p)
    return sphere, tuple(points)


def separating_point(fs: Sequence[GroupElement], max_radius: int = 8) -> DiagonalProjection:
    """A projection p with f . p pairwise distinct over the family: the point of
    `independence_certificate`, which says how the search runs and what it raises."""
    return independence_certificate(fs, max_radius).point


class IndependenceCertificate(Frozen):
    """A point whose orbit images certify linear independence.

    Distinct basis deltas are linearly independent, so pairwise distinct
    images of one projection witness independence of the pi_2(f_i).
    """

    elements: tuple[GroupElement, ...]
    point: DiagonalProjection
    images: tuple[DiagonalProjection, ...]

    def __init__(self, elements: tuple, point: DiagonalProjection, images: tuple) -> None:
        self.__dict__.update(elements=elements, point=point, images=images)

    def verify(self) -> bool:
        recomputed = tuple(act(f, self.point) for f in self.elements)
        return recomputed == self.images and len(set(self.images)) == len(self.images)

    def to_json(self) -> dict:
        return {
            "p": str(self.point),
            "images": [str(q) for q in self.images],
            "elements": [str(f) for f in self.elements],
        }


def independence_certificate(
    fs: Sequence[GroupElement], max_radius: int = 8
) -> IndependenceCertificate:
    """Certificate that pi_2 of the given distinct elements is independent: the one
    search for a separating point.

    Candidates are p = g . 1 for g along one breadth-first walk of the generator ball of
    radius max_radius, each point tested once and only until its first repeated image;
    the first success in (radius, discovery) order is returned, so the result is
    deterministic.  The two elements of each collision move to the front of the scan, so
    the pairs that collided last go first, and images stay raw until the winner's are
    wrapped.  The walk's points come layer by layer, one cached layer per radius
    (`_layer`), so a later search reads what an earlier one walked.  A family with a
    repeated element raises ValueError before any action.
    """
    if len(set(fs)) < len(fs):  # no point separates an element from itself
        raise ValueError("certificate requires pairwise distinct elements")
    maps = [f._interval_map for f in fs]  # each f compiled once
    if None in maps:
        raise NotInF("separating points are defined for families in F")
    if max_radius < 0:
        raise ValueError("radius must be >= 0")
    order = list(range(len(maps)))
    for radius in range(max_radius + 1):
        for p in _layer(radius)[1]:
            first: dict = {}  # image -> element, in the order of the scan
            for b in order:
                a = first.setdefault(maps[b].act(*p), b)
                if a != b:
                    order.remove(a)
                    order.remove(b)
                    order[:0] = (a, b)
                    break
            else:  # verify() recomputes the images
                images = tuple(map(_wrap, sorted(first, key=first.__getitem__)))
                return IndependenceCertificate(tuple(fs), _wrap(p), images)
    raise SearchExhausted(max_radius)
