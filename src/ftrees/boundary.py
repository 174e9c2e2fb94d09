"""Finite-level model of the tree-pair compactification of Omega_2.

A projection q embeds into pairs of rooted leafless trees as (q, 1-q):
the vertices whose cylinders meet the support and the cosupport.  A
depth-k window on such a tree is fixed by its depth-k vertices, the
2^-k cells that meet the region: the region rounded out to scale 2^-k
(`_packed.round_out`).  A window is stored as its depth and the union
of those cells, and each operation is a few interval operations of
`omega`, whose cost grows with the intervals, not with 2^k.  For the
window (L, R) of (q, 1-q), 1 - R <= q <= L and the shared frontier is
L ^ R.  Acting by f costs height(f) levels of resolution and needs the
window to reach f's domain tree (see `window_requirement`).
"""

from __future__ import annotations

import operator
from typing import Iterable, Sequence

from . import _packed
from ._frozen import Frozen
from .elements import GroupElement, NotInF, height, is_order_preserving
from .omega import (
    ONE, ZERO, DiagonalProjection, InternalSearchExhausted, _wrap, complement, join, meet,
    omega2_member, trace,
)
from .words import word_to_str


class ZeroProjection(ValueError):
    """The zero projection has no tree-pair embedding."""


class DepthTooShallow(ValueError):
    """The truncation is not deep enough to act exactly."""


class MalformedPair(ValueError):
    """The pair violates the truncation invariants."""


class NotRealizable(ValueError):
    """No point of Omega_2 lies in the cylinder of this pair."""


class RigidPair(ValueError):
    """The cylinder of this pair contains a single point of Omega_2."""


def _cells(p: DiagonalProjection, j: int) -> list[int]:
    """The indices of the 2^-j cells that meet p, left to right."""
    n, ends = _packed.round_out(*p, j)
    return [c for a, b in zip(ends[::2], ends[1::2]) for c in range(a << j - n, b << j - n)]


class TreeTruncation(Frozen):
    """Depth-k window on a rooted subtree without leaves (or the empty tree).

    Stored as the depth and `cells`, the union of the cylinders of the
    depth-k vertices; the vertices of depth j are the 2^-j cells that
    meet `cells`, and they are listed only on demand.
    """

    depth: int
    cells: DiagonalProjection

    def __init__(self, depth: int, vertices: Iterable[str]) -> None:
        vs = frozenset(_packed.check_word(v) for v in vertices)
        if depth < 0:
            raise MalformedPair("depth must be >= 0")
        # the set is the prefix closure of its depth-k vertices; checked
        # locally, vertex by vertex in sorted order, so that a window with
        # several faults reports the same one under any hash seed
        ordered = sorted(vs)
        for v in ordered:
            if len(v) > depth:
                raise MalformedPair(f"vertex {v!r} deeper than {depth}")
            if v and v[:-1] not in vs:
                raise MalformedPair(f"vertex set not prefix-closed at {v!r}")
            if len(v) < depth and v + "1" not in vs and v + "2" not in vs:
                raise MalformedPair(f"vertex {v!r} is a leaf above the cut depth")
        frontier = [v for v in ordered if len(v) == depth]
        self.__dict__.update(depth=depth, cells=_wrap(_packed.pack(frontier)))

    @classmethod
    def of_projection(cls, p: DiagonalProjection, depth: int) -> "TreeTruncation":
        """The window whose vertices are the cells of depth <= `depth` meeting p."""
        if depth < 0:
            raise MalformedPair("depth must be >= 0")
        t = object.__new__(cls)
        t.__dict__.update(depth=depth, cells=_wrap(_packed.round_out(*p, depth)))
        return t

    @classmethod
    def full(cls, depth: int) -> "TreeTruncation":
        return cls.of_projection(ONE, depth)

    @classmethod
    def empty(cls, depth: int) -> "TreeTruncation":
        return cls.of_projection(ZERO, depth)

    def is_empty(self) -> bool:
        return self.cells.is_zero()

    def is_full(self) -> bool:
        return self.cells.is_one()

    def frontier(self) -> frozenset[str]:
        """The depth-k vertices."""
        return frozenset(_packed.word(self.depth, c) for c in _cells(self.cells, self.depth))

    @property
    def vertices(self) -> frozenset[str]:
        return frozenset(self.sorted_vertices())

    def truncate(self, depth: int) -> "TreeTruncation":
        if depth > self.depth:
            raise MalformedPair(f"cannot deepen a depth-{self.depth} window to {depth}")
        return TreeTruncation.of_projection(self.cells, depth)

    def sorted_vertices(self) -> list[str]:
        """The vertices in (length, lex) order: level j lists the 2^-j cells
        that meet `cells`, left to right."""
        return [_packed.word(j, c) for j in range(self.depth + 1) for c in _cells(self.cells, j)]

    def __str__(self) -> str:
        return "{" + ", ".join(word_to_str(v) for v in self.sorted_vertices()) + "}"


class PairTruncation(Frozen):
    """A depth-k window on a point of the compactification: its trees
    have one depth and together meet every vertex."""

    left: TreeTruncation
    right: TreeTruncation

    def __init__(self, left: TreeTruncation, right: TreeTruncation) -> None:
        if left.depth != right.depth:
            raise MalformedPair(f"depth mismatch: {left.depth} vs {right.depth}")
        self.__dict__.update(left=left, right=right)
        if not self.covers():
            raise MalformedPair("support and cosupport windows must cover every vertex")

    @property
    def depth(self) -> int:
        return self.left.depth

    def covers(self) -> bool:
        """Support and cosupport together meet every vertex."""
        return join(self.left.cells, self.right.cells).is_one()

    def truncate(self, depth: int) -> "PairTruncation":
        return PairTruncation(self.left.truncate(depth), self.right.truncate(depth))

    def __str__(self) -> str:
        return f"({self.left}, {self.right})@{self.depth}"


def _window(k: int, left: DiagonalProjection, right: DiagonalProjection) -> PairTruncation:
    """The depth-k window meeting `left` and `right`, built unchecked: every
    caller passes two regions whose union is 1, so its trees cover."""
    pair = object.__new__(PairTruncation)
    pair.__dict__.update(
        left=TreeTruncation.of_projection(left, k), right=TreeTruncation.of_projection(right, k)
    )
    return pair


def embed(q: DiagonalProjection, k: int) -> PairTruncation:
    """The depth-k window of (q, 1-q)."""
    if q.is_zero():
        raise ZeroProjection("0 does not embed (the left tree must be nonempty)")
    return _window(k, q, complement(q))


def window_requirement(f: GroupElement) -> int:
    """Smallest window depth on which f acts exactly.

    The window must reach f's domain tree, so that each depth-k cell lies
    in one domain interval, and one level beyond height(f).  Elements
    outside F do not act on windows and raise `NotInF`.
    """
    if not is_order_preserving(f):
        raise NotInF("window depths are defined for order-preserving elements")
    h = height(f)
    if h == 0:
        return 0  # order preserving with all degrees zero: the identity
    return max(max(q[2] for q in f._quads), h + 1)


def act_truncated(f: GroupElement, pair: PairTruncation) -> PairTruncation:
    """Exact depth-(k - height(f)) window of f . (omega, eta).

    Requires k >= window_requirement(f); below it, projections exist with
    equal windows whose images differ already at depth k - height(f).
    Every q with this window has 1 - R <= q <= L.  Even-degree terms
    carry q and odd ones 1 - q, so f . q lies between the meet and the
    join of f . L and f . (1 - R).  A depth-k cell maps into one
    depth-(k - height) cell, so the join rounded out is the left window
    and the complement of the meet the right one.
    """
    if not is_order_preserving(f):
        raise NotInF("the boundary action is defined for order-preserving elements")
    k = pair.depth
    if k < window_requirement(f):
        raise DepthTooShallow(
            f"depth {k} window underdetermines the action of an element "
            f"with domain depth {window_requirement(f)}"
        )
    g = _packed.PackedElement(f._quads)  # f compiled once for both actions
    outer, inner = (_wrap(g.act(*q)) for q in (pair.left.cells, complement(pair.right.cells)))
    return _window(k - height(f), join(outer, inner), complement(meet(outer, inner)))


def stabilizes(seq: Sequence[DiagonalProjection], k: int) -> bool:
    """Certificate that the window-k membership indicators settle.

    For every vertex of length <= k, both the support and the cosupport
    indicator sequences must be constant on the last half of the list:
    the depth-k windows of (q, 1-q) over the tail are all equal.
    """
    tail = [_window(k, q, complement(q)) for q in seq[len(seq) // 2 :]]
    return all(t == tail[0] for t in tail[1:])


def is_realizable(pair: PairTruncation) -> bool:
    """Whether some q in Omega_2 has embed(q, k) equal to this pair.

    With a shared frontier vertex the trace is freely adjustable below
    the window (admissible traces are dense), so the pair is realizable.
    Otherwise the window forces q = L exactly, and L must pass the trace
    test.
    """
    if pair.left.is_empty():
        raise MalformedPair("the support tree of a nonzero projection is nonempty")
    if not meet(pair.left.cells, pair.right.cells).is_zero():
        return True
    return omega2_member(pair.left.cells) is not None


def _fill(
    inner: DiagonalProjection, cells: list[int], k: int, t: int, total: int
) -> DiagonalProjection:
    """`inner` plus `total` atoms of scale 2^-(k+t) at the left ends of the
    depth-k `cells`: one in each, and the rest (at most 5, so fewer than
    2^t in all) in the first."""
    ends = [e for c in cells for e in (c << t, (c << t) + 1)]
    ends[1] += total - len(cells)
    return _wrap(_packed.combine(operator.or_, *inner, k + t, tuple(ends)))


def non_isolation_witness(pair: PairTruncation) -> tuple[DiagonalProjection, DiagonalProjection]:
    """Two distinct points of Omega_2 with the same depth-k window.

    Requires a shared frontier vertex; the cylinders below shared
    vertices are partially filled with two different admissible total
    traces, so the witnesses differ strictly below the window.  Both are
    checked before they are returned.
    """
    k = pair.depth
    shared = meet(pair.left.cells, pair.right.cells)
    if shared.is_zero():
        if not is_realizable(pair):
            raise NotRealizable(f"the depth-{k} window has no Omega_2 point in its cylinder")
        raise RigidPair(f"the depth-{k} window pins down a single point of Omega_2")
    t = 3 if k % 2 == 0 else 4  # k + t odd: a uniform admissible level
    cells = _cells(shared, k)
    inner = complement(pair.right.cells)  # the cells in the left tree only
    # the least total fill >= one atom a cell with an admissible trace, then the next
    total = len(cells) + (2 - trace(inner).scaled(k + t) - len(cells)) % 3
    q1, q2 = (_fill(inner, cells, k, t, x) for x in (total, total + 3))
    if q1 == q2 or any(omega2_member(q) is None or embed(q, k) != pair for q in (q1, q2)):
        raise InternalSearchExhausted(f"non-isolation witnesses {q1}, {q2} fail their check")
    return q1, q2
