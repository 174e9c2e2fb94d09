"""Finite-level model of the tree-pair compactification of Omega_2.

A projection q embeds into pairs of rooted leafless trees as
(q, 1-q): the vertices met by the support and by the cosupport.  All
boundary computations here are statements about depth-k truncations of
such pairs; acting by f costs height(f) levels of resolution and needs
the window to reach f's domain tree (see `window_requirement`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .elements import GroupElement, NotInF, height, is_order_preserving, parity_split
from .omega import DiagonalProjection, complement, omega2_member
from .words import check_word, word_to_str


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


def _support_vertices(support: Sequence[str], k: int) -> frozenset[str]:
    """Vertices of length <= k whose cylinder meets the support region."""
    out: set[str] = set()
    for w in support:
        for i in range(min(len(w), k) + 1):
            out.add(w[:i])
        if len(w) < k:
            layer = [w]
            for _ in range(k - len(w)):
                layer = [v + ch for v in layer for ch in ("1", "2")]
                out.update(layer)
    return frozenset(out)


@dataclass(frozen=True)
class TreeTruncation:
    """Depth-k window on a rooted subtree without leaves (or the empty tree)."""

    depth: int
    vertices: frozenset[str]

    def __init__(self, depth: int, vertices: Iterable[str]) -> None:
        vs = frozenset(check_word(v) for v in vertices)
        if depth < 0:
            raise MalformedPair("depth must be >= 0")
        for v in vs:
            if len(v) > depth:
                raise MalformedPair(f"vertex {v!r} deeper than {depth}")
            if v and v[:-1] not in vs:
                raise MalformedPair(f"vertex set not prefix-closed at {v!r}")
            if len(v) < depth and v + "1" not in vs and v + "2" not in vs:
                raise MalformedPair(f"vertex {v!r} is a leaf above the cut depth")
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "vertices", vs)

    @classmethod
    def full(cls, depth: int) -> "TreeTruncation":
        return cls(depth, _support_vertices([""], depth))

    @classmethod
    def empty(cls, depth: int) -> "TreeTruncation":
        return cls(depth, ())

    @classmethod
    def of_projection(cls, p: DiagonalProjection, depth: int) -> "TreeTruncation":
        return cls(depth, _support_vertices(p.support, depth))

    def is_empty(self) -> bool:
        return not self.vertices

    def is_full(self) -> bool:
        return len(self.vertices) == (1 << (self.depth + 1)) - 1

    def frontier(self) -> frozenset[str]:
        """The depth-k vertices."""
        return frozenset(v for v in self.vertices if len(v) == self.depth)

    def truncate(self, depth: int) -> "TreeTruncation":
        if depth > self.depth:
            raise MalformedPair(f"cannot deepen a depth-{self.depth} window to {depth}")
        return TreeTruncation(depth, (v for v in self.vertices if len(v) <= depth))

    def sorted_vertices(self) -> list[str]:
        return sorted(self.vertices, key=lambda v: (len(v), v))

    def __str__(self) -> str:
        return "{" + ", ".join(word_to_str(v) for v in self.sorted_vertices()) + "}"


@dataclass(frozen=True)
class PairTruncation:
    """A depth-k window on a point of the compactification."""

    left: TreeTruncation
    right: TreeTruncation

    def __post_init__(self) -> None:
        if self.left.depth != self.right.depth:
            raise MalformedPair(
                f"depth mismatch: {self.left.depth} vs {self.right.depth}"
            )

    @property
    def depth(self) -> int:
        return self.left.depth

    def covers(self) -> bool:
        """Support and cosupport together meet every vertex."""
        return len(self.left.vertices | self.right.vertices) == (
            1 << (self.depth + 1)
        ) - 1

    def truncate(self, depth: int) -> "PairTruncation":
        return PairTruncation(self.left.truncate(depth), self.right.truncate(depth))

    def __str__(self) -> str:
        return f"({self.left}, {self.right})@{self.depth}"


def embed(q: DiagonalProjection, k: int) -> PairTruncation:
    """The depth-k window of (q, 1-q)."""
    if q.is_zero():
        raise ZeroProjection("0 does not embed (the left tree must be nonempty)")
    return PairTruncation(
        TreeTruncation.of_projection(q, k),
        TreeTruncation.of_projection(complement(q), k),
    )


def _transport_tree(
    vertices: frozenset[str], beta: str, alpha: str, out_depth: int, out: set[str]
) -> None:
    """Vertices met by the image of the (tree-encoded) region under beta,
    re-rooted at alpha, clipped to out_depth."""
    if beta not in vertices:
        return
    for i in range(min(len(alpha), out_depth) + 1):
        out.add(alpha[:i])
    for v in vertices:
        if v.startswith(beta) and v != beta:
            w = alpha + v[len(beta):]
            if len(w) <= out_depth:
                out.add(w)


def window_requirement(f: GroupElement) -> int:
    """Smallest window depth on which f acts exactly.

    Every probe the action makes is at a domain word beta (for vertices
    above a range word) or at beta extended by the output offset (for
    vertices below one); the deepest probe is max(|beta|, out + height),
    so the window must reach the domain tree and one height margin.
    """
    h = height(f)
    if h == 0:
        return 0  # order preserving with all degrees zero: the identity
    return max(max(len(t.beta) for t in f.terms), h + 1)


def act_truncated(f: GroupElement, pair: PairTruncation) -> PairTruncation:
    """Exact depth-(k - height(f)) window of f . (omega, eta).

    Requires k >= window_requirement(f).  Below that the output window is
    genuinely not a function of the input window: projections exist with
    equal windows whose images differ already at depth k - height(f).
    """
    if not is_order_preserving(f):
        raise NotInF("the boundary action is defined for order-preserving elements")
    h = height(f)
    k = pair.depth
    if k < window_requirement(f):
        raise DepthTooShallow(
            f"depth {k} window underdetermines the action of an element "
            f"with domain depth {window_requirement(f)}"
        )
    out_depth = k - h
    even, odd = parity_split(f)
    new_left: set[str] = set()
    new_right: set[str] = set()
    for t in even:
        _transport_tree(pair.left.vertices, t.beta, t.alpha, out_depth, new_left)
        _transport_tree(pair.right.vertices, t.beta, t.alpha, out_depth, new_right)
    for t in odd:
        _transport_tree(pair.right.vertices, t.beta, t.alpha, out_depth, new_left)
        _transport_tree(pair.left.vertices, t.beta, t.alpha, out_depth, new_right)
    return PairTruncation(
        TreeTruncation(out_depth, new_left), TreeTruncation(out_depth, new_right)
    )


def stabilizes(seq: Sequence[DiagonalProjection], k: int) -> bool:
    """Certificate that the window-k membership indicators settle.

    For every vertex of length <= k, both the support and the cosupport
    indicator sequences must be constant on the last half of the list:
    the depth-k vertex sets of the tail are all equal.
    """
    tail = [
        (_support_vertices(q.support, k), _support_vertices(complement(q).support, k))
        for q in seq[len(seq) // 2 :]
    ]
    return all(t == tail[0] for t in tail[1:])


def _validate_pair(pair: PairTruncation) -> None:
    if pair.left.is_empty():
        raise MalformedPair("the support tree of a nonzero projection is nonempty")
    if not pair.covers():
        raise MalformedPair("support and cosupport windows must cover every vertex")


def is_realizable(pair: PairTruncation) -> bool:
    """Whether some q in Omega_2 has embed(q, k) equal to this pair.

    With a shared frontier vertex the trace is freely adjustable below
    the window (admissible traces are dense), so the pair is realizable.
    Otherwise the window forces q exactly, and the forced projection must
    pass the trace test.
    """
    _validate_pair(pair)
    shared = pair.left.frontier() & pair.right.frontier()
    if shared:
        return True
    forced = DiagonalProjection(pair.left.frontier())
    return omega2_member(forced) is not None


def _fill_cell(cell: str, t: int, count: int) -> list[str]:
    """The lex-first `count` of the 2^t level-(|cell|+t) atoms below `cell`."""
    suffixes = [""]
    for _ in range(t):
        suffixes = [s + ch for s in suffixes for ch in ("1", "2")]
    return [cell + s for s in sorted(suffixes)[:count]]


def non_isolation_witness(
    pair: PairTruncation,
) -> tuple[DiagonalProjection, DiagonalProjection]:
    """Two distinct points of Omega_2 with the same depth-k window.

    Requires a shared frontier vertex; the cylinders below shared
    vertices are partially filled with two different admissible total
    traces, so the witnesses differ strictly below the window.
    """
    if not is_realizable(pair):
        raise NotRealizable(f"{pair} has no Omega_2 point in its cylinder")
    shared = sorted(pair.left.frontier() & pair.right.frontier())
    if not shared:
        raise RigidPair(f"{pair} pins down a single point of Omega_2")
    k = pair.depth
    t = 3 if k % 2 == 0 else 4  # k + t odd: a uniform admissible level
    cell_atoms = 1 << t
    full = sorted(pair.left.frontier() - pair.right.frontier())
    s = len(shared)
    base = len(full) * cell_atoms
    sums = [
        total
        for total in range(s, (cell_atoms - 1) * s + 1)
        if (base + total) % 3 == 2
    ]
    if len(sums) < 2:
        raise AssertionError("admissible fill range unexpectedly small")

    def build(total: int) -> DiagonalProjection:
        fills = []
        remaining = total
        for i, cell in enumerate(shared):
            cells_left = s - i - 1
            take = max(1, min(cell_atoms - 1, remaining - cells_left))
            fills.extend(_fill_cell(cell, t, take))
            remaining -= take
        assert remaining == 0
        return DiagonalProjection(full + fills)

    q1, q2 = build(sums[0]), build(sums[1])
    for q in (q1, q2):
        assert omega2_member(q) is not None
        assert embed(q, k) == pair
    assert q1 != q2
    return q1, q2
