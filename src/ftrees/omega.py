"""The coset space F/H_2 as diagonal projections.

H_2 is the subgroup of F whose terms all have even gauge degree; the
coset of f is determined by the projection f_0 f_0*, so F/H_2 is the
orbit of 1 under

    f . p = f_0 p f_0* + f_1 (1 - p) f_1*.

A projection lies in the orbit iff its trace is k / 2^(2m+1) with
k = 2 (mod 3).  `realize` proves the converse constructively: one binary
tree whose leaf-depth parities give the atoms of p even degree and those
of 1 - p odd degree exists exactly when k = 2 (mod 3), and its leaves
paired with those atoms form an explicit witness f with f . 1 = p.
A projection is the canonical (n, ends) tuple of the merged dyadic
intervals of its support (`_packed`), which the action, the lattice
operations, the trace and the orbit walk use directly; its words are
made for each `support` or `str` and never kept.
"""

from __future__ import annotations

import operator
import time
from functools import cache
from itertools import accumulate
from typing import Iterable, Optional

from . import _packed
from ._frozen import Frozen, frozen_error
from .dyadic import Dyadic
from .elements import (
    GroupElement,
    NotInF,
    _element,
    _reduce_terms,
    multiply,  # noqa: F401 -- bench/test_bench.py checks its tracer rebinds omega.multiply
)
from .generators import _generators
from .words import Quad, _tiles


class NotInOmega2(ValueError):
    """The projection is not in the orbit of 1 (trace condition fails)."""


class InternalSearchExhausted(RuntimeError):
    """A constructed witness failed its certificate (should not occur)."""


class DiagonalProjection(tuple):
    """Finite antichain of words: the projection sum of their cylinders.

    Empty support is the zero projection; support ("",) is the identity.
    A projection is the canonical (n, ends) tuple of `_packed`, so equality
    and hashing are structural and p == (p.n, p.ends) with equal hashes;
    `len`, indexing and iteration read that tuple, but order and arithmetic raise
    TypeError, tuple's reflected ones too (`(5,) + p`).  `support`, the canonical
    word list, is made on every read and never kept: a projection holds only intervals.
    """

    __slots__ = ()
    n = property(operator.itemgetter(0))
    ends = property(operator.itemgetter(1))

    def __new__(cls, support: Iterable[str]) -> DiagonalProjection:
        return tuple.__new__(cls, _packed.pack(support))

    def __init__(self, support: Iterable[str]) -> None:
        """Does nothing: `__new__` builds the value."""

    def __reduce__(self):
        """Rebuild from (n, ends); tuple's default would pass them to `__new__` as words."""
        return _wrap, (tuple(self),)

    def __setattr__(self, name: str, value: object) -> None:
        raise frozen_error(f"cannot assign to field {name!r}")

    def _refuse(self, other: object) -> None:
        # raise, not return NotImplemented: tuple's own operation would then answer
        raise TypeError("a projection has no order and no tuple arithmetic")

    __lt__ = __le__ = __gt__ = __ge__ = __add__ = __radd__ = __mul__ = __rmul__ = _refuse

    @property
    def support(self) -> tuple[str, ...]:
        return tuple([_packed.word(m, v) for m, v in _packed.unpack(*self)])

    def is_zero(self) -> bool:
        return not self[1]

    def is_one(self) -> bool:
        return self == (0, (0, 1))

    def __str__(self) -> str:
        return _text(*self)

    def __repr__(self) -> str:
        return f"DiagonalProjection({self})"


def _text(n: int, ends: tuple[int, ...], table: Optional[dict] = None) -> str:
    """The text of the projection (n, ends), as `str` prints it: its blocks
    as P[w]+...  `table` holds each interval's text, keyed by (n, a, b), for
    a printer whose projections share few intervals, as an orbit file's do."""
    if not n:  # 0 is (0, ()) and 1 is (0, (0, 1))
        return "1" if ends else "0"
    if table is None:
        return "+".join([f"P[{_packed.word(m, v)}]" for m, v in _packed.unpack(n, ends)])
    pairs = iter(ends)
    return "+".join([table.get((n, a, b)) or table.setdefault((n, a, b), _text(n, (a, b)))
                     for a, b in zip(pairs, pairs)])


def _wrap(packed: tuple[int, tuple[int, ...]]) -> DiagonalProjection:
    # trusted constructor for an (n, ends) already in canonical form: no check, no __init__
    return tuple.__new__(DiagonalProjection, packed)


ZERO = DiagonalProjection(())
ONE = DiagonalProjection(("",))


def trace(p: DiagonalProjection) -> Dyadic:
    """The total length of the intervals; tau(P_w) = 2^-|w| exactly."""
    return Dyadic(sum(p.ends[1::2]) - sum(p.ends[::2]), p.n)


def complement(p: DiagonalProjection) -> DiagonalProjection:
    """1 - p: the gaps between the intervals of p."""
    return _wrap(_packed.complement(*p))


def meet(p: DiagonalProjection, q: DiagonalProjection) -> DiagonalProjection:
    """Lattice meet p ^ q, the product projection: the intersection."""
    return _wrap(_packed.combine(operator.and_, *p, *q))


def join(p: DiagonalProjection, q: DiagonalProjection) -> DiagonalProjection:
    """Lattice join p v q: the union."""
    return _wrap(_packed.combine(operator.or_, *p, *q))


def d_tau(p: DiagonalProjection, q: DiagonalProjection) -> Dyadic:
    """tau(|p - q|): the trace of the symmetric difference."""
    return trace(_wrap(_packed.combine(operator.ne, *p, *q)))


def act(f: GroupElement, p: DiagonalProjection) -> DiagonalProjection:
    """The left action f . p = f_0 p f_0* + f_1 (1 - p) f_1*.

    Each term S_alpha S_beta* maps I(beta) affinely onto I(alpha):
    even-degree terms carry the part of p there, odd-degree terms the
    part of 1 - p.  f is compiled to its interval map for this call only.
    """
    if not f._in_f:
        raise NotInF("the action is defined for order-preserving elements")
    return _wrap(_packed.PackedElement(f._quads).act(*p))


def h2_member(f: GroupElement) -> bool:
    """Membership in H_2: every term of the reduced form has even degree.

    Refinement preserves degrees, so this does not depend on the chosen
    representation.
    """
    if not f._in_f:
        raise NotInF("H_2 is a subgroup of F")
    return all((la - lb) % 2 == 0 for la, _, lb, _ in f._quads)


def coset_invariant(f: GroupElement) -> DiagonalProjection:
    """The projection f_0 f_0* determining the coset of f; equals f . 1."""
    return act(f, ONE)


def omega2_member(p: DiagonalProjection) -> Optional[tuple[int, int]]:
    """(k, m) with tau(p) = k/2^(2m+1) and k = 2 (mod 3), if p is in Omega_2.

    The exponent is raised to the smallest odd value; raising it further
    by 2 multiplies k by 4 = 1 (mod 3), so the residue is well defined.
    0 fails the residue test: its trace has k = 0.
    """
    t = trace(p)
    e = t.exponent if t.exponent % 2 == 1 else t.exponent + 1
    k = t.scaled(e)
    m = (e - 1) // 2
    if k % 3 != 2:
        return None
    return (k, m)


# ---------------------------------------------------------------------------
# Constructive realization of admissible projections
# ---------------------------------------------------------------------------


def _solve_parities(items: list[tuple[int, int, int]]) -> list[Quad]:
    """Terms, in alpha order, pairing `items`, (length, value, required
    degree parity) in left-to-right order, with the leaves (depth, value)
    of a binary tree whose leaf depths have the required parities.

    At a node of depth d an item weighs 1 if a leaf there would have even
    depth below the node, else 2: its Kraft share mod 3.  A node is
    solvable exactly when its weights sum to 1 mod 3; it splits where the
    prefix weight is 2 mod 3 (nearest the middle, so the tree is about
    log2 of the item count deep), which flips every weight on both sides.
    Without such a point the weights alternate 1, 2, ..., 1, and splitting
    a weight-1 item into two weight-2 halves makes one.  A weight at odd
    depth is minus its weight at depth 0, so a node reads its prefix
    weights off the depth-0 prefix sums of its run of items.
    """

    def prefix(items: list) -> bytes:  # the depth-0 weights, summed mod 3
        return bytes(s % 3 for s in accumulate([1 + (m + o) % 2 for m, _, o in items], initial=0))

    pre = prefix(items)
    if pre[-1] != 1:
        raise AssertionError(f"unsolvable parity sequence (weight {pre[-1]})")
    quads: list[Quad] = []
    stack = [(0, 0, items, pre, 0, len(items))]
    while stack:
        d, v, items, pre, lo, hi = stack.pop()
        n = hi - lo
        if n == 1:
            quads.append((*items[lo][:2], d, v))
            continue
        # the split nearest the middle: the smallest |2j - n|, on a tie the smaller j
        a, w = n // 2, (pre[lo] + 2 - d % 2) % 3  # pre[lo + j] == w: weight 2 up to j
        left = pre.rfind(w, lo + 1, lo + a + 1) - lo  # the largest j <= a, else negative
        right = pre.find(w, lo + n - a, lo + n) - lo  # the smallest j >= n - a, else negative
        j = left if right < 0 or 0 < left and n - 2 * left <= 2 * right - n else right
        if j < 0:  # n is odd, and the weight-1 items are at even positions
            i = lo + (n - 1) // 2 - ((n - 1) // 2) % 2
            m, u, o = items[i]
            items = [*items[lo:i], (m + 1, 2 * u, o), (m + 1, 2 * u + 1, o), *items[i + 1 : hi]]
            lo, hi, j, pre = 0, n + 1, i - lo + 1, prefix(items)
        stack.append((d + 1, 2 * v + 1, items, pre, lo + j, hi))
        stack.append((d + 1, 2 * v, items, pre, lo, lo + j))
    return quads


def realize(p: DiagonalProjection) -> GroupElement:
    """An element f of F with f . 1 = p, certified before returning.

    The witness pairs the atoms of p and of 1 - p, in lex order, with the
    leaves of one binary tree (its domain code).  An atom w of p needs a
    leaf whose depth has the parity of |w| (an even-degree term), an atom
    of 1 - p the other parity.  A leaf at depth d adds 2^(D-d) = (-1)^d
    (mod 3) to the Kraft sum scaled by 2^D, D even, and that sum is
    2^D = 1 (mod 3).  Write tau(p) = k/2^N with N odd and at least every
    |w|: then k = sum_p 2^(N-|w|) = -sum_p (-1)^|w| and, as 2^N = -1,
    -1 - k = -sum_(1-p) (-1)^|w| (mod 3).  So the required parities weigh
    sum_p (-1)^|w| - sum_(1-p) (-1)^|w| = -k - (k + 1) = k + 2 (mod 3),
    which is 1 exactly when k = 2 (mod 3): the trace test.  Every weight
    sequence summing to 1 has a tree (`_solve_parities`), so realize
    succeeds on all of Omega_2 in one pass.  The atoms are read off the
    intervals of p and of their gaps, no word is made, and the cost grows
    with the atom count of p and 1 - p rather than with 2^level.  The
    certificate: both sides tile [0, 1] in alpha order, so f is a unitary
    in F (recorded on it), and `act` finds f . 1 = p.
    """
    if omega2_member(p) is None:
        raise NotInOmega2(f"tau = {trace(p)} is not k/2^(2m+1) with k = 2 mod 3")
    n, cuts = p.n, (0, *p.ends, 1 << p.n)
    items: list[tuple[int, int, int]] = []  # (length, value, degree parity)
    for i in range(len(cuts) - 1):  # the gaps of p, the even segments, need odd degree
        items += [(m, v, ~i & 1) for m, v in _packed.unpack(n, cuts[i : i + 2])]
    f = _element(_reduce_terms(_solve_parities(items)), True)
    if any(_tiles([q[k : k + 2] for q in f._quads]) for k in (0, 2)) or act(f, ONE) != p:
        raise InternalSearchExhausted(f"parity-tree witness failed for {p}")
    return f


# ---------------------------------------------------------------------------
# Orbit enumeration
# ---------------------------------------------------------------------------


class OrbitRun(Frozen):
    """Result of a breadth-first orbit sweep.  `depths` is in discovery
    order, the start and then depth by depth, which `levels` cuts into
    spheres: one (depth, frontier, new, seconds) record a level.  `action_evaluations`
    counts the (point, generator) pairs resolved, four per expanded point; the
    step back to a point's parent is answered by the group law, not computed."""

    depths: dict[DiagonalProjection, int]
    action_evaluations: int
    seconds: float
    levels: list[tuple[int, int, int, float]]

    def __init__(self, depths: dict, action_evaluations: int, seconds: float, levels: list) -> None:
        self.__dict__.update(
            depths=depths, action_evaluations=action_evaluations, seconds=seconds, levels=levels
        )


@cache
def _generator_maps() -> tuple[_packed.PackedElement, ...]:
    """The interval maps of `_generators()`, in its order, compiled once per process."""
    return tuple(_packed.PackedElement(g._quads) for _, g in _generators())


def orbit_levels(start: DiagonalProjection, depth: int) -> OrbitRun:
    """BFS under x0^+-1, x1^+-1 with discovery depths and timing; the
    generators are compiled once per process, and each image is looked up
    as it is made, so the memory is the result and two frontiers.  A point
    found by gens[i] skips gens[i ^ 1], its inverse in the order x0, x0^-1,
    x1, x1^-1: that image is its parent, already seen."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if omega2_member(start) is None:
        raise NotInOmega2(f"orbit start {start} is not in Omega_2")
    gens = [g.act for g in _generator_maps()]  # bound per call: a patched `act` sees every action
    frontier, back = [start], bytearray([4])  # each point's generator back to its parent; 4: none
    seen = {start: 0}  # projections; a raw (n, ends) finds its equal-hashing key
    levels, actions = [(0, 0, 1, 0.0)], 0
    t0 = t = time.perf_counter()
    for d in range(1, depth + 1):
        nxt, nxt_back = [], bytearray()
        for (n, ends), skip in zip(frontier, back):
            for i, act in enumerate(gens):
                if i == skip:  # the parent, already in `seen`
                    continue
                q = act(n, ends)
                if q not in seen:
                    q = _wrap(q)
                    seen[q] = d
                    nxt.append(q)
                    nxt_back.append(i ^ 1)
        now = time.perf_counter()
        levels.append((d, len(frontier), len(nxt), now - t))
        actions += len(gens) * len(frontier)
        frontier, back, t = nxt, nxt_back, now
    return OrbitRun(seen, actions, t - t0, levels)


def orbit(start: DiagonalProjection, depth: int) -> set[DiagonalProjection]:
    """All projections reachable from `start` in at most `depth` generator
    applications."""
    return set(orbit_levels(start, depth).depths)
