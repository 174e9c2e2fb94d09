"""Interval engine: the one representation of a diagonal projection.

A word w is the dyadic interval I(w) of [0, 1]: "1" the left half, "2"
the right.  A diagonal projection is a finite union of such intervals,
stored as (n, ends): the flat sorted endpoints a0, b0, a1, b1, ... of
its merged intervals [a, b) in units of 2^-n.  n is minimal (not every
endpoint is even), so the form is canonical and hashable.  Words are
made only at the edges: `interval` and `pack` read them, `unpack` splits
the intervals into their words' (length, value) blocks and `word` writes
one.  Words of at most 8 letters (95 % of those the certify benchmark reads
and prints) are looked up in tables made at import, longer ones parsed or
formatted.  `round_out` coarsens a projection to the cells of a scale it
meets.

A term S_alpha S_beta* maps I(beta) affinely onto I(alpha), so an
element acts by sending p on I(beta) to I(alpha) for even-degree terms
and 1 - p for odd ones (the PL picture of F); x is in p iff an odd count of
p's ends are at or below x.  The lattice operations are the set operations on
the intervals.  Costs grow with the number of intervals and terms, not 2^n.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Iterable, Sequence

_TO_BITS = str.maketrans("12", "01")
_TO_WORD = str.maketrans("01", "12")
# _WORDS[n][v] is word(n, v) for n <= 8: v's children 2v, 2v + 1 append "1", "2"
_WORDS: list[tuple[str, ...]] = [("",)]
for _ in range(8):
    _WORDS.append(tuple([w + c for w in _WORDS[-1] for c in "12"]))
_VALUES = {w: v for ws in _WORDS for v, w in enumerate(ws)}


def interval(w: str) -> tuple[int, int]:
    """(length, value) of a word: I(w) is [v, v + 1) in units of 2^-length."""
    v = _VALUES.get(w)
    return len(w), int(w.translate(_TO_BITS), 2) if v is None else v


def word(n: int, v: int) -> str:
    """The word of length n whose interval starts at v / 2^n."""
    # past 8 letters, formatted: the leading 1 keeps the n digits of v
    return _WORDS[n][v] if n <= 8 else bin(v | 1 << n)[3:].translate(_TO_WORD)


def _canonical(n: int, ends: list[int]) -> tuple[int, tuple[int, ...]]:
    """(n, ends) of merged intervals, n lowered until an endpoint is odd."""
    if not ends:
        return 0, ()
    acc = 0
    for e in ends:
        acc |= e
    if acc & 1:  # no shift: without this return, orbit-bfs ran 4-5 % slower
        return n, tuple(ends)
    z = (acc & -acc).bit_length() - 1  # the trailing zero bits all share
    return n - z, tuple([e >> z for e in ends])


def pack(support: Iterable[str]) -> tuple[int, tuple[int, ...]]:
    """Canonical (n, ends) of a lex-sorted antichain of words.

    Lex order is left-to-right order, so touching intervals are adjacent
    and merge as they come (sibling pairs included).  A word that starts
    before the previous interval ends is a repeat or an extension of an
    earlier word.
    """
    ws = list(support)
    n = max(map(len, ws), default=0)
    ends: list[int] = []
    for m, v in map(interval, ws):
        shift = n - m
        a = v << shift
        if ends and a < ends[-1]:
            raise ValueError(f"support is not an antichain: {ws}")
        if ends and ends[-1] == a:
            ends[-1] = a + (1 << shift)
        else:
            ends += (a, a + (1 << shift))
    return _canonical(n, ends)


def unpack(n: int, ends: Sequence[int]) -> list[tuple[int, int]]:
    """(length, value) of each maximal aligned block of the intervals, left
    to right: the intervals of the words of the canonical support."""
    out = []
    for i in range(0, len(ends), 2):
        a, b = ends[i], ends[i + 1]
        while a < b:
            k = (b - a).bit_length() - 1
            if a:
                k = min(k, (a & -a).bit_length() - 1)
            out.append((n - k, a >> k))
            a += 1 << k
    return out


def complement(n: int, ends: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """The gaps of the intervals; only the first and the last can be empty."""
    gaps = (0, *ends, 1 << n)
    if gaps[1] == 0:
        gaps = gaps[2:]
    if gaps and gaps[-2] == gaps[-1]:
        gaps = gaps[:-2]
    # an odd endpoint is neither 0 nor 2^n, so the gaps stay canonical
    return (n, gaps) if gaps else (0, ())


def round_out(n: int, ends: tuple[int, ...], k: int) -> tuple[int, tuple[int, ...]]:
    """The union of the 2^-k cells that meet the intervals: each start
    floored and each end ceiled to scale k, overlaps merged."""
    if n <= k:
        return n, ends
    out: list[int] = []
    for a, b in zip(ends[::2], ends[1::2]):
        a, b = a >> n - k, -(-b >> n - k)
        if out and a <= out[-1]:
            out[-1] = b
        else:
            out += (a, b)
    return _canonical(k, out)


def combine(
    op: Callable[[bool, bool], bool], n: int, a: tuple[int, ...], m: int, b: tuple[int, ...]
) -> tuple[int, tuple[int, ...]]:
    """The set where op(in a, in b) holds, by one sweep over both endpoints.

    Membership flips at each endpoint; a boundary met twice at one point
    cancels, which merges touching intervals and drops empty ones.
    """
    top = max(n, m)
    events = sorted([(e << (top - n), 0) for e in a] + [(e << (top - m), 1) for e in b])
    inside = [False, False]
    out: list[int] = []
    for x, side in events:
        inside[side] = not inside[side]
        if op(*inside) != len(out) % 2:
            if out and out[-1] == x:
                out.pop()
            else:
                out.append(x)
    return _canonical(top, out)


class PackedElement:
    """An element of F compiled to affine maps on interval endpoints.

    `terms` are the (|alpha|, alpha value, |beta|, beta value) intervals
    of an order-preserving element in alpha order, hence also in beta
    order.  Acting at scale base + k,
    term t sends an endpoint e of I(beta) to (e << s) + (c << k) at scale
    base + k + height, where base is the longest beta and height the
    largest degree; the shifted tables are cached per k.
    """

    __slots__ = ("base", "height", "_tables")

    def __init__(self, terms: tuple[tuple[int, int, int, int], ...]) -> None:
        base = self.base = max(t[2] for t in terms)
        height = self.height = max(t[0] - t[2] for t in terms)
        table = []
        for la, va, lb, vb in terms:
            size = 1 << (base - lb)
            lo = vb * size
            s = height - la + lb
            c = (va << (base + height - la)) - (lo << s)
            table.append((lo, lo + size, s, c, (la - lb) % 2 == 0))
        self._tables = {0: table}

    def act(self, n: int, ends: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
        """Canonical (n, ends) of (this element) . (the projection).

        Even terms map p on I(beta) onto I(alpha), odd terms 1 - p: an odd count of ends
        at or below x puts x in p.  The images arrive in order; p and 1 - p never touch,
        so only a term's first image can touch the one before it.
        """
        k = n - self.base
        if k < 0:
            ends = tuple(e << -k for e in ends)
            k = 0
        table = self._tables.get(k)
        if table is None:
            table = self._tables[k] = [
                (lo << k, hi << k, s, c << k, even) for lo, hi, s, c, even in self._tables[0]
            ]
        out: list[int] = []
        last = len(ends)
        for lo, hi, s, c, even in table:
            j = bisect_right(ends, lo)
            if j & 1 != even:  # lo is outside the carried set: start at its next entry
                if j == last or ends[j] >= hi:
                    continue
                lo, j = ends[j], j + 1
            a = (lo << s) + c
            if out and out[-1] == a:
                out.pop()
            else:
                out.append(a)
            while j < last and ends[j] < hi:
                out.append((ends[j] << s) + c)
                j += 1
            if len(out) & 1:  # the carried set runs on to the end of I(beta)
                out.append((hi << s) + c)
        return _canonical(self.base + k + self.height, out)
