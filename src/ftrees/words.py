"""Binary multi-indices and complete prefix codes.

Words are plain Python strings over the alphabet {"1", "2"}; the empty
word is "" and prints as "e".  A word labels a vertex of the infinite
binary tree, and a complete prefix code (an antichain with Kraft sum 1)
is the leaf set of a finite binary tree, i.e. a dyadic partition of the
unit interval.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Iterator, Sequence

from . import _packed
from ._frozen import Frozen
from ._packed import check_word  # noqa: F401 -- public here, defined beside `interval`
from .dyadic import Dyadic


class Ordering(Enum):
    BEFORE = -1
    PREFIX_RELATED = 0
    AFTER = 1


def word_to_str(w: str) -> str:
    return w if w else "e"


def is_prefix(u: str, v: str) -> bool:
    """True iff u is an initial segment of v (the empty word prefixes all)."""
    return v.startswith(u)


def lex_compare(u: str, v: str) -> Ordering:
    """Lexicographic comparison; prefix-comparable pairs are flagged.

    On any antichain this is a strict total order.  A PREFIX_RELATED
    result (one word an initial segment of the other, equality included)
    never occurs between members of a valid code.  The library itself never
    calls this: it checks a code by tiling its intervals (`_tiles`).
    """
    if u.startswith(v) or v.startswith(u):
        return Ordering.PREFIX_RELATED
    return Ordering.BEFORE if u < v else Ordering.AFTER


def kraft_sum(words: Iterable[str]) -> Dyadic:
    """Sum of 2^-|w| over the given words, exactly: one integer sum of
    2^(L - |w|) over the common denominator 2^L, L the longest length."""
    lengths = [len(w) for w in words]
    top = max(lengths, default=0)
    return Dyadic(sum(1 << (top - n) for n in lengths), top)


def _tiles(ints: Iterable[tuple[int, int]]) -> int:
    """0 if the (length, value) intervals, in the order given, tile [0, 1];
    else -1 if one starts before the last one ends (a repeat or an
    extension, which wins over a gap), or 1 for a gap."""
    m = e = gap = 0  # the previous interval ends at e / 2^m
    for n, v in ints:
        a, b = v << m, e << n  # its start and that end, at one scale
        if a != b:
            if a < b:
                return -1
            gap = True
        m, e = n, v + 1
    return int(gap or e != 1 << m)


def _tiling(words: Sequence[str]) -> tuple[list[tuple[int, int]], list[int]]:
    """The words' intervals (`_packed.interval`, which checks each word) and
    their positions in lex order, which puts a word before its extensions;
    raises ValueError unless they tile [0, 1] in that order."""
    ints = list(map(_packed.interval, words))
    order = sorted(range(len(words)), key=words.__getitem__)
    fault = _tiles([ints[i] for i in order])
    if fault < 0:
        raise ValueError(f"not an antichain: {tuple(sorted(words))}")
    if fault:
        ws = tuple(sorted(words))
        raise ValueError(f"Kraft sum of {ws} is {kraft_sum(ws)}, not 1")
    return ints, order


class CompleteCode(Frozen):
    """A complete prefix code: lex-sorted words whose intervals tile [0, 1]
    (an antichain with Kraft sum 1), checked once by `_tiling`."""

    words: tuple[str, ...]

    def __init__(self, words: Iterable[str]) -> None:
        ws = tuple(words)
        self.__dict__["words"] = tuple(ws[i] for i in _tiling(ws)[1])

    def __iter__(self) -> Iterator[str]:
        return iter(self.words)

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, w: str) -> bool:
        return w in self.words

    def __str__(self) -> str:
        return "{" + ", ".join(word_to_str(w) for w in self.words) + "}"


# A term S_alpha S_beta* as the intervals (|alpha|, value, |beta|, value)
# of its words (`_packed.interval`); it maps I(beta) onto I(alpha).
Quad = tuple[int, int, int, int]


def _diagonal(code: CompleteCode) -> list[Quad]:
    """The identity map of a code: its terms (w, w)."""
    return [q * 2 for q in map(_packed.interval, code.words)]


def _merge_walk(a: Sequence[Quad], b: Sequence[Quad]) -> list[Quad]:
    """The unreduced product ab, a in beta order and b in alpha order: one
    term per piece of the common refinement of the two middle codes.

    The current intervals start together, so one contains the other and
    the smaller is the next piece; the other term carries it by its
    suffix, the low bits of its value.  Both sides advance when the two
    intervals end together.  On diagonal terms the walk is the common
    refinement of two codes.
    """
    out = []
    i = j = 0
    while i < len(a):
        la, va, lb, vb = a[i]
        ma, mva, mb, mvb = b[j]
        if lb >= ma:
            t = lb - ma
            out.append((la, va, mb + t, vb + ((mvb - mva) << t)))
            i += 1
            j += (vb + 1) == (mva + 1) << t
        else:
            s = ma - lb
            out.append((la + s, mva + ((va - vb) << s), mb, mvb))
            j += 1
            i += (mva + 1) == (vb + 1) << s
    return out


def common_refinement(a: CompleteCode, b: CompleteCode) -> CompleteCode:
    """Coarsest code refining both inputs: the pieces of the merge walk."""
    return CompleteCode(
        _packed.word(n, v) for n, v, _, _ in _merge_walk(_diagonal(a), _diagonal(b))
    )
