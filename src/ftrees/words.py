"""Binary multi-indices and complete prefix codes.

Words are plain Python strings over the alphabet {"1", "2"}; the empty
word is "" and prints as "e".  A word labels a vertex of the infinite
binary tree, and a complete prefix code (an antichain with Kraft sum 1)
is the leaf set of a finite binary tree, i.e. a dyadic partition of the
unit interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence

from . import _packed
from .dyadic import Dyadic

ALPHABET = ("1", "2")


class Ordering(Enum):
    BEFORE = -1
    PREFIX_RELATED = 0
    AFTER = 1


def check_word(w: str) -> str:
    # strip runs at C speed; the bad letter is looked for only on error
    if w.strip("12"):
        bad = next(ch for ch in w if ch not in ALPHABET)
        raise ValueError(f"invalid letter {bad!r} in word {w!r}")
    return w


def word_to_str(w: str) -> str:
    return w if w else "e"


def word_from_str(s: str) -> str:
    if s == "e":
        return ""
    return check_word(s)


def is_prefix(u: str, v: str) -> bool:
    """True iff u is an initial segment of v (the empty word prefixes all)."""
    return v.startswith(u)


def lex_compare(u: str, v: str) -> Ordering:
    """Lexicographic comparison; prefix-comparable pairs are flagged.

    On any antichain this is a strict total order.  A PREFIX_RELATED
    result (one word an initial segment of the other, equality included)
    never occurs between members of a valid code, so callers use it to
    detect malformed input.
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


@dataclass(frozen=True)
class CompleteCode:
    """A complete prefix code: lex-sorted words whose intervals tile [0, 1]
    (an antichain with Kraft sum 1), checked once by `_packed.pack`."""

    words: tuple[str, ...]

    def __init__(self, words: Iterable[str]) -> None:
        ws = tuple(sorted(map(check_word, words)))
        try:
            tiles = _packed.pack(ws) == (0, (0, 1))
        except ValueError:
            raise ValueError(f"not an antichain: {ws}") from None
        if not tiles:
            raise ValueError(f"Kraft sum of {ws} is {kraft_sum(ws)}, not 1")
        object.__setattr__(self, "words", ws)

    def __iter__(self) -> Iterator[str]:
        return iter(self.words)

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, w: str) -> bool:
        return w in self.words

    def refines(self, other: "CompleteCode") -> bool:
        """True iff every word here extends some word of `other`."""
        return all(
            len(piece) == len(self.words[i])
            for i, _, piece in _merge_walk(self.words, other.words)
        )

    def __str__(self) -> str:
        return "{" + ", ".join(word_to_str(w) for w in self.words) + "}"


def uniform_code(k: int) -> CompleteCode:
    """All 2^k words of length k."""
    if k < 0:
        raise ValueError("length must be >= 0")
    words = [""]
    for _ in range(k):
        words = [w + ch for w in words for ch in ALPHABET]
    return CompleteCode(words)


def _merge_walk(a: Sequence[str], b: Sequence[str]) -> Iterator[tuple[int, int, str]]:
    """(i, j, piece) for the pieces of the common refinement of two
    lex-sorted complete codes, in lex order; a[i] and b[j] are the words
    that contain the piece.

    The current cylinders of a and b start at the same point, so one
    current word is a prefix of the other, and the longer one is the next
    piece.  Its side always advances.  The other side advances too when
    the extra suffix holds no "1": then both cylinders end at the same
    point.
    """
    i = j = 0
    while i < len(a) and j < len(b):
        u, v = a[i], b[j]
        a_longer = len(u) >= len(v)
        piece, other = (u, v) if a_longer else (v, u)
        yield i, j, piece
        same_end = "1" not in piece[len(other):]
        i += a_longer or same_end
        j += not a_longer or same_end


def common_refinement(a: CompleteCode, b: CompleteCode) -> CompleteCode:
    """Coarsest code refining both inputs: the pieces of the merge walk."""
    return CompleteCode(w for _, _, w in _merge_walk(a.words, b.words))
