"""The generator family x_k, normal forms, and the word problem for F.

x_0 = S_11 S_1* + S_12 S_21* + S_2 S_22* and
x_k = 1 - S_2^k S_2*^k + S_2^k x_0 S_2*^k for k >= 1.

Every element of F has a unique normal form
x_{j1} ... x_{jk} x_{il}^-1 ... x_{i1}^-1 with both index lists
non-decreasing, jk != il, and: if m occurs in both lists then m+1 occurs
in at least one of them.  Its exponents are the leaf exponents of the
reduced tree pair of the element (Cannon, Floyd and Parry, section 2),
so `to_normal_form` reads them off the canonical terms, and
`from_normal_form` builds the reduced tree pair straight from them.
`to_normal_form` certifies its result by comparing that directly built
pair with the element.
"""

from __future__ import annotations

from functools import cache
from operator import add, itemgetter
from typing import Iterable, Iterator

from ._frozen import Frozen
from .elements import GroupElement, NotInF, _element, inverse, is_order_preserving, multiply


def gen_x(k: int) -> GroupElement:
    """The canonical generator x_k: the element of the normal form x_k."""
    if k < 0:
        raise ValueError("generator index must be >= 0")
    return from_normal_form(NormalFormWord((k,), ()))


def equals(f: GroupElement, g: GroupElement) -> bool:
    """Word problem: canonical forms are identical."""
    return f == g


class NormalFormWord(Frozen):
    """Exponent word x_{j1}..x_{jk} x_{il}^-1..x_{i1}^-1, both lists stored
    in non-decreasing order."""

    _fields = ("positive", "negative")
    positive: tuple[int, ...]
    negative: tuple[int, ...]

    def __init__(self, positive: tuple[int, ...], negative: tuple[int, ...]) -> None:
        # min and sorted run at C speed: with generator scans, word-problem `nf` ran 5 % slower
        for name, seq in (("positive", positive), ("negative", negative)):
            if seq and min(seq) < 0:
                raise ValueError(f"{name} indices must be >= 0")
            if list(seq) != sorted(seq):
                raise ValueError(f"{name} indices must be non-decreasing")
        if positive and negative and positive[-1] == negative[-1]:
            raise ValueError("j_k = i_l: the word is freely reducible")
        both = set(positive) & set(negative)
        either = set(positive) | set(negative)
        for m in both:
            if m + 1 not in either:
                raise ValueError(
                    f"x_{m} occurs with both signs but x_{m + 1} with neither"
                )
        self.__dict__.update(positive=positive, negative=negative)

    def letters(self) -> list[tuple[int, int]]:
        """(index, sign) letters in reading order."""
        return [(j, 1) for j in self.positive] + [
            (i, -1) for i in reversed(self.negative)
        ]

    def __str__(self) -> str:
        parts = [f"x{j}" for j in self.positive]
        parts += [f"x{i}^-1" for i in reversed(self.negative)]
        return " ".join(parts) if parts else "e"


def parse_generator_word(text: str) -> list[tuple[int, int]]:
    """Parse ``x0 x2 x1^-1`` into (index, sign) letters, any order allowed
    (empty word: ``e`` or blank)."""
    text = text.strip()
    letters: list[tuple[int, int]] = []
    if text and text != "e":
        for tok in text.split():
            body, sign = (tok[:-3], -1) if tok.endswith("^-1") else (tok, 1)
            if not body.startswith("x") or not (body[1:].isascii() and body[1:].isdigit()):
                raise ValueError(f"bad generator token {tok!r}")
            letters.append((int(body[1:]), sign))
    return letters


def parse_normal_form(text: str) -> NormalFormWord:
    """Parse the token syntax as a normal-form word, validating the
    ordering and side conditions."""
    positive: list[int] = []
    negative: list[int] = []
    for idx, sign in parse_generator_word(text):
        if sign > 0:
            positive.append(idx)
        else:
            negative.append(idx)
    negative.reverse()
    return NormalFormWord(tuple(positive), tuple(negative))


def element_of_word(letters: Iterable[tuple[int, int]]) -> GroupElement:
    """Multiply out an arbitrary generator word, as a balanced tree of
    products: neighbours first, then their products, and so on, so that
    no factor is multiplied into more than about log2(length) products."""
    x = cache(gen_x)  # call-local tables: each distinct letter is built once, x_i^-1 from x_i
    x_inv = cache(lambda idx: inverse(x(idx)))
    fs = [x(idx) if sign > 0 else x_inv(idx) for idx, sign in letters] or [GroupElement.identity()]
    while len(fs) > 1:
        fs = [multiply(u, w) for u, w in zip(fs[::2], fs[1::2])] + fs[len(fs) & ~1 :]
    return fs[0]


def _exponent_counts(indices: tuple[int, ...]) -> list[int]:
    """a_i for i = 0 .. max index: the number of times i occurs."""
    counts = [0] * (indices[-1] + 1 if indices else 0)
    for i in indices:
        counts[i] += 1
    return counts


def _leaves_needed(counts: list[int]) -> int:
    """Fewest leaves of a tree whose first leaves have these exponents:
    one per count, one per right child still pending, and the last leaf."""
    pending = 0
    for e in counts:
        pending = pending + e - 1 if pending else e
    return len(counts) + pending + 1


def _tree_leaves(counts: list[int], n: int) -> list[tuple[int, int]]:
    """The n leaves, as intervals in lex order, of the tree whose leaf i
    has exponent counts[i] (0 past the end); inverse to `_leaf_exponents`.

    A stack holds the right children still to be visited.  When it is
    empty, the next spine vertex 2^j opens: its leaf 2^j 1^(e+1) ends a
    left path of e + 1 steps.  Otherwise the leaf is the popped vertex
    followed by 1^e.  Either way the right children along the path are
    pushed, the deepest last; on the spine that leaves out 2^(j+1), the
    next spine vertex.  The last leaf is the spine vertex itself.
    """
    leaves: list[tuple[int, int]] = []
    stack: list[tuple[int, int]] = []
    j = 0  # the spine vertex 2^j is (j, 2^j - 1)
    for e in counts + [0] * (n - 1 - len(counts)):
        if stack:
            m, v = stack.pop()
            d = 1
        else:
            m, v = j, (1 << j) - 1
            j += 1
            e += 1
            d = 2
        leaves.append((m + e, v << e))
        while d <= e:
            stack.append((m + d, (v << d) | 1))
            d += 1
    leaves.append((j, (1 << j) - 1))
    return leaves


def from_normal_form(nf: NormalFormWord) -> GroupElement:
    """The canonical element of a normal form, built in time linear in
    its leaves: a_i is the exponent of leaf i of the range tree and b_i
    of leaf i of the domain tree, the shorter tree padded with
    exponent-0 leaves.  A valid normal form gives a reduced pair."""
    pos, neg = _exponent_counts(nf.positive), _exponent_counts(nf.negative)
    n = max(_leaves_needed(pos), _leaves_needed(neg))
    # recorded as in F: scanning it in `to_normal_form` made word-problem `nf` 9 % slower
    return _element(tuple(map(add, _tree_leaves(pos, n), _tree_leaves(neg, n))), True)


def _leaf_exponents(leaves: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """Each index i repeated a_i times, a_i the exponent of leaf i.

    Write leaf i as stem + "1"^r, r its trailing zero bits.  Its exponent
    is the length r of the left path ending at the leaf, less one when
    that path starts on the right side of the tree (the stem is all "2"s,
    all one bits), since the path may not reach the right side.
    """
    out: list[int] = []
    for i, (n, v) in enumerate(leaves):
        r = (v & -v).bit_length() - 1 if v else n
        out += [i] * (r - 1 if r and (v >> r) + 1 == 1 << (n - r) else r)
    return tuple(out)


def to_normal_form(f: GroupElement) -> NormalFormWord:
    """Unique normal form of an order-preserving element.

    The canonical terms of f form its reduced tree pair, sorted by alpha
    and so also by beta.  The normal form x_0^a_0 ... x_n^a_n
    x_n^-b_n ... x_0^-b_0 reads a_i off leaf i of the range tree (the
    alpha words) and b_i off leaf i of the domain tree (the beta words);
    see Cannon, Floyd and Parry, "Introductory notes on Richard
    Thompson's groups", Enseign. Math. 42 (1996), section 2.  The result
    is certified by building its tree pair back with `from_normal_form`
    and comparing that pair with the terms of f.
    """
    if not is_order_preserving(f):
        raise NotInF("normal forms exist only for order-preserving elements")
    nf = NormalFormWord(
        _leaf_exponents(map(itemgetter(0, 1), f._quads)),
        _leaf_exponents(map(itemgetter(2, 3), f._quads)),
    )
    if from_normal_form(nf) != f:
        raise AssertionError(f"normal form {nf} does not reproduce {f}")
    return nf


@cache
def _generators() -> tuple[tuple[str, GroupElement], ...]:
    x0, x1 = gen_x(0), gen_x(1)
    return (("x0", x0), ("x0^-1", inverse(x0)), ("x1", x1), ("x1^-1", inverse(x1)))


def _ball_walk(radius: int) -> Iterator[tuple[int, GroupElement]]:
    """(r, g) for the distinct elements g of word length <= radius over
    x0^+-1, x1^+-1, r the word length of g, yielded lazily in breadth-first
    discovery order (deterministic)."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    gens = [g for _, g in _generators()]
    frontier = [GroupElement.identity()]
    seen = {frontier[0]}
    yield 0, frontier[0]
    for r in range(1, radius + 1):
        nxt: list[GroupElement] = []
        for f in frontier:
            for g in gens:
                h = multiply(f, g)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
                    yield r, h
        frontier = nxt


def generator_ball(radius: int) -> list[GroupElement]:
    """Distinct elements of word length <= radius over x0^+-1, x1^+-1,
    in breadth-first discovery order (deterministic)."""
    return [g for _, g in _ball_walk(radius)]
