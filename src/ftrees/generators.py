"""The generator family x_k, normal forms, and the word problem for F.

x_0 = S_11 S_1* + S_12 S_21* + S_2 S_22* and
x_k = 1 - S_2^k S_2*^k + S_2^k x_0 S_2*^k for k >= 1.

Every element of F has a unique normal form
x_{j1} ... x_{jk} x_{il}^-1 ... x_{i1}^-1 with both index lists
non-decreasing, jk != il, and: if m occurs in both lists then m+1 occurs
in at least one of them.  Its exponents are the leaf exponents of the
reduced tree pair of the element (Cannon, Floyd and Parry, section 2),
so `to_normal_form` reads both lists off the canonical terms in one
pass, and `from_normal_form` builds both trees in one walk over their
leaves, holding only the root of each tree's next subtree.
`to_normal_form` certifies its result by comparing that directly built
pair with the element.
"""

from __future__ import annotations

from functools import cache
from itertools import count
from typing import Iterable

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
        pos, neg = set(positive), set(negative)
        both, either = pos & neg, pos | neg
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


def from_normal_form(nf: NormalFormWord) -> GroupElement:
    """The canonical element of a normal form, built in one walk over the
    leaves of both trees, leaf i with exponent a_i in the range tree and
    b_i in the domain tree; a valid normal form gives a reduced pair.

    Each tree's walk holds only the root (m, v) of its next subtree.  Leaf
    i is that root followed by "1"^e, e the exponent plus one on the right
    spine (all "2"s, v + 1 = 2^m), where a left path may not start.  After
    a leaf u 1 2^q the next root is u 2, (m - q, (v >> q) + 1).  Once both
    exponent lists are used up and both roots are on the spine, the root
    is the last leaf.
    """
    n = max(nf.positive[-1:] + nf.negative[-1:], default=-1) + 1
    pos, neg = [0] * n, [0] * n
    for i in nf.positive:
        pos[i] += 1
    for i in nf.negative:
        neg[i] += 1
    quads = []
    ma = va = mb = vb = 0  # the roots of the next range and domain subtrees
    for i in count():
        sa, sb = va + 1 == 1 << ma, vb + 1 == 1 << mb
        if i < n:
            ea, eb = pos[i] + sa, neg[i] + sb
        elif sa and sb:
            break
        else:
            ea, eb = sa, sb
        quads.append((ma + ea, va << ea, mb + eb, vb << eb))
        # e > 0: the next root is leaf | 1; without this the walk took 9 % longer (2 vCPUs)
        if ea:
            ma, va = ma + ea, va << ea | 1
        else:
            q = (va ^ va + 1).bit_length() - 1
            ma, va = ma - q, (va >> q) + 1
        if eb:
            mb, vb = mb + eb, vb << eb | 1
        else:
            q = (vb ^ vb + 1).bit_length() - 1
            mb, vb = mb - q, (vb >> q) + 1
    quads.append((ma, va, mb, vb))
    # recorded as in F: scanning it in `to_normal_form` made word-problem `nf` 9 % slower
    return _element(tuple(quads), True)


def _leaf_exponents(f: GroupElement) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(positive, negative), each index i repeated a_i and b_i times, the
    exponents of leaf i of the range and the domain tree, in one pass.

    A leaf is stem + "1"^r, r its trailing zero bits (none when odd).  Its
    exponent is r, less one when the stem is all "2"s (all one bits): a
    left path from the right spine may not reach the right side.
    """
    pos: list[int] = []
    neg: list[int] = []
    for i, (la, va, lb, vb) in enumerate(f._quads):
        # r - 1 is -1 only for the one-leaf tree, and [i] * -1 is empty
        if not va & 1:
            r = (va & -va).bit_length() - 1 if va else la
            pos += [i] * (r - ((va >> r) + 1 == 1 << (la - r)))
        if not vb & 1:
            r = (vb & -vb).bit_length() - 1 if vb else lb
            neg += [i] * (r - ((vb >> r) + 1 == 1 << (lb - r)))
    return tuple(pos), tuple(neg)


def to_normal_form(f: GroupElement) -> NormalFormWord:
    """Unique normal form of an order-preserving element.

    The canonical terms of f form its reduced tree pair, sorted by alpha
    and so also by beta.  The normal form x_0^a_0 ... x_n^a_n
    x_n^-b_n ... x_0^-b_0 reads a_i off leaf i of the range tree (the
    alpha words) and b_i off leaf i of the domain tree (the beta words),
    both in one pass over the terms; see Cannon, Floyd and Parry,
    "Introductory notes on Richard Thompson's groups", Enseign. Math. 42
    (1996), section 2.  The result is certified by building its tree pair
    back with `from_normal_form` and comparing that pair with the terms
    of f.
    """
    if not is_order_preserving(f):
        raise NotInF("normal forms exist only for order-preserving elements")
    nf = NormalFormWord(*_leaf_exponents(f))
    if from_normal_form(nf) != f:
        raise AssertionError(f"normal form {nf} does not reproduce {f}")
    return nf


@cache
def _generators() -> tuple[tuple[str, GroupElement], ...]:
    x0, x1 = gen_x(0), gen_x(1)
    return (("x0", x0), ("x0^-1", inverse(x0)), ("x1", x1), ("x1^-1", inverse(x1)))


def generator_ball(radius: int) -> list[GroupElement]:
    """Distinct elements of word length <= radius over x0^+-1, x1^+-1,
    in breadth-first discovery order (deterministic), sphere by sphere:
    each element of the last sphere times each generator, in turn.  Every
    generator flips the exponent sum mod 2, a homomorphism F -> Z/2, so a
    neighbour of an element of length r has length r - 1 or r + 1: the
    sphere before last and the new sphere are all the dedupe needs."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    gens = [g for _, g in _generators()]
    inner, sphere = [], [GroupElement.identity()]
    ball = list(sphere)
    for _ in range(radius):
        seen, out = set(inner), []
        for f in sphere:
            for g in gens:
                h = multiply(f, g)
                if h not in seen:
                    seen.add(h)
                    out.append(h)
        inner, sphere = sphere, out
        ball += sphere
    return ball
