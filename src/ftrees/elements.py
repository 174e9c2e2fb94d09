"""Finite word sums S_a S_b* as group elements of V (and F, T).

A term (alpha, beta) stands for the partial isometry S_alpha S_beta*; a
unitary finite sum of such terms is a bijection between two complete
codes, i.e. a tree-pair diagram.  The canonical form is fully
sibling-reduced and sorted by the alpha word, which makes equality the
word problem.  A term is stored as the integer intervals of its words
(`words.Quad`), which products, inverses, F and T membership and normal
forms work on; words are made only at the edges.  Terms are checked
once, by `validate_unitary`; what is built from them is not rechecked.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Sequence

from ._frozen import Frozen
from ._packed import PackedElement, interval, word
from .words import (
    CompleteCode, Quad, _diagonal, _merge_walk, _read, _tiles, _tiling, word_to_str,
)


class NotUnitary(ValueError):
    """The term list does not describe a unitary: a side is not a complete code."""


class NotInF(ValueError):
    """The element is not order preserving."""


class TargetNotARefinement(ValueError):
    """The requested refinement code does not refine the element's code."""


class Side(Enum):
    DOMAIN = "domain"
    RANGE = "range"


class Term(NamedTuple):
    alpha: str
    beta: str

    @property
    def degree(self) -> int:
        """Gauge degree |alpha| - |beta| of S_alpha S_beta*."""
        return len(self.alpha) - len(self.beta)

    def __str__(self) -> str:
        return f"{word_to_str(self.alpha)}:{word_to_str(self.beta)}"


def _sorted(quads: Sequence[Quad], k: int) -> list[Quad]:
    """`quads` in left-to-right (lex) order of side k: 0 alpha, 2 beta."""
    top = max(q[k] for q in quads)
    return sorted(quads, key=lambda q: q[k + 1] << (top - q[k]))


def _reduce_terms(quads: Iterable[Quad]) -> tuple[Quad, ...]:
    """Exhaust the sibling-merge rule on alpha-sorted terms: (g1, d1) and
    (g2, d2), values v and v + 1 with v even on both sides, merge to
    (g, d).  A mergeable pair is adjacent, so one stack pass suffices."""
    stack: list[Quad] = []
    for q in quads:
        la, va, lb, vb = q
        # only a right sibling, odd on both sides, merges: without this test,
        # word-problem `mul` ran 17 % slower (in-process, Python 3.11.7, 2 vCPUs)
        while va & vb & 1 and stack:
            pa, pva, pb, pvb = stack[-1]
            if va != pva + 1 or vb != pvb + 1 or la != pa or lb != pb:
                break
            stack.pop()
            la, va, lb, vb = q = la - 1, pva >> 1, lb - 1, pvb >> 1
        stack.append(q)
    return tuple(stack)


class GroupElement(Frozen):
    """Canonical (reduced, alpha-sorted) unitary word sum.

    Each term is stored as its two intervals (`words.Quad`); `terms`, the
    word form, is made on first use and kept.  The constructor checks and
    canonicalizes (alpha, beta) pairs given in any order and refinement,
    as :func:`validate_unitary` does, raising `NotUnitary` if not unitary.
    """

    _quads: tuple[Quad, ...]

    def __init__(self, terms: Iterable[tuple[str, str]]) -> None:
        self.__dict__.update(validate_unitary(list(terms)).__dict__)

    def __reduce__(self):
        """The intervals and recorded F membership; never the cached `terms` or `_interval_map`."""
        return _element, (self._quads, self.__dict__.get("_in_f"))

    @cached_property
    def terms(self) -> tuple[Term, ...]:
        return tuple(Term(word(la, va), word(lb, vb)) for la, va, lb, vb in self._quads)

    @classmethod
    def from_terms(cls, pairs: Iterable[tuple[str, str]]) -> "GroupElement":
        return cls(pairs)

    @classmethod
    def identity(cls) -> "GroupElement":
        return _element(((0, 0, 0, 0),), True)

    def range_code(self) -> CompleteCode:
        return CompleteCode(t.alpha for t in self.terms)

    def domain_code(self) -> CompleteCode:
        return CompleteCode(t.beta for t in self.terms)

    def is_identity(self) -> bool:
        return self._quads == ((0, 0, 0, 0),)

    # kept, not rescanned per call: a scan per `multiply` made word-problem `mul` 25 % slower
    @cached_property
    def _in_f(self) -> bool:
        """`is_order_preserving`, by scan; a beta starts at vb / 2^lb."""
        q = self._quads
        return all(a[3] << b[2] < b[3] << a[2] for a, b in zip(q, q[1:]))

    @cached_property
    def _interval_map(self) -> Optional[PackedElement]:
        """The interval map of `omega.act`, compiled once; None outside F."""
        return PackedElement(self._quads) if self._in_f else None

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return multiply(self, other)

    def __invert__(self) -> "GroupElement":
        return inverse(self)

    def __str__(self) -> str:
        terms = [f"{word(la, va) or 'e'}:{word(lb, vb) or 'e'}" for la, va, lb, vb in self._quads]
        return " + ".join(terms)

    def __repr__(self) -> str:
        return f"GroupElement({self})"


def _element(quads: tuple[Quad, ...], in_f: Optional[bool] = None) -> GroupElement:
    # trusted constructor for reduced, alpha-sorted intervals; `in_f` is F membership, if known
    f = object.__new__(GroupElement)
    f.__dict__["_quads"] = quads
    if in_f is not None:
        f.__dict__["_in_f"] = in_f
    return f


def validate_unitary(terms: Sequence[tuple[str, str]]) -> GroupElement:
    """Canonicalize a term list, checking the unitarity conditions.

    The sum is unitary iff the alpha words and the beta words each form a
    complete code (which checks every word); the lex pairing between the
    codes is then a bijection.
    """
    return _from_words([a for a, _ in terms], [b for _, b in terms], {})


def _from_words(alphas: list[str], betas: list[str], table: dict) -> GroupElement:
    """`validate_unitary` of the terms (alphas[i], betas[i]), read through
    `table`.  Betas that tile in alpha order make an element of F, whose
    domain words need no sort of their own."""
    if not alphas:
        raise NotUnitary("empty term list (group elements are never zero)")
    side = "range"
    try:
        ints, order = _tiling(alphas, table)
        side = "domain"
        beta_ints = _read(betas, table)
        in_f = not _tiles([beta_ints[i] for i in order])
        if not in_f:
            _tiling(betas, table)  # the domain code in its own order, or its fault
    except ValueError as exc:
        raise NotUnitary(f"{side} side: {exc}") from exc
    return _element(_reduce_terms([ints[i] + beta_ints[i] for i in order]), in_f)


reduce = validate_unitary  # the canonical element of a possibly unreduced term list


def _refined(u: GroupElement, target: CompleteCode, side: Side) -> list[Quad]:
    """The terms of `refine`, in the order of `target`."""
    if side is Side.DOMAIN:
        k, out = 2, _merge_walk(_sorted(u._quads, 2), _diagonal(target))
    else:
        k, out = 0, _merge_walk(_diagonal(target), u._quads)
    if len(out) > len(target):
        # the first piece that is no target word is a word of u
        targets = set(map(interval, target.words))
        piece = next(q[k : k + 2] for q in out if q[k : k + 2] not in targets)
        raise TargetNotARefinement(
            f"{target} does not refine the {side.value} word {word_to_str(word(*piece))}"
        )
    return out


def _words(quads: Iterable[Quad]) -> list[Term]:
    return sorted(Term(word(la, va), word(lb, vb)) for la, va, lb, vb in quads)


def refine(u: GroupElement, target: CompleteCode, side: Side) -> list[Term]:
    """Equivalent unreduced term list whose chosen-side code equals `target`.

    Each term splits by appending the same suffix to both of its words,
    so every term degree is preserved.
    """
    return _words(_refined(u, target, side))


def multiply_terms(
    u: GroupElement, w: GroupElement, via: CompleteCode | None = None
) -> list[Term]:
    """Unreduced term list of the product uw, matched over the code `via`.

    `via` must refine both u's domain code and w's range code; by default
    the coarsest such code is used.  This is the raw matching stage of
    :func:`multiply`, exposed so the intermediate term lists can be
    inspected (they are generally not sibling-reduced).
    """
    if via is None:
        return _words(_merge_walk(_sorted(u._quads, 2), w._quads))
    # refined to `via`, both middle codes are `via`: the walk pairs them one to one
    return _words(_merge_walk(_refined(u, via, Side.DOMAIN), _refined(w, via, Side.RANGE)))


def multiply(u: GroupElement, w: GroupElement) -> GroupElement:
    """Product uw in composition order: w applied first, then u."""
    # no sorts for u in F: without this branch, word-problem `mul` ran 35.7 % slower
    if u._in_f:  # beta order is alpha order, in and out; uw is in F iff w is
        return _element(_reduce_terms(_merge_walk(u._quads, w._quads)), w.__dict__.get("_in_f"))
    return _element(_reduce_terms(_sorted(_merge_walk(_sorted(u._quads, 2), w._quads), 0)))


def inverse(u: GroupElement) -> GroupElement:
    """Swap alpha and beta in every term and sort by alpha; reducedness is preserved."""
    in_f = u.__dict__.get("_in_f")
    swapped = [(lb, vb, la, va) for la, va, lb, vb in u._quads]
    # recorded in F, beta order is alpha order: sorted anyway, inverses in F took 3x as long
    return _element(tuple(swapped if in_f else _sorted(swapped, 0)), in_f)


def is_order_preserving(u: GroupElement) -> bool:
    """Membership in F: the bipartite diagram has no crossings, so in the
    canonical alpha order of the terms the betas are sorted too.

    The answer is kept on the element, and the constructors that learn it
    record it at no cost: parsing (the betas tile in alpha order or not),
    `identity`, `from_normal_form`, products uw with u in F (uw is in F
    iff w is) and inverses.  `omega.realize` records nothing, since its
    certificate is this very scan.
    """
    return u._in_f


def is_cyclic_order_preserving(u: GroupElement) -> bool:
    """Membership in T: order preserving up to rotation, so in the canonical
    alpha order of the terms the betas, read cyclically, step back at most once."""
    q = u._quads
    return sum(a[3] << b[2] > b[3] << a[2] for a, b in zip(q, q[1:] + q[:1])) <= 1


def parity_split(u: GroupElement) -> tuple[tuple[Term, ...], tuple[Term, ...]]:
    """(even-degree terms, odd-degree terms) of the canonical form.

    Negative even degrees count as even; this is the ZZ/2 gauge grading,
    under which (fg)_0 = f_0 g_0 + f_1 g_1.
    """
    even = tuple(t for t in u.terms if t.degree % 2 == 0)
    odd = tuple(t for t in u.terms if t.degree % 2 != 0)
    return even, odd


def height(u: GroupElement) -> int:
    """Max |degree| over the reduced terms (the Lipschitz exponent)."""
    return max(abs(la - lb) for la, _, lb, _ in u._quads)


def abelianization(u: GroupElement) -> tuple[int, int]:
    """Log2 slopes at 0 and 1; a homomorphism F -> Z^2.

    The slope at 0 is |beta| - |alpha| of the lex-first term, at 1 of the
    lex-last term.
    """
    if not is_order_preserving(u):
        raise NotInF("abelianization is defined on order-preserving elements")
    (la, _, lb, _), (ma, _, mb, _) = u._quads[0], u._quads[-1]
    return (lb - la, mb - ma)


def in_commutator_subgroup(u: GroupElement) -> bool:
    return abelianization(u) == (0, 0)
