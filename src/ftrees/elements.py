"""Finite word sums S_a S_b* as group elements of V (and F, T).

A term (alpha, beta) stands for the partial isometry S_alpha S_beta*; a
unitary finite sum of such terms is a bijection between two complete
codes, i.e. a tree-pair diagram.  The canonical form is fully
sibling-reduced and sorted by the alpha word, which makes equality the
word problem.  Terms are checked once, by `validate_unitary`; what is
built from checked elements is not checked again.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Sequence

from ._packed import PackedElement
from .words import CompleteCode, _merge_walk, word_to_str


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


def _reduce_terms(terms: Iterable[Term]) -> tuple[Term, ...]:
    """Exhaust the sibling-merge rule; the result is order independent.

    Terms (g1, d1) and (g2, d2) merge to (g, d).  In alpha-sorted order a
    mergeable pair is always adjacent, so one stack pass suffices.
    """
    stack: list[Term] = []
    for t in sorted(terms):
        stack.append(t)
        while len(stack) >= 2:
            a, b = stack[-2], stack[-1]
            if (
                a.alpha.endswith("1")
                and a.beta.endswith("1")
                and b.alpha == a.alpha[:-1] + "2"
                and b.beta == a.beta[:-1] + "2"
            ):
                stack[-2:] = [Term(a.alpha[:-1], a.beta[:-1])]
            else:
                break
    return tuple(stack)


@dataclass(frozen=True)
class GroupElement:
    """Canonical (reduced, alpha-sorted) unitary word sum.

    Construct through :func:`validate_unitary` / :meth:`from_terms`; the
    raw constructor trusts its input.
    """

    terms: tuple[Term, ...]

    @classmethod
    def from_terms(cls, pairs: Iterable[tuple[str, str]]) -> "GroupElement":
        return validate_unitary([Term(a, b) for a, b in pairs])

    @classmethod
    def identity(cls) -> "GroupElement":
        return cls((Term("", ""),))

    def range_code(self) -> CompleteCode:
        return CompleteCode(t.alpha for t in self.terms)

    def domain_code(self) -> CompleteCode:
        return CompleteCode(t.beta for t in self.terms)

    def is_identity(self) -> bool:
        return self.terms == (Term("", ""),)

    @cached_property
    def _interval_map(self) -> Optional[PackedElement]:
        """The interval map of `omega.act`, compiled once; None outside F."""
        return PackedElement(self.terms) if is_order_preserving(self) else None

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return multiply(self, other)

    def __invert__(self) -> "GroupElement":
        return inverse(self)

    def __str__(self) -> str:
        return " + ".join(str(t) for t in self.terms)

    def __repr__(self) -> str:
        return f"GroupElement({self})"


def validate_unitary(terms: Sequence[Term]) -> GroupElement:
    """Canonicalize a term list, checking the unitarity conditions.

    The sum is unitary iff the alpha words and the beta words each form a
    complete code (which checks every word); the lex pairing between the
    codes is then a bijection.
    """
    if not terms:
        raise NotUnitary("empty term list (group elements are never zero)")
    for side, words in (("range", [t.alpha for t in terms]), ("domain", [t.beta for t in terms])):
        try:
            CompleteCode(words)
        except ValueError as exc:
            raise NotUnitary(f"{side} side: {exc}") from exc
    return GroupElement(_reduce_terms(terms))


def reduce(terms: Sequence[Term]) -> GroupElement:
    """Canonical element for an (possibly unreduced) unitary term list."""
    return validate_unitary(terms)


def refine(u: GroupElement, target: CompleteCode, side: Side) -> list[Term]:
    """Equivalent unreduced term list whose chosen-side code equals `target`.

    Each term splits by appending the same suffix to both of its words,
    so every term degree is preserved.
    """
    key = (lambda t: t.beta) if side is Side.DOMAIN else (lambda t: t.alpha)
    terms = sorted(u.terms, key=key)
    out: list[Term] = []
    for i, j, piece in _merge_walk([key(t) for t in terms], target.words):
        t = terms[i]
        if len(piece) > len(target.words[j]):
            raise TargetNotARefinement(
                f"{target} does not refine the {side.value} word {word_to_str(piece)}"
            )
        s = piece[len(key(t)):]
        out.append(Term(t.alpha + s, t.beta + s))
    return sorted(out)


def multiply_terms(
    u: GroupElement, w: GroupElement, via: CompleteCode | None = None
) -> list[Term]:
    """Unreduced term list of the product uw, matched over the code `via`.

    `via` must refine both u's domain code and w's range code; by default
    the coarsest such code is used.  This is the raw matching stage of
    :func:`multiply`, exposed so the intermediate term lists can be
    inspected (they are generally not sibling-reduced).
    """
    # refined to `via`, both middle codes are `via`: the walk pairs them one to one
    us = sorted(u.terms if via is None else refine(u, via, Side.DOMAIN), key=lambda t: t.beta)
    ws = w.terms if via is None else refine(w, via, Side.RANGE)
    out = []
    for i, j, piece in _merge_walk([t.beta for t in us], [t.alpha for t in ws]):
        s, t = us[i], ws[j]
        out.append(Term(s.alpha + piece[len(s.beta):], t.beta + piece[len(t.alpha):]))
    return sorted(out)


def multiply(u: GroupElement, w: GroupElement) -> GroupElement:
    """Product uw in composition order: w applied first, then u."""
    return GroupElement(_reduce_terms(multiply_terms(u, w)))


def inverse(u: GroupElement) -> GroupElement:
    """Swap alpha and beta in every term; reducedness is preserved."""
    return GroupElement(tuple(sorted(Term(t.beta, t.alpha) for t in u.terms)))


def is_order_preserving(u: GroupElement) -> bool:
    """Membership in F: the bipartite diagram has no crossings, so in the
    canonical alpha order of the terms the betas are sorted too."""
    betas = [t.beta for t in u.terms]
    return betas == sorted(betas)


def is_cyclic_order_preserving(u: GroupElement) -> bool:
    """Membership in T: order preserving up to rotation, so in the canonical
    alpha order of the terms the betas are sorted once the least is rotated first."""
    betas = [t.beta for t in u.terms]
    first = betas.index(min(betas))
    return betas[first:] + betas[:first] == sorted(betas)


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
    return max(abs(t.degree) for t in u.terms)


def abelianization(u: GroupElement) -> tuple[int, int]:
    """Log2 slopes at 0 and 1; a homomorphism F -> Z^2.

    The slope at 0 is |beta| - |alpha| of the lex-first term, at 1 of the
    lex-last term.
    """
    if not is_order_preserving(u):
        raise NotInF("abelianization is defined on order-preserving elements")
    first, last = u.terms[0], u.terms[-1]
    return (-first.degree, -last.degree)


def in_commutator_subgroup(u: GroupElement) -> bool:
    return abelianization(u) == (0, 0)
