"""Seeded input generators.  They use `random.Random` and the models in
`oracle.py` only, never ftrees, so the library receives finished inputs.
"""

from __future__ import annotations

import random
from typing import Sequence

import oracle

Terms = tuple[tuple[str, str], ...]


def random_word(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("12") for _ in range(n))


def random_tree(rng: random.Random, leaves: int) -> list[str]:
    """Leaves, in lex order, of a binary tree grown by splitting a
    uniformly chosen leaf until it has `leaves` of them."""
    out = [""]
    while len(out) < leaves:
        i = rng.randrange(len(out))
        w = out[i]
        out[i : i + 1] = [w + "1", w + "2"]
    return out


def random_tree_pair(rng: random.Random, leaves: int) -> Terms:
    """Two random trees with the same number of leaves, paired in lex
    order: an element of F, not necessarily reduced."""
    return tuple(zip(random_tree(rng, leaves), random_tree(rng, leaves)))


def satisfies_side_condition(pos: Sequence[int], neg: Sequence[int]) -> bool:
    if any(a > b for a, b in zip(pos, pos[1:])) or any(a > b for a, b in zip(neg, neg[1:])):
        return False
    if pos and neg and pos[-1] == neg[-1]:
        return False
    return all(m + 1 in pos or m + 1 in neg for m in set(pos) & set(neg))


def random_normal_form(rng: random.Random, letters: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(positive, negative) index lists of a normal-form word with exactly
    `letters` letters.

    Indices are drawn from [0, letters // 2] and sorted.  The side
    condition is then enforced without changing the length: raising the
    last offending negative index by one keeps the list sorted and puts
    m + 1 in it; the loop ends because indices only grow.
    """
    n_pos = rng.randint(0, letters)
    top = max(2, letters // 2)
    pos = sorted(rng.randint(0, top) for _ in range(n_pos))
    neg = sorted(rng.randint(0, top) for _ in range(letters - n_pos))
    while not satisfies_side_condition(pos, neg):
        if pos and neg and pos[-1] == neg[-1]:
            neg[-1] += 1
            continue
        m = min(m for m in set(pos) & set(neg) if m + 1 not in pos and m + 1 not in neg)
        i = len(neg) - 1 - neg[::-1].index(m)
        neg[i] = m + 1
    return tuple(pos), tuple(neg)


def random_antichain(rng: random.Random, level: int, prefix: str = "") -> tuple[str, ...]:
    """A small admissible antichain whose deepest word has length `level`.

    A random spine of length `level`, starting with `prefix`, and the
    siblings along it form a complete code; random splits that stay above
    `level` refine it.  A random subset containing the spine is kept only
    if it passes the trace test and the spine survives sibling collapsing.
    """
    while True:
        spine = prefix + random_word(rng, level - len(prefix))
        code = [spine[:i] + ("2" if spine[i] == "1" else "1") for i in range(level)]
        for _ in range(rng.randint(0, 2 * level)):
            shallow = [i for i, w in enumerate(code) if len(w) < level - 1]
            if not shallow:
                break
            i = rng.choice(shallow)
            w = code[i]
            code[i : i + 1] = [w + "1", w + "2"]
        support = tuple(sorted([w for w in code if rng.random() < 0.5] + [spine]))
        if oracle.words_admissible(support) and _level(support) == level:
            return support


def random_atom_projection(rng: random.Random, level: int, lo: int, hi: int) -> tuple[str, ...]:
    """Canonical support of a random set of level-`level` atoms whose size
    is drawn from [lo, hi]; kept only if it passes the trace test and its
    canonical support still reaches `level`."""
    while True:
        atoms = rng.sample(range(1 << level), rng.randint(lo, hi))
        words = [oracle.atom_word(i, level) for i in atoms]
        if oracle.words_admissible(words):
            support = tuple(oracle.maximal_words(oracle.projection(words)))
            if max(map(len, support)) == level:
                return support


def _level(support: Sequence[str]) -> int:
    # deepest word of the canonical (sibling-collapsed) form
    return max(map(len, oracle.maximal_words(oracle.projection(support))))


def random_ball_element(rng: random.Random, length: int) -> Terms:
    """Reduced element of a random word of the given length in
    x0^+-1, x1^+-1."""
    terms: Terms = (("", ""),)
    for _ in range(length):
        terms = oracle.reduce_terms(oracle.compose(terms, rng.choice(oracle.GENERATORS)))
    return terms
