"""Independent oracles the tests check the library against.

Everything here deliberately avoids the library's own computation paths:
elements are modelled as piecewise-linear maps over exact fractions,
generator actions are hardcoded from their closed forms, the action on
projections is string transport of support words, refinement and
multiplication are prefix scans and a dictionary match, a generator
word is multiplied out letter by letter from the closed form of x_k and
sibling-merged to a fixed point over a dictionary, normal forms are
read off leaf words by counting trailing letters, codes are
checked by a prefix scan of their sorted words, F and T membership is
read off the position map of the two sorted codes, traces and set
operations are exact fractions on the covered region of [0, 1), tree
windows are dense vertex sets moved by string transport,
realizability is decided by exhausting fill counts, the parity tree of
a realize witness is grown on sorted support words, the generator ball
is walked breadth first over words and deduplicated by their
letter-by-letter products, the orbit of 1 is walked breadth first by
string transport under the closed-form generators, and a separating
point is searched along that walk.
"""

from __future__ import annotations

import math
import random
import sys
from bisect import bisect_right
from fractions import Fraction
from functools import cache

from ftrees.elements import GroupElement, Side, TargetNotARefinement, Term
from ftrees.generators import NormalFormWord
from ftrees.omega import ONE, DiagonalProjection, act
from ftrees.words import CompleteCode, check_word, word_to_str


def interval_of_word(w: str) -> tuple[Fraction, Fraction]:
    lo = Fraction(0)
    for i, ch in enumerate(w):
        if ch == "2":
            lo += Fraction(1, 2 ** (i + 1))
    return lo, lo + Fraction(1, 2 ** len(w))


def eval_element(f: GroupElement, x: Fraction) -> Fraction:
    """The PL homeomorphism of [0,1]: each term maps its beta interval
    affinely onto its alpha interval."""
    for t in f.terms:
        b_lo, b_hi = interval_of_word(t.beta)
        if b_lo <= x < b_hi or (x == 1 and b_hi == 1):
            a_lo, a_hi = interval_of_word(t.alpha)
            return a_lo + (x - b_lo) * (a_hi - a_lo) / (b_hi - b_lo)
    raise AssertionError(f"no term covers {x}")


def _merged(intervals) -> list[tuple[Fraction, Fraction]]:
    out: list[tuple[Fraction, Fraction]] = []
    for lo, hi in sorted(intervals):
        if out and out[-1][1] == lo:
            out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return out


def witnesses_orbit_point(f: GroupElement, p: DiagonalProjection) -> bool:
    """Whether f is in F and f . 1 = p, read off the intervals of f's terms.

    In beta order the beta intervals and the alpha intervals must each
    tile [0, 1] left to right (an increasing PL map), and the alpha
    intervals of the even-degree terms must cover exactly the intervals
    of p's support.
    """
    terms = sorted(f.terms, key=lambda t: interval_of_word(t.beta))
    for side in (lambda t: t.beta, lambda t: t.alpha):
        end = Fraction(0)
        for t in terms:
            lo, hi = interval_of_word(side(t))
            if lo != end:
                return False
            end = hi
        if end != 1:
            return False
    even = [t.alpha for t in terms if (len(t.alpha) - len(t.beta)) % 2 == 0]
    return _merged(map(interval_of_word, even)) == _merged(
        map(interval_of_word, p.support)
    )


def region(p: DiagonalProjection) -> list[tuple[Fraction, Fraction]]:
    """The subset of [0, 1) that p projects onto, as merged exact intervals."""
    return _merged(map(interval_of_word, p.support))


def combine(op, *regions) -> list[tuple[Fraction, Fraction]]:
    """The region where `op` of the regions' memberships holds.

    Every membership is constant between consecutive endpoints, so each
    piece is decided at its midpoint.
    """
    cuts = sorted({Fraction(0), Fraction(1)} | {x for r in regions for iv in r for x in iv})

    def inside(r, x):
        i = bisect_right(r, (x, Fraction(2))) - 1
        return i >= 0 and x < r[i][1]

    return _merged(
        (a, b) for a, b in zip(cuts, cuts[1:]) if op(*(inside(r, (a + b) / 2) for r in regions))
    )


def measure(r: list[tuple[Fraction, Fraction]]) -> Fraction:
    """Total length of a region."""
    return sum((hi - lo for lo, hi in r), Fraction(0))


def windows_settle(seq, k: int) -> bool:
    """Whether, for every vertex v of length <= k, "I(v) meets q" and "I(v)
    meets 1 - q" read the same for every q in the last half of `seq`."""

    def meets(r, v):
        lo, hi = interval_of_word(v)
        return any(a < hi and lo < b for a, b in r)

    vertices = [v for d in range(k + 1) for v in _all_words(d)]
    signatures = {
        tuple((meets(region(q), v), meets(combine(lambda x: not x, region(q)), v)) for v in vertices)
        for q in seq[len(seq) // 2 :]
    }
    return len(signatures) <= 1


def complement_by_paths(p: DiagonalProjection) -> DiagonalProjection:
    """1 - p as the siblings w[:i] + flip(w[i]) of the vertices on the
    paths to the support words that are not themselves on such a path."""
    if not p.support:
        return DiagonalProjection([""])
    on_path = {w[:i] for w in p.support for i in range(len(w) + 1)}
    out = {
        w[:i] + ("2" if w[i] == "1" else "1")
        for w in p.support
        for i in range(len(w))
    }
    return DiagonalProjection(out - on_path)


def _transport(support, beta: str, alpha: str) -> list[str]:
    """Support of S_alpha (S_beta* p S_beta) S_alpha*: the part of p under
    beta, re-rooted at alpha."""
    out = []
    for w in support:
        if w.startswith(beta):
            out.append(alpha + w[len(beta):])
        elif beta.startswith(w):
            out.append(alpha)  # an antichain holds at most one prefix of beta
    return out


def term_images(f: GroupElement, p: DiagonalProjection) -> list[list[str]]:
    """The words each term of f carries p to, in alpha order: an
    even-degree term re-roots the words of p under its beta at its alpha,
    an odd-degree term those of 1 - p."""
    comp = complement_by_paths(p).support
    return [
        _transport(comp if (len(t.alpha) - len(t.beta)) % 2 else p.support, t.beta, t.alpha)
        for t in sorted(f.terms, key=lambda t: interval_of_word(t.alpha))
    ]


def act_by_transport(f: GroupElement, p: DiagonalProjection) -> DiagonalProjection:
    """f . p = f_0 p f_0* + f_1 (1 - p) f_1* by moving support words."""
    return DiagonalProjection([w for image in term_images(f, p) for w in image])


def support_vertices(support, k: int) -> frozenset[str]:
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


def window_by_vertices(p: DiagonalProjection, k: int) -> tuple[frozenset[str], frozenset[str]]:
    """The vertex sets of the depth-k window of (p, 1 - p)."""
    return support_vertices(p.support, k), support_vertices(complement_by_paths(p).support, k)


def rounded_region(r: list[tuple[Fraction, Fraction]], k: int) -> list[tuple[Fraction, Fraction]]:
    """The union of the 2^-k cells that meet a region: the frontier of its
    depth-k window, by exact floor and ceiling."""
    scale = 2**k
    out: list[tuple[Fraction, Fraction]] = []
    for lo, hi in r:
        lo, hi = Fraction(math.floor(lo * scale), scale), Fraction(math.ceil(hi * scale), scale)
        if out and lo <= out[-1][1]:  # rounding can make neighbours overlap
            out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return out


def is_tree(vertices: frozenset[str], k: int) -> bool:
    """Whether a vertex set is a depth-k window of a leafless tree: no
    vertex below k, every parent present, and no leaf above depth k."""
    return all(
        len(v) <= k
        and (not v or v[:-1] in vertices)
        and (len(v) == k or v + "1" in vertices or v + "2" in vertices)
        for v in vertices
    )


def admissible(x: Fraction) -> bool:
    """Whether x = k / 2^(2m+1) with k = 2 (mod 3): a trace in Omega_2."""
    k, e = x.numerator, x.denominator.bit_length() - 1
    assert x.denominator == 2**e
    if e % 2 == 0:
        k, e = 2 * k, e + 1
    return k % 3 == 2


def pattern_window(pattern: str) -> tuple[int, frozenset[str], frozenset[str]]:
    """(k, left, right) of the window whose depth-k cells, left to right,
    are the letters of `pattern`: L in the left tree only, R in the right
    tree only, B in both, - in neither."""
    k = len(pattern).bit_length() - 1
    assert len(pattern) == 1 << k
    cells = _all_words(k)
    left = [c for c, s in zip(cells, pattern) if s in "LB"]
    right = [c for c, s in zip(cells, pattern) if s in "RB"]
    return k, support_vertices(left, k), support_vertices(right, k)


def transport_tree(
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


def act_on_window(
    f: GroupElement, left: frozenset[str], right: frozenset[str], k: int
) -> tuple[frozenset[str], frozenset[str]]:
    """The depth-(k - height) window of f . (left, right) by tree transport:
    even-degree terms carry each tree to its own side, odd-degree terms to
    the other side."""
    degrees = [len(t.alpha) - len(t.beta) for t in f.terms]
    out_depth = k - max(map(abs, degrees))
    new_left: set[str] = set()
    new_right: set[str] = set()
    for t, d in zip(f.terms, degrees):
        src_left, src_right = (right, left) if d % 2 else (left, right)
        transport_tree(src_left, t.beta, t.alpha, out_depth, new_left)
        transport_tree(src_right, t.beta, t.alpha, out_depth, new_right)
    return frozenset(new_left), frozenset(new_right)


def pl_equal(f: GroupElement, g_values: dict[Fraction, Fraction], grid_exp: int) -> bool:
    """Whether f agrees with tabulated values on the 2^-grid_exp grid."""
    step = Fraction(1, 2 ** grid_exp)
    x = Fraction(0)
    while x <= 1:
        if eval_element(f, x) != g_values[x]:
            return False
        x += step
    return True


def compose_values(
    u: GroupElement, w: GroupElement, grid_exp: int
) -> dict[Fraction, Fraction]:
    """x -> u(w(x)) tabulated on the grid."""
    step = Fraction(1, 2 ** grid_exp)
    out = {}
    x = Fraction(0)
    while x <= 1:
        out[x] = eval_element(u, eval_element(w, x))
        x += step
    return out


def composition_agrees(h: GroupElement, u: GroupElement, w: GroupElement) -> bool:
    """Whether h = u o w (w first) as maps of [0, 1), V elements included.

    Each map sends I(beta) affinely onto I(alpha), term by term.  Both
    sides are affine on each half-open piece between consecutive
    breakpoints of h, of w and of w^-1 at the breakpoints of u, so they
    agree everywhere iff they agree at each piece's left end and middle.
    """

    def pieces(f: GroupElement) -> list[tuple[Fraction, ...]]:
        return sorted((*interval_of_word(b), *interval_of_word(a)) for a, b in f.terms)

    def apply(ps: list[tuple[Fraction, ...]], x: Fraction) -> Fraction:
        b_lo, b_hi, a_lo, a_hi = ps[bisect_right(ps, (x, 2)) - 1]
        return a_lo + (x - b_lo) * (a_hi - a_lo) / (b_hi - b_lo)

    ph, pu, pw = pieces(h), pieces(u), pieces(w)
    pw_inv = sorted((a_lo, a_hi, b_lo, b_hi) for b_lo, b_hi, a_lo, a_hi in pw)
    cuts = {x for ps in (ph, pw) for piece in ps for x in piece[:2]}
    cuts |= {apply(pw_inv, y) for piece in pu for y in piece[:2] if y < 1}
    cuts = sorted(cuts)
    points = [x for a, b in zip(cuts, cuts[1:]) for x in (a, (a + b) / 2)]
    return all(apply(ph, x) == apply(pu, apply(pw, x)) for x in points)


def word_from_str(s: str) -> str:
    """The word written `s`, "e" for the empty word: the checking inverse
    of `word_to_str`."""
    if s == "e":
        return ""
    return check_word(s)


def exact_digits(n: int) -> str:
    """str(n) with CPython's limit on int-to-str conversion (4,300 digits by
    default, from 3.10.7 on) lifted for the one call."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def first_bad_letter(w: str) -> str | None:
    """The first character of w that is neither "1" nor "2", read one
    character at a time; None for a word."""
    for ch in w:
        if ch != "1" and ch != "2":
            return ch
    return None


def is_antichain(words) -> bool:
    """No word is a prefix of another, repeats included: sorting puts a
    word right before its extensions and its repeats."""
    ws = sorted(words)
    return not any(b.startswith(a) for a, b in zip(ws, ws[1:]))


def position_map(u: GroupElement) -> list[int]:
    """With both codes lex-sorted, the position of each term's alpha,
    indexed by the position of its beta: the identity in F, a rotation
    in T."""
    by_beta = sorted(u.terms, key=lambda t: t.beta)
    alpha_rank = {t.alpha: i for i, t in enumerate(sorted(u.terms))}
    return [alpha_rank[t.alpha] for t in by_beta]


def common_refinement_by_scan(a: tuple[str, ...], b: tuple[str, ...]) -> tuple[str, ...]:
    """Coarsest code refining two complete codes: each word of `a` that
    extends a word of `b` stays, any other is replaced by the words of `b`
    that extend it."""
    out: list[str] = []
    for w in a:
        if any(w.startswith(x) for x in b):
            out.append(w)
        else:
            out.extend(x for x in b if x.startswith(w) and x != w)
    return tuple(sorted(out))


def refine_by_scan(u: GroupElement, target: CompleteCode, side: Side) -> list[Term]:
    """u's terms split so that the chosen side's words are `target`; each
    term's words take the suffixes of the target words that extend its
    side word.  Raises TargetNotARefinement at the first term, in alpha
    order, that has none."""
    out: list[Term] = []
    for t in u.terms:
        w = t.beta if side is Side.DOMAIN else t.alpha
        if w in target.words:
            out.append(t)
            continue
        suffixes = sorted(x[len(w):] for x in target.words if x.startswith(w) and x != w)
        if not suffixes:
            raise TargetNotARefinement(
                f"{target} does not refine the {side.value} word {word_to_str(w)}"
            )
        out.extend(Term(t.alpha + s, t.beta + s) for s in suffixes)
    return sorted(out)


def multiply_terms_by_match(
    u: GroupElement, w: GroupElement, via: CompleteCode | None = None
) -> list[Term]:
    """Unreduced product uw: refine u's domain and w's range to `via` (by
    default their common refinement) and match the terms by middle word."""
    if via is None:
        via = CompleteCode(
            common_refinement_by_scan(
                tuple(sorted(t.beta for t in u.terms)), tuple(t.alpha for t in w.terms)
            )
        )
    by_middle = {t.beta: t for t in refine_by_scan(u, via, Side.DOMAIN)}
    return sorted(
        Term(by_middle[t.alpha].alpha, t.beta) for t in refine_by_scan(w, via, Side.RANGE)
    )


def generator_terms(k: int, sign: int = 1) -> tuple[Term, ...]:
    """x_k^sign from x_k = 1 - S_2^k S_2*^k + S_2^k x_0 S_2*^k with
    x_0 = S_11 S_1* + S_12 S_21* + S_2 S_22*; the inverse swaps sides."""
    s = "2" * k
    pairs = [("2" * j + "1", "2" * j + "1") for j in range(k)]
    pairs += [(s + "11", s + "1"), (s + "12", s + "21"), (s + "2", s + "22")]
    return tuple(sorted(Term(a, b) if sign > 0 else Term(b, a) for a, b in pairs))


def merge_siblings(terms) -> tuple[Term, ...]:
    """Merge (g1, d1) and (g2, d2) into (g, d) until no pair is left,
    looking siblings up by alpha word; alpha-sorted."""
    beta_of = {t.alpha: t.beta for t in terms}
    merged = True
    while merged:
        merged = False
        for a in list(beta_of):
            b = beta_of.get(a)
            if b is None or not (a.endswith("1") and b.endswith("1")):
                continue
            if beta_of.get(a[:-1] + "2") == b[:-1] + "2":
                del beta_of[a], beta_of[a[:-1] + "2"]
                beta_of[a[:-1]] = b[:-1]
                merged = True
    return tuple(sorted(Term(a, b) for a, b in beta_of.items()))


def times_letter(acc: GroupElement, k: int, sign: int) -> GroupElement:
    """acc x_k^sign by the dictionary match, sibling-merged."""
    g = GroupElement(generator_terms(k, sign))
    return GroupElement(merge_siblings(multiply_terms_by_match(acc, g)))


def product_of_word(letters) -> tuple[Term, ...]:
    """Canonical terms of a generator word of (index, sign) letters,
    multiplied out one letter at a time by the dictionary match."""
    acc = GroupElement((Term("", ""),))
    for k, sign in letters:
        acc = times_letter(acc, k, sign)
    return acc.terms


def leaf_exponents_by_words(leaves) -> tuple[int, ...]:
    """Each index i repeated a_i times, a_i the exponent of leaf word i:
    its trailing "1"s, less one when the stem before them is all "2"s."""
    out: list[int] = []
    for i, w in enumerate(leaves):
        stem = w.rstrip("1")
        r = len(w) - len(stem)
        out += [i] * (r - 1 if r and stem == "2" * len(stem) else r)
    return tuple(out)


def normal_form_by_words(f: GroupElement) -> NormalFormWord:
    """The normal form read off the leaf words of the range (alpha) and
    the domain (beta) tree of the reduced pair."""
    return NormalFormWord(
        leaf_exponents_by_words(t.alpha for t in f.terms),
        leaf_exponents_by_words(t.beta for t in f.terms),
    )


def random_normal_form(rng: random.Random, letters: int, top: int | None = None) -> NormalFormWord:
    """A valid normal form of exactly `letters` letters: sorted random
    indices up to `top` (default letters // 2, at least 2), then each
    violation mended by raising a negative index."""
    top = max(2, letters // 2) if top is None else top
    n_pos = rng.randint(0, letters)
    pos = sorted(rng.randint(0, top) for _ in range(n_pos))
    neg = sorted(rng.randint(0, top) for _ in range(letters - n_pos))
    while True:
        if pos and neg and pos[-1] == neg[-1]:
            neg[-1] += 1
            continue
        either = set(pos) | set(neg)
        bad = [m for m in set(pos) & set(neg) if m + 1 not in either]
        if not bad:
            return NormalFormWord(tuple(pos), tuple(neg))
        i = len(neg) - 1 - neg[::-1].index(min(bad))
        neg[i] += 1


def atoms_at_level(p: DiagonalProjection, level: int) -> frozenset[str]:
    out = set()
    for w in p.support:
        assert len(w) <= level
        tails = [""]
        for _ in range(level - len(w)):
            tails = [t + ch for t in tails for ch in ("1", "2")]
        out.update(w + t for t in tails)
    return frozenset(out)


def _all_words(level: int) -> list[str]:
    words = [""]
    for _ in range(level):
        words = [w + ch for w in words for ch in ("1", "2")]
    return words


def _sub(atoms: frozenset[str], prefix: str) -> frozenset[str]:
    """S_prefix* p S_prefix on level sets: strip the prefix."""
    n = len(prefix)
    return frozenset(w[n:] for w in atoms if w.startswith(prefix))


def _add(atoms: frozenset[str], prefix: str) -> frozenset[str]:
    return frozenset(prefix + w for w in atoms)


def _comp(atoms: frozenset[str], level: int) -> frozenset[str]:
    return frozenset(_all_words(level)) - atoms


def closed_form_action(
    name: str, p: DiagonalProjection, level: int | None = None
) -> frozenset[str]:
    """The four generator actions hardcoded piece by piece in closed form.

    Works on level sets: P_w is the set of its level-L atoms, S_w*(.)S_w
    strips prefixes, and the subtracted pieces are complements inside the
    indicated cylinder.  Returns the atom set of the result at level L+1
    (the pieces land at mixed depths and are expanded to compare).
    """
    if level is None:
        level = max((len(w) for w in p.support), default=0) + 3
    P = atoms_at_level(p, level)
    L = level

    def inner(prefix: str) -> frozenset[str]:
        # S_prefix* p S_prefix at resolution L - len(prefix)
        return _sub(P, prefix)

    if name == "x0":
        pieces = [
            _add(_comp(inner("1"), L - 1), "11"),
            _add(inner("21"), "12"),
            _add(_comp(inner("22"), L - 2), "2"),
        ]
    elif name == "x0^-1":
        pieces = [
            _add(_comp(inner("11"), L - 2), "1"),
            _add(inner("12"), "21"),
            _add(_comp(inner("2"), L - 1), "22"),
        ]
    elif name == "x1":
        pieces = [
            _add(inner("1"), "1"),
            _add(_comp(inner("21"), L - 2), "211"),
            _add(inner("221"), "212"),
            _add(_comp(inner("222"), L - 3), "22"),
        ]
    elif name == "x1^-1":
        pieces = [
            _add(inner("1"), "1"),
            _add(_comp(inner("211"), L - 3), "21"),
            _add(inner("212"), "221"),
            _add(_comp(inner("22"), L - 2), "222"),
        ]
    else:
        raise ValueError(name)
    out: set[str] = set()
    for piece in pieces:
        for w in piece:
            tails = [""]
            for _ in range(L + 1 - len(w)):
                tails = [t + ch for t in tails for ch in ("1", "2")]
            out.update(w + t for t in tails)
    return frozenset(out)


def enumerate_trees(depth: int) -> list[frozenset[str]]:
    """Vertex sets of all rooted leafless trees truncated at `depth`
    (the empty tree excluded)."""
    if depth == 0:
        return [frozenset([""])]
    smaller = enumerate_trees(depth - 1)
    out = []
    for left in [None, *smaller]:
        for right in [None, *smaller]:
            if left is None and right is None:
                continue
            vs = {""}
            if left is not None:
                vs.update("1" + v for v in left)
            if right is not None:
                vs.update("2" + v for v in right)
            out.append(frozenset(vs))
    return out


def brute_force_realizable(
    left: frozenset[str], right: frozenset[str], depth: int, level: int = 7
) -> bool:
    """Exhaust fill counts of all level-`level` supports matching the pair.

    Each depth-k cell is forced full (left only), forced empty (right
    only) or genuinely partial (shared); achievable totals are folded
    cell by cell and each is tested for the admissible-trace form.
    """
    cells = [w for w in _all_words(depth)]
    sub = 1 << (level - depth)
    totals = {0}
    for c in cells:
        in_l = c in left
        in_r = c in right
        if in_l and in_r:
            choices = range(1, sub)
        elif in_l:
            choices = (sub,)
        elif in_r:
            choices = (0,)
        else:
            return False  # uncovered cell: not a window on any (q, 1-q)
        totals = {t + j for t in totals for j in choices}
    for total in totals:
        if total == 0:
            continue
        # tau = total / 2^level in lowest terms, exponent raised to odd
        n, e = total, level
        while e > 0 and n % 2 == 0:
            n //= 2
            e -= 1
        if e % 2 == 0:
            n, e = 2 * n, e + 1
        if n % 3 == 2:
            return True
    return False


def solve_parities(items: list[tuple[str, int]]) -> list[Term]:
    """Terms (range word, domain word) pairing `items`, (word, required
    degree parity) in lex order, with the leaves of a binary tree whose
    leaf depths have the required parities.

    At a node of depth d an item weighs 1 if a leaf there would have even
    depth below the node, else 2.  A node splits where the prefix weight
    is 2 mod 3 nearest the middle (the smaller j on a tie); without one,
    the weight-1 item at an even position nearest the middle is split in
    two halves first.
    """

    def weights(items: list[tuple[str, int]], depth: int) -> list[int]:
        return [1 + (len(a) + odd + depth) % 2 for a, odd in items]

    total = sum(weights(items, 0)) % 3
    if total != 1:
        raise AssertionError(f"unsolvable parity sequence (weight {total})")
    terms: list[Term] = []
    stack = [("", items)]
    while stack:
        node, items = stack.pop()
        n = len(items)
        if n == 1:
            terms.append(Term(items[0][0], node))
            continue
        ws = weights(items, len(node))
        prefix, split = 0, None
        for j in range(1, n):
            prefix = (prefix + ws[j - 1]) % 3
            if prefix == 2 and (split is None or abs(2 * j - n) < abs(2 * split - n)):
                split = j
        if split is None:
            i = min(range(0, n, 2), key=lambda i: abs(2 * i + 1 - n))
            a, odd = items[i]
            items = items[:i] + [(a + "1", odd), (a + "2", odd)] + items[i + 1 :]
            split = i + 1
        stack.append((node + "2", items[split:]))
        stack.append((node + "1", items[:split]))
    return terms


def realize_by_words(p: DiagonalProjection) -> tuple[list[Term], int]:
    """The parity-tree terms for the sorted atoms of p and of 1 - p, and
    the number of atoms (fewer than the terms when an atom was split)."""
    items = sorted([(w, 0) for w in p.support] + [(w, 1) for w in complement_by_paths(p).support])
    return solve_parities(items), len(items)


@cache
def ball_by_words(radius: int) -> tuple[GroupElement, ...]:
    """The distinct elements of word length <= radius over x0^+-1, x1^+-1,
    breadth first: the ball of radius - 1, then each element of its last
    sphere times x0, x0^-1, x1 and x1^-1 in turn, by the letter step of
    `product_of_word`, each kept at its first sighting against every
    element seen so far."""
    if radius == 0:
        return (GroupElement((Term("", ""),)),)
    inner = ball_by_words(radius - 1)
    seen = {f.terms for f in inner}
    sphere: list[GroupElement] = []
    for f in inner[len(ball_by_words(radius - 2)) if radius > 1 else 0 :]:
        for k, sign in ((0, 1), (0, -1), (1, 1), (1, -1)):
            h = times_letter(f, k, sign)
            if h.terms not in seen:
                seen.add(h.terms)
                sphere.append(h)
    return inner + tuple(sphere)


@cache
def orbit_by_transport(radius: int) -> tuple[tuple[DiagonalProjection, ...], ...]:
    """The points of F/H_2 within radius steps of 1, level by level, breadth
    first: the levels of radius - 1, then each point of its last level moved
    by x0, x0^-1, x1 and x1^-1 in turn, built from their closed-form terms
    and applied by string transport, each kept at its first sighting
    against every point seen so far."""
    if radius == 0:
        return ((ONE,),)
    inner = orbit_by_transport(radius - 1)
    gens = [GroupElement(generator_terms(k, sign)) for k, sign in ((0, 1), (0, -1), (1, 1), (1, -1))]
    seen = {p for level in inner for p in level}
    level: list[DiagonalProjection] = []
    for p in inner[-1]:
        for g in gens:
            q = act_by_transport(g, p)
            if q not in seen:
                seen.add(q)
                level.append(q)
    return inner + (tuple(level),)


def separation_by_orbit(
    fs: list[GroupElement], max_radius: int
) -> tuple[DiagonalProjection, tuple[DiagonalProjection, ...]] | None:
    """The first point p along orbit_by_transport(max_radius), level by
    level, whose images under the family are pairwise distinct, and those
    images; None if there is none.  Every element is acted on, repeats
    included.  The walk grows one level at a time, only as far as the
    search goes."""
    for radius in range(max_radius + 1):
        for p in orbit_by_transport(radius)[radius]:
            images = tuple(act(f, p) for f in fs)
            if len(set(images)) == len(images):
                return p, images
    return None
