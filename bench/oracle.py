"""Small independent models the benchmark checks the library against.

Nothing here calls ftrees.  Words are strings over {"1", "2"}; a word w
names the dyadic interval I(w) of [0, 1].  A diagonal projection is kept
as a sorted tuple of disjoint, merged intervals with exact Fraction
endpoints, so two projections are equal exactly when their tuples are.
An element of F is a list of (alpha, beta) terms, each mapping I(beta)
affinely onto I(alpha).
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from typing import Iterable, Sequence

Interval = tuple[Fraction, Fraction]
Terms = Sequence[tuple[str, str]]

_BITS = str.maketrans("12", "01")
_LETTERS = str.maketrans("01", "12")


def interval(w: str) -> Interval:
    lo = Fraction(int(w.translate(_BITS), 2) if w else 0, 1 << len(w))
    return lo, lo + Fraction(1, 1 << len(w))


def atom_word(index: int, level: int) -> str:
    """The word of the index-th level-`level` cylinder in lex order."""
    return format(index, "b").zfill(level).translate(_LETTERS) if level else ""


def merge(intervals: Iterable[Interval]) -> tuple[Interval, ...]:
    out: list[list[Fraction]] = []
    for lo, hi in sorted(intervals):
        if out and out[-1][1] >= lo:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return tuple((lo, hi) for lo, hi in out)


def projection(words: Iterable[str]) -> tuple[Interval, ...]:
    """Merged intervals of the union of the cylinders of `words`."""
    return merge(interval(w) for w in words)


def maximal_words(p: Sequence[Interval]) -> list[str]:
    """The maximal dyadic cylinders tiling p, in lex order: the canonical
    (sibling-collapsed) support."""
    out = []
    for lo, hi in p:
        while lo < hi:
            j = 0
            while (lo * (1 << j)).denominator != 1 or lo + Fraction(1, 1 << j) > hi:
                j += 1
            out.append(atom_word(int(lo * (1 << j)), j))
            lo += Fraction(1, 1 << j)
    return out


def complement(p: Sequence[Interval]) -> tuple[Interval, ...]:
    out = []
    at = Fraction(0)
    for lo, hi in p:
        if lo > at:
            out.append((at, lo))
        at = hi
    if at < 1:
        out.append((at, Fraction(1)))
    return tuple(out)


def act(terms: Terms, p: Sequence[Interval]) -> tuple[Interval, ...]:
    """f . p = f_0 p f_0* + f_1 (1 - p) f_1*, computed on intervals.

    An even-degree term carries the part of p inside I(beta) onto I(alpha);
    an odd-degree term carries the part of 1 - p instead.
    """
    comp = complement(p)
    out = []
    for a, b in terms:
        src = p if (len(a) - len(b)) % 2 == 0 else comp
        b_lo, b_hi = interval(b)
        a_lo, _ = interval(a)
        scale = Fraction(1 << len(b), 1 << len(a))
        for lo, hi in src:
            x0, x1 = max(lo, b_lo), min(hi, b_hi)
            if x0 < x1:
                out.append((a_lo + (x0 - b_lo) * scale, a_lo + (x1 - b_lo) * scale))
    return merge(out)


def is_admissible_trace(num: int, exp: int) -> bool:
    """Omega_2 trace test for tau = num / 2^exp: in lowest terms, with the
    exponent raised to an odd value, the numerator is 2 mod 3."""
    if num <= 0:
        return False
    while exp > 0 and num % 2 == 0:
        num //= 2
        exp -= 1
    if exp % 2 == 0:
        num, exp = 2 * num, exp + 1
    return num % 3 == 2


def words_admissible(words: Sequence[str]) -> bool:
    """Trace test on an antichain, as an integer sum at the deepest level."""
    if not words:
        return False
    level = max(len(w) for w in words)
    return is_admissible_trace(sum(1 << (level - len(w)) for w in words), level)


def intervals_admissible(p: Sequence[Interval]) -> bool:
    tau = sum((hi - lo for lo, hi in p), Fraction(0))
    den = tau.denominator
    return is_admissible_trace(tau.numerator, den.bit_length() - 1)


def is_antichain(words: Sequence[str]) -> bool:
    ws = sorted(words)
    return len(set(ws)) == len(ws) and not any(
        b.startswith(a) for a, b in zip(ws, ws[1:])
    )


def is_complete_code(words: Sequence[str]) -> bool:
    if not words or not is_antichain(words):
        return False
    level = max(len(w) for w in words)
    return sum(1 << (level - len(w)) for w in words) == 1 << level


# -- elements ---------------------------------------------------------------

X0 = (("11", "1"), ("12", "21"), ("2", "22"))
X1 = (("1", "1"), ("211", "21"), ("212", "221"), ("22", "222"))
GENERATORS = (X0, tuple((b, a) for a, b in X0), X1, tuple((b, a) for a, b in X1))


def compose(u: Terms, w: Terms) -> list[tuple[str, str]]:
    """Terms of uw (w first): S_a S_b* S_c S_d* is nonzero only when b and
    c are prefix comparable, and then it is a single word pair."""
    out = []
    for c, d in w:
        for a, b in u:
            if c.startswith(b):
                out.append((a + c[len(b):], d))
            elif b.startswith(c):
                out.append((a, d + b[len(c):]))
    return out


def reduce_terms(terms: Iterable[tuple[str, str]]) -> tuple[tuple[str, str], ...]:
    """Merge sibling pairs (g1, d1) + (g2, d2) -> (g, d) until none remain."""
    by_alpha = dict(terms)
    changed = True
    while changed:
        changed = False
        for a, b in list(by_alpha.items()):
            if a.endswith("1") and b.endswith("1") and a in by_alpha:
                sib = a[:-1] + "2"
                if by_alpha.get(sib) == b[:-1] + "2":
                    del by_alpha[a], by_alpha[sib]
                    by_alpha[a[:-1]] = b[:-1]
                    changed = True
    return tuple(sorted(by_alpha.items()))


def element_text(terms: Terms) -> str:
    return " + ".join(f"{a or 'e'}:{b or 'e'}" for a, b in sorted(terms))


def parse_element_text(text: str) -> list[tuple[str, str]]:
    out = []
    for chunk in text.split("+"):
        a, _, b = chunk.strip().partition(":")
        out.append(("" if a == "e" else a, "" if b == "e" else b))
    return out


def is_order_preserving(terms: Terms) -> bool:
    """Both code sides complete, and the lex order of the alpha side equals
    the lex order of the beta side."""
    alphas = [a for a, _ in terms]
    betas = [b for _, b in terms]
    if not (is_complete_code(alphas) and is_complete_code(betas)):
        return False
    return [a for a, _ in sorted(terms, key=lambda t: t[1])] == sorted(alphas)


def height(terms: Terms) -> int:
    return max(abs(len(a) - len(b)) for a, b in terms)


class PLMap:
    """An order-preserving element as a piecewise-linear map of [0, 1]."""

    def __init__(self, terms: Terms) -> None:
        pieces = sorted((interval(b), interval(a)) for a, b in terms)
        self.starts = [b[0] for b, _ in pieces]
        self.pieces = pieces

    def __call__(self, x: Fraction) -> Fraction:
        i = min(bisect_right(self.starts, x), len(self.starts)) - 1
        (b_lo, b_hi), (a_lo, a_hi) = self.pieces[i]
        return a_lo + (x - b_lo) * (a_hi - a_lo) / (b_hi - b_lo)

    def breakpoints(self) -> list[Fraction]:
        return self.starts + [Fraction(1)]


def product_matches(u: Terms, w: Terms, product: Terms) -> bool:
    """Whether `product` is the map u o w, checked at every breakpoint of
    both sides; between those points both sides are affine."""
    if not is_order_preserving(product):
        return False
    fu, fw, fp = PLMap(u), PLMap(w), PLMap(product)
    w_inv = PLMap([(b, a) for a, b in w])
    xs = set(fp.breakpoints()) | set(fw.breakpoints())
    xs.update(w_inv(y) for y in fu.breakpoints())
    return all(fp(x) == fu(fw(x)) for x in xs)


# -- tree windows -----------------------------------------------------------


def window(p: Sequence[Interval], depth: int) -> tuple[frozenset[str], frozenset[str]]:
    """Vertices of length <= depth whose cylinder meets p, and those whose
    cylinder meets 1 - p: the depth-`depth` window of (p, 1 - p)."""
    comp = complement(p)

    def meets(region: Sequence[Interval], w: str) -> bool:
        lo, hi = interval(w)
        return any(a < hi and lo < b for a, b in region)

    left: set[str] = set()
    right: set[str] = set()
    layer = [""]
    for _ in range(depth + 1):
        nxt = []
        for w in layer:
            in_l, in_r = meets(p, w), meets(comp, w)
            if in_l:
                left.add(w)
            if in_r:
                right.add(w)
            nxt += [w + "1", w + "2"]
        layer = nxt
    return frozenset(left), frozenset(right)


def window_requirement(terms: Terms) -> int:
    """Smallest window depth on which the element acts exactly."""
    h = height(terms)
    return 0 if h == 0 else max(max(len(b) for _, b in terms), h + 1)


def ball_points(radius: int) -> list[tuple[tuple[Interval, ...], int]]:
    """Distinct points g . 1 for g in the generator ball of the given
    radius, each with the least word length that reaches it."""
    one = ((Fraction(0), Fraction(1)),)
    seen = {(("", ""),)}
    frontier = [(("", ""),)]
    points = {one: 0}
    for r in range(1, radius + 1):
        nxt = []
        for f in frontier:
            for g in GENERATORS:
                h = reduce_terms(compose(f, g))
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
                    points.setdefault(act(h, one), r)
        frontier = nxt
    return sorted(points.items(), key=lambda pr: pr[1])


def separation_radius(family: Sequence[Terms], points) -> int | None:
    """Least radius of a point among `points` (from ball_points) at which
    the family's images are pairwise distinct; None if there is none."""
    for p, r in points:
        images = set()
        for f in family:
            q = act(f, p)
            if q in images:
                break
            images.add(q)
        else:
            return r
    return None
