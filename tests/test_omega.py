import copy
import dataclasses
import gc
import operator
import pickle
import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from ftrees import _packed, omega
from ftrees.dyadic import Dyadic
from ftrees.elements import GroupElement, NotInF, height, inverse, multiply, parity_split
from ftrees.generators import _generators, gen_x, generator_ball
from ftrees.omega import (
    ONE,
    ZERO,
    DiagonalProjection,
    NotInOmega2,
    act,
    complement,
    coset_invariant,
    d_tau,
    h2_member,
    join,
    meet,
    omega2_member,
    orbit,
    orbit_levels,
    realize,
    trace,
)

from oracles import (
    act_by_transport,
    atoms_at_level,
    closed_form_action,
    combine,
    complement_by_paths,
    interval_of_word,
    measure,
    realize_by_words,
    region,
    term_images,
    witnesses_orbit_point,
)

X0, X1 = gen_x(0), gen_x(1)
H = GroupElement.from_terms(
    [("1", "111"), ("211", "112"), ("2121", "12"), ("2122", "21"), ("22", "22")]
)
T_GEN = GroupElement([("22", "1"), ("1", "21"), ("21", "22")])  # in T, not in F


def random_projection(rng: random.Random, level: int = 6) -> DiagonalProjection:
    """Uniformly random diagonal projection with support at `level`."""
    atoms = [""]
    for _ in range(level):
        atoms = [a + ch for a in atoms for ch in ("1", "2")]
    chosen = [a for a in atoms if rng.random() < 0.5]
    return DiagonalProjection(chosen)


def random_antichain(rng: random.Random, max_depth: int) -> list[str]:
    """Random antichain with words of mixed depths up to `max_depth`."""
    out: list[str] = []
    stack = [""]
    while stack:
        w = stack.pop()
        if len(w) < max_depth and rng.random() < 0.7:
            stack += [w + "2", w + "1"]
        elif rng.random() < 0.5:
            out.append(w)
    return out


def random_tree_pair(rng: random.Random, leaves: int) -> GroupElement:
    """Random reduced order-preserving element with at most `leaves` leaves."""
    trees = []
    for _ in range(2):
        words = [""]
        while len(words) < leaves:
            i = rng.randrange(len(words))
            words[i : i + 1] = [words[i] + "1", words[i] + "2"]
        trees.append(words)
    return GroupElement.from_terms(zip(*trees))


def naive_orbit_depths(start: DiagonalProjection, depth: int) -> dict[DiagonalProjection, int]:
    """Breadth-first discovery depths under x0^+-1, x1^+-1 through the
    oracle action, in discovery order; every generator acts on every point."""
    gens = [g for _, g in _generators()]
    depths = {start: 0}
    frontier = [start]
    for d in range(1, depth + 1):
        nxt = []
        for p in frontier:
            for g in gens:
                q = act_by_transport(g, p)
                if q not in depths:
                    depths[q] = d
                    nxt.append(q)
        frontier = nxt
    return depths


def naive_orbit(start: DiagonalProjection, depth: int) -> set[DiagonalProjection]:
    """Breadth-first orbit under x0^+-1, x1^+-1 through the oracle action."""
    return set(naive_orbit_depths(start, depth))


def assert_realizes(p: DiagonalProjection) -> None:
    f = realize(p)
    assert act(f, ONE) == p
    assert witnesses_orbit_point(f, p)


def test_canonical_support():
    assert DiagonalProjection(["11", "12"]).support == ("1",)
    assert DiagonalProjection(["1", "21", "22"]).support == ("",)
    assert DiagonalProjection([]).is_zero()
    with pytest.raises(ValueError):
        DiagonalProjection(["1", "12"])
    with pytest.raises(ValueError):
        DiagonalProjection(["1", "1"])


def test_projection_is_a_canonical_immutable_value():
    rng = random.Random(22)
    for _ in range(200):
        words = random_antichain(rng, rng.randint(0, 10))
        p = DiagonalProjection(words)
        # the same projection from a shuffled list with sibling pairs
        split = [v for w in words for v in ([w + "1", w + "2"] if rng.random() < 0.5 else [w])]
        rng.shuffle(split)
        q = DiagonalProjection(split)
        assert q == p and hash(q) == hash(p)
        assert region(q) == combine(bool, sorted(map(interval_of_word, split)))
        s = q.support
        assert isinstance(s, tuple) and list(s) == sorted(s)
        assert all(not b.startswith(a) for a, b in zip(s, s[1:]))
        assert not any(w.endswith("1") and w[:-1] + "2" in s for w in s)
    p = DiagonalProjection(["12"])
    for attr in ("support", "n", "ends", "other"):
        with pytest.raises(AttributeError):
            setattr(p, attr, ())
    assert p.support == ("12",) and p == DiagonalProjection(["12"])


def as_fraction(d: Dyadic) -> Fraction:
    return Fraction(d.numerator, 2**d.exponent)


def test_lattice_matches_measure_oracle():
    rng = random.Random(23)
    ps = [ZERO, ONE] + [
        DiagonalProjection(random_antichain(rng, rng.randint(1, 12))) for _ in range(80)
    ]
    for p in ps:
        assert as_fraction(trace(p)) == measure(region(p))
        c = complement(p)
        assert region(c) == combine(operator.not_, region(p))
        assert c == DiagonalProjection(c.support)
    pairs = [(p, q) for p in ps[:4] for q in ps[:4]]
    pairs += [(rng.choice(ps), rng.choice(ps)) for _ in range(300)]
    for p, q in pairs:
        rp, rq = region(p), region(q)
        m, j = meet(p, q), join(p, q)
        assert region(m) == combine(operator.and_, rp, rq)
        assert region(j) == combine(operator.or_, rp, rq)
        assert m == DiagonalProjection(m.support) and j == DiagonalProjection(j.support)
        assert as_fraction(d_tau(p, q)) == measure(combine(operator.xor, rp, rq))


def test_trace_examples():
    assert trace(ONE) == 1
    assert trace(DiagonalProjection(["12"])) == Dyadic(1, 2)
    assert trace(DiagonalProjection(["111", "2"])) == Dyadic(5, 3)
    assert trace(ZERO) == 0


def test_lattice_and_metric():
    p12 = DiagonalProjection(["12"])
    assert d_tau(ONE, p12) == Dyadic(3, 2)
    assert meet(DiagonalProjection(["1"]), DiagonalProjection(["12", "2"])).support == ("12",)
    assert complement(p12).support == ("11", "2")
    assert complement(ONE).is_zero()
    assert complement(ZERO).is_one()
    rng = random.Random(0)
    for _ in range(100):
        p, q = random_projection(rng, 4), random_projection(rng, 4)
        assert d_tau(p, p) == 0
        assert d_tau(p, q) == d_tau(q, p)
        assert trace(meet(p, q)) + trace(join(p, q)) == trace(p) + trace(q)
        assert complement(complement(p)) == p
        assert meet(p, complement(p)).is_zero()
        assert join(p, complement(p)).is_one()


def test_meet_matches_atom_sets():
    rng = random.Random(6)
    for _ in range(100):
        p, q = random_projection(rng), random_projection(rng)
        want = atoms_at_level(p, 6) & atoms_at_level(q, 6)
        assert atoms_at_level(meet(p, q), 6) == want


def test_meet_of_large_supports_is_fast():
    rng = random.Random(13)
    p, q = random_projection(rng, 13), random_projection(rng, 13)
    assert min(len(p.support), len(q.support)) > 2800
    t0 = time.perf_counter()
    m = meet(p, q)
    join(p, q)
    d_tau(p, q)
    assert time.perf_counter() - t0 < 1.0
    assert atoms_at_level(m, 13) == atoms_at_level(p, 13) & atoms_at_level(q, 13)


def test_act_examples():
    assert act(X0, ONE).support == ("12",)
    assert act(X0, DiagonalProjection(["12"])).support == ("111", "2")
    assert act(GroupElement.identity(), DiagonalProjection(["12"])).support == ("12",)
    with pytest.raises(NotInF):
        act(T_GEN, ONE)


def test_act_is_left_action():
    rng = random.Random(1)
    ball = generator_ball(2)
    projections = [random_projection(rng, 5) for _ in range(30)]
    for _ in range(150):
        f, g = rng.choice(ball), rng.choice(ball)
        p = rng.choice(projections)
        assert act(multiply(f, g), p) == act(f, act(g, p))


def test_act_against_closed_forms():
    rng = random.Random(2)
    for _ in range(120):
        p = random_projection(rng, rng.randint(0, 6))
        for name, g in _generators():
            level = max((len(w) for w in p.support), default=0) + 3
            assert atoms_at_level(act(g, p), level + 1) == closed_form_action(
                name, p, level
            )


def test_h2_member():
    assert not h2_member(X0)
    assert h2_member(GroupElement.identity())
    assert h2_member(H)
    assert height(H) == 2
    with pytest.raises(NotInF):
        h2_member(T_GEN)


def test_coset_invariant():
    assert coset_invariant(X0).support == ("12",)
    assert coset_invariant(inverse(X0)).support == ("21",)
    assert coset_invariant(H).is_one()
    with pytest.raises(NotInF):
        coset_invariant(T_GEN)
    ball = generator_ball(3)
    for f in ball:
        even, _ = parity_split(f)
        assert coset_invariant(f) == act(f, ONE) == DiagonalProjection(t.alpha for t in even)


def test_stabilizer_is_h2():
    for f in generator_ball(4):
        assert (act(f, ONE) == ONE) == h2_member(f)


def test_omega2_member_examples():
    assert omega2_member(ONE) == (2, 0)
    assert omega2_member(DiagonalProjection(["1"])) is None
    assert omega2_member(DiagonalProjection(["111", "2"])) == (5, 1)
    assert omega2_member(ZERO) is None


def test_omega2_residue_is_representation_independent():
    # raising the exponent by 2 multiplies k by 4 = 1 mod 3
    p = DiagonalProjection(["111", "2"])
    k, m = omega2_member(p)
    t = trace(p)
    for extra in (1, 2):
        e = 2 * (m + extra) + 1
        assert t.scaled(e) % 3 == k % 3


def test_parity_split_nonzero_on_ball():
    for f in generator_ball(4):
        even, _ = parity_split(f)
        assert even


def test_trace_residue_mod_three():
    rng = random.Random(3)
    gens = [g for _, g in _generators()]
    for _ in range(200):
        level = rng.choice([1, 3, 5])
        p = random_projection(rng, level)
        for g in gens:
            diff = (trace(act(g, p)) - trace(p)) * Dyadic(1 << level)
            assert diff.numerator % 3 == 0


def test_lipschitz_bound():
    rng = random.Random(4)
    ball = generator_ball(3)
    for _ in range(300):
        f = rng.choice(ball)
        p, q = random_projection(rng, 5), random_projection(rng, 5)
        lhs = d_tau(act(f, p), act(f, q))
        rhs = Dyadic(1 << (height(f) + 1)) * d_tau(p, q)
        assert lhs <= rhs


def test_realize_examples():
    assert_realizes(ONE)
    for support in (["12"], ["111", "2"], ["111", "121"], ["21"]):
        assert_realizes(DiagonalProjection(support))
    with pytest.raises(NotInOmega2):
        realize(DiagonalProjection(["1"]))
    with pytest.raises(NotInOmega2):
        realize(ZERO)


def test_realize_all_level3_supports():
    import itertools

    atoms = ["111", "112", "121", "122", "211", "212", "221", "222"]
    count = 0
    for size in (2, 5, 8):
        for sub in itertools.combinations(atoms, size):
            p = DiagonalProjection(sub)
            assert omega2_member(p) is not None
            assert_realizes(p)
            count += 1
    assert count == 28 + 56 + 1


def test_realize_random_level5():
    rng = random.Random(5)
    atoms = [""]
    for _ in range(5):
        atoms = [a + ch for a in atoms for ch in ("1", "2")]
    done = 0
    while done < 10:
        size = rng.choice([k for k in range(2, 33) if k % 3 == 2])
        assert_realizes(DiagonalProjection(rng.sample(atoms, size)))
        done += 1


def test_orbit_examples():
    got = orbit(ONE, 1)
    want = {
        ONE,
        DiagonalProjection(["12"]),
        DiagonalProjection(["21"]),
        DiagonalProjection(["1", "212"]),
        DiagonalProjection(["1", "221"]),
    }
    assert got == want
    assert orbit(ONE, 0) == {ONE}
    assert DiagonalProjection(["111", "2"]) in orbit(ONE, 2)
    with pytest.raises(NotInOmega2):
        orbit(DiagonalProjection(["1"]), 1)
    for depth in (-1, -3):
        with pytest.raises(ValueError, match="^depth must be >= 0$"):
            orbit_levels(ONE, depth)


def test_orbit_matches_naive_bfs():
    assert orbit(ONE, 4) == naive_orbit(ONE, 4)


def test_orbit_members_pass_omega2():
    for p in orbit(ONE, 5):
        assert omega2_member(p) is not None


def test_orbit_from_non_identity_start():
    start = DiagonalProjection(["12"])
    assert orbit(start, 4) == naive_orbit(start, 4)


def test_orbit_from_deep_start():
    # the start sits at level 40: 2^40 atoms, but one interval
    start = DiagonalProjection(["1" * 40])
    t0 = time.perf_counter()
    got = set(orbit_levels(start, 3).depths)
    assert time.perf_counter() - t0 < 1.0
    assert got == naive_orbit(start, 3)


def test_orbit_depths_match_the_oracle_bfs():
    rng = random.Random(18)
    for level in (2, 3, 4, 5, 6, 8, 9, 11, 12, 14):
        while True:  # an admissible start whose canonical level is `level`
            start = DiagonalProjection(random_antichain(rng, level))
            if start.n == level and omega2_member(start) is not None:
                break
        depth = 1 + level % 3
        got, want = orbit_levels(start, depth).depths, naive_orbit_depths(start, depth)
        assert got == want
        # discovery order too: the start, then depth by depth
        assert list(got.items()) == list(want.items())
        assert list(got.values()) == sorted(got.values())


def test_orbit_skips_the_step_back_to_the_parent(monkeypatch):
    # the skip rests on the generator order: gens[i ^ 1] is the inverse of gens[i]
    gens = [g for _, g in _generators()]
    assert all(multiply(gens[i], gens[i ^ 1]).is_identity() for i in range(4))
    orbit_levels(ONE, 1)  # the generators are compiled once per process
    calls = 0
    act_on_intervals = _packed.PackedElement.act

    def counting_act(self, n, ends):
        nonlocal calls
        calls += 1
        return act_on_intervals(self, n, ends)

    monkeypatch.setattr(_packed.PackedElement, "act", counting_act)
    for depth, images, pairs, expanded in ((10, 44146, 58860, 14715), (3, 46, 60, 15)):
        calls = 0
        assert orbit_levels(ONE, depth).action_evaluations == pairs
        # four pairs a point, but every point but the start skips its parent
        assert calls == images == pairs - (expanded - 1)


def test_orbit_sphere_sizes():
    # the spheres of the Schreier graph of F/H_2 under x0^+-1, x1^+-1
    run = orbit_levels(ONE, 10)
    sizes = Counter(run.depths.values())
    assert [sizes[d] for d in range(11)] == [
        1, 4, 10, 27, 76, 197, 522, 1364, 3515, 8999, 23005
    ]
    assert len(run.depths) == 37720
    # four actions on each point found at depths 0-9
    assert run.action_evaluations == 58860 == 4 * (37720 - 23005)


def test_orbit_levels_record_each_sphere():
    run = orbit_levels(ONE, 10)
    assert [r[0] for r in run.levels] == list(range(11))
    new = [r[2] for r in run.levels]
    assert new == [1, 4, 10, 27, 76, 197, 522, 1364, 3515, 8999, 23005]
    # each level expands the one before it, four actions a point
    assert [r[1] for r in run.levels] == [0] + new[:-1]
    assert run.action_evaluations == 4 * sum(r[1] for r in run.levels)
    assert all(r[3] >= 0 for r in run.levels) and run.levels[0] == (0, 0, 1, 0.0)
    assert sum(r[3] for r in run.levels) == pytest.approx(run.seconds)
    # depths holds the points in discovery order, so the counts cut it into spheres
    assert list(run.depths.values()) == [d for d, n in enumerate(new) for _ in range(n)]


def test_orbit_levels_peak_memory_is_the_result():
    # each image is looked up as it is made: no whole level of images is held
    orbit_levels(ONE, 2)  # the generators are compiled once per process
    tracemalloc.start()
    try:
        run = orbit_levels(ONE, 9)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(run.depths) == 14715
    assert peak - kept < 512 * 1024


def test_standard_generators_are_built_once():
    first, second = _generators(), _generators()
    assert isinstance(first, tuple)
    assert [name for name, _ in first] == ["x0", "x0^-1", "x1", "x1^-1"]
    assert all(f is g for (_, f), (_, g) in zip(first, second))


def test_warm_orbit_levels_compiles_nothing(monkeypatch):
    orbit_levels(ONE, 1)
    built = []
    compile_terms = _packed.PackedElement.__init__

    def counting_init(self, terms):
        built.append(terms)
        compile_terms(self, terms)

    monkeypatch.setattr(_packed.PackedElement, "__init__", counting_init)
    assert orbit_levels(ONE, 3).action_evaluations == 4 * (1 + 4 + 10)
    assert orbit_levels(DiagonalProjection(["1" * 14 + "2", "222"]), 2).depths
    assert built == []


def touches_at_a_term_boundary(f: GroupElement, p: DiagonalProjection) -> bool:
    """Whether the image of some term of f starts where the image of the
    term before it ends."""
    ends = [
        [interval_of_word(w) for w in image] for image in term_images(f, p)
    ]
    return any(
        u and v and max(hi for _, hi in u) == min(lo for lo, _ in v)
        for u, v in zip(ends, ends[1:])
    )


def kernel_paths(f: GroupElement, p: DiagonalProjection) -> list[str]:
    """The paths of the parity kernel that f . p takes, read off the inputs:
    per term, its degree parity and whether the set it carries (p or 1 - p)
    holds I(beta)'s start, and whether that set runs on to I(beta)'s end;
    and whether p is coarser than f's longest beta."""
    r = region(p)
    paths = ["coarse"] if p.n < max(len(t.beta) for t in f.terms) else []
    for t in f.terms:
        odd = (len(t.alpha) - len(t.beta)) % 2 == 1
        lo, hi = interval_of_word(t.beta)
        start_in = any(a <= lo < b for a, b in r) != odd
        paths.append(f"{'odd' if odd else 'even'} start {'in' if start_in else 'out'}")
        if any(a < hi <= b for a, b in r) != odd:
            paths.append("to the end")
    return paths


def test_packed_act_merges_and_shifts_like_the_oracle(monkeypatch):
    rng = random.Random(16)
    shifts = []
    canonical = _packed._canonical

    def recording(n, ends):
        shifts.append(bool(ends) and not any(e % 2 for e in ends))
        return canonical(n, ends)

    monkeypatch.setattr(_packed, "_canonical", recording)
    elements = generator_ball(3) + [random_tree_pair(rng, rng.randint(2, 16)) for _ in range(60)]
    seen = Counter()
    for f in elements:
        g = f._interval_map
        # 0 and 1 as well: no end at all, and the coarsest input
        ps = [DiagonalProjection(random_antichain(rng, rng.randint(1, 8))) for _ in range(5)]
        for p in ps + [ZERO, ONE]:
            want = act_by_transport(f, p)
            shifts.clear()
            assert g.act(p.n, p.ends) == (want.n, want.ends)
            seen["touch" if touches_at_a_term_boundary(f, p) else "apart"] += 1
            seen["shift" if shifts[0] else "odd"] += 1
            seen.update(kernel_paths(f, p))
    # every path of the kernel ran: merges at a term's first image; images
    # already canonical as well as ones that needed a shift; for even and for
    # odd terms, I(beta)'s start inside and outside the carried set; the
    # carried set running on to I(beta)'s end; and inputs coarser than f
    paths = ("even start in", "even start out", "odd start in", "odd start out")
    paths += ("to the end", "coarse", "touch", "apart", "shift", "odd")
    assert min(seen[k] for k in paths) >= 20, seen


def test_canonical_shifts_only_without_an_odd_endpoint():
    assert _packed._canonical(4, [3, 8]) == (4, (3, 8))
    assert _packed._canonical(4, [2, 6]) == (3, (1, 3))
    assert _packed._canonical(4, [4, 8, 12, 16]) == (2, (1, 2, 3, 4))
    assert _packed._canonical(4, [0, 16]) == (0, (0, 1))
    assert _packed._canonical(7, []) == (0, ())


def test_words_and_intervals_agree_with_the_oracle_on_both_sides_of_the_tables():
    # every word of at most 10 letters, across the 8/9 boundary between the
    # words that are looked up and those formatted and parsed, then seeded
    # words of 9-200 letters with both end values of each length among them
    rng = random.Random(30)
    cases = [(n, v) for n in range(11) for v in range(1 << n)]
    for n in (rng.randint(9, 200) for _ in range(300)):
        cases += [(n, 0), (n, rng.randrange(1 << n)), (n, (1 << n) - 1)]
    for n, v in cases:
        w = _packed.word(n, v)
        assert len(w) == n and set(w) <= {"1", "2"}, (n, v, w)
        assert interval_of_word(w) == (Fraction(v, 1 << n), Fraction(v + 1, 1 << n)), (n, v, w)
        assert _packed.interval(w) == (n, v), (n, v, w)


def test_wrapped_projection_is_the_constructed_one():
    rng = random.Random(17)
    for _ in range(200):
        p = DiagonalProjection(random_antichain(rng, rng.randint(0, 10)))
        q = omega._wrap((p.n, p.ends))
        assert type(q) is DiagonalProjection
        assert str(q) == str(p)
        assert q == p and hash(q) == hash(p) and len({p, q}) == 1
        assert q.support == p.support
        assert DiagonalProjection(q.support) == q
        with pytest.raises(dataclasses.FrozenInstanceError):
            q.n = 0
    f = random_tree_pair(rng, 9)
    for p in orbit(ONE, 2):
        image = act(f, p)  # made by _wrap
        fresh = DiagonalProjection(act_by_transport(f, p).support)
        assert image == fresh and hash(image) == hash(fresh)
        assert image.support == fresh.support and str(image) == str(fresh)


def test_projection_is_a_value_equal_to_its_canonical_tuple():
    rng = random.Random(23)
    ps = [ZERO, ONE] + [
        DiagonalProjection(random_antichain(rng, rng.randint(0, 10))) for _ in range(100)
    ]
    for p in ps:
        protocols = range(pickle.HIGHEST_PROTOCOL + 1)
        copies = [copy.copy(p), copy.deepcopy(p)]
        copies += [pickle.loads(pickle.dumps(p, protocol)) for protocol in protocols]
        for q in copies:
            assert type(q) is DiagonalProjection
            assert q == p and hash(q) == hash(p) and str(q) == str(p)
        assert p == (p.n, p.ends) and hash(p) == hash((p.n, p.ends))
        for order in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                order(p, ONE)
    assert all(type(p) is DiagonalProjection for p in orbit_levels(ONE, 6).depths)


def test_projection_reads_as_its_tuple_but_does_no_tuple_arithmetic():
    p = DiagonalProjection(["12", "21"])
    assert len(p) == 2 and p[0] == 2 and p[1] == (1, 3) and tuple(p) == (2, (1, 3))
    n, ends = p
    assert (n, ends) == (p.n, p.ends)
    for sum_or_repeat in (
        lambda: ONE + ONE, lambda: p + ONE, lambda: p + (5,), lambda: p * 2, lambda: 2 * p,
        lambda: (5,) + ONE, lambda: ONE <= (5, ()), lambda: (5, ()) >= ONE, lambda: ONE < (9,),
    ):
        with pytest.raises(TypeError):
            sum_or_repeat()


def test_reading_support_keeps_no_words():
    # the words of each point are made on every read and dropped with it
    run = orbit_levels(ONE, 8)
    assert len(run.depths) == 5716
    tracemalloc.start()
    try:
        # a full collection empties CPython's free lists (of tuples, say), whose
        # blocks would otherwise count as kept although they hold no word
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        words = sum(len(p.support) for p in run.depths)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert words > len(run.depths)
    assert kept < 64 * 1024


def test_act_and_complement_match_transport_oracle():
    rng = random.Random(14)
    elements = generator_ball(4) + [random_tree_pair(rng, rng.randint(1, 20)) for _ in range(100)]
    for f in elements:
        supports = [ZERO, ONE] + [
            DiagonalProjection(random_antichain(rng, rng.randint(1, 9))) for _ in range(4)
        ]
        for p in supports:
            assert act(f, p) == act_by_transport(f, p)
            assert complement(p) == complement_by_paths(p)


def test_pack_unpack_round_trip():
    rng = random.Random(15)
    assert _packed.pack(ZERO.support) == (0, ())
    assert _packed.pack(ONE.support) == (0, (0, 1))
    # P[12] + P[21] is the one interval [1/4, 3/4)
    assert _packed.pack(("12", "21")) == (2, (1, 3))
    for _ in range(500):
        p = DiagonalProjection(random_antichain(rng, rng.randint(1, 12)))
        n, ends = _packed.pack(p.support)
        assert n == 0 or any(e % 2 for e in ends)
        assert all(a < b for a, b in zip(ends, ends[1:]))
        assert tuple(_packed.word(m, v) for m, v in _packed.unpack(n, ends)) == p.support


def test_realize_mixed_level_supports():
    # canonical supports with words at different depths
    rng = random.Random(6)
    found = 0
    while found < 15:
        p = random_projection(rng, rng.randint(1, 6))
        if omega2_member(p) is None or p.is_one():
            continue
        assert_realizes(p)
        found += 1


def test_witness_oracle_rejects_wrong_witnesses():
    p, q = DiagonalProjection(["12"]), DiagonalProjection(["21"])
    assert witnesses_orbit_point(realize(p), p)
    assert not witnesses_orbit_point(realize(q), p)
    # swapping the halves has an even part covering 1, but reverses order
    swap = GroupElement.from_terms([("1", "2"), ("2", "1")])
    assert not witnesses_orbit_point(swap, ONE)


def test_realize_level12_support():
    rng = random.Random(12)
    p = random_projection(rng, 12)
    while omega2_member(p) is None:
        p = random_projection(rng, 12)
    assert len(p.support) >= 1400
    assert_realizes(p)


def test_realize_matches_the_word_parity_tree():
    # seeded mixed-depth supports at levels 1-12, some needing an atom split
    rng = random.Random(16)
    checked = splits = 0
    while checked < 2000:
        p = DiagonalProjection(random_antichain(rng, rng.randint(1, 12)))
        if omega2_member(p) is None or p.is_one():
            continue
        terms, atoms = realize_by_words(p)
        assert realize(p).terms == tuple(terms)
        checked += 1
        splits += len(terms) > atoms
    assert splits >= 1000


def test_realize_refuses_a_witness_that_fails_its_certificate(monkeypatch):
    solve = omega._solve_parities

    def identity(items):  # in F and tiles, but maps 1 to 1, not to p
        return [(0, 0, 0, 0)]

    def swapped(items):  # the true terms, first two betas exchanged: a bijection of codes, not in F
        q = solve(items)
        return [(*q[0][:2], *q[1][2:]), (*q[1][:2], *q[0][2:]), *q[2:]]

    for fake in (identity, swapped):
        monkeypatch.setattr(omega, "_solve_parities", fake)
        failed = r"^parity-tree witness failed for P\[11\]$"
        with pytest.raises(omega.InternalSearchExhausted, match=failed):
            realize(DiagonalProjection(["11"]))


def test_an_unsolvable_parity_sequence_is_an_internal_error():
    # one item of odd length and even degree weighs 2, not 1 (mod 3)
    with pytest.raises(AssertionError, match=r"^unsolvable parity sequence \(weight 2\)$"):
        omega._solve_parities([(1, 0, 0)])


def test_realize_mixed_depth_support_is_fast():
    # refining to the deepest level would need 2^38 words
    p = DiagonalProjection(["2", "1" * 38 + "2"])
    t0 = time.perf_counter()
    f = realize(p)
    assert time.perf_counter() - t0 < 1.0
    assert act(f, ONE) == p
    assert witnesses_orbit_point(f, p)


def test_realize_deep_single_word():
    p = DiagonalProjection(["1" * 1199 + "2"])
    assert omega2_member(p) == (2, 600)
    assert_realizes(p)


def test_printing_a_witness_keeps_no_list_of_term_words():
    # 64 two-cell intervals at level 45, 2^35 cells apart: a witness of
    # many terms with long words, whose text `str` makes term by term
    to_word = str.maketrans("01", "12")
    cells = [bin((i << 35) + d | 1 << 45)[3:].translate(to_word) for i in range(64) for d in (1, 2)]
    f = realize(DiagonalProjection(cells))
    gc.collect()
    tracemalloc.start()
    try:
        text = str(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(f.terms) > 2000 and text.count(":") == len(f.terms)
    assert peak < 4 * len(text)


def test_complement_of_deep_word():
    w = "1" * 1200 + "2"
    comp = complement(DiagonalProjection([w]))
    assert len(comp.support) == len(w)
    assert comp.support[0] == "1" * 1201
    assert meet(comp, DiagonalProjection([w])).is_zero()
    assert trace(comp) == 1 - trace(DiagonalProjection([w]))
