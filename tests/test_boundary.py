import random
import subprocess
import sys
import time

import pytest

from ftrees import _packed
from ftrees.boundary import (
    DepthTooShallow,
    MalformedPair,
    NotRealizable,
    PairTruncation,
    RigidPair,
    TreeTruncation,
    ZeroProjection,
    act_truncated,
    embed,
    is_realizable,
    non_isolation_witness,
    stabilizes,
    window_requirement,
)
from ftrees.elements import GroupElement, NotInF, height
from ftrees.generators import _generators, gen_x, generator_ball
from ftrees.omega import ONE, ZERO, DiagonalProjection, act, omega2_member, orbit, trace

from children import child_env
from oracles import (
    act_by_transport,
    act_on_window,
    admissible,
    brute_force_realizable,
    combine,
    enumerate_trees,
    is_tree,
    measure,
    pattern_window,
    region,
    rounded_region,
    window_by_vertices,
    windows_settle,
)


def test_tree_truncation_invariants():
    TreeTruncation(2, ["", "1", "12"])
    TreeTruncation(0, [""])
    TreeTruncation.empty(3)
    with pytest.raises(MalformedPair):
        TreeTruncation(2, ["", "12"])  # not prefix closed
    with pytest.raises(MalformedPair):
        TreeTruncation(2, ["", "1"])  # leaf above the cut
    with pytest.raises(MalformedPair):
        TreeTruncation(1, ["", "1", "11"])  # too deep
    with pytest.raises(MalformedPair):
        TreeTruncation.full(-1)
    with pytest.raises(MalformedPair):
        PairTruncation(TreeTruncation.full(2), TreeTruncation.full(3))  # depth mismatch


def test_embed_examples():
    full, empty = embed(ONE, 3).left, embed(ONE, 3).right
    assert full.is_full() and empty.is_empty()
    assert str(embed(ONE, 1)) == "({e, 1, 2}, {})@1"
    with pytest.raises(MalformedPair):
        embed(ONE, 3).truncate(4)  # a window cannot be deepened
    e = embed(DiagonalProjection(["12"]), 2)
    assert e.left.vertices == frozenset(["", "1", "12"])
    assert e.right.vertices == frozenset(["", "1", "2", "11", "21", "22"])
    e2 = embed(DiagonalProjection(["111", "2"]), 1)
    assert e2.left.vertices == frozenset(["", "1", "2"])
    assert e2.right.vertices == frozenset(["", "1"])
    with pytest.raises(ZeroProjection):
        embed(ZERO, 2)


def test_embed_covers_and_truncation_consistency():
    rng = random.Random(0)
    pool = sorted(orbit(ONE, 4), key=lambda p: p.support)
    for p in rng.sample(pool, 25):
        pair = embed(p, 6)
        assert pair.covers()
        if not p.is_one():
            assert not pair.right.is_empty()
        for j in (0, 2, 4):
            assert pair.truncate(j) == embed(p, j)


def test_act_truncated_locality():
    assert act_truncated(gen_x(0), embed(ONE, 5)) == embed(act(gen_x(0), ONE), 4)
    ball = generator_ball(2)
    qs = sorted(orbit(ONE, 3), key=lambda p: p.support)
    for f in ball:
        h = height(f)
        for q in qs:
            for k in range(window_requirement(f), 8):
                got = act_truncated(f, embed(q, k))
                assert got == embed(act(f, q), k - h), (f, q, k)


def test_shallow_windows_underdetermine_the_action():
    # two orbit points share a depth-2 window but diverge at depth 1
    # under x1, so no act_truncated can be exact below the requirement
    x1 = gen_x(1)
    qa = DiagonalProjection(["1", "221"])
    qb = DiagonalProjection(["1", "222"])
    assert embed(qa, 2) == embed(qb, 2)
    assert embed(act(x1, qa), 1) != embed(act(x1, qb), 1)
    assert window_requirement(x1) == 3
    with pytest.raises(DepthTooShallow):
        act_truncated(x1, embed(qa, 2))


def test_act_truncated_fixed_point_and_errors():
    full = PairTruncation(TreeTruncation.full(10), TreeTruncation.full(10))
    for _, g in _generators():
        out = act_truncated(g, full)
        assert out.left.is_full() and out.right.is_full()
    pair = embed(ONE, 1)
    with pytest.raises(DepthTooShallow):
        act_truncated(gen_x(0), pair)
    assert act_truncated(GroupElement.identity(), pair) == pair
    with pytest.raises(NotInF):  # an element of T outside F
        act_truncated(GroupElement([("22", "1"), ("1", "21"), ("21", "22")]), pair)


def test_window_requirement_refuses_elements_outside_f():
    # a swap in V, of height 0, and a rotation in T: neither acts on windows
    refused = "^window depths are defined for order-preserving elements$"
    for terms in ([("1", "2"), ("2", "1")], [("22", "1"), ("1", "21"), ("21", "22")]):
        with pytest.raises(NotInF, match=refused):
            window_requirement(GroupElement(terms))


def test_stabilizes():
    p = DiagonalProjection(["12"])
    assert stabilizes([p] * 5, 4)
    flip = [DiagonalProjection(["1", "21" if i % 2 == 0 else "22"]) for i in range(8)]
    assert not stabilizes(flip, 2)
    deep = [DiagonalProjection(["1", "2" + "1" * n]) for n in range(2, 10)]
    assert stabilizes(deep, 2)
    assert stabilizes([], 3)


def test_stabilizes_matches_window_oracle():
    rng = random.Random(41)
    pool = sorted(orbit(ONE, 3), key=lambda p: p.support) + [ZERO]
    outcomes = set()
    for _ in range(300):
        k = rng.randint(0, 3)
        base = rng.choice(pool)
        seq = [rng.choice(pool) for _ in range(rng.randint(0, 3))]
        seq += [rng.choice(pool) if rng.random() < 0.15 else base for _ in range(rng.randint(0, 6))]
        want = windows_settle(seq, k)
        assert stabilizes(seq, k) == want, (seq, k)
        outcomes.add(want)
    assert outcomes == {True, False}


def test_is_realizable_examples():
    assert is_realizable(PairTruncation(TreeTruncation.full(3), TreeTruncation.full(3)))
    assert is_realizable(PairTruncation(TreeTruncation.full(3), TreeTruncation.empty(3)))
    path = PairTruncation(TreeTruncation(1, ["", "1"]), TreeTruncation(1, ["", "2"]))
    assert not is_realizable(path)  # forced trace 1/2
    with pytest.raises(MalformedPair):
        is_realizable(
            PairTruncation(TreeTruncation(1, ["", "1"]), TreeTruncation.empty(1))
        )


def test_is_realizable_matches_brute_force_depth2():
    for depth in (1, 2):
        trees = enumerate_trees(depth)
        all_vertices = frozenset().union(*trees)
        for left in trees:
            for right in [frozenset(), *trees]:
                if left | right != all_vertices:
                    continue
                pair = PairTruncation(
                    TreeTruncation(depth, left), TreeTruncation(depth, right)
                )
                assert is_realizable(pair) == brute_force_realizable(
                    left, right, depth
                ), pair


def test_witnesses():
    pair = PairTruncation(TreeTruncation.full(2), TreeTruncation.full(2))
    q1, q2 = non_isolation_witness(pair)
    assert q1 != q2
    assert embed(q1, 2) == pair and embed(q2, 2) == pair
    assert omega2_member(q1) is not None and omega2_member(q2) is not None
    assert trace(q1) != trace(q2)


def test_witness_below_embedding_window():
    # extensions of a fixed window pattern differing strictly below it
    base = PairTruncation(TreeTruncation(2, ["", "1", "12"]), TreeTruncation.full(2))
    q1, q2 = non_isolation_witness(base)
    assert embed(q1, 2) == base == embed(q2, 2)
    assert q1 != q2


def test_witness_rigid_cases():
    # (full, empty): only q = 1 lives in the window
    rigid = PairTruncation(TreeTruncation.full(3), TreeTruncation.empty(3))
    with pytest.raises(RigidPair):
        non_isolation_witness(rigid)
    # single path with no shared frontier vertex: the unique q = {11}
    path = PairTruncation(
        TreeTruncation(2, ["", "1", "11"]),
        TreeTruncation(2, ["", "1", "2", "12", "21", "22"]),
    )
    assert is_realizable(path)
    with pytest.raises(RigidPair):
        non_isolation_witness(path)


def _random_projection(rng: random.Random, max_level: int) -> DiagonalProjection:
    """A nonzero projection: random leaves of a random complete code."""
    code = [""]
    for _ in range(rng.randint(1, 2 * max_level)):
        splittable = [w for w in code if len(w) < max_level]
        if splittable:
            w = rng.choice(splittable)
            code.remove(w)
            code += [w + "1", w + "2"]
    return DiagonalProjection([w for w in code if rng.random() < 0.5] or [rng.choice(code)])


def _random_pattern(rng: random.Random, k: int, letters: str = "LRB") -> str:
    return "".join(rng.choice(letters) for _ in range(1 << k))


def _pair(k, left, right) -> PairTruncation:
    return PairTruncation(TreeTruncation(k, left), TreeTruncation(k, right))


def _as_vertices(pair: PairTruncation):
    return pair.left.vertices, pair.right.vertices


def test_embed_matches_vertex_oracle():
    rng = random.Random(71)
    pool = sorted(orbit(ONE, 4), key=lambda p: p.support)
    for i in range(400):
        q = rng.choice(pool) if i % 2 else _random_projection(rng, 9)
        k = rng.randint(0, 9)
        pair = embed(q, k)
        assert _as_vertices(pair) == window_by_vertices(q, k), (q, k)
        for tree in (pair.left, pair.right):
            assert tree.sorted_vertices() == sorted(tree.vertices, key=lambda v: (len(v), v))
            assert tree.frontier() == {v for v in tree.vertices if len(v) == k}


def test_tree_truncation_accepts_exactly_the_trees():
    rng = random.Random(72)
    outcomes = set()
    for _ in range(600):
        k = rng.randint(0, 4)
        _, left, _ = pattern_window(_random_pattern(rng, k, "L-"))
        vs = set(left)
        for _ in range(rng.randint(0, 2)):
            v = "".join(rng.choice("12") for _ in range(rng.randint(0, k + 1)))
            vs.symmetric_difference_update({v})
        ok = is_tree(frozenset(vs), k)
        outcomes.add(ok)
        if ok:
            assert TreeTruncation(k, vs).vertices == vs
        else:
            with pytest.raises(MalformedPair):
                TreeTruncation(k, vs)
    assert outcomes == {True, False}
    with pytest.raises(MalformedPair):
        TreeTruncation(-1, [])


def _act_cases(rng: random.Random):
    """(f, window) pairs: the windows of projections and arbitrary
    covering windows, at depths requirement + 0..3."""
    ball = generator_ball(3)
    for i in range(500):
        f = rng.choice(ball)
        k = window_requirement(f) + rng.randint(0, 3)
        if i % 2:
            yield f, embed(_random_projection(rng, k + 2), k)
        else:
            k, left, right = pattern_window(_random_pattern(rng, k))
            yield f, _pair(k, left, right)


def test_act_truncated_matches_transport_oracle():
    for f, pair in _act_cases(random.Random(73)):
        got = act_truncated(f, pair)
        assert got.depth == pair.depth - height(f)
        assert _as_vertices(got) == act_on_window(f, *_as_vertices(pair), pair.depth), (f, pair)


def test_pairs_that_do_not_cover_are_rejected():
    for pattern in ("LB-R", "-", "--", "LLLRRRB-"):
        k, left, right = pattern_window(pattern)
        with pytest.raises(MalformedPair):
            _pair(k, left, right)


def test_windows_the_library_builds_are_not_checked_again(monkeypatch):
    # the window of (q, 1 - q) covers by construction, so only pairs that
    # enter from outside run the cover `join`; a sweep is one combine call
    sweeps = 0
    engine_combine = _packed.combine

    def counting(*args):
        nonlocal sweeps
        sweeps += 1
        return engine_combine(*args)

    def sweeps_of(run) -> int:
        nonlocal sweeps
        sweeps = 0
        run()
        return sweeps

    monkeypatch.setattr(_packed, "combine", counting)
    q = DiagonalProjection(["111", "1211", "22"])
    pair = embed(q, 3)
    assert sweeps_of(lambda: embed(q, 3)) == 0
    assert sweeps_of(lambda: act_truncated(gen_x(0), pair)) <= 2  # the join and the meet
    assert sweeps_of(lambda: non_isolation_witness(pair)) == 3  # one meet, two fills
    assert sweeps_of(lambda: stabilizes([q] * 8, 4)) == 0
    assert sweeps_of(lambda: PairTruncation(pair.left, pair.right)) == 1


def test_stabilizes_matches_vertex_oracle():
    rng = random.Random(74)
    outcomes = set()
    for _ in range(300):
        k = rng.randint(0, 6)
        pool = [_random_projection(rng, 8) for _ in range(3)] + [ZERO]
        seq = [rng.choice(pool) for _ in range(rng.randint(0, 8))]
        tail = {window_by_vertices(q, k) for q in seq[len(seq) // 2 :]}
        assert stabilizes(seq, k) == (len(tail) <= 1), (seq, k)
        outcomes.add(len(tail) <= 1)
    assert outcomes == {True, False}


def test_is_realizable_matches_brute_force_on_covering_windows():
    rng = random.Random(75)
    outcomes = set()
    for _ in range(400):
        k, left, right = pattern_window(_random_pattern(rng, rng.randint(0, 5)))
        pair = _pair(k, left, right)
        if not left:
            with pytest.raises(MalformedPair):
                is_realizable(pair)
            continue
        want = brute_force_realizable(left, right, k, level=k + 4)
        assert is_realizable(pair) == want, pair
        outcomes.add(want)
    assert outcomes == {True, False}


def test_witness_matches_oracles():
    rng = random.Random(76)
    seen = set()
    for i in range(400):
        k = rng.randint(0, 6)
        if i % 3:
            k, left, right = pattern_window(_random_pattern(rng, k, "LRBB"))
        else:
            left, right = window_by_vertices(_random_projection(rng, k + 2), k)
        if not left:
            continue
        pair = _pair(k, left, right)
        if not brute_force_realizable(left, right, k, level=k + 4):
            with pytest.raises(NotRealizable):
                non_isolation_witness(pair)
            seen.add("not realizable")
        elif not any(len(v) == k for v in left & right):
            with pytest.raises(RigidPair):
                non_isolation_witness(pair)
            seen.add("rigid")
        else:
            q1, q2 = non_isolation_witness(pair)
            assert q1 != q2
            for q in (q1, q2):
                assert window_by_vertices(q, k) == (left, right), (pair, q)
                assert admissible(measure(region(q)))
            seen.add("witness")
    assert seen == {"not realizable", "rigid", "witness"}


def test_sparse_depth_40_windows_are_fast_and_exact():
    q = DiagonalProjection(["1" * 40 + "2", "2"])
    x0 = gen_x(0)
    t0 = time.perf_counter()
    pair = embed(q, 40)
    settled = stabilizes([q] * 8, 40)
    moved = act_truncated(x0, pair)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, elapsed
    assert settled
    not_q = combine(lambda x: not x, region(q))
    assert region(pair.left.cells) == rounded_region(region(q), 40)
    assert region(pair.right.cells) == rounded_region(not_q, 40)
    image = act_by_transport(x0, q)
    assert moved.depth == 39
    assert region(moved.left.cells) == rounded_region(region(image), 39)
    assert region(moved.right.cells) == rounded_region(combine(lambda x: not x, region(image)), 39)
    # a sequence whose windows differ in one depth-40 cell does not settle
    other = DiagonalProjection(["1" * 39 + "2", "2"])
    assert not stabilizes([q, other] * 4, 40)


_SABOTAGED_WITNESS = """
import sys
from ftrees import boundary
from ftrees.omega import InternalSearchExhausted

assert not __debug__
honest = boundary._fill
pair = boundary.PairTruncation(boundary.TreeTruncation.full(2), boundary.TreeTruncation.full(2))
for name, fill in [
    ("one atom too many", lambda inner, cells, k, t, total: honest(inner, cells, k, t, total + 1)),
    ("last cell left empty", lambda inner, cells, k, t, total: honest(inner, cells[:-1], k, t, total)),
]:
    boundary._fill = fill
    try:
        boundary.non_isolation_witness(pair)
    except InternalSearchExhausted:
        print(name, "rejected")
    else:
        print(name, "returned unchecked")
"""


def test_witness_is_checked_under_python_O():
    out = subprocess.run(
        [sys.executable, "-O", "-c", _SABOTAGED_WITNESS],
        env=child_env(),
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out == "one atom too many rejected\nlast cell left empty rejected\n"
