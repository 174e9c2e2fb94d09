import random

import pytest

from ftrees.boundary import (
    DepthTooShallow,
    MalformedPair,
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
from ftrees.elements import GroupElement, height
from ftrees.generators import gen_x, generator_ball, standard_generators
from ftrees.omega import ONE, ZERO, DiagonalProjection, act, omega2_member, orbit, trace

from oracles import brute_force_realizable, enumerate_trees, windows_settle


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


def test_embed_examples():
    full, empty = embed(ONE, 3).left, embed(ONE, 3).right
    assert full.is_full() and empty.is_empty()
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
    for _, g in standard_generators():
        out = act_truncated(g, full)
        assert out.left.is_full() and out.right.is_full()
    pair = embed(ONE, 1)
    with pytest.raises(DepthTooShallow):
        act_truncated(gen_x(0), pair)
    assert act_truncated(GroupElement.identity(), pair) == pair


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
