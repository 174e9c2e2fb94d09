"""Acceptance criteria, one test per criterion, exact tolerances.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS line per
criterion.  Criterion 9's first clause is run twice: once over the
provably-correct window range (passes), and once over the literally
stated range, which is impossible for any implementation and is kept as
a strict expected failure with the counterexample inline.
"""

import itertools
import json
import random
import statistics

import pytest

from ftrees.boundary import (
    DepthTooShallow,
    PairTruncation,
    TreeTruncation,
    act_truncated,
    embed,
    is_realizable,
    window_requirement,
)
from ftrees.dyadic import Dyadic
from ftrees.elements import (
    GroupElement,
    Side,
    Term,
    height,
    inverse,
    multiply,
    multiply_terms,
    parity_split,
    refine,
    validate_unitary,
)
from ftrees.generators import (
    _generators,
    equals,
    from_normal_form,
    gen_x,
    generator_ball,
    to_normal_form,
)
from ftrees.omega import (
    ONE,
    DiagonalProjection,
    act,
    d_tau,
    h2_member,
    omega2_member,
    orbit_levels,
    realize,
    trace,
)
from ftrees.representation import independence_certificate
from ftrees.words import CompleteCode

from oracles import (
    _all_words,
    atoms_at_level,
    brute_force_realizable,
    closed_form_action,
    enumerate_trees,
)


def _report(n: int, text: str) -> None:
    print(f"PASS criterion {n}: {text}")


X0 = gen_x(0)
W_GOLDEN = GroupElement.from_terms(
    [
        ("111", "11"),
        ("112", "121"),
        ("12", "122"),
        ("211", "21"),
        ("212", "221"),
        ("22", "222"),
    ]
)


def _random_level_projection(rng: random.Random, level: int) -> DiagonalProjection:
    atoms = [""]
    for _ in range(level):
        atoms = [a + ch for a in atoms for ch in ("1", "2")]
    chosen = [a for a in atoms if rng.random() < 0.5]
    if not chosen:
        chosen = [rng.choice(atoms)]
    return DiagonalProjection(chosen)


def test_criterion_1_worked_product_golden():
    level3 = CompleteCode(_all_words(3))
    refined_u = " + ".join(str(t) for t in refine(X0, level3, Side.DOMAIN))
    assert refined_u == (
        "1111:111 + 1112:112 + 1121:121 + 1122:122 + "
        "121:211 + 122:212 + 21:221 + 22:222"
    )
    refined_w = " + ".join(str(t) for t in refine(W_GOLDEN, level3, Side.RANGE))
    assert refined_w == (
        "111:11 + 112:121 + 121:1221 + 122:1222 + "
        "211:21 + 212:221 + 221:2221 + 222:2222"
    )
    display = " + ".join(str(t) for t in multiply_terms(X0, W_GOLDEN, level3))
    assert display == (
        "1111:11 + 1112:121 + 1121:1221 + 1122:1222 + "
        "121:21 + 122:221 + 21:2221 + 22:2222"
    )
    # the displayed sum is unreduced; the product equals it canonically
    display_terms = [
        Term(a, b) for a, b in (chunk.split(":") for chunk in display.split(" + "))
    ]
    assert str(multiply(X0, W_GOLDEN)) == str(validate_unitary(display_terms))
    _report(1, "refined displays and worked product reproduced byte-exactly")


def test_criterion_2_presentations():
    for i in range(5):
        for j in range(i + 1, 5):
            assert equals(
                multiply(gen_x(j), gen_x(i)), multiply(gen_x(i), gen_x(j + 1))
            )
    A, B = gen_x(0), gen_x(1)

    def comm(a, b):
        return multiply(multiply(multiply(a, b), inverse(a)), inverse(b))

    ab = multiply(A, inverse(B))
    assert comm(ab, multiply(multiply(inverse(A), B), A)).is_identity()
    A2 = multiply(A, A)
    assert comm(ab, multiply(multiply(inverse(A2), B), A2)).is_identity()
    conj = B
    for n in range(1, 5):
        assert equals(gen_x(n), conj)
        conj = multiply(multiply(inverse(A), conj), A)
    _report(2, "x_j x_i = x_i x_{j+1} for i<j<=4, both relators, x_n = A^-(n-1) B A^(n-1)")


def test_criterion_3_normal_form_uniqueness_ball4():
    ball = generator_ball(4)
    assert len(ball) == 161
    forms = set()
    for f in ball:
        nf = to_normal_form(f)
        assert equals(from_normal_form(nf), f)
        forms.add((nf.positive, nf.negative))
    assert len(forms) == len(ball)
    _report(3, f"{len(ball)} ball-4 elements round-trip; {len(forms)} distinct forms")


def test_criterion_4_trace_characterization_both_directions():
    run = orbit_levels(ONE, 6)
    for p in run.depths:
        assert omega2_member(p) is not None
    atoms3 = ["".join(w) for w in itertools.product("12", repeat=3)]
    realized = 0
    for size in (2, 5, 8):
        for sub in itertools.combinations(atoms3, size):
            p = DiagonalProjection(sub)
            assert act(realize(p), ONE) == p
            realized += 1
    assert realized == 85
    rng = random.Random(23)
    atoms5 = ["".join(w) for w in itertools.product("12", repeat=5)]
    sizes = [k for k in range(2, 33) if k % 3 == 2]
    for _ in range(50):
        p = DiagonalProjection(rng.sample(atoms5, rng.choice(sizes)))
        assert act(realize(p), ONE) == p
    _report(
        4,
        f"orbit(1,6) of {len(run.depths)} all admissible; 85 level-3 and "
        "50 random level-5 supports realized and self-certified",
    )


def test_criterion_5_even_part_never_vanishes():
    ball = generator_ball(5)
    for f in ball:
        even, _ = parity_split(f)
        assert even
    _report(5, f"f_0 != 0 for all {len(ball)} elements of the radius-5 ball")


def test_criterion_6_action_laws():
    rng = random.Random(6)
    ball2 = generator_ball(2)
    pool = sorted(orbit_levels(ONE, 5).depths, key=lambda p: p.support)
    sample = [rng.choice(pool) for _ in range(100)]
    for f in ball2:
        for g in ball2:
            fg = multiply(f, g)
            for p in sample:
                assert act(fg, p) == act(f, act(g, p))
    for f in generator_ball(4):
        assert (act(f, ONE) == ONE) == h2_member(f)
    for _ in range(200):
        p = _random_level_projection(rng, rng.randint(0, 6))
        for name, g in _generators():
            level = max((len(w) for w in p.support), default=0) + 3
            assert atoms_at_level(act(g, p), level + 1) == closed_form_action(
                name, p, level
            )
    _report(6, "action law on ball-2 x 100, stabilizer = H2 on ball-4, "
               "closed forms on 200 projections")


def test_criterion_7_trace_residue():
    rng = random.Random(7)
    gens = [g for _, g in _generators()]
    for _ in range(500):
        level = rng.choice([1, 3, 5])
        p = _random_level_projection(rng, level)
        for g in gens:
            scaled = (trace(act(g, p)) - trace(p)) * Dyadic(1 << level)
            assert scaled.numerator % 3 == 0
    _report(7, "2^(2m+1)(tau(w.p) - tau(p)) = 0 mod 3 on 500 x 4 cases")


def test_criterion_8_lipschitz():
    rng = random.Random(8)
    ball3 = generator_ball(3)
    for _ in range(1000):
        f = rng.choice(ball3)
        p = _random_level_projection(rng, 5)
        q = _random_level_projection(rng, 5)
        assert d_tau(act(f, p), act(f, q)) <= Dyadic(1 << (height(f) + 1)) * d_tau(p, q)
    _report(8, "d_tau(f.p, f.q) <= 2^(l(f)+1) d_tau(p, q) on 1000 triples")


def _all_depth_pairs(depth: int):
    trees = enumerate_trees(depth)
    all_vertices = frozenset().union(*trees)
    for left in trees:
        for right in [frozenset(), *trees]:
            if left | right == all_vertices:
                yield left, right


def test_criterion_9_boundary_locality_fixed_point_realizable():
    qs = sorted(orbit_levels(ONE, 3).depths, key=lambda p: p.support)
    for f in generator_ball(2):
        h = height(f)
        for q in qs:
            for k in range(window_requirement(f), 9):
                assert act_truncated(f, embed(q, k)) == embed(act(f, q), k - h)
    full10 = PairTruncation(TreeTruncation.full(10), TreeTruncation.full(10))
    for _, g in _generators():
        out = act_truncated(g, full10)
        assert out.left.is_full() and out.right.is_full()
    pairs = 0
    for depth in (1, 2, 3):
        for left, right in _all_depth_pairs(depth):
            pair = PairTruncation(
                TreeTruncation(depth, left), TreeTruncation(depth, right)
            )
            assert is_realizable(pair) == brute_force_realizable(left, right, depth)
            pairs += 1
    _report(
        9,
        f"locality square (window-exact range), (full,full) fixed at depth 10, "
        f"realizability matches brute force on {pairs} pairs",
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "impossible as literally stated: P[1]+P[221] and P[1]+P[222] lie in "
        "orbit(1,3) and share their depth-2 window, but x1 sends them to "
        "different depth-1 windows, so no act_truncated can satisfy the "
        "commuting square for every k > height(f); the exact requirement is "
        "k >= max(domain depth, height+1), tested in criterion 9"
    ),
)
def test_criterion_9_literal_range_is_unsatisfiable():
    qs = sorted(orbit_levels(ONE, 3).depths, key=lambda p: p.support)
    for f in generator_ball(2):
        h = height(f)
        for q in qs:
            for k in range(h + 1, 9):
                try:
                    got = act_truncated(f, embed(q, k))
                except DepthTooShallow:
                    pytest.fail(f"window too shallow for {f} at k={k}")
                assert got == embed(act(f, q), k - h)


def test_criterion_10_independence_certificates():
    ball2 = generator_ball(2)
    cert = independence_certificate(ball2)
    assert cert.verify()
    rng = random.Random(10)
    sample = rng.sample(generator_ball(3), 20)
    cert3 = independence_certificate(sample)
    assert cert3.verify()
    _report(
        10,
        f"certificates for the full radius-2 ball ({len(ball2)} elements) and "
        "20 random ball-3 elements re-verify",
    )


def test_criterion_11_orbit_performance_and_determinism():
    # depth 7 keeps every support at level <= 9
    runs = [
        orbit_levels(ONE, 7),
        orbit_levels(ONE, 7),
        orbit_levels(ONE, 7),
    ]
    for run in runs:
        assert max(max((len(w) for w in p.support), default=0) for p in run.depths) <= 9
    serialized = [
        json.dumps(
            sorted((d, str(p)) for p, d in run.depths.items()), sort_keys=True
        ).encode()
        for run in runs
    ]
    assert serialized[0] == serialized[1] == serialized[2]
    # the median of the three runs, so one slow phase of the machine cannot fail it
    rate = statistics.median(run.action_evaluations / run.seconds for run in runs)
    assert rate >= 1e5, f"median orbit rate {rate:.0f}/s below 1e5/s"
    _report(
        11,
        f"orbit(1,7): {runs[0].action_evaluations} actions at a median {rate:,.0f}/s "
        "over 3 runs, byte-identical across runs",
    )
