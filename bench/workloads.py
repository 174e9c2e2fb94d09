"""The three workloads: their seeded inputs, timed operations and checks.

Each workload builds a *pass*: a fixed, size-stratified list of
operations generated from the seed.  The run repeats the pass, so every
seed times the same mix of input sizes and only the random content
changes.  An operation's `call` is the timed part; `check` and `digest`
run outside the timed region and never call the function under test.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import inputs
import oracle


@dataclass
class Op:
    group: str  # the operation family: orbit_wide, orbit_deep, nf, mul, ...
    key: str  # canonical text of the input, for the input digest
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    digest: Callable[[Any], str]
    units: Callable[[Any], int] = lambda out: 1  # work done, for work_per_s


@dataclass
class Workload:
    ops: list[Op]
    latency_groups: tuple[str, ...]  # pooled into p50_ms and p90_ms
    rate_groups: tuple[str, ...]  # their units per busy second is work_per_s
    trace_stride: int  # the traced run times every trace_stride-th op


def _stratified(count: int, lo: int, hi: int) -> list[int]:
    """`count` sizes spread evenly over [lo, hi]."""
    return [lo + round(i * (hi - lo) / (count - 1)) for i in range(count)]


# -- orbit-bfs --------------------------------------------------------------

WIDE_DEPTH = 10
WIDE_GOLDEN = {"actions": 58_860, "points": 37_720, "points_depth_9": 14_715}
WIDE_REPEATS = 4  # wide calls per pass
DEEP_LEVELS = range(12, 19)
DEEP_DEPTHS = (2, 3)
# Per (level, depth) class, two starts whose spine begins with each of the
# eight 3-letter words: the leading letters decide how far the generators
# raise the level, and so the cost.
DEEP_STARTS = 16


def _orbit_text(run) -> str:
    return "\n".join(sorted(f"{d} {'+'.join(p.support)}" for p, d in run.depths.items()))


def _check_wide(run) -> bool:
    depths = run.depths.values()
    return (
        run.action_evaluations == WIDE_GOLDEN["actions"]
        and len(run.depths) == WIDE_GOLDEN["points"]
        and sum(1 for d in depths if d <= 9) == WIDE_GOLDEN["points_depth_9"]
        and all(oracle.words_admissible(p.support) for p in run.depths)
    )


def _bfs(start: tuple[str, ...], depth: int) -> tuple[dict, int]:
    """Orbit of `start` by breadth-first search over the interval action."""
    p0 = oracle.projection(start)
    seen = {p0: 0}
    frontier = [p0]
    actions = 0
    for d in range(1, depth + 1):
        if not frontier:
            break
        nxt = []
        for p in frontier:
            for g in oracle.GENERATORS:
                q = oracle.act(g, p)
                actions += 1
                if q not in seen:
                    seen[q] = d
                    nxt.append(q)
        frontier = nxt
    return seen, actions


def _check_deep(start: tuple[str, ...], depth: int) -> Callable[[Any], bool]:
    def check(run) -> bool:
        want, actions = _bfs(start, depth)
        got = {oracle.projection(p.support): d for p, d in run.depths.items()}
        return got == want and run.action_evaluations == actions

    return check


def orbit_bfs(lib, seed: int) -> Workload:
    rng = random.Random(seed)
    wide = Op(
        "orbit_wide",
        f"wide {WIDE_DEPTH}",
        lambda: lib.orbit_levels(lib.ONE, WIDE_DEPTH),
        _check_wide,
        _orbit_text,
        units=lambda run: run.action_evaluations,
    )
    deep = []
    for level in DEEP_LEVELS:
        for depth in DEEP_DEPTHS:
            for k in range(DEEP_STARTS):
                start = inputs.random_antichain(rng, level, prefix=oracle.atom_word(k % 8, 3))
                p = lib.DiagonalProjection(start)
                deep.append(
                    Op(
                        "orbit_deep",
                        f"deep {depth} {'+'.join(start)}",
                        lambda p=p, depth=depth: lib.orbit_levels(p, depth),
                        _check_deep(start, depth),
                        _orbit_text,
                    )
                )
    # the wide call is spread over the pass, so that a run times it often
    # and in every phase of the machine's speed
    every = -(-len(deep) // WIDE_REPEATS)
    ops = []
    for j, op in enumerate(deep):
        if j % every == 0:
            ops.append(wide)
        ops.append(op)
    return Workload(ops, ("orbit_deep",), ("orbit_wide",), trace_stride=4)


def warm_orbit_bfs(lib) -> None:
    lib.orbit_levels(lib.ONE, 4)
    lib.orbit_levels(lib.DiagonalProjection(["1" * 12]), 2)


# -- word-problem -----------------------------------------------------------

NF_OPS, NF_LETTERS = 200, (4, 64)
MUL_OPS, MUL_LEAVES = 400, (4, 64)


def word_problem(lib, seed: int) -> Workload:
    rng = random.Random(seed)
    ops = []
    for letters in _stratified(NF_OPS, *NF_LETTERS):
        pos, neg = inputs.random_normal_form(rng, letters)
        nf = lib.NormalFormWord(pos, neg)
        ops.append(
            Op(
                "nf",
                f"nf {pos} {neg}",
                lambda nf=nf: lib.to_normal_form(lib.from_normal_form(nf)),
                lambda out, pos=pos, neg=neg: (out.positive, out.negative) == (pos, neg),
                str,
            )
        )
    for leaves in _stratified(MUL_OPS, *MUL_LEAVES):
        u = inputs.random_tree_pair(rng, leaves)
        w = inputs.random_tree_pair(rng, leaves)
        fu = lib.GroupElement.from_terms(u)
        fw = lib.GroupElement.from_terms(w)
        ops.append(
            Op(
                "mul",
                f"mul {oracle.element_text(u)} | {oracle.element_text(w)}",
                lambda fu=fu, fw=fw: lib.multiply(fu, fw),
                lambda out, u=u, w=w: oracle.product_matches(u, w, out.terms),
                str,
            )
        )
    return Workload(ops, ("nf", "mul"), ("nf", "mul"), trace_stride=4)


def warm_word_problem(lib) -> None:
    lib.to_normal_form(lib.from_normal_form(lib.NormalFormWord((0, 2), (1,))))
    lib.multiply(lib.gen_x(0), lib.gen_x(1))


# -- certify ----------------------------------------------------------------

# realize: support level -> (ops per pass, atom-count band at that level).
# Levels 8 and 9 both work at level 9, where the cost grows with the atom
# count: 50-130 ms at reference speed inside these bands, against ms at
# level <= 5, so they set realize's tail.  The narrow bands keep that tail
# the same from seed to seed.  Level 10 is left out for run length:
# 4.7-67 s per call.
REALIZE_PLAN = {
    2: (24, (1, 1)),
    3: (28, (1, 4)),
    4: (30, (2, 8)),
    5: (30, (4, 16)),
    6: (30, (8, 32)),
    7: (30, (16, 64)),
    8: (14, (25, 35)),
    9: (14, (60, 80)),
}
SEPARATE_OPS, SEPARATE_SIZES = 200, (4, 48)
BOUNDARY_OPS = 100  # each of boundary-act and witness


def run_cli(lib, argv: list[str]) -> str:
    """One in-process `ftrees` invocation; its stdout, or an error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.run(argv)
    if code != 0:
        raise RuntimeError(f"exit {code}: {err.getvalue().strip()}")
    return out.getvalue()


def parse_projection_text(text: str) -> tuple[oracle.Interval, ...]:
    text = text.strip()
    if text == "0":
        return ()
    if text == "1":
        return ((Fraction(0), Fraction(1)),)
    return oracle.projection(chunk.strip()[2:-1] for chunk in text.split("+"))


def _window_json(left, right, depth: int) -> str:
    def order(vs):
        return [v or "e" for v in sorted(vs, key=lambda v: (len(v), v))]

    return json.dumps(
        {"depth": depth, "left": order(left), "right": order(right)}, sort_keys=True
    )


def _check_realize(support: tuple[str, ...]) -> Callable[[str], bool]:
    target = oracle.projection(support)

    def check(out: str) -> bool:
        terms = oracle.parse_element_text(out)
        even = [a for a, b in terms if (len(a) - len(b)) % 2 == 0]
        return oracle.is_order_preserving(terms) and oracle.projection(even) == target

    return check


def _check_separate(family: list[tuple]) -> Callable[[str], bool]:
    texts = [oracle.element_text(f) for f in family]

    def check(out: str) -> bool:
        cert = json.loads(out)
        p = parse_projection_text(cert["p"])
        images = [parse_projection_text(q) for q in cert["images"]]
        return (
            cert["elements"] == texts
            and oracle.intervals_admissible(p)
            and images == [oracle.act(f, p) for f in family]
            and len(set(images)) == len(images)
        )

    return check


def _check_boundary_act(f, q, depth: int) -> Callable[[str], bool]:
    out_depth = depth - oracle.height(f)
    want = json.loads(_window_json(*oracle.window(oracle.act(f, q), out_depth), out_depth))
    return lambda out: json.loads(out) == want


def _check_witness(pair: tuple, depth: int) -> Callable[[str], bool]:
    def check(out: str) -> bool:
        got = json.loads(out)
        qs = [parse_projection_text(got["q"]), parse_projection_text(got["q'"])]
        return qs[0] != qs[1] and all(
            oracle.intervals_admissible(q) and oracle.window(q, depth) == pair for q in qs
        )

    return check


def _target_radius(size: int) -> tuple[int, ...]:
    """Search radii a family of this size is drawn with.  The radius sets
    separate's cost (about 5, 30 and 100 ms at radius 1, 2 and 3), so it
    is pinned per size rather than left to chance; radius 4 (0.5 s) is
    excluded.  The largest families need radius 3."""
    if size < 26:
        return (0, 1)
    return (2,) if size < 46 else (3,)


def _random_family(rng: random.Random, size: int, points) -> list[tuple]:
    """Distinct reduced elements, alternately from generator balls of
    radius <= 5 and from random tree pairs with 3-8 leaves, redrawn until
    the separating search ends at one of the target radii."""
    while True:
        family: dict[tuple, None] = {}
        while len(family) < size:
            if len(family) % 2 == 0:
                f = inputs.random_ball_element(rng, rng.randint(1, 5))
            else:
                f = oracle.reduce_terms(inputs.random_tree_pair(rng, rng.randint(3, 8)))
            family.setdefault(f, None)
        if oracle.separation_radius(list(family), points) in _target_radius(size):
            return list(family)


def _small_element(rng: random.Random) -> tuple:
    if rng.random() < 0.5:
        return inputs.random_ball_element(rng, rng.randint(1, 3))
    return oracle.reduce_terms(inputs.random_tree_pair(rng, rng.randint(3, 5)))


def certify(lib, seed: int) -> Workload:
    rng = random.Random(seed)
    ops = []

    def cli_op(group: str, argv: list[str], check) -> Op:
        return Op(group, " ".join(argv), lambda: run_cli(lib, argv), check, lambda s: s)

    for level, (count, (lo, hi)) in REALIZE_PLAN.items():
        # the atom counts in the band that pass the trace test, taken in
        # turn, so that every seed times the same mix of counts
        sizes = [n for n in range(lo, hi + 1) if oracle.is_admissible_trace(n, level)]
        for j in range(count):
            support = inputs.random_atom_projection(rng, level, sizes[j % len(sizes)], sizes[j % len(sizes)])
            text = "+".join(f"P[{w}]" for w in support)
            ops.append(cli_op("realize", ["realize", text], _check_realize(support)))
    points = oracle.ball_points(max(_target_radius(SEPARATE_SIZES[1])))
    for size in _stratified(SEPARATE_OPS, *SEPARATE_SIZES):
        family = _random_family(rng, size, points)
        argv = ["separate", *(oracle.element_text(f) for f in family)]
        ops.append(cli_op("separate", argv, _check_separate(family)))
    for _ in range(BOUNDARY_OPS):
        f = _small_element(rng)
        q = oracle.projection(inputs.random_antichain(rng, rng.randint(2, 8)))
        depth = oracle.window_requirement(f) + rng.randint(0, 2)
        argv = ["boundary-act", oracle.element_text(f), _window_json(*oracle.window(q, depth), depth)]
        ops.append(cli_op("boundary", argv, _check_boundary_act(f, q, depth)))
    for _ in range(BOUNDARY_OPS):
        depth = rng.randint(2, 6)
        while True:
            q = oracle.projection(inputs.random_antichain(rng, rng.randint(depth + 1, depth + 4)))
            left, right = oracle.window(q, depth)
            if any(len(v) == depth for v in left & right):
                break
        argv = ["witness", _window_json(left, right, depth)]
        ops.append(cli_op("boundary", argv, _check_witness((left, right), depth)))

    groups = ("realize", "separate", "boundary")
    return Workload(ops, groups, groups, trace_stride=5)


_WARM_X0 = oracle.element_text(oracle.X0)
_WARM_PAIR = _window_json(*oracle.window(oracle.projection(["111", "121"]), 2), 2)


def warm_certify(lib) -> None:
    run_cli(lib, ["realize", "P[111]+P[121]"])
    run_cli(lib, ["separate", _WARM_X0, oracle.element_text(oracle.X1), "e:e"])
    run_cli(lib, ["boundary-act", _WARM_X0, _WARM_PAIR])
    run_cli(lib, ["witness", _WARM_PAIR])


WORKLOADS = {"orbit-bfs": orbit_bfs, "word-problem": word_problem, "certify": certify}
WARMUPS = {"orbit-bfs": warm_orbit_bfs, "word-problem": warm_word_problem, "certify": warm_certify}
