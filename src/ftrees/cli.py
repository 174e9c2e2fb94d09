"""Command-line front end.

One subcommand per library operation, text or JSON I/O, DOT export of
the bipartite and tree-pair diagrams, and orbit persistence as
line-delimited JSON.  All output is canonical and byte-deterministic;
traces print as exact dyadic rationals.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Sequence

from . import boundary, omega, representation
from .elements import (
    GroupElement, Term, inverse, is_cyclic_order_preserving, is_order_preserving, multiply,
    validate_unitary,
)
from .generators import element_of_word, parse_generator_word, to_normal_form
from .omega import DiagonalProjection
from .words import word_to_str

MAX_GENERATOR_INDEX = 64
# `unnf` multiplies its word out letter by letter, which is quadratic
MAX_UNNF_LETTERS = 1000


def _max_depth() -> int:
    raw = os.environ.get("FTREES_MAX_DEPTH", "12")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"FTREES_MAX_DEPTH={raw!r} is not an integer")


def _json_object(text: str, *keys: str) -> dict:
    """The JSON object in `text`; it must hold every key in `keys`."""
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("JSON input is nested too deeply") from None
    if not isinstance(data, dict) or any(k not in data for k in keys):
        raise ValueError(f"expected a JSON object with keys {', '.join(keys)}")
    return data


def _word(s: str) -> str:
    """The word written `s`: "e" is the empty word.  Letters are left to
    the one check of the value the word enters (`CompleteCode`,
    `DiagonalProjection` or `TreeTruncation`)."""
    return "" if s == "e" else s


def _json_words(value: object, what: str) -> list[str]:
    """The words of a JSON list of word strings."""
    if not isinstance(value, list) or not all(isinstance(w, str) for w in value):
        raise ValueError(f"{what} must be a JSON list of words")
    return [_word(w) for w in value]


def parse_element(text: str, as_json: bool = False) -> GroupElement:
    if as_json:
        terms = _json_object(text, "terms")["terms"]
        if not isinstance(terms, list) or not all(
            isinstance(t, list) and len(t) == 2 for t in terms
        ):
            raise ValueError("terms must be a JSON list of [alpha, beta] pairs")
        return GroupElement.from_terms(_json_words(t, "a term") for t in terms)
    terms = []
    for chunk in text.split("+"):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError("empty term in element syntax")
        a, sep, b = chunk.partition(":")
        if not sep:
            raise ValueError(f"term {chunk!r} is not of the form alpha:beta")
        terms.append(Term(_word(a.strip()), _word(b.strip())))
    return validate_unitary(terms)


def format_element(f: GroupElement, as_json: bool = False) -> str:
    if as_json:
        return json.dumps(
            {"terms": [[word_to_str(t.alpha), word_to_str(t.beta)] for t in f.terms]},
            sort_keys=True,
        )
    return str(f)


def parse_projection(text: str, as_json: bool = False) -> DiagonalProjection:
    if as_json:
        data = _json_object(text, "support")
        return DiagonalProjection(_json_words(data["support"], "support"))
    text = text.strip()
    if text == "0":
        return omega.ZERO
    if text == "1":
        return omega.ONE
    words = []
    for chunk in text.split("+"):
        chunk = chunk.strip()
        if not (chunk.startswith("P[") and chunk.endswith("]")):
            raise ValueError(f"projection term {chunk!r} is not of the form P[word]")
        words.append(_word(chunk[2:-1]))
    return DiagonalProjection(words)


def format_projection(p: DiagonalProjection, as_json: bool = False) -> str:
    if as_json:
        return json.dumps(
            {"support": [word_to_str(w) for w in p.support]}, sort_keys=True
        )
    return str(p)


def parse_pair(text: str) -> boundary.PairTruncation:
    data = _json_object(text, "depth", "left", "right")
    depth = data["depth"]
    if not isinstance(depth, int) or isinstance(depth, bool):
        raise ValueError("depth must be a JSON integer")
    if depth > _max_depth():
        raise ValueError(f"depth {depth} exceeds FTREES_MAX_DEPTH={_max_depth()}")
    left = boundary.TreeTruncation(depth, _json_words(data["left"], "left"))
    right = boundary.TreeTruncation(depth, _json_words(data["right"], "right"))
    return boundary.PairTruncation(left, right)


def format_pair(pair: boundary.PairTruncation) -> str:
    return json.dumps(
        {
            "depth": pair.depth,
            "left": [word_to_str(v) for v in pair.left.sorted_vertices()],
            "right": [word_to_str(v) for v in pair.right.sorted_vertices()],
        },
        sort_keys=True,
    )


def export_dot(kind: str, f: GroupElement) -> str:
    """DOT text of the bipartite diagram or the tree pair."""
    lines = []
    if kind == "bipartite":
        by_beta = sorted(f.terms, key=lambda t: t.beta)
        lines.append("digraph bipartite {")
        lines.append("  rankdir=TB;")
        lines.append("  node [shape=plaintext];")
        lines.append("  { rank=same;")
        for i, t in enumerate(by_beta):
            lines.append(f'    b{i} [label="{word_to_str(t.beta)}"];')
        lines.append("  }")
        lines.append("  { rank=same;")
        for i, t in enumerate(sorted(f.terms)):
            lines.append(f'    a{i} [label="{word_to_str(t.alpha)}"];')
        lines.append("  }")
        for i in range(len(by_beta) - 1):
            lines.append(f"  b{i} -> b{i + 1} [style=invis];")
            lines.append(f"  a{i} -> a{i + 1} [style=invis];")
        alpha_rank = {t.alpha: i for i, t in enumerate(sorted(f.terms))}
        for i, t in enumerate(by_beta):
            lines.append(f"  b{i} -> a{alpha_rank[t.alpha]};")
        lines.append("}")
    elif kind == "treepair":
        lines.append("digraph treepair {")
        lines.append("  node [shape=circle, label=\"\"];")
        for name, words, tag in (
            ("domain", [t.beta for t in f.terms], "d"),
            ("range", [t.alpha for t in f.terms], "r"),
        ):
            ordinal = {v: i for i, v in enumerate(sorted(words), 1)}
            vertices = sorted({w[:i] for w in ordinal for i in range(len(w) + 1)})
            lines.append(f"  subgraph cluster_{name} {{")
            lines.append(f'    label="{name}";')
            for v in vertices:
                node = f"{tag}_{v or 'root'}"
                if v in ordinal:
                    lines.append(f'    {node} [shape=plaintext, label="{ordinal[v]}"];')
                else:
                    lines.append(f"    {node};")
            for v in vertices:
                if v:
                    lines.append(f"    {tag}_{v[:-1] or 'root'} -> {tag}_{v};")
            lines.append("  }")
        lines.append("}")
    else:
        raise ValueError(f"unknown dot kind {kind!r}")
    return "\n".join(lines) + "\n"


def _cmd_mul(args: argparse.Namespace) -> int:
    u = parse_element(args.u, args.json)
    w = parse_element(args.w, args.json)
    print(format_element(multiply(u, w), args.json))
    return 0


def _cmd_inv(args: argparse.Namespace) -> int:
    print(format_element(inverse(parse_element(args.element, args.json)), args.json))
    return 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    print(format_element(parse_element(args.element, args.json), args.json))
    return 0


def _cmd_nf(args: argparse.Namespace) -> int:
    f = parse_element(args.element, args.json)
    print(to_normal_form(f))
    return 0


def _cmd_unnf(args: argparse.Namespace) -> int:
    letters = parse_generator_word(args.word)
    if len(letters) > MAX_UNNF_LETTERS:
        raise ValueError(f"{len(letters)} letters exceed cap {MAX_UNNF_LETTERS}")
    for idx, _ in letters:
        if idx > MAX_GENERATOR_INDEX:
            raise ValueError(f"generator index {idx} exceeds cap {MAX_GENERATOR_INDEX}")
    print(format_element(element_of_word(letters), args.json))
    return 0


def _cmd_member(args: argparse.Namespace) -> int:
    f = parse_element(args.element, args.json)
    if args.set == "f":
        yes = is_order_preserving(f)
    elif args.set == "t":
        yes = is_cyclic_order_preserving(f)
    elif args.set == "v":
        yes = True
    else:
        yes = is_order_preserving(f) and omega.h2_member(f)
    print("yes" if yes else "no")
    return 0 if yes else 1


def _cmd_act(args: argparse.Namespace) -> int:
    f = parse_element(args.element, args.json)
    p = parse_projection(args.projection, args.json)
    print(format_projection(omega.act(f, p), args.json))
    return 0


def _cmd_coset(args: argparse.Namespace) -> int:
    f = parse_element(args.element, args.json)
    print(format_projection(omega.coset_invariant(f), args.json))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    print(omega.trace(parse_projection(args.projection, args.json)))
    return 0


def _cmd_omega2(args: argparse.Namespace) -> int:
    km = omega.omega2_member(parse_projection(args.projection, args.json))
    if km is None:
        print("no")
        return 1
    k, m = km
    print(f"k={k} m={m}")
    return 0


def _cmd_realize(args: argparse.Namespace) -> int:
    p = parse_projection(args.projection, args.json)
    print(format_element(omega.realize(p), args.json))
    return 0


def _cmd_orbit(args: argparse.Namespace) -> int:
    if args.depth > _max_depth():
        raise ValueError(f"depth {args.depth} exceeds FTREES_MAX_DEPTH={_max_depth()}")
    start = parse_projection(args.start, args.json)
    run = omega.orbit_levels(start, args.depth)
    records = sorted((d, str(p)) for p, d in run.depths.items())
    lines = [
        json.dumps(
            {
                "generators": ["x0", "x0^-1", "x1", "x1^-1"],
                "start": str(start),
                "depth": args.depth,
                "count": len(records),
            },
            sort_keys=True,
        )
    ]
    lines += [
        json.dumps({"depth": d, "p": p}, sort_keys=True) for d, p in records
    ]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"{len(records)} projections")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_boundary_act(args: argparse.Namespace) -> int:
    f = parse_element(args.element, args.json)
    print(format_pair(boundary.act_truncated(f, parse_pair(args.pair))))
    return 0


def _cmd_realizable(args: argparse.Namespace) -> int:
    yes = boundary.is_realizable(parse_pair(args.pair))
    print("yes" if yes else "no")
    return 0 if yes else 1


def _cmd_witness(args: argparse.Namespace) -> int:
    q1, q2 = boundary.non_isolation_witness(parse_pair(args.pair))
    print(json.dumps({"q": str(q1), "q'": str(q2)}, sort_keys=True))
    return 0


def _cmd_separate(args: argparse.Namespace) -> int:
    fs = [parse_element(e, args.json) for e in args.elements]
    cert = representation.independence_certificate(fs)
    print(json.dumps(cert.to_json(), sort_keys=True))
    return 0


def _cmd_dot(args: argparse.Namespace) -> int:
    f = parse_element(args.element, args.json)
    sys.stdout.write(export_dot(args.kind, f))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: parsing never changes it."""
    parser = argparse.ArgumentParser(
        prog="ftrees",
        description="Thompson's group F in the Cuntz-algebra word calculus",
    )
    parser.add_argument(
        "--json", action="store_true", help="read and write elements/projections as JSON"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mul", help="product uw (w applied first)")
    p.add_argument("u")
    p.add_argument("w")
    p.set_defaults(func=_cmd_mul)

    p = sub.add_parser("inv", help="inverse of an element")
    p.add_argument("element")
    p.set_defaults(func=_cmd_inv)

    p = sub.add_parser("reduce", help="canonical form of a term list")
    p.add_argument("element")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("nf", help="normal form of an element of F")
    p.add_argument("element")
    p.set_defaults(func=_cmd_nf)

    p = sub.add_parser("unnf", help="element of a generator word")
    p.add_argument("word")
    p.set_defaults(func=_cmd_unnf)

    p = sub.add_parser("member", help="membership in F, T, V or H2")
    p.add_argument("--set", choices=["f", "t", "v", "h2"], required=True)
    p.add_argument("element")
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser("act", help="coset action f . p")
    p.add_argument("element")
    p.add_argument("projection")
    p.set_defaults(func=_cmd_act)

    p = sub.add_parser("coset", help="coset invariant f_0 f_0*")
    p.add_argument("element")
    p.set_defaults(func=_cmd_coset)

    p = sub.add_parser("trace", help="exact trace of a projection")
    p.add_argument("projection")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("omega2", help="Omega_2 membership (trace test)")
    p.add_argument("projection")
    p.set_defaults(func=_cmd_omega2)

    p = sub.add_parser("realize", help="element realizing a projection as f . 1")
    p.add_argument("projection")
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("orbit", help="breadth-first orbit enumeration")
    p.add_argument("start")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--out", default=None, help="write line-delimited JSON here")
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("boundary-act", help="action on a truncated tree pair")
    p.add_argument("element")
    p.add_argument("pair", help='JSON {"depth": k, "left": [...], "right": [...]}')
    p.set_defaults(func=_cmd_boundary_act)

    p = sub.add_parser("realizable", help="does the pair window meet Omega_2")
    p.add_argument("pair")
    p.set_defaults(func=_cmd_realizable)

    p = sub.add_parser("witness", help="two Omega_2 points sharing the window")
    p.add_argument("pair")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("separate", help="independence certificate for elements")
    p.add_argument("elements", nargs="+")
    p.set_defaults(func=_cmd_separate)

    p = sub.add_parser("dot", help="DOT diagram export")
    p.add_argument("--kind", choices=["bipartite", "treepair"], default="bipartite")
    p.add_argument("element")
    p.set_defaults(func=_cmd_dot)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Dispatch one invocation; returns the process exit code.

    Membership subcommands exit 0 for yes and 1 for no; parse and
    validation failures exit 2 with a one-line diagnostic on stderr.
    """
    args = build_parser().parse_args(argv)
    # every input error of the library is a ValueError, JSON syntax errors too
    try:
        return args.func(args)
    except (ValueError, KeyError, representation.SearchExhausted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


main = run


if __name__ == "__main__":
    sys.exit(main())
