"""Command-line front end.

One subcommand per library operation, text or JSON I/O, DOT export of
the bipartite and tree-pair diagrams, and orbit persistence as
line-delimited JSON.  All output is canonical and byte-deterministic;
traces print as exact dyadic rationals.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from typing import Callable, Sequence

from . import boundary, omega, representation
from .dyadic import digits
from .elements import (
    GroupElement, _from_words, inverse, is_cyclic_order_preserving, is_order_preserving, multiply,
)
from .generators import _generators, element_of_word, parse_generator_word, to_normal_form
from .words import word_to_str

MAX_GENERATOR_INDEX = 64
# `unnf` multiplies its word out as a balanced tree of products, each distinct letter built
# once: 1,000 random letters of x0-x63 take 0.04-0.06 s, x0^1000 0.009 s (Python 3.11.7)
MAX_UNNF_LETTERS = 1000
# `realize` and `act` print the atoms of p and 1 - p, about len(ends) * n^2 letters
# at level n.  At the cap, P[1^1448] takes 0.14 s and 21 MB and prints 1.4 MB; 1,024 two-cell
# intervals at level 45 take 0.53 s and 35 MB and print 2.3 MB (Python 3.11.7, 2 vCPUs)
MAX_PROJECTION_SIZE = 1 << 22
# `orbit` prints up to about 3^depth points of len(ends) * n^2 letters from a level-n start.
# The cap admits every start two steps from 1 at depth 12; at the cap, P[1122]+P[1211]+P[2122]+
# P[2211] to depth 12 takes 6.4-6.8 s and 253 MB and writes 52.5 MB (Python 3.11.7, 2 vCPUs)
MAX_ORBIT_SIZE = 64 * 3 ** 12
MAX_ERROR_CHARS = 200


def _check_depth(depth: int) -> None:
    """Reject a depth above the FTREES_MAX_DEPTH cap (default 12).  At the
    cap, from the start 1, `orbit 1 --depth 12 --out f` writes 243,539
    points (18.2 MB) in about 3.1 s at 107 MB peak RSS (medians of 6 runs,
    Python 3.11.7, 2 vCPUs); a deeper start costs more, up to MAX_ORBIT_SIZE."""
    raw = os.environ.get("FTREES_MAX_DEPTH", "12")
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"FTREES_MAX_DEPTH={raw!r} is not an integer")
    if depth > cap:
        raise ValueError(f"depth {depth} exceeds FTREES_MAX_DEPTH={cap}")


def _capped(p: omega.DiagonalProjection) -> omega.DiagonalProjection:
    """p, unless len(p.ends) * p.n^2 is above MAX_PROJECTION_SIZE."""
    if len(p.ends) * p.n ** 2 > MAX_PROJECTION_SIZE:
        raise ValueError(f"{len(p.ends)} ends * level {p.n}^2 exceed cap {MAX_PROJECTION_SIZE}")
    return p


def _drop_stdout() -> None:
    """Point stdout at os.devnull after a failed write: the flush at exit
    would fail again on the bytes left in its buffer (exit status 120)."""
    try:
        fd = sys.stdout.fileno()
    except OSError:  # an in-memory stdout has no descriptor and no exit flush
        return
    os.dup2(os.open(os.devnull, os.O_WRONLY), fd)


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
    """The element written `text`."""
    if as_json:
        terms = _json_object(text, "terms")["terms"]
        if not isinstance(terms, list) or not all(
            isinstance(t, list) and len(t) == 2 for t in terms
        ):
            raise ValueError("terms must be a JSON list of [alpha, beta] pairs")
        pairs = [_json_words(t, "a term") for t in terms]
        alphas, betas = [a for a, _ in pairs], [b for _, b in pairs]
    else:
        terms = [chunk.partition(":") for chunk in text.split("+")]
        for chunk, sep, _ in terms:
            if not sep:  # the first bad term: a term with a colon is never empty
                if chunk := chunk.strip():
                    raise ValueError(f"term {chunk!r} is not of the form alpha:beta")
                raise ValueError("empty term in element syntax")
        alphas = [_word(a.strip()) for a, _, _ in terms]
        betas = [_word(b.strip()) for _, _, b in terms]
    return _from_words(alphas, betas)


def format_element(f: GroupElement, as_json: bool = False) -> str:
    if as_json:
        return json.dumps(
            {"terms": [[word_to_str(t.alpha), word_to_str(t.beta)] for t in f.terms]},
            sort_keys=True,
        )
    return str(f)


def parse_projection(text: str, as_json: bool = False) -> omega.DiagonalProjection:
    if as_json:
        data = _json_object(text, "support")
        return omega.DiagonalProjection(_json_words(data["support"], "support"))
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
    return omega.DiagonalProjection(words)


def format_projection(p: omega.DiagonalProjection, as_json: bool = False) -> str:
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
    _check_depth(depth)
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
    terms = f.terms  # canonical terms are in alpha order: a{i} is terms[i]
    if kind == "bipartite":
        by_beta = sorted(range(len(terms)), key=lambda i: terms[i].beta)
        lines.append("digraph bipartite {")
        lines.append("  rankdir=TB;")
        lines.append("  node [shape=plaintext];")
        lines.append("  { rank=same;")
        for i, j in enumerate(by_beta):
            lines.append(f'    b{i} [label="{word_to_str(terms[j].beta)}"];')
        lines.append("  }")
        lines.append("  { rank=same;")
        for i, t in enumerate(terms):
            lines.append(f'    a{i} [label="{word_to_str(t.alpha)}"];')
        lines.append("  }")
        for i in range(len(by_beta) - 1):
            lines.append(f"  b{i} -> b{i + 1} [style=invis];")
            lines.append(f"  a{i} -> a{i + 1} [style=invis];")
        for i, j in enumerate(by_beta):
            lines.append(f"  b{i} -> a{j};")
        lines.append("}")
    elif kind == "treepair":
        lines.append("digraph treepair {")
        lines.append("  node [shape=circle, label=\"\"];")
        for name, words, tag in (
            ("domain", [t.beta for t in terms], "d"),
            ("range", [t.alpha for t in terms], "r"),
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


# each subcommand's (name, help, arguments, handler), in declaration order
_COMMANDS: list[tuple[str, str, tuple, Callable[[argparse.Namespace], int]]] = []


def _command(name: str, summary: str, *arguments: str | tuple[str, dict]) -> Callable:
    """Declare the decorated handler as the subcommand `name`; an argument is
    a positional's name or a (flag, add_argument options) pair."""
    def declare(handler: Callable[[argparse.Namespace], int]) -> Callable:
        _COMMANDS.append((name, summary, arguments, handler))
        return handler
    return declare


def _answer(yes: bool) -> int:
    """Print a membership answer; its exit code is 0 for yes, 1 for no."""
    print("yes" if yes else "no")
    return 0 if yes else 1


# `member --set`: the membership test of each set
_MEMBERSHIP = {
    "f": is_order_preserving,
    "t": is_cyclic_order_preserving,
    "v": lambda f: True,
    "h2": lambda f: is_order_preserving(f) and omega.h2_member(f),
}


@_command("mul", "product uw (w applied first)", "u", "w")
def _cmd_mul(args: argparse.Namespace) -> int:
    u = parse_element(args.u, args.json)
    w = parse_element(args.w, args.json)
    print(format_element(multiply(u, w), args.json))
    return 0


@_command("inv", "inverse of an element", "element")
def _cmd_inv(args: argparse.Namespace) -> int:
    print(format_element(inverse(parse_element(args.element, args.json)), args.json))
    return 0


@_command("reduce", "canonical form of a term list", "element")
def _cmd_reduce(args: argparse.Namespace) -> int:
    print(format_element(parse_element(args.element, args.json), args.json))
    return 0


@_command("nf", "normal form of an element of F", "element")
def _cmd_nf(args: argparse.Namespace) -> int:
    f = parse_element(args.element, args.json)
    print(to_normal_form(f))
    return 0


@_command("unnf", "element of a generator word", "word")
def _cmd_unnf(args: argparse.Namespace) -> int:
    letters = parse_generator_word(args.word)
    if len(letters) > MAX_UNNF_LETTERS:
        raise ValueError(f"{len(letters)} letters exceed cap {MAX_UNNF_LETTERS}")
    for idx, _ in letters:
        if idx > MAX_GENERATOR_INDEX:
            raise ValueError(f"generator index {idx} exceeds cap {MAX_GENERATOR_INDEX}")
    print(format_element(element_of_word(letters), args.json))
    return 0


@_command("member", "membership in F, T, V or H2",
          ("--set", {"choices": list(_MEMBERSHIP), "required": True}), "element")
def _cmd_member(args: argparse.Namespace) -> int:
    return _answer(_MEMBERSHIP[args.set](parse_element(args.element, args.json)))


@_command("act", "coset action f . p", "element", "projection")
def _cmd_act(args: argparse.Namespace) -> int:
    f = parse_element(args.element, args.json)
    p = _capped(parse_projection(args.projection, args.json))
    print(format_projection(omega.act(f, p), args.json))
    return 0


@_command("coset", "coset invariant f_0 f_0*", "element")
def _cmd_coset(args: argparse.Namespace) -> int:
    f = parse_element(args.element, args.json)
    print(format_projection(omega.coset_invariant(f), args.json))
    return 0


@_command("trace", "exact trace of a projection", "projection")
def _cmd_trace(args: argparse.Namespace) -> int:
    print(omega.trace(parse_projection(args.projection, args.json)))
    return 0


@_command("omega2", "Omega_2 membership (trace test)", "projection")
def _cmd_omega2(args: argparse.Namespace) -> int:
    km = omega.omega2_member(parse_projection(args.projection, args.json))
    if km is None:
        return _answer(False)
    k, m = km
    print(f"k={digits(k)} m={m}")
    return 0


@_command("realize", "element realizing a projection as f . 1", "projection")
def _cmd_realize(args: argparse.Namespace) -> int:
    p = _capped(parse_projection(args.projection, args.json))
    print(format_element(omega.realize(p), args.json))
    return 0


@_command("orbit", "breadth-first orbit enumeration", "start",
          ("--depth", {"type": int, "required": True}),
          ("--out", {"help": "write line-delimited JSON here"}))
def _cmd_orbit(args: argparse.Namespace) -> int:
    _check_depth(args.depth)
    start = parse_projection(args.start, args.json)
    if len(start.ends) * start.n ** 2 * 3 ** max(args.depth, 0) > MAX_ORBIT_SIZE:
        raise ValueError(f"{len(start.ends)} ends * level {start.n}^2 * 3^{args.depth} "
                         f"exceed cap {MAX_ORBIT_SIZE}")
    run = omega.orbit_levels(start, args.depth)
    header = {"generators": [name for name, _ in _generators()], "start": str(start),
              "depth": args.depth, "count": len(run.depths)}
    def write(fh) -> None:  # the levels in turn, each sorted by its text
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        points = iter(run.depths)  # in discovery order, level after level
        texts: dict = {}  # each interval's text, made once for the file
        for d, _, new, _ in run.levels:  # the text of p needs no JSON escaping
            level = sorted(omega._text(*p, texts) for p in itertools.islice(points, new))
            fh.writelines(f'{{"depth": {d}, "p": "{p}"}}\n' for p in level)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                write(fh)
        except OSError as exc:  # exit 2, not 1: 1 means "no" to a membership question
            raise ValueError(f"cannot write the orbit file: {exc}") from exc
        print(f"{len(run.depths)} projections")
    else:
        try:
            write(sys.stdout)
            sys.stdout.flush()
        except BrokenPipeError:  # the reader stopped early, as `| head` does: no error
            _drop_stdout()
    return 0


@_command("boundary-act", "action on a truncated tree pair", "element",
          ("pair", {"help": 'JSON {"depth": k, "left": [...], "right": [...]}'}))
def _cmd_boundary_act(args: argparse.Namespace) -> int:
    f = parse_element(args.element, args.json)
    print(format_pair(boundary.act_truncated(f, parse_pair(args.pair))))
    return 0


@_command("realizable", "does the pair window meet Omega_2", "pair")
def _cmd_realizable(args: argparse.Namespace) -> int:
    return _answer(boundary.is_realizable(parse_pair(args.pair)))


@_command("witness", "two Omega_2 points sharing the window", "pair")
def _cmd_witness(args: argparse.Namespace) -> int:
    q1, q2 = boundary.non_isolation_witness(parse_pair(args.pair))
    print(json.dumps({"q": str(q1), "q'": str(q2)}, sort_keys=True))
    return 0


@_command("separate", "independence certificate for elements", ("elements", {"nargs": "+"}))
def _cmd_separate(args: argparse.Namespace) -> int:
    fs = [parse_element(e, args.json) for e in args.elements]
    cert = representation.independence_certificate(fs)
    print(json.dumps(cert.to_json(), sort_keys=True))
    return 0


@_command("dot", "DOT diagram export",
          ("--kind", {"choices": ["bipartite", "treepair"], "default": "bipartite"}), "element")
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
    for name, summary, arguments, handler in _COMMANDS:
        p = sub.add_parser(name, help=summary)
        for arg in arguments:
            flag, options = (arg, {}) if isinstance(arg, str) else arg
            p.add_argument(flag, **options)
        p.set_defaults(func=handler)
    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Dispatch one invocation; returns the process exit code.

    Membership subcommands exit 0 for yes and 1 for no; parse and
    validation failures exit 2 with a one-line diagnostic on stderr, cut
    after MAX_ERROR_CHARS characters of the message.
    """
    args = build_parser().parse_args(argv)
    # every input error of the library is a ValueError, JSON syntax errors too
    try:
        code = args.func(args)
        sys.stdout.flush()  # in the try: a failed write must not read as an answer
        return code
    except OSError as exc:  # stdout failed, as on a full disk
        _drop_stdout()
        msg = f"cannot write the output: {exc}"
    except ValueError as exc:
        msg = str(exc)
    except representation.SearchExhausted as exc:  # apart: a ValueError runs no search code
        msg = str(exc)
    if len(msg) > MAX_ERROR_CHARS:  # a message can echo a long input
        msg = f"{msg[:MAX_ERROR_CHARS]} ... (cut from {len(msg)} characters)"
    print(f"error: {msg}", file=sys.stderr)
    return 2


main = run


if __name__ == "__main__":
    sys.exit(main())
