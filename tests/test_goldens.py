"""Byte-exact CLI output of the boundary subcommands, of an orbit file
and of an independence certificate.

`goldens.json` was recorded from the dense vertex-set implementation of
the boundary module, before windows became intervals; the printed bytes
and exit codes must not change.  Each window is rebuilt here from the
vertex oracle, so the inputs do not depend on the code under test.  The
`separate` certificate of the 53 elements of the radius-3 generator ball
was recorded before the search stopped a candidate at its first repeated
image.  The public surface (`ftrees.__all__` and every `--help` text, at
80 columns, with a second top-level text for Python 3.13 and later) and
the DOT export of that ball were recorded before each subcommand was
declared beside its handler.  The `realize` witnesses
of a fixed list of projections were recorded before `GroupElement(terms)`
checked its terms: two seeded random supports at each level 2-9, the
mixed-depth P[2]+P[1^38 2], and supports whose parity weights alternate
1, 2, ..., 1 at the root, so that no split point exists there.  The
witness of the level-12 support of `test_omega.test_realize_level12_support`
(1,430 words, 3,243 terms) is pinned by its sha256 alone, recorded
before realize ran on integer intervals.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

import ftrees
from ftrees.cli import format_element, main
from ftrees.generators import generator_ball
from ftrees.omega import DiagonalProjection

from oracles import pattern_window, window_by_vertices

GOLDENS = json.loads((Path(__file__).with_name("goldens.json")).read_text())

# depth-k windows by their cells (L left only, R right only, B both) or
# as the window of a projection
WINDOWS = {
    "full-12": "B" * 4096,
    "one-3": "L" * 8,
    "path-1": "LR",
    "mixed-3": "RBLLBRRB",
    "mixed-5": "LLBRRRBBLRLLLBRRBBBLRRRLLLLBRBRL",
    "sparse-4": (["1", "221"], 4),
    "sparse-6": (["1111112", "12", "2211"], 6),
    "zero-2": "RRRR",
    "gap-2": "LB-R",
}
ELEMENTS = {
    "x0": "11:1 + 12:21 + 2:22",
    "x1": "1:1 + 211:21 + 212:221 + 22:222",
    "x0^-1": "1:11 + 21:12 + 22:2",
}


def pair_json(name: str) -> str:
    spec = WINDOWS[name]
    if isinstance(spec, str):
        k, left, right = pattern_window(spec)
    else:
        support, k = spec
        left, right = window_by_vertices(DiagonalProjection(support), k)

    def words(vs):
        return [v or "e" for v in sorted(vs, key=lambda v: (len(v), v))]

    return json.dumps({"depth": k, "left": words(left), "right": words(right)}, sort_keys=True)


def argv_of(case: dict) -> list[str]:
    pair = pair_json(case["window"])
    if case["command"] == "boundary-act":
        return ["boundary-act", ELEMENTS[case["element"]], pair]
    return [case["command"], pair]


def record(capsys, argv: list[str]) -> dict:
    code = main(argv)
    out = capsys.readouterr().out
    digest = hashlib.sha256(out.encode()).hexdigest()
    return {"code": code, "sha256": digest, "stdout": out if len(out) <= 400 else None}


@pytest.mark.parametrize(
    "case", GOLDENS["boundary"], ids=lambda c: f"{c['command']}-{c['window']}-{c.get('element')}"
)
def test_boundary_output_is_byte_identical(capsys, case):
    got = record(capsys, argv_of(case))
    assert got == {k: case[k] for k in ("code", "sha256", "stdout")}


def test_orbit_file_is_byte_identical(capsys, tmp_path):
    out = tmp_path / "f"
    assert main(["orbit", "1", "--depth", "6", "--out", str(out)]) == 0
    assert capsys.readouterr().out == GOLDENS["orbit"]["stdout"]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDENS["orbit"]["sha256"]


def test_separate_certificate_is_byte_identical(capsys):
    case = GOLDENS["separate"]
    assert main(case["argv"]) == case["code"]
    assert capsys.readouterr().out == case["stdout"]


def test_public_names_and_help_texts_are_unchanged(capsys, monkeypatch):
    surface = GOLDENS["surface"]
    assert sorted(ftrees.__all__) == surface["all"]
    # argparse wraps help to the terminal width it reads from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    texts = dict(surface["help"])
    if sys.version_info >= (3, 13):
        # argparse 3.13 keeps the usage's trailing "..." on the line of the
        # subcommand list; every other text is the same on every version
        texts[""] = surface["help_3.13"]
    for command, text in texts.items():
        with pytest.raises(SystemExit) as stop:
            main([command, "--help"] if command else ["--help"])
        assert stop.value.code == 0
        assert capsys.readouterr().out == text, command or "ftrees"


def test_dot_export_is_byte_identical(capsys):
    ball = generator_ball(3)
    assert len(ball) == GOLDENS["dot"]["elements"]
    for kind, digest in GOLDENS["dot"]["sha256"].items():
        h = hashlib.sha256()
        for f in ball:
            assert main(["dot", "--kind", kind, format_element(f)]) == 0
            h.update(capsys.readouterr().out.encode())
        assert h.hexdigest() == digest, kind


@pytest.mark.parametrize("case", GOLDENS["realize"], ids=lambda c: c["projection"][:40])
def test_realize_witness_is_byte_identical(capsys, case):
    assert main(["realize", case["projection"]]) == case["code"]
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == case["sha256"]
    assert case["stdout"] in (None, out)
