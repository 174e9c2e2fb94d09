import contextlib
import gc
import io
import json
import random
import re
import subprocess
import sys
import time
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftrees import cli, generators, omega, representation, words
from ftrees.boundary import PairTruncation, TreeTruncation
from ftrees.cli import (
    MAX_UNNF_LETTERS,
    export_dot,
    format_element,
    format_pair,
    format_projection,
    main,
    parse_element,
    parse_pair,
    parse_projection,
)
from ftrees.elements import GroupElement
from ftrees.generators import from_normal_form, gen_x, generator_ball
from ftrees.omega import ONE, DiagonalProjection, orbit, orbit_levels
from ftrees.representation import independence_certificate

from children import child_env
from oracles import pattern_window, random_normal_form


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_element_round_trip_text_and_json():
    rng = random.Random(0)
    ball = generator_ball(4)
    for _ in range(1000):
        f = rng.choice(ball)
        assert parse_element(format_element(f)).terms == f.terms
        assert parse_element(format_element(f, as_json=True), as_json=True).terms == f.terms


def test_projection_round_trip():
    rng = random.Random(1)
    pool = sorted(orbit(ONE, 6), key=lambda p: p.support)
    for _ in range(1000):
        p = rng.choice(pool)
        assert parse_projection(format_projection(p)) == p
        assert parse_projection(format_projection(p, as_json=True), as_json=True) == p
    assert parse_projection("0").is_zero()
    assert parse_projection("1").is_one()


@st.composite
def complete_codes(draw, leaves: int | None = None) -> list[str]:
    """A complete prefix code grown by splitting drawn leaves, in lex order."""
    n = draw(st.integers(1, 9)) if leaves is None else leaves
    code = [""]
    for i in draw(st.lists(st.integers(0, 63), min_size=n - 1, max_size=n - 1)):
        w = code.pop(i % len(code))
        code += [w + "1", w + "2"]
    return sorted(code)


@st.composite
def elements(draw) -> GroupElement:
    """An element of V: two complete codes of one size, paired in a drawn order."""
    domain = draw(complete_codes())
    codomain = draw(complete_codes(len(domain)))
    return GroupElement.from_terms(zip(draw(st.permutations(codomain)), domain))


@st.composite
def projections(draw) -> DiagonalProjection:
    """Any subset of the leaves of a complete code, 0 and 1 included."""
    code = draw(complete_codes())
    return DiagonalProjection(w for w in code if draw(st.booleans()))


# a covering window by its depth-k cells: L left tree only, R right only, B both
WINDOW_PATTERNS = st.integers(0, 6).flatmap(
    lambda k: st.text(alphabet="LRB", min_size=1 << k, max_size=1 << k)
)


@settings(max_examples=200, deadline=None)
@given(elements())
def test_format_then_parse_returns_the_element(f):
    assert parse_element(format_element(f)).terms == f.terms
    assert parse_element(format_element(f, as_json=True), as_json=True).terms == f.terms


@settings(max_examples=200, deadline=None)
@given(projections())
def test_format_then_parse_returns_the_projection(p):
    assert parse_projection(format_projection(p)) == p
    assert parse_projection(format_projection(p, as_json=True), as_json=True) == p


@settings(max_examples=200, deadline=None)
@given(WINDOW_PATTERNS)
def test_format_then_parse_returns_the_pair(pattern):
    k, left, right = pattern_window(pattern)
    pair = PairTruncation(TreeTruncation(k, left), TreeTruncation(k, right))
    assert (pair.left.vertices, pair.right.vertices) == (left, right)
    text = format_pair(pair)
    again = parse_pair(text)
    assert again == pair and hash(again) == hash(pair)
    assert format_pair(again) == text


def test_mul_worked_product(capsys):
    code, out, _ = run_cli(
        capsys,
        "mul",
        "11:1 + 12:21 + 2:22",
        "111:11 + 112:121 + 12:122 + 211:21 + 212:221 + 22:222",
    )
    assert code == 0
    assert out.strip() == "1111:11 + 1112:121 + 112:122 + 121:21 + 122:221 + 2:222"
    x0 = "11:1 + 12:21 + 2:22"
    assert run_cli(capsys, "inv", x0)[:2] == (0, "1:11 + 21:12 + 22:2\n")
    for terms in ("2:22 + 11:1 + 12:21", "111:11 + 112:12 + 12:21 + 2:22"):
        assert run_cli(capsys, "reduce", terms)[:2] == (0, x0 + "\n")
    x0_json = json.dumps({"terms": [["11", "1"], ["12", "21"], ["2", "22"]]})
    assert run_cli(capsys, "--json", "inv", x0_json)[:2] == (
        0, '{"terms": [["1", "11"], ["21", "12"], ["22", "2"]]}\n'
    )


def test_act_and_trace(capsys):
    code, out, _ = run_cli(capsys, "act", "11:1 + 12:21 + 2:22", "1")
    assert (code, out.strip()) == (0, "P[12]")
    code, out, _ = run_cli(capsys, "trace", "P[111]+P[2]")
    assert (code, out.strip()) == (0, "5/8")


def test_nf_unnf_round_trip(capsys):
    code, out, _ = run_cli(capsys, "unnf", "x1 x0")
    assert code == 0
    code, out2, _ = run_cli(capsys, "nf", out.strip())
    assert (code, out2.strip()) == (0, "x0 x2")


def test_nf_of_a_long_element_is_fast(capsys):
    nf = random_normal_form(random.Random(3000), 3000)
    text = format_element(from_normal_form(nf))
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "nf", text)
    assert time.perf_counter() - start < 1.0
    assert (code, out.strip()) == (0, str(nf))


def test_unnf_letter_cap_exits_2(capsys):
    word = " ".join(["x1 x0^-1"] * (MAX_UNNF_LETTERS // 2) + ["x0"])
    code, out, err = run_cli(capsys, "unnf", word)
    assert (code, out) == (2, "")
    assert err == f"error: {MAX_UNNF_LETTERS + 1} letters exceed cap {MAX_UNNF_LETTERS}\n"
    assert run_cli(capsys, "unnf", "x65") == (2, "", "error: generator index 65 exceeds cap 64\n")


def test_member_exit_codes(capsys):
    t_gen = "22:1 + 1:21 + 21:22"
    assert run_cli(capsys, "member", "--set", "f", t_gen)[0] == 1
    assert run_cli(capsys, "member", "--set", "t", t_gen)[0] == 0
    assert run_cli(capsys, "member", "--set", "v", t_gen)[0] == 0
    assert run_cli(capsys, "member", "--set", "h2", "e:e")[0] == 0
    assert run_cli(capsys, "member", "--set", "f", "not an element")[0] == 2


def test_omega2_exit_codes(capsys):
    assert run_cli(capsys, "omega2", "1")[:2] == (0, "k=2 m=0\n")
    assert run_cli(capsys, "omega2", "P[1]")[0] == 1
    assert run_cli(capsys, "omega2", "P[13]")[0] == 2


def test_coset_and_realize(capsys):
    code, out, _ = run_cli(capsys, "coset", "11:1 + 12:21 + 2:22")
    assert (code, out.strip()) == (0, "P[12]")
    code, out, _ = run_cli(capsys, "realize", "P[12]")
    assert code == 0
    code2, out2, _ = run_cli(capsys, "act", out.strip(), "1")
    assert (code2, out2.strip()) == (0, "P[12]")


def test_deep_support_words(capsys):
    deep = "P[" + "1" * 1200 + "2]"
    code, out, err = run_cli(capsys, "act", "1:11 + 21:12 + 22:2", deep)
    assert (code, err) == (0, "")
    assert out.strip().startswith("P[")
    target = "P[" + "1" * 1199 + "2]"
    code, out, err = run_cli(capsys, "realize", target)
    assert (code, err) == (0, "")
    code, out, _ = run_cli(capsys, "act", out.strip(), "1")
    assert (code, out.strip()) == (0, target)


def test_orbit_from_deep_start(capsys):
    # a level-40 start is one interval, not a 2^40-bit mask
    start = "P[" + "1" * 40 + "]"
    code, out, err = run_cli(capsys, "orbit", start, "--depth", "2")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert json.loads(lines[0])["count"] == len(lines) - 1 > 1
    assert json.loads(lines[1]) == {"depth": 0, "p": start}


def test_orbit_file_determinism(tmp_path, capsys):
    f1, f2 = tmp_path / "a.ldjson", tmp_path / "b.ldjson"
    assert run_cli(capsys, "orbit", "1", "--depth", "4", "--out", str(f1))[0] == 0
    assert run_cli(capsys, "orbit", "1", "--depth", "4", "--out", str(f2))[0] == 0
    assert f1.read_bytes() == f2.read_bytes()
    lines = f1.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["generators"] == ["x0", "x0^-1", "x1", "x1^-1"]
    records = [json.loads(line) for line in lines[1:]]
    assert header["count"] == len(records)
    assert records == sorted(records, key=lambda r: (r["depth"], r["p"]))
    assert all(r["depth"] <= 4 for r in records)


def test_orbit_depth_cap(capsys, monkeypatch):
    monkeypatch.setenv("FTREES_MAX_DEPTH", "3")
    assert run_cli(capsys, "orbit", "1", "--depth", "4")[0] == 2
    assert run_cli(capsys, "orbit", "1", "--depth", "3")[0] == 0
    monkeypatch.setenv("FTREES_MAX_DEPTH", "not-a-number")
    assert run_cli(capsys, "orbit", "1", "--depth", "2")[0] == 2


def test_orbit_negative_depth_exits_2_without_writing(capsys, tmp_path):
    out = tmp_path / "orbit.ldjson"
    for depth in ("-1", "-3"):
        code, stdout, err = run_cli(capsys, "orbit", "1", "--depth", depth, "--out", str(out))
        assert (code, stdout, err) == (2, "", "error: depth must be >= 0\n")
        assert run_cli(capsys, "orbit", "1", "--depth", depth) == (2, "", err)
    assert not out.exists()


def test_orbit_out_to_a_bad_path_exits_2_in_one_line(capsys, tmp_path):
    # exit 1 would read as "no"; a missing directory and a directory are input errors
    bad = ((tmp_path / "missing" / "f", "No such file"), (tmp_path, "Is a directory"))
    for target, reason in bad:
        code, out, err = run_cli(capsys, "orbit", "1", "--depth", "2", "--out", str(target))
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot write the orbit file: ") and reason in err
        assert err.count("\n") == 1
    assert not (tmp_path / "missing").exists()
    # a start outside Omega_2 fails before the file is opened
    out = tmp_path / "orbit.ldjson"
    code, _, err = run_cli(capsys, "orbit", "P[1]", "--depth", "2", "--out", str(out))
    assert code == 2 and err.count("\n") == 1
    assert not out.exists()


def test_orbit_to_a_reader_that_stops_early_exits_0_quietly():
    # the orbit is written level by level, so `| head` closes the pipe mid-write
    with subprocess.Popen(
        [sys.executable, "-m", "ftrees.cli", "orbit", "1", "--depth", "9"],
        env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.read(100).startswith(b'{"count": 14715, "depth": 9')
        proc.stdout.close()
        assert proc.wait(timeout=60) == 0
        assert proc.stderr.read() == b""


def test_a_full_disk_on_stdout_exits_2_in_one_line_in_a_real_process():
    # a buffered stdout keeps the unwritten bytes, so the interpreter's flush
    # at exit would fail again (a second message, exit status 120)
    cases = (("trace", "P[111]+P[2]"), ("member", "--set", "f", "11:1+12:21+2:22"),
             ("orbit", "1", "--depth", "6"))
    for argv in cases:
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "ftrees.cli", *argv], env=child_env(),
                stdout=full, stderr=subprocess.PIPE, timeout=60,
            )
        assert proc.returncode == 2, argv
        assert proc.stderr == (
            b"error: cannot write the output: [Errno 28] No space left on device\n"
        ), argv


def test_importing_the_cli_imports_neither_dataclasses_nor_inspect():
    # start-up is most of what a one-shot command costs, and `dataclasses`, with the
    # `inspect` it imports, was the largest part of it; -S keeps `site` hooks out
    probe = (
        "import sys, ftrees, ftrees.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=child_env(), capture_output=True, text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


class FullStdout(io.StringIO):
    """A stdout on a full disk: every write fails."""

    def write(self, text):
        raise OSError(28, "No space left on device")


def test_a_failed_stdout_write_exits_2_in_one_line(capsys, monkeypatch):
    # exit 1 would read as "no" to the membership question
    cases = (("trace", "P[111]+P[2]"), ("member", "--set", "f", "11:1+12:21+2:22"))
    for argv in cases:
        with monkeypatch.context() as m:
            m.setattr(sys, "stdout", FullStdout())
            code = main(list(argv))
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1
        assert err == "error: cannot write the output: [Errno 28] No space left on device\n"


def test_a_long_error_message_is_cut_to_one_bounded_line(capsys):
    word = "1" * 3000
    code, out, err = run_cli(capsys, "separate", f"1:1 + {word}:2")
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.endswith(" characters)\n")
    assert err.startswith("error: range side: not an antichain: ('1', '111")
    assert " ... (cut from 3" in err and len(err) < 260
    # a message of at most 200 characters is printed whole
    code, _, err = run_cli(capsys, "separate", "1:1 + 11:2")
    assert (code, err) == (2, "error: range side: not an antichain: ('1', '11')\n")


def test_boundary_subcommands(capsys):
    pair = json.dumps(
        {
            "depth": 2,
            "left": ["e", "1", "2", "11", "12", "21", "22"],
            "right": ["e", "1", "2", "11", "12", "21", "22"],
        }
    )
    code, out, _ = run_cli(capsys, "realizable", pair)
    assert (code, out.strip()) == (0, "yes")
    code, out, _ = run_cli(capsys, "witness", pair)
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"q", "q'"}
    bad = json.dumps({"depth": 1, "left": ["e", "1"], "right": ["e", "2"]})
    assert run_cli(capsys, "realizable", bad)[0] == 1
    code, out, _ = run_cli(
        capsys, "boundary-act", "11:1 + 12:21 + 2:22", json.dumps(
            {"depth": 3, "left": ["e", "1", "2", "11", "12", "21", "22",
                                  "111", "112", "121", "122", "211", "212", "221", "222"],
             "right": []}
        )
    )
    assert code == 0
    assert json.loads(out) == {
        "depth": 2,
        "left": ["e", "1", "12"],
        "right": ["e", "1", "2", "11", "21", "22"],
    }


def test_pair_depth_cap_exits_2(capsys):
    deep = "1" * 100_000
    pair = json.dumps({"depth": len(deep), "left": [deep], "right": []})
    t0 = time.perf_counter()
    for argv in (["realizable", pair], ["witness", pair], ["boundary-act", "e:e", pair]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "") and "FTREES_MAX_DEPTH" in err, argv[0]
    assert time.perf_counter() - t0 < 1.0


def test_deep_projection_cap_exits_2(capsys, tmp_path, monkeypatch):
    # the witness of P[1^n] has Theta(n^2) letters, and so has x0 . P[1^n]
    deep = "P[" + "1" * 100_000 + "]"
    t0 = time.perf_counter()
    for argv in (["realize", deep], ["act", "11:1 + 12:21 + 2:22", deep]):
        error = "error: 2 ends * level 100000^2 exceed cap 4194304\n"
        assert run_cli(capsys, *argv) == (2, "", error), argv[0]
    assert time.perf_counter() - t0 < 1.0
    # 2 * 1448^2 is just under the cap, 2 * 1449^2 just over it
    assert run_cli(capsys, "act", "e:e", "P[" + "1" * 1448 + "]")[0] == 0
    assert run_cli(capsys, "act", "e:e", "P[" + "1" * 1449 + "]")[0] == 2
    # an orbit prints about 3^depth points of len(ends) * n^2 letters
    out = tmp_path / "deep.ldjson"
    t0 = time.perf_counter()
    argv = ["orbit", "P[" + "1" * 400 + "]", "--depth", "8", "--out", str(out)]
    error = "error: 2 ends * level 400^2 * 3^8 exceed cap 34012224\n"
    assert run_cli(capsys, *argv) == (2, "", error)
    assert time.perf_counter() - t0 < 1.0 and not out.exists()
    # every start two steps from 1 still reaches depth 12; P[1^6] does not
    near = orbit(ONE, 2)
    bfs = omega.orbit_levels
    monkeypatch.setattr(omega, "orbit_levels", lambda start, depth: bfs(start, 0))
    for p in near:
        assert run_cli(capsys, "orbit", str(p), "--depth", "12")[0] == 0, p
    assert run_cli(capsys, "orbit", "P[111111]", "--depth", "12")[0] == 2


# three faults: '2' is a leaf above the cut, '222' and '2111' lie below it
FAULTY_WINDOW = json.dumps(
    {
        "depth": 2,
        "left": ["e", "1", "2", "11", "12", "222", "2111"],
        "right": ["e", "1", "2", "11", "12", "21", "22"],
    }
)


def test_a_window_with_several_faults_reports_one_under_any_hash_seed():
    runs = [
        subprocess.run(
            [sys.executable, "-m", "ftrees.cli", "realizable", FAULTY_WINDOW],
            env=child_env(PYTHONHASHSEED=seed),
            capture_output=True,
            text=True,
        )
        for seed in ("1", "3")
    ]
    for r in runs:
        assert (r.returncode, r.stdout) == (2, "")
        assert r.stderr == "error: vertex '2' is a leaf above the cut depth\n"


def test_separate_certificate(capsys):
    code, out, _ = run_cli(capsys, "separate", "e:e", "11:1 + 12:21 + 2:22")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"p", "images", "elements"}
    assert len(data["images"]) == 2


def test_separate_exits_2_when_the_ball_is_exhausted(capsys):
    # e and an H_2 element that moves only points inside I(2^12): no point within 8 steps
    # of 1 tells them apart, so the search walks the orbit afresh, level by level, to depth 8
    representation._layer.cache_clear()
    h = [("111", "1"), ("112", "211"), ("121", "212"), ("122", "221"), ("2", "222")]
    terms = [("2" * i + "1",) * 2 for i in range(12)] + [("2" * 12 + a, "2" * 12 + b) for a, b in h]
    code, out, err = run_cli(capsys, "separate", "e:e", " + ".join(f"{a}:{b}" for a, b in terms))
    assert (code, out) == (2, "")
    assert err == "error: no separating point in the generator ball of radius 8\n"


TREEPAIR_X0 = """digraph treepair {
  node [shape=circle, label=""];
  subgraph cluster_domain {
    label="domain";
    d_root;
    d_1 [shape=plaintext, label="1"];
    d_2;
    d_21 [shape=plaintext, label="2"];
    d_22 [shape=plaintext, label="3"];
    d_root -> d_1;
    d_root -> d_2;
    d_2 -> d_21;
    d_2 -> d_22;
  }
  subgraph cluster_range {
    label="range";
    r_root;
    r_1;
    r_11 [shape=plaintext, label="1"];
    r_12 [shape=plaintext, label="2"];
    r_2 [shape=plaintext, label="3"];
    r_root -> r_1;
    r_1 -> r_11;
    r_1 -> r_12;
    r_root -> r_2;
  }
}
"""


def test_dot_outputs(capsys):
    crossing = "21:1 + 22:21 + 1:22"
    code, out, _ = run_cli(capsys, "dot", "--kind", "bipartite", crossing)
    assert code == 0
    assert out.startswith("digraph bipartite")
    # crossing arrows: b0 (beta=1) points at the alpha ranked above others
    assert "b0 -> a1;" in out and "b2 -> a0;" in out
    x0 = "11:1 + 12:21 + 2:22"
    code, out0, _ = run_cli(capsys, "dot", "--kind", "bipartite", x0)
    assert "b0 -> a0;" in out0 and "b1 -> a1;" in out0 and "b2 -> a2;" in out0
    code, tree, _ = run_cli(capsys, "dot", "--kind", "treepair", "e:e")
    assert code == 0
    assert tree.count("cluster_") == 2
    assert run_cli(capsys, "dot", "--kind", "treepair", x0)[1] == TREEPAIR_X0
    with pytest.raises(ValueError):
        export_dot("ring", parse_element(x0))
    # stability across input orderings and across the two syntaxes
    code, again, _ = run_cli(capsys, "dot", "--kind", "bipartite", "1:22 + 22:21 + 21:1")
    assert again == out
    as_json = json.dumps({"terms": [["21", "1"], ["22", "21"], ["1", "22"]]})
    code, from_json, _ = run_cli(capsys, "--json", "dot", "--kind", "bipartite", as_json)
    assert from_json == out


@settings(max_examples=200, deadline=None)
@given(elements())
def test_bipartite_dot_joins_each_beta_to_its_alpha(f):
    """The b row lists the betas and the a row the alphas, each in lex
    order, and each b node points at the a node of its own term."""
    out = export_dot("bipartite", f)
    labels = dict(re.findall(r'^    ([ab]\d+) \[label="(\w+)"\];$', out, re.M))
    pairs = [(labels[b], labels[a]) for b, a in re.findall(r"^  (b\d+) -> (a\d+);$", out, re.M)]
    n = len(f.terms)
    assert [labels[f"b{i}"] for i in range(n)] == sorted(t.beta or "e" for t in f.terms)
    assert [labels[f"a{i}"] for i in range(n)] == sorted(t.alpha or "e" for t in f.terms)
    assert sorted(pairs) == sorted((t.beta or "e", t.alpha or "e") for t in f.terms)


def test_treepair_dot_of_20000_leaves():
    rng = random.Random(20)
    codes = []
    for _ in range(2):
        words = [""]
        while len(words) < 20_000:
            i = rng.randrange(len(words))
            words[i : i + 1] = [words[i] + "1", words[i] + "2"]
        codes.append(words)
    f = GroupElement.from_terms(zip(*codes))
    start = time.perf_counter()
    out = export_dot("treepair", f)
    assert time.perf_counter() - start < 1.0
    # each tree lists its leaves, ranked 1..n in lex order, once
    assert out.count("shape=plaintext") == 2 * len(f.terms)
    assert f'label="{len(f.terms)}"]' in out


def test_error_diagnostics(capsys):
    code, out, err = run_cli(capsys, "mul", "11:1", "e:e")
    assert code == 2
    assert err.startswith("error:")
    assert run_cli(capsys, "mul", "11:1 +  + 2:22", "e:e") == (
        2, "", "error: empty term in element syntax\n"
    )
    assert run_cli(capsys, "act", "e:e", "Q[1]") == (
        2, "", "error: projection term 'Q[1]' is not of the form P[word]\n"
    )
    assert run_cli(capsys, "nf", "22:1 + 1:21 + 21:22")[0] == 2
    assert run_cli(capsys, "witness", json.dumps(
        {"depth": 1, "left": ["e", "1", "2"], "right": []}
    ))[0] == 2


def test_generator_indices_take_ascii_digits_only(capsys):
    # str.isdigit accepts other scripts' digits, which int() reads or rejects
    for tok in ("x\u0663", "x\u00b2", "x\u0967", "x1^-1 x\u00b2^-1"):
        bad = tok.split()[-1]
        assert run_cli(capsys, "unnf", tok) == (2, "", f"error: bad generator token {bad!r}\n")
        with pytest.raises(ValueError) as info:
            generators.parse_normal_form(tok)
        assert str(info.value) == f"bad generator token {bad!r}"
        code, out, err = run_cli(capsys, "nf", tok)
        assert (code, out) == (2, "") and err.startswith("error:") and err.count("\n") == 1
    assert run_cli(capsys, "unnf", "x3")[:2] == (0, format_element(gen_x(3)) + "\n")


def test_a_bad_letter_exits_2_naming_it_in_every_parser(capsys):
    x0_bad = [["11", "1"], ["13", "21"], ["2", "22"]]
    pair = {"depth": 1, "left": ["e", "1", "2"], "right": ["e", "1", "2"]}
    for argv in (
        ["inv", "11:1 + 12:21 + 2:23"],
        ["--json", "inv", json.dumps({"terms": x0_bad})],
        ["trace", "P[11]+P[3]"],
        ["--json", "trace", json.dumps({"support": ["11", "3"]})],
        ["realizable", json.dumps({**pair, "left": ["e", "1", "3"]})],
        ["realizable", json.dumps({**pair, "right": ["e", "3", "2"]})],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:") and err.count("\n") == 1, argv
        assert "invalid letter '3'" in err, argv


def test_parse_element_checks_each_word_once(monkeypatch):
    checked = []
    check = words.check_word

    def counting_check(w):
        checked.append(w)
        return check(w)

    monkeypatch.setattr(words, "check_word", counting_check)
    f = parse_element("11:1 + 12:21 + 2:22")
    assert sorted(checked) == sorted(w for t in f.terms for w in t)
    checked.clear()
    parse_element(json.dumps({"terms": [["11", "1"], ["12", "21"], ["2", "22"]]}), as_json=True)
    assert len(checked) == 6


def test_json_of_the_wrong_shape_exits_2(capsys):
    for argv in (
        ["realizable", '{"depth": 2, "left": 5, "right": []}'],
        ["witness", "[1]"],
        ["--json", "act", "[]", "1"],
        ["--json", "act", '{"terms": [["e", "e"], 5]}', '{"support": []}'],
        ["--json", "act", '{"terms": [["e", "e"]]}', '{"support": [["1"]]}'],
        ["realizable", '{"depth": true, "left": [], "right": []}'],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:") and err.count("\n") == 1, argv


JSON_WORDS = st.sampled_from(["e", "1", "2", "11", "12", "21", "22", "3", ""])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.floats() | JSON_WORDS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(
        st.sampled_from(["terms", "support", "depth", "left", "right", "x"]), inner, max_size=4
    ),
    max_leaves=12,
)
FULL_PAIR = json.dumps({"depth": 1, "left": ["e", "1", "2"], "right": ["e", "1", "2"]})
X0_JSON = json.dumps({"terms": [["11", "1"], ["12", "21"], ["2", "22"]]})


@settings(max_examples=100, deadline=None)
@given(JSON_VALUES)
def test_any_json_value_exits_0_1_or_2(value):
    text = json.dumps(value)
    for argv in (
        ["--json", "act", "--", text, '{"support": ["1"]}'],
        ["--json", "act", "--", X0_JSON, text],
        ["realizable", "--", text],
        ["witness", "--", text],
        ["--json", "boundary-act", "--", text, FULL_PAIR],
        ["--json", "boundary-act", "--", X0_JSON, text],
    ):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 1, 2), argv


# each subcommand's arguments: a literal, or the kind of a value written in
# its plain form or, under --json, its JSON form
CONTRACT_ARGS = {
    "mul": ["element", "element"],
    "inv": ["element"],
    "reduce": ["element"],
    "nf": ["element"],
    "unnf": ["word"],
    "member": ["--set", "h2", "element"],
    "act": ["element", "projection"],
    "coset": ["element"],
    "trace": ["projection"],
    "omega2": ["projection"],
    "realize": ["projection"],
    "orbit": ["projection", "--depth", "depth"],
    "boundary-act": ["element", "pair"],
    "realizable": ["pair"],
    "witness": ["pair"],
    "separate": ["element", "element", "element"],
    "dot": ["--kind", "treepair", "element"],
}
CONTRACT_VALUES = {  # kind -> its (plain, JSON) forms, one per occurrence in a command
    "element": [
        ("11:1 + 12:21 + 2:22", X0_JSON),
        ("1:1 + 211:21 + 212:221 + 22:222", '{"terms": [["1", "1"], ["211", "21"], '
         '["212", "221"], ["22", "222"]]}'),
        ("e:e", '{"terms": [["e", "e"]]}'),
    ],
    "projection": [("P[12]", '{"support": ["12"]}')],
    "pair": [(FULL_PAIR, FULL_PAIR)],
    "word": [("x0 x2 x1^-1", "x0 x2 x1^-1")],
    "depth": [("2", "2")],
}
MUTATIONS = ("letter", "bracket", "json type", "huge number", "deep nesting")


@st.composite
def mutated_invocations(draw) -> list[str]:
    """A valid invocation of a subcommand with one argument mutated once."""
    name = draw(st.sampled_from(sorted(CONTRACT_ARGS)))
    as_json = draw(st.booleans())
    kinds, texts, seen = [], [], Counter()
    for arg in CONTRACT_ARGS[name]:
        forms = CONTRACT_VALUES.get(arg)
        kinds.append(arg if forms else None)
        texts.append(forms[seen[arg]][as_json] if forms else arg)
        seen[arg] += 1
    how = draw(st.sampled_from(MUTATIONS))
    # a depth only grows huge: a letter could make it 12, a slow valid run
    i = draw(st.sampled_from([
        i for i, kind in enumerate(kinds) if kind and (kind != "depth" or how == "huge number")
    ]))
    text, pos = texts[i], draw(st.integers(0, len(texts[i])))
    if how == "letter":
        letter = draw(st.sampled_from("12e03x:+-^ \t\u00e9P"))
        text = text[:pos] + letter + text[pos + draw(st.integers(0, 1)):]
    elif how == "bracket":
        text = text[:pos] + draw(st.sampled_from("[]{}()\"")) + text[pos:]
    elif how == "json type":
        value = draw(JSON_VALUES)
        if text.startswith("{"):  # one field of the object changes type
            data = json.loads(text)
            data[draw(st.sampled_from(sorted(data)))] = value
            value = data
        text = json.dumps(value)
    elif how == "huge number":
        digits = "9" * draw(st.integers(19, 5000))
        text = digits if kinds[i] == "depth" else text[:pos] + digits + text[pos:]
    else:
        depth = draw(st.integers(2, 5000))
        text = "[" * depth + text + "]" * depth
    texts[i] = text
    return ["--json"] * as_json + [name, *texts]


@settings(max_examples=400, deadline=None)
@given(mutated_invocations())
def test_every_subcommand_exits_0_1_or_2_on_mutated_input(argv):
    assert set(CONTRACT_ARGS) == {name for name, *_ in cli._COMMANDS}
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
            assert code == 2, argv
            return
    assert code in (0, 1, 2), argv
    if code == 2:
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1, argv


def test_a_key_error_from_the_library_is_not_an_input_error(monkeypatch):
    # every input error is a ValueError; a KeyError is a bug and keeps its traceback
    def broken(text, as_json=False, table=None):
        raise KeyError("planted")

    monkeypatch.setattr(cli, "parse_element", broken)
    with pytest.raises(KeyError, match="planted"):
        main(["reduce", "e:e"])


def test_printed_projections_are_their_str(tmp_path, capsys):
    rng = random.Random(23)
    ball = generator_ball(3)
    for size in (1, 2, 5, 20, len(ball)):
        cert = independence_certificate(rng.sample(ball, size))
        data = cert.to_json()
        assert data["p"] == str(cert.point)
        assert data["images"] == [str(q) for q in cert.images]
    out = tmp_path / "orbit.ldjson"
    assert run_cli(capsys, "orbit", "1", "--depth", "6", "--out", str(out))[0] == 0
    records = [json.loads(line) for line in out.read_text().splitlines()[1:]]
    run = orbit_levels(ONE, 6)
    assert [(r["depth"], r["p"]) for r in records] == sorted(
        (d, str(p)) for p, d in run.depths.items()
    )


def test_separate_and_orbit_keep_no_text(tmp_path):
    # the word and text tables live for one command
    argvs = (
        ["separate", *map(str, generator_ball(3))],
        ["orbit", "1", "--depth", "8", "--out", str(tmp_path / "orbit.ldjson")],
    )

    def quiet(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0

    for argv in argvs:  # the parser, the candidate points and the generators' maps
        quiet(argv)
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for argv in argvs:
            quiet(argv)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 64 * 1024


def test_deeply_nested_json_exits_2(capsys):
    deep = "[" * 20000 + "]" * 20000
    for argv in (
        ["--json", "act", deep, '{"support": ["1"]}'],
        ["--json", "act", X0_JSON, deep],
        ["realizable", deep],
        ["witness", deep],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv[:2]
        assert err.startswith("error:") and err.count("\n") == 1, argv[:2]


def test_repeated_in_process_runs_share_no_state(capsys, tmp_path):
    x0 = "11:1 + 12:21 + 2:22"
    assert run_cli(capsys, "--json", "act", X0_JSON, '{"support": ["e"]}')[:2] == (
        0,
        '{"support": ["12"]}\n',
    )
    assert run_cli(capsys, "act", x0, "1")[:2] == (0, "P[12]\n")
    assert run_cli(capsys, "mul", "11:1", "e:e")[0] == 2
    assert run_cli(capsys, "act", x0, "1")[:2] == (0, "P[12]\n")
    with pytest.raises(SystemExit):
        main(["act", x0])
    capsys.readouterr()
    assert run_cli(capsys, "act", x0, "1")[:2] == (0, "P[12]\n")
    out_file = tmp_path / "orbit.jsonl"
    code, out, _ = run_cli(capsys, "orbit", "1", "--depth", "3", "--out", str(out_file))
    assert (code, out) == (0, "42 projections\n")
    code, out, _ = run_cli(capsys, "orbit", "1", "--depth", "3")
    assert code == 0 and out == out_file.read_text()
