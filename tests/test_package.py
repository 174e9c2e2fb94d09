"""The package surface: which modules each command runs, first use of a
module from several threads at once, and the public names, which stay as
they were while `omega`, `boundary` and `representation` run only on
first use."""

import json
import pickle
import subprocess
import sys

import ftrees
from ftrees import DiagonalProjection, gen_x, independence_certificate

from children import child_env

PUBLIC_NAMES = [
    "CompleteCode", "DiagonalProjection", "Dyadic", "FormalVector", "GroupElement",
    "IndependenceCertificate", "InternalSearchExhausted", "NormalFormWord", "NotInF",
    "NotInOmega2", "NotUnitary", "ONE", "Ordering", "PairTruncation", "SearchExhausted", "Side",
    "TargetNotARefinement", "Term", "TreeTruncation", "ZERO", "abelianization", "act",
    "act_truncated", "apply", "common_refinement", "complement", "coset_invariant", "d_tau",
    "embed", "equals", "from_normal_form", "gen_x", "generator_ball", "h2_member", "height",
    "in_commutator_subgroup", "independence_certificate", "inverse",
    "is_cyclic_order_preserving", "is_order_preserving", "is_prefix", "is_realizable", "join",
    "kraft_sum", "lex_compare", "meet", "multiply", "multiply_terms", "non_isolation_witness",
    "omega2_member", "orbit", "orbit_levels", "parity_split", "parse_normal_form", "realize",
    "reduce", "refine", "separating_point", "stabilizes", "to_normal_form", "trace",
    "validate_unitary", "window_requirement",
]


def child(code: str, *argv: str, stdin: bytes = b"") -> str:
    """The stdout of a fresh interpreter running `code` with `argv`."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], input=stdin, env=child_env(), capture_output=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, b""), proc.stderr.decode()
    return proc.stdout.decode()


# an audit hook sees the code of every module that runs, whatever loads it
LOADS = """
import contextlib, io, json, sys
from pathlib import Path
ran = []
sys.addaudithook(lambda event, args: event == "exec" and ran.append(args[0].co_filename))
from ftrees import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.run(sys.argv[1:]) == 0
ftrees = Path(cli.__file__).parent
print(json.dumps({
    "ran": sorted(Path(f).stem for f in ran if Path(f).parent == ftrees),
    "fractions": "fractions" in sys.modules,
}))
"""


def test_each_command_runs_only_the_modules_it_uses():
    trace = json.loads(child(LOADS, "trace", "1"))
    assert "omega" in trace["ran"]
    assert not {"boundary", "representation"} & set(trace["ran"])
    assert not trace["fractions"]
    nf = json.loads(child(LOADS, "nf", "11:1 + 12:21 + 2:22"))
    assert {"cli", "elements", "generators"} <= set(nf["ran"])
    assert not {"omega", "boundary", "representation"} & set(nf["ran"])
    assert not nf["fractions"]
    separate = json.loads(child(LOADS, "separate", "11:1 + 12:21 + 2:22"))
    assert {"omega", "representation"} <= set(separate["ran"])
    assert "boundary" not in separate["ran"]
    assert separate["fractions"]


# 8 threads make their first lookups at once, each of a name of a module whose
# code has not run yet, through the package or through `from ... import`
FIRST_USE = """
import sys, threading
import ftrees
sys.setswitchinterval(1e-6)
x0 = ftrees.gen_x(0)
window = '{"depth": 1, "left": ["e", "1", "2"], "right": ["e", "1", "2"]}'

def omega_package():
    return ftrees.trace(ftrees.act(x0, ftrees.ONE))

def omega_from():
    from ftrees.omega import DiagonalProjection, realize
    return realize(DiagonalProjection(["111", "2"]))

def boundary_package():
    return ftrees.window_requirement(x0), ftrees.TreeTruncation(1, ["", "1", "2"])

def boundary_from():
    from ftrees.boundary import TreeTruncation, embed
    return embed(ftrees.ONE, 2), TreeTruncation(1, ["", "1", "2"])

def representation_package():
    return ftrees.separating_point([x0, ftrees.gen_x(1)])

def representation_from():
    from ftrees.representation import FormalVector, apply
    return apply(x0, FormalVector({ftrees.ONE: 1}))

def names_from_package():
    from ftrees import IndependenceCertificate, PairTruncation, orbit_levels
    return orbit_levels(ftrees.ONE, 2), IndependenceCertificate, PairTruncation

def cli():
    from ftrees import cli
    return cli.parse_pair(window)

errors = []
barrier = threading.Barrier(8)

def first_use(action):
    barrier.wait()
    try:
        action()
    except Exception as exc:
        errors.append(f"{action.__name__}: {exc!r}")

actions = (omega_package, omega_from, boundary_package, boundary_from, representation_package,
           representation_from, names_from_package, cli)
threads = [threading.Thread(target=first_use, args=(a,)) for a in actions]
for t in threads:
    t.start()
for t in threads:
    t.join(30)
print(errors + [f"{t.name} still running" for t in threads if t.is_alive()])
"""


def test_first_use_from_eight_threads_at_once_sees_whole_modules():
    for _ in range(20):
        assert child(FIRST_USE) == "[]\n"


def test_a_module_whose_first_run_fails_runs_again_on_the_next_lookup():
    # an audit hook can abort an `exec`: the first run of omega's code fails, as an
    # interrupt would, and the next lookup runs it whole
    probe = """
import sys
runs = []
def refuse_first(event, args):
    if event == "exec" and args[0].co_filename.endswith("omega.py"):
        runs.append(1)
        if len(runs) == 1:
            raise KeyboardInterrupt
sys.addaudithook(refuse_first)
import ftrees
try:
    ftrees.ONE
except KeyboardInterrupt:
    pass
p = ftrees.act(ftrees.gen_x(0), ftrees.ONE)
print(len(runs), p, ftrees.omega.trace(p))
"""
    assert child(probe) == "2 P[12] 1/4\n"


def test_public_names_are_unchanged():
    assert sorted(ftrees.__all__) == PUBLIC_NAMES
    assert len(set(PUBLIC_NAMES)) == 63


def test_a_fresh_package_lists_binds_and_unpickles_every_name():
    # before any module has run on first use, `dir` and `import *` see every name
    probe = (
        "import sys, ftrees; names = dir(ftrees); ns = {}; exec('from ftrees import *', ns); "
        "print(sorted(n for n in ftrees.__all__ if n not in names or ns[n] is not "
        "getattr(ftrees, n)))"
    )
    assert child(probe) == "[]\n"
    x0 = gen_x(0)
    values = (x0, DiagonalProjection(["11", "2"]), independence_certificate([x0, gen_x(1)]))
    unpickle = "import pickle, sys, ftrees; print(*map(repr, pickle.load(sys.stdin.buffer)))"
    assert child(unpickle, stdin=pickle.dumps(values)) == " ".join(map(repr, values)) + "\n"
