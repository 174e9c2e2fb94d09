"""Layer-by-layer tracing from outside the library.

`Tracer.install` replaces each layer's public functions (and a few
methods, such as `Dyadic.__init__` and `PackedElement.act`) by wrappers
that record one span per call.  A function is rebound in every ftrees
module namespace that holds it, so `from .elements import multiply` in
omega or cli is traced too.  Spans live in flat arrays in memory:
name, start, end, parent span and the id of the benchmark operation they
belong to.  `uninstall` restores the originals.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from types import ModuleType

LAYERS = {
    "words": "words",
    "dyadic": "dyadic",
    "elements": "elements",
    "generators": "generators",
    "omega": "omega",
    "packed": "_packed",
    "boundary": "boundary",
    "representation": "representation",
    "cli": "cli",
}
# methods traced besides the public module-level functions: (class, method, span name)
METHODS = {
    "words": [("CompleteCode", "__init__", "CompleteCode")],
    "dyadic": [("Dyadic", "__init__", "Dyadic")],
    "omega": [("DiagonalProjection", "__init__", "DiagonalProjection")],
    "packed": [("PackedElement", "act", "act")],
}
CLI_PARSE = ("parse_element", "parse_projection", "parse_pair")
CLI_FORMAT = ("format_element", "format_projection", "format_pair")


def _modules(lib: ModuleType) -> dict[str, ModuleType]:
    return {layer: sys.modules[f"{lib.__name__}.{mod}"] for layer, mod in LAYERS.items()}


class Tracer:
    def __init__(self, lib: ModuleType) -> None:
        self.lib = lib
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def span(self, name: str, fn, hook=None):
        """`fn` wrapped to record a span named `name` on every call."""
        nid = self._name_id(name)
        stack, clock = self.stack, time.perf_counter
        span_name, parent, op, start, end = (
            self.span_name, self.parent, self.op, self.start, self.end
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            caller = stack[-1] if stack else -1
            span_name.append(nid)
            parent.append(caller)
            op.append(self.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result, caller)
            return result

        return traced

    def run_op(self, op_id: int, group: str, fn):
        """Run one benchmark operation under a root span."""
        self.op_id = op_id
        try:
            return self.span(f"op.{group}", fn)()
        finally:
            self.op_id = -1

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        mods = _modules(self.lib)
        wrapped: dict[int, object] = {}
        for layer, mod in mods.items():
            for attr, value in vars(mod).items():
                if (
                    callable(value)
                    and not attr.startswith("_")
                    and not isinstance(value, type)
                    and getattr(value, "__module__", None) == mod.__name__
                    and id(value) not in wrapped  # cli.main is cli.run
                ):
                    wrapped[id(value)] = self.span(f"{layer}.{attr}", value, self._hook(layer, attr))
            for cls_name, meth, span in METHODS.get(layer, ()):
                cls = getattr(mod, cls_name)
                self._set(cls, meth, self.span(f"{layer}.{span}", vars(cls)[meth]))
        for mod in [self.lib, *mods.values()]:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped:
                    self._set(mod, attr, wrapped[id(value)])

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _hook(self, layer: str, attr: str):
        """Counters kept at the boundary where the work happens."""
        counts = self.counts
        if (layer, attr) == ("elements", "multiply"):
            def hook(args, result, caller):
                counts["elements.terms_out"] += len(result.terms)
        elif (layer, attr) == ("omega", "act"):
            # a candidate point p = g . 1 tried by separating_point
            one = self.lib.ONE
            sep = self._name_id("representation.separating_point")

            def hook(args, result, caller):
                if args[1] is one and caller >= 0 and self.span_name[caller] == sep:
                    counts["representation.candidates_tried"] += 1
        elif (layer, attr) == ("representation", "separating_point"):
            def hook(args, result, caller):
                counts["representation.certificates"] += 1
        else:
            hook = None
        return hook

    # -- results ---------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds, where
        self time is inclusive time minus the time of child spans."""
        n = len(self.start)
        child = [0.0] * n
        dur = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        for i in range(n):
            rec = out[self.names[self.span_name[i]]]
            rec["calls"] += 1
            rec["incl_s"] += dur[i]
            rec["self_s"] += dur[i] - child[i]
        return out

    def child_time(self, parent_name: str, child_name: str) -> float:
        """Inclusive seconds of `child_name` spans directly under a
        `parent_name` span."""
        pid, cid = self.name_ids.get(parent_name), self.name_ids.get(child_name)
        total = 0.0
        for i in range(len(self.start)):
            p = self.parent[i]
            if self.span_name[i] == cid and p >= 0 and self.span_name[p] == pid:
                total += self.end[i] - self.start[i]
        return total

    def write(self, path: Path, meta: dict) -> None:
        """Spans as raw columns in native byte order after a one-line JSON header."""
        header = {
            **meta,
            "names": self.names,
            "spans": len(self.start),
            "columns": [["name", "H"], ["parent", "i"], ["op", "i"], ["start", "d"], ["end", "d"]],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for col in (self.span_name, self.parent, self.op, self.start, self.end):
                col.tofile(fh)


# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = [
    *[(f"words.{m}", u, "lower") for m, u in [
        ("CompleteCode.calls", "count"), ("CompleteCode.self_s", "s"),
        ("common_refinement.calls", "count"), ("common_refinement.self_s", "s"),
        ("kraft_sum.calls", "count"), ("self_s", "s")]],
    ("dyadic.Dyadic.calls", "count", "lower"),
    ("dyadic.self_s", "s", "lower"),
    *[(f"elements.{m}", u, "lower") for m, u in [
        ("multiply.calls", "count"), ("multiply.self_s", "s"), ("multiply_terms.self_s", "s"),
        ("refine.calls", "count"), ("refine.self_s", "s"),
        ("validate_unitary.calls", "count"), ("validate_unitary.self_s", "s"),
        ("inverse.self_s", "s"), ("is_order_preserving.self_s", "s"),
        ("terms_out", "count"), ("self_s", "s")]],
    *[(f"generators.{m}", u, "lower") for m, u in [
        ("to_normal_form.calls", "count"), ("to_normal_form.self_s", "s"),
        ("from_normal_form.self_s", "s"), ("to_normal_form.certify_share", "ratio"),
        ("generator_ball.calls", "count"), ("generator_ball.self_s", "s"), ("self_s", "s")]],
    *[(f"omega.{m}", u, "lower") for m, u in [
        ("act.calls", "count"), ("act.self_s", "s"),
        ("complement.calls", "count"), ("complement.self_s", "s"),
        ("DiagonalProjection.calls", "count"),
        ("realize.calls", "count"), ("realize.self_s", "s"), ("realize.certify_share", "ratio"),
        ("orbit_levels.self_s", "s"), ("self_s", "s")]],
    *[(f"packed.{m}", u, "lower") for m, u in [
        ("act.calls", "count"), ("act.self_s", "s"), ("normalize.self_s", "s"),
        ("stretch.calls", "count"), ("stretch.self_s", "s"),
        ("pack.self_s", "s"), ("unpack.self_s", "s"), ("self_s", "s")]],
    *[(f"boundary.{m}", u, "lower") for m, u in [
        ("embed.calls", "count"), ("embed.self_s", "s"),
        ("act_truncated.calls", "count"), ("act_truncated.self_s", "s"),
        ("non_isolation_witness.self_s", "s"), ("self_s", "s")]],
    ("representation.separating_point.calls", "count", "lower"),
    ("representation.separating_point.self_s", "s", "lower"),
    ("representation.candidates_tried", "count", "lower"),
    ("representation.hit_ratio", "ratio", "higher"),
    ("representation.self_s", "s", "lower"),
    ("cli.run.calls", "count", "lower"),
    ("cli.parse.self_s", "s", "lower"),
    ("cli.format.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def layer_metrics(t: Tracer, overhead_ratio: float) -> dict[str, float]:
    """Every PER_LAYER metric from one traced run; idle layers read 0."""
    s = t.summary()

    def stat(name: str, field: str) -> float:
        return s[name][field] if name in s else 0

    def share(parent: str, child: str) -> float:
        total = stat(parent, "incl_s")
        return t.child_time(parent, child) / total if total else 0.0

    out: dict[str, float] = {}
    for name, _, _ in PER_LAYER:
        head, _, field = name.rpartition(".")
        if field == "self_s" and head in LAYERS:
            out[name] = sum(v["self_s"] for k, v in s.items() if k.startswith(head + "."))
        elif field in ("calls", "self_s"):
            out[name] = stat(head, field)
    out["cli.parse.self_s"] = sum(stat(f"cli.{n}", "self_s") for n in CLI_PARSE)
    out["cli.format.self_s"] = sum(stat(f"cli.{n}", "self_s") for n in CLI_FORMAT)
    out["generators.to_normal_form.certify_share"] = share(
        "generators.to_normal_form", "generators.from_normal_form"
    )
    out["omega.realize.certify_share"] = share("omega.realize", "omega.act")
    out["elements.terms_out"] = t.counts["elements.terms_out"]
    tried = t.counts["representation.candidates_tried"]
    out["representation.candidates_tried"] = tried
    out["representation.hit_ratio"] = t.counts["representation.certificates"] / tried if tried else 0.0
    out["trace.overhead_ratio"] = overhead_ratio
    return {name: out[name] for name, _, _ in PER_LAYER}
