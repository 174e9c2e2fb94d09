"""ftrees benchmark: one seeded, single-process, closed-loop workload run.

Usage, from the repository root:

    python3 bench/run.py --workload {orbit-bfs,word-problem,certify}
                         --seed N --seconds S --trace {0,1}

One client issues one operation at a time, with no threads.  The
workload's pass of operations is repeated until S seconds have gone by,
and every output is checked outside the timed region.  With --trace 0
the run reports the end-to-end metrics, with every time scaled to the
reference speed of calibrate.py.  With --trace 1 it times every
k-th operation of the pass once plainly and once under the layer tracer,
and reports the per-layer metrics.

A table goes to stdout first; the last stdout line is the JSON result.
The full report, the input and output digests and the traced spans are
written under .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 11
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "work_per_s": "1/s",
}


def import_library():
    """Import ftrees and ftrees.cli from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import ftrees
    import ftrees.cli

    if Path(ftrees.__file__).resolve().parent != src / "ftrees":
        raise ImportError(f"ftrees was imported from {ftrees.__file__}, not from {src}")
    return ftrees


def p50(xs: list[float]) -> float:
    return statistics.median(xs)


def p90(xs: list[float]) -> float:
    return statistics.quantiles(xs, n=10, method="inclusive")[8]


class Runner:
    """Runs operations one at a time, timing each call and checking each
    output; an exception or a failed check is a failed operation.

    The machine is shared and its speed drifts (see calibrate.py).  A
    calibrated runner therefore also keeps each call's time scaled to the
    calibration kernel's reference speed, read before, during and after
    the call.  An operation's figure is the median of its scaled repeats,
    one per pass, and percentiles are taken over operations.
    """

    def __init__(self, calibrated: bool = True) -> None:
        self.sampler = calibrate.Sampler() if calibrated else None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.scaled: dict[int, list[float]] = {}
        self.best: dict[int, float] = {}
        self.units: dict[int, int] = {}
        self.verified: dict[int, str] = {}
        self.outputs = hashlib.sha256()

    def run(self, i: int, op, call=None, digest: bool = False) -> float:
        """Run `op` (number i of the pass) once; return the seconds its call took."""
        self.attempted += 1
        if self.sampler:
            self.sampler.start()
        t0 = time.perf_counter()
        error = None
        try:
            out = (call or op.call)()
        except Exception as exc:  # counted as a failed operation
            error = f"{type(exc).__name__}: {exc}"
        finally:
            dt = self._stop(t0)
        if error:
            return self._fail(i, op, error, dt)
        try:
            text = op.digest(out)
            # an output identical to one already checked is correct too
            ok = self.verified.get(i) == text or op.check(out)
        except Exception as exc:  # counted as a failed operation
            return self._fail(i, op, f"{type(exc).__name__}: {exc}", dt)
        if not ok:
            return self._fail(i, op, "output check failed", dt)
        self.verified[i] = text
        if self.sampler:
            self.scaled.setdefault(i, []).append(self.sampler.scaled(dt))
        self.best[i] = min(dt, self.best.get(i, dt))
        self.units[i] = op.units(out)
        if digest:
            self.outputs.update(text.encode() + b"\0")
        return dt

    def _stop(self, t0: float) -> float:
        """Seconds the call started at t0 took, less any kernel readings."""
        t1 = time.perf_counter()
        if not self.sampler:
            return t1 - t0
        self.sampler.stop()
        return self.sampler.own_time(t0, t1)

    def _fail(self, i: int, op, why: str, dt: float) -> float:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(f"op {i} ({op.group}): {why[:300]}")
        return dt

    def group(self, ops, groups) -> tuple[list[float], list[float], int]:
        """Scaled (median of repeats) and wall-clock (least of repeats)
        times of the operations in `groups`, and their work units."""
        idx = [i for i, op in enumerate(ops) if op.group in groups and i in self.best]
        return (
            [statistics.median(self.scaled[i]) for i in idx],
            [self.best[i] for i in idx],
            sum(self.units[i] for i in idx),
        )


def inputs_digest(ops) -> str:
    return hashlib.sha256("\n".join(op.key for op in ops).encode()).hexdigest()


def measure_setup(workload: str) -> list[float]:
    """Seconds to a ready library in each of several fresh interpreters,
    scaled to the calibration kernel's reference speed."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        seconds, kernel_s = map(float, proc.stdout.split()[-2:])
        out.append(seconds * calibrate.REFERENCE_S / kernel_s)
    return out


def timed_run(wl, seconds: float, setup: list[float]) -> tuple[Runner, dict, dict]:
    runner = Runner()
    passes = 0
    t_start = time.perf_counter()
    while passes == 0 or time.perf_counter() - t_start < seconds:
        for i, op in enumerate(wl.ops):
            # the first pass is whole; later ones stop when time is up
            if passes and time.perf_counter() - t_start >= seconds:
                break
            runner.run(i, op, digest=passes == 0)
        passes += 1
    latency, _, _ = runner.group(wl.ops, wl.latency_groups)
    busy, _, work = runner.group(wl.ops, wl.rate_groups)
    metrics = {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "p50_ms": p50(latency) * 1e3 if latency else 0.0,
        "p90_ms": p90(latency) * 1e3 if latency else 0.0,
        "work_per_s": work / sum(busy) if busy else 0.0,
    }
    groups = {}
    for g in dict.fromkeys(op.group for op in wl.ops):
        xs, wall, units = runner.group(wl.ops, (g,))
        if xs:
            groups[g] = {
                "samples": len(xs),
                "p50_ms": p50(xs) * 1e3,
                "p90_ms": (p90(xs) if len(xs) > 1 else xs[0]) * 1e3,
                "units_per_s": units / sum(xs),
                "wall_p50_ms": p50(wall) * 1e3,
                "wall_units_per_s": units / sum(wall),
            }
    report = {
        "passes": passes,
        "samples": {"setup_s": len(setup), "p50_ms": len(latency), "p90_ms": len(latency), "work_per_s": work},
        "operations": groups,
    }
    return runner, metrics, report


def traced_run(lib, wl, name: str, seed: int) -> tuple[Runner, dict, dict]:
    """Every trace_stride-th operation, once plainly and once traced."""
    subset = wl.ops[:: wl.trace_stride]
    runner = Runner(calibrated=False)
    plain = sum(runner.run(i, op, digest=True) for i, op in enumerate(subset))
    t = tracer.Tracer(lib)
    t.install()
    try:
        traced = 0.0
        for i, op in enumerate(subset):
            traced += runner.run(i, op, call=lambda i=i, op=op: t.run_op(i, op.group, op.call))
    finally:
        t.uninstall()
    metrics = tracer.layer_metrics(t, traced / plain)
    OUT_DIR.mkdir(exist_ok=True)
    t.write(OUT_DIR / f"spans-{name}.bin", {"workload": name, "seed": seed})
    report = {"traced_ops": len(subset), "plain_s": plain, "traced_s": traced, "spans": len(t.start)}
    return runner, metrics, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    try:
        lib = import_library()
    except ImportError as exc:
        print(f"error: cannot import the library: {exc}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload](lib, args.seed)
    setup = [] if args.trace else measure_setup(args.workload)
    workloads.WARMUPS[args.workload](lib)
    if args.trace:
        runner, metrics, report = traced_run(lib, wl, args.workload, args.seed)
        units = {name: unit for name, unit, _ in tracer.PER_LAYER}
    else:
        runner, metrics, report = timed_run(wl, args.seconds, setup)
        units = END_TO_END

    full = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs_digest": inputs_digest(wl.ops),
        "outputs_digest": runner.outputs.hexdigest(),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.failures,
        "metrics": metrics,
        **report,
        "python": platform.python_version(),
        "machine": f"{platform.machine()} {os.cpu_count()} CPUs",
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(full, indent=1) + "\n"
    )
    print_table(full, units)
    for line in runner.failures:
        print(f"FAILED {line}", file=sys.stderr)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def print_table(full: dict, units: dict) -> None:
    print(
        f"# {full['workload']} seed={full['seed']} trace={full['trace']} passes={full.get('passes', 1)} "
        f"attempted={full['attempted']} failed={full['failed']}"
    )
    print(f"# inputs {full['inputs_digest'][:16]}  outputs {full['outputs_digest'][:16]}")
    samples = full.get("samples", {})
    for name, value in full["metrics"].items():
        n = samples.get(name, "")
        print(f"{name:44s} {value:14.6g} {units[name]:6s} {n}")
    for group, rec in full.get("operations", {}).items():
        print(
            f"  {group:14s} p50 {rec['p50_ms']:10.3f} ms  p90 {rec['p90_ms']:10.3f} ms  "
            f"n={rec['samples']:<5d} {rec['units_per_s']:12.1f} units/s  "
            f"(wall, least of repeats: p50 {rec['wall_p50_ms']:.3f} ms, {rec['wall_units_per_s']:.1f} units/s)"
        )


if __name__ == "__main__":
    sys.exit(main())
