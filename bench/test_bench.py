"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q bench/test_bench.py

Workloads are shrunk to a few operations each by patching their size
constants, so the whole file takes well under a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import signal
import time

import pytest

import calibrate
import oracle
import run
import tracer
import workloads

LIB = run.import_library()
WORKLOADS = sorted(workloads.WORKLOADS)


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "DEEP_LEVELS", (12, 13))
    monkeypatch.setattr(workloads, "DEEP_DEPTHS", (2,))
    monkeypatch.setattr(workloads, "DEEP_STARTS", 2)
    monkeypatch.setattr(workloads, "WIDE_REPEATS", 1)
    monkeypatch.setattr(workloads, "NF_OPS", 3)
    monkeypatch.setattr(workloads, "NF_LETTERS", (4, 12))
    monkeypatch.setattr(workloads, "MUL_OPS", 3)
    monkeypatch.setattr(workloads, "MUL_LEAVES", (4, 12))
    monkeypatch.setattr(workloads, "REALIZE_PLAN", {2: (1, (1, 1)), 4: (1, (2, 8)), 6: (1, (8, 32))})
    monkeypatch.setattr(workloads, "SEPARATE_OPS", 2)
    monkeypatch.setattr(workloads, "SEPARATE_SIZES", (4, 8))
    monkeypatch.setattr(workloads, "BOUNDARY_OPS", 2)


def main_result(*argv: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(list(argv)) == 0
    return json.loads(out.getvalue().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_run_reports_every_metric(name, trace):
    res = main_result("--workload", name, "--seed", "7", "--seconds", "0", "--trace", trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    want = run.END_TO_END if trace == "0" else {n: u for n, u, _ in tracer.PER_LAYER}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracer.PER_LAYER


def _swap_two_range_words(text: str) -> str:
    terms = oracle.parse_element_text(text)
    (a0, b0), (a1, b1) = terms[0], terms[1]
    terms[0], terms[1] = (a1, b0), (a0, b1)
    return " + ".join(f"{a or 'e'}:{b or 'e'}" for a, b in terms)


def test_planted_wrong_outputs_are_counted_as_failed():
    wl = workloads.certify(LIB, 3)
    i, op = next((i, op) for i, op in enumerate(wl.ops) if op.group == "realize")
    runner = run.Runner()
    runner.run(i, op)
    assert runner.failed == 0
    runner.run(i, op, call=lambda: _swap_two_range_words(op.call()))
    assert runner.failed == 1

    wl = workloads.word_problem(LIB, 3)
    runner = run.Runner()
    nf_op = next(op for op in wl.ops if op.group == "nf")
    runner.run(0, nf_op, call=lambda: LIB.NormalFormWord((0,), ()))
    mul_op = next(op for op in wl.ops if op.group == "mul")
    runner.run(1, mul_op, call=lambda: LIB.gen_x(0))
    assert runner.failed == runner.attempted == 2


def test_times_are_scaled_to_the_reference_speed(monkeypatch):
    # a machine running the kernel at half the reference speed halves
    # every figure the run reports
    monkeypatch.setattr(calibrate, "kernel_s", lambda: 2 * calibrate.REFERENCE_S)
    wl = workloads.word_problem(LIB, 3)
    runner = run.Runner()
    walls = [runner.run(0, wl.ops[0]) for _ in range(3)]
    assert runner.failed == 0
    scaled, best, units = runner.group(wl.ops[:1], ("nf",))
    assert scaled == [pytest.approx(sorted(walls)[1] / 2)]
    assert best == [min(walls)] and units == 1


def test_sampler_reads_the_kernel_during_a_call_and_takes_it_off():
    sampler = calibrate.Sampler()
    sampler.start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 8 * calibrate.SAMPLE_S:
        pass
    t1 = time.perf_counter()
    sampler.stop()
    assert len(sampler.readings) >= 2 + 4 and len(sampler.pauses) == len(sampler.readings) - 2
    paused = sum(dt for _, dt in sampler.pauses)
    assert sampler.own_time(t0, t1) == pytest.approx(t1 - t0 - paused)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_same_seed_gives_identical_input_and_output_digests():
    digests = []
    for seed in (5, 5, 6):
        wl = workloads.certify(LIB, seed)
        runner = run.Runner()
        for i, op in enumerate(wl.ops):
            runner.run(i, op, digest=True)
        assert runner.failed == 0
        digests.append((run.inputs_digest(wl.ops), runner.outputs.hexdigest()))
    assert digests[0] == digests[1]
    assert digests[0][0] != digests[2][0]


def test_tracer_restores_the_library():
    before = (LIB.multiply, LIB.omega.multiply, LIB.cli.run, LIB.Dyadic.__init__)
    t = tracer.Tracer(LIB)
    t.install()
    try:
        assert LIB.omega.multiply is LIB.multiply is not before[0]
        t.run_op(0, "mul", lambda: LIB.multiply(LIB.gen_x(0), LIB.gen_x(1)))
    finally:
        t.uninstall()
    assert (LIB.multiply, LIB.omega.multiply, LIB.cli.run, LIB.Dyadic.__init__) == before
    summary = t.summary()
    assert summary["elements.multiply"]["calls"] == 1
    assert summary["op.mul"]["self_s"] >= 0 and summary["dyadic.Dyadic"]["calls"] > 0


def test_oracle_models_agree_on_a_worked_product():
    x0, x1 = oracle.X0, oracle.X1
    product = oracle.reduce_terms(oracle.compose(x0, x1))
    assert oracle.product_matches(x0, x1, product)
    assert not oracle.product_matches(x0, x1, x0)
    one = oracle.projection([""])
    assert oracle.act(x0, one) == oracle.projection(["12"])
