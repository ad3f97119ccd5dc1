"""Self-tests of the benchmark harness: generators, the percentile rule,
self-time arithmetic and its check, and the output digest check.

    python3 -m pytest bench
"""

import importlib.util
import os
from dataclasses import replace
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location("evoroute_bench_run", os.path.join(HERE, "run.py"))
bench_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_run)
bench_run.find_program()

from benchlib import gate, workloads  # noqa: E402
from benchlib.probes import LayerTrace, Marks, Tracer  # noqa: E402


@pytest.fixture(scope="module")
def modules():
    return bench_run.program_modules()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generators_are_deterministic_and_loadable(name, modules, tmp_path):
    work = workloads.build(name, 7, bench_run.ROOT)
    again = workloads.build(name, 7, bench_run.ROOT)
    other = workloads.build(name, 8, bench_run.ROOT)
    assert (work.files, work.ops) == (again.files, again.ops)
    assert (work.files, work.ops) != (other.files, other.ops)
    assert all(0 <= i < len(work.ops) for i in work.canary)

    work.write(str(tmp_path))
    sim, netmodel = modules["sim"], modules["netmodel"]
    for fname in work.scenarios:
        scenario = sim.load_scenario(str(tmp_path / fname))
        weights = netmodel.unit_weights(scenario.network)
        for r in scenario.requests:
            assert netmodel.shortest_weighted_path(scenario.network, weights, r.s, r.d) is not None
    assert {op.scenario for op in work.ops} <= set(work.scenarios)


def test_percentile_rule():
    percentile = bench_run.percentile
    assert percentile(range(1, 101), 90) == 90
    assert percentile(range(1, 201), 90) == 180
    assert percentile(range(1, 21), 50) == 10
    assert percentile([5.0] * 19 + [1.0], 50) == 5.0
    with pytest.raises(ValueError):
        percentile(range(99), 90)  # fewer than ten samples beyond p90
    with pytest.raises(ValueError):
        percentile(range(19), 50)


def test_setup_time_is_the_median_of_minima_across_the_run():
    # three set-ups at each of three pass boundaries
    times = [5.0, 6.0, 7.0, 4.0, 9.0, 9.0, 8.0, 3.0, 2.0]
    assert bench_run.SETUP_REPEATS == 3
    assert bench_run.setup_time(times) == 3.0  # median of minima 4, 3 and 2


def test_self_time_of_nested_spans():
    # a [0, 25] holds b [1, 10] and d [12, 20]; b holds c [3, 4]; d holds
    # another span of its own layer [13, 15]
    ticks = iter([0, 1, 3, 4, 10, 12, 13, 15, 20, 25])
    tracer = Tracer(clock=lambda: next(ticks))
    tracer.enter("a")
    tracer.enter("b")
    tracer.enter("c")
    assert tracer.exit() == 1
    assert tracer.exit() == 9
    tracer.enter("d")
    tracer.enter("d")
    assert tracer.exit() == 2
    assert tracer.exit() == 8
    assert tracer.exit() == 25
    assert dict(tracer.self_s) == {"a": 8, "b": 8, "c": 1, "d": 8}
    assert sum(tracer.self_s.values()) == tracer.root_s == 25


def test_marks_bound_each_plan_by_its_own_entry_and_exit():
    planner = SimpleNamespace(compute_surrogate=lambda: None)

    def adapt_step(plan):
        planner.compute_surrogate()
        planner.compute_surrogate()
        return plan

    sim = SimpleNamespace(adapt_step=adapt_step)
    ticks = iter(range(100))
    marks = Marks({"sim": sim, "planner": planner}, clock=lambda: next(ticks))
    sim.adapt_step(None)
    sim.adapt_step("plan")
    stamps, plans = marks.take()
    assert stamps == list(range(8))
    assert plans == [(4, 7)]  # the second call's entry and exit stamps
    marks.remove()
    assert sim.adapt_step is adapt_step


def test_self_times_are_checked_against_the_outside_clock(modules):
    trace = LayerTrace(modules)
    trace.remove()
    trace.tracer.self_s.update({"sim.run": 0.6, "planner.plan": 0.3})
    _, problems, _ = bench_run.layer_metrics([trace], 0.0, [0.9005])
    assert problems == []
    _, problems, _ = bench_run.layer_metrics([trace], 0.0, [1.0])
    assert any("self times sum to" in p for p in problems)


def test_gate_accepts_a_real_run_and_rejects_a_broken_flow(modules):
    sim = modules["sim"]
    scenario = sim.load_scenario(os.path.join(bench_run.ROOT, "scenarios", "fig1.scenario"))
    result = sim.run_scenario(scenario, seed=3)
    assert gate.check_result(scenario, result) == []

    rid, flow = next(iter(result.flows.items()))
    result.flows[rid] = replace(flow, path=flow.path[::-1] + flow.path)
    assert gate.check_result(scenario, result)


def test_one_byte_change_to_a_trace_fails_the_digest_check(modules, tmp_path):
    sim = modules["sim"]
    scenario = sim.load_scenario(os.path.join(bench_run.ROOT, "scenarios", "mnp3_2.scenario"))
    op = workloads.Op("mnp3_2.scenario", "genadapt", 5)
    bench = bench_run.Bench(modules, str(tmp_path))
    try:
        clean = bench.execute(scenario, op, None, None)
        assert not clean.problems and bench.failed == 0

        write_trace = sim.write_trace_csv

        def write_one_byte_off(trace, path):
            write_trace(trace, path)
            with open(path, "r+b") as fh:
                fh.seek(-2, os.SEEK_END)
                byte = fh.read(1)
                fh.seek(-2, os.SEEK_END)
                fh.write(bytes([byte[0] ^ 1]))

        sim.write_trace_csv = write_one_byte_off
        try:
            broken = bench.execute(scenario, op, None, clean.digest)
        finally:
            sim.write_trace_csv = write_trace
        assert broken.digest != clean.digest
        assert any("digest recorded" in p for p in broken.problems)
        assert bench.failed == 1
    finally:
        bench.marks.remove()
