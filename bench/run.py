#!/usr/bin/env python3
"""The evoroute benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 bench/run.py --record-digests

Run from the root of a source checkout; the program is imported from its
``src/`` directory. The workload is generated from ``--seed`` and handed to
the program as scenario and topology files in a temporary directory inside
the checkout. A fixed number of passes over the workload's operations is
timed; further passes, checked but not timed, fill ``--seconds``. Every
operation goes through the correctness gate; the last line of output is one
JSON object with the end-to-end metrics (``--trace 0``) or the per-layer
metrics (``--trace 1``).
The exit code is 1 when any check failed and 2 when the program cannot be
found. ``bench/NOTES.md`` explains the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
DIGESTS = os.path.join(BENCH_DIR, "digests.json")
DEFAULT_SEED = 0
SETUP_REPEATS = 3  # before every pass, and once more after the last
# Timed passes per run, the same on every commit: each segment's time is
# its minimum over them, and a minimum over more passes reads lower.
TIMED_PASSES = 13
TRACED_PASSES = 4  # with --trace 1: this many untraced and traced passes, alternating
MODULES = ("sim", "planner", "loop", "expr", "netmodel")

sys.path.insert(0, BENCH_DIR)
from benchlib import gate, workloads  # noqa: E402
from benchlib.probes import UNMEASURED, LayerTrace, Marks  # noqa: E402


class ProgramMissing(Exception):
    pass


def find_program() -> None:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "evoroute", "sim.py")):
        raise ProgramMissing(f"no evoroute sources under {src}")
    if not os.path.isdir(os.path.join(ROOT, "scenarios")):
        raise ProgramMissing(f"no bundled scenarios under {ROOT}")
    sys.path.insert(0, src)


def fresh_import() -> dict:
    """Import evoroute from scratch, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "evoroute" or m.startswith("evoroute.")]:
        del sys.modules[name]
    return program_modules()


def program_modules() -> dict:
    """The evoroute modules the probes patch, checked to come from this checkout."""
    modules = {name: importlib.import_module(f"evoroute.{name}") for name in MODULES}
    where = os.path.dirname(modules["sim"].__file__)
    if os.path.realpath(where) != os.path.realpath(os.path.join(ROOT, "src", "evoroute")):
        raise ProgramMissing(f"evoroute was imported from {where}, not from this checkout")
    return modules


def set_up(work, directory: str, times: list[float]) -> tuple[dict, dict]:
    """Import evoroute afresh and load every scenario (with its topology
    file) of the workload, SETUP_REPEATS times, appending each time taken.
    Input generation is excluded. Returns the last import and scenarios."""
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        modules = fresh_import()
        scenarios = {f: modules["sim"].load_scenario(os.path.join(directory, f)) for f in work.scenarios}
        times.append(time.perf_counter() - start)
    return modules, scenarios


def setup_time(times: list[float]) -> float:
    """The median of SETUP_REPEATS minima: the k-th minimum is over the k-th
    set-up at every pass boundary, so each spans the whole run and reads it
    at its quietest. The median of all set-ups swings with whichever phase
    of host contention a run falls in."""
    return statistics.median(min(times[k::SETUP_REPEATS]) for k in range(SETUP_REPEATS))


def set_up_again(work, directory: str, times: list[float]) -> None:
    """Time SETUP_REPEATS more set-ups, then put the run's own import, the
    one the probes patched, back in ``sys.modules``."""
    saved = {k: m for k, m in sys.modules.items() if k == "evoroute" or k.startswith("evoroute.")}
    set_up(work, directory, times)
    sys.modules.update(saved)


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q percent
    of all samples at or below it.

    A tail percentile is only meaningful with at least ten samples beyond
    it, so p90 needs 100 samples and p50 needs 20; fewer raises ValueError.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    n = len(samples)
    beyond = n * (100 - q) / 100
    if beyond < 10:
        raise ValueError(f"p{q:g} needs {math.ceil(1000 / (100 - q))} samples, got {n}")
    ordered = sorted(samples)
    return ordered[math.ceil(q * n / 100) - 1]


def reference_loop() -> float:
    """A fixed pure-Python loop, timed beside each pass to show host drift."""
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return time.perf_counter() - start


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


class OpRecord:
    """One execution of one operation: its time cut into segments at the
    ``Marks`` stamps, where its plans start and end, its output digest,
    outcome metrics and any problems the gate found."""

    __slots__ = ("segments", "plans", "digest", "outcome", "problems")

    def __init__(self):
        self.segments: list[float] = []
        self.plans: list[tuple[int, int]] = []
        self.digest = ""
        self.outcome: tuple = ()
        self.problems: list[str] = []

    @property
    def time(self) -> float:
        return sum(self.segments)


class Bench:
    """Runs operations under the ``Marks`` instrument and gates each one."""

    def __init__(self, modules: dict, scratch: str):
        self.sim = modules["sim"]
        self.scratch = scratch
        self.marks = Marks(modules)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []  # failed executions and failed run-level checks

    def execute(self, scenario, op, first_digest: str | None, expected: str | None) -> OpRecord:
        """Run one operation, then gate it. ``first_digest`` is the digest of
        this operation's first execution in the run, ``expected`` the recorded
        one for the default workload seed.

        A full collection first puts the cyclic collector's counters at zero,
        so its pauses fall at the same points of the operation every time
        and are part of its time."""
        rec = OpRecord()
        self.attempted += 1
        gc.collect()
        try:
            start = time.perf_counter()
            result = self.sim.run_scenario(scenario, seed=op.seed, router=op.router)
            end = time.perf_counter()
        except Exception as exc:  # the gate counts it; the run goes on
            self.marks.take()
            rec.problems.append(f"raised {type(exc).__name__}: {exc}")
        else:
            stamps, plans = self.marks.take()
            bounds = [start] + stamps + [end]
            rec.segments = [b - a for a, b in zip(bounds, bounds[1:])]
            # segment j + 1 starts at stamp j
            rec.plans = [(a + 1, b + 1) for a, b in plans]
            m = result.metrics
            rec.outcome = (
                m.congestion_occurrences,
                m.congestion_duration,
                m.packet_loss_proxy,
                m.planner_invocations,
                len(result.trace),
            )
            rec.digest = gate.output_digest(self.sim, result, self.scratch)
            if first_digest is None:
                rec.problems += gate.check_result(scenario, result)
            elif rec.digest != first_digest:
                rec.problems.append("outputs differ from this operation's first run")
            if expected is not None and rec.digest != expected:
                rec.problems.append("outputs differ from the digest recorded for the default seed")
        if rec.problems:
            self.failed += 1
            self.problems.append(f"{op}: {'; '.join(rec.problems)}")
        return rec


class OpTiming:
    """Per-segment minimum over the timed executions of one operation.

    Every execution does the same work in the same segments (the program is
    deterministic), and host contention only ever adds time, so the minimum
    is the least disturbed reading. Segments last a few milliseconds at
    most, short against the bursts of contention on a shared host."""

    def __init__(self):
        self.segments: list[float] = []
        self.plans: list[tuple[int, int]] = []
        self.ticks = 0

    def add(self, rec: OpRecord) -> None:
        if not rec.segments:
            return
        if len(rec.segments) == len(self.segments):
            self.segments = [min(a, b) for a, b in zip(self.segments, rec.segments)]
        elif not self.segments or rec.time < sum(self.segments):
            self.segments, self.plans, self.ticks = rec.segments, rec.plans, rec.outcome[4]


def throughput(timings: list[OpTiming]) -> tuple[float, list[float]]:
    """Ticks per second over all operations and the latency of every plan,
    each summed from per-segment minima."""
    busy = sum(sum(t.segments) for t in timings)
    plans = [sum(t.segments[a:b]) for t in timings for a, b in t.plans]
    return (sum(t.ticks for t in timings) / busy if busy else 0.0), plans


def outcomes(records: list[OpRecord]) -> dict:
    """The deterministic outcome metrics of one pass."""
    done = [r.outcome for r in records if r.outcome]
    return {
        "congestion_events": sum(o[0] for o in done),
        "congested_s": sum(o[1] for o in done),
        "loss_proxy": sum(o[2] for o in done) / max(1, len(done)),
        "plan_calls": sum(o[3] for o in done),
    }


# Largest gap allowed between the summed layer self times and the host time
# of the traced operations read outside every span, as a share of the
# latter; the gap is the wrappers' own bookkeeping around each root span.
SELF_TIME_TOLERANCE = 0.01


def layer_metrics(
    traces: list[LayerTrace], overhead_share: float, op_seconds: list[float]
) -> tuple[dict, list[str], float]:
    """Per-layer metrics per pass (mean over traced passes), the problems the
    wrapper cross-checks found, and the host time of the traced operations
    per pass in ms. ``op_seconds`` holds, per traced pass, the summed host
    time of its operations as ``Bench.execute`` read it."""
    n = len(traces)
    problems = []
    calls = traces[0].calls
    counts = traces[0].counts
    for t in traces[1:]:
        if t.calls != calls or t.counts != counts:
            problems.append("per-layer counts differ between traced passes")
    self_ms = {}
    for t in traces:
        for layer, s in t.tracer.self_s.items():
            self_ms[layer] = self_ms.get(layer, 0.0) + s * 1000.0 / n

    def c(*keys):
        return sum(calls[k] for k in keys)

    def measured(n_calls, value):
        return value if n_calls else UNMEASURED

    route = c(("sim", "shortest_weighted_path"), ("planner", "shortest_weighted_path"))
    util = c(("sim", "make_snapshot"), ("sim", "link_utilizations"), ("planner", "link_utilizations"))
    ev_planner = c(("planner", "eval_expr"))
    ev_sim = c(("sim", "eval_expr"))
    gp = c(("planner", "grow_random"), ("planner", "crossover"), ("planner", "mutate"))
    plans = c(("loop", "gen_plan"))
    select = c(("planner", "find_flows_causing_congestion"))
    surrogate = c(("planner", "compute_surrogate"))
    evaluate = c(("planner", "evaluate_plan"))
    breed = c(("planner", "_breed"))
    adapt = c(("sim", "adapt_step"))
    detect = c(("sim", "detect"), ("loop", "detect"))
    runs = c(("sim", "run_scenario"))
    arrivals = c(("sim", "route_request"))
    evals = ev_planner + ev_sim

    def ms(layer, n_calls):
        return measured(n_calls, self_ms.get(layer, 0.0))

    values = {
        "netmodel.route.calls": (measured(route, route), "count"),
        "netmodel.route.self_ms": (ms("netmodel.route", route), "ms"),
        "netmodel.route.unreachable": (measured(route, counts["unreachable"]), "count"),
        "netmodel.util.calls": (measured(util, util), "count"),
        "netmodel.util.self_ms": (ms("netmodel.util", util), "ms"),
        "expr.eval.planner.calls": (measured(ev_planner, ev_planner), "count"),
        "expr.eval.planner.self_ms": (ms("expr.eval.planner", ev_planner), "ms"),
        "expr.eval.sim.calls": (measured(ev_sim, ev_sim), "count"),
        "expr.eval.sim.self_ms": (ms("expr.eval.sim", ev_sim), "ms"),
        "expr.eval.distinct_share": (measured(evals, counts["distinct_inputs"] / max(1, evals)), "share"),
        "expr.gp.calls": (measured(gp, gp), "count"),
        "expr.gp.self_ms": (ms("expr.gp", gp), "ms"),
        "expr.formula_nodes_mean": (
            measured(evals, counts["formula_nodes"] / max(1, counts["weight_sets"])),
            "nodes",
        ),
        "planner.plan.self_ms": (ms("planner.plan", plans), "ms"),
        "planner.select.self_ms": (ms("planner.select", select), "ms"),
        "planner.bad_flows": (measured(select, counts["bad_flows"]), "count"),
        "planner.fitness.evals": (measured(surrogate, surrogate), "count"),
        "planner.fitness.distinct_share": (
            measured(surrogate and plans, counts["distinct_formulas"] / max(1, counts["fitness_evals"])),
            "share",
        ),
        "planner.surrogate.self_ms": (ms("planner.surrogate", surrogate), "ms"),
        "planner.evaluate.self_ms": (ms("planner.evaluate", evaluate), "ms"),
        "planner.breed.self_ms": (ms("planner.breed", breed), "ms"),
        "planner.generations": (measured(plans, counts["generations"]), "count"),
        "planner.resolved_share": (measured(plans, counts["resolved"] / max(1, plans)), "share"),
        "loop.adapt.calls": (measured(adapt, adapt), "count"),
        "loop.adapt.self_ms": (ms("loop.adapt", adapt), "ms"),
        "loop.detect.calls": (measured(detect, detect), "count"),
        "loop.detect.self_ms": (ms("loop.detect", detect), "ms"),
        "sim.ticks": (measured(runs, counts["ticks"]), "count"),
        "sim.arrivals": (measured(arrivals, arrivals), "count"),
        "sim.run.self_ms": (ms("sim.run", runs), "ms"),
        "sim.route.self_ms": (ms("sim.route", arrivals), "ms"),
        "trace.overhead_share": (overhead_share, "share"),
    }

    if adapt and adapt != counts["planner_invocations"]:
        problems.append(
            f"loop.adapt.calls {adapt} != summed planner_invocations {counts['planner_invocations']}"
        )
    if plans and counts["generations"] != counts["logged_generations"]:
        problems.append(
            f"planner.generations {counts['generations']} != summed InvocationRecord.generations "
            f"{counts['logged_generations']}"
        )
    traced_ms = sum(op_seconds) * 1000.0 / n
    if abs(sum(self_ms.values()) - traced_ms) > SELF_TIME_TOLERANCE * traced_ms:
        problems.append(f"self times sum to {sum(self_ms.values()):.3f} ms, traced ops took {traced_ms:.3f} ms")
    return values, problems, traced_ms


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    find_program()
    work = workloads.build(name, seed, ROOT)
    with open(DIGESTS) as fh:
        digests = json.load(fh).get(name, {})
    recorded = digests.get("ops") if digests.get("seed") == DEFAULT_SEED else None
    if recorded is None:
        print(f"{DIGESTS} has no digests for {name}", file=sys.stderr)
        return 2
    base = work if seed == DEFAULT_SEED else workloads.build(name, DEFAULT_SEED, ROOT)
    if len(recorded) != len(base.ops):
        print(f"{DIGESTS} does not match the {name} workload; re-record it", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        inputs = os.path.join(tmp, "inputs")
        os.mkdir(inputs)
        work.write(inputs)
        setup_times: list[float] = []
        modules, scenarios = set_up(work, inputs, setup_times)
        # what set-up left is long-lived: keep it out of every later collection
        gc.collect()
        gc.freeze()
        bench = Bench(modules, tmp)

        # The default-seed canary: a few operations checked byte for byte
        # against recorded outputs on every run, whatever the seed.
        if seed == DEFAULT_SEED:
            expected = recorded
        else:
            expected = [None] * len(work.ops)
            base_dir = os.path.join(tmp, "canary")
            os.mkdir(base_dir)
            base.write(base_dir)
            for i in base.canary:
                sc = modules["sim"].load_scenario(os.path.join(base_dir, base.ops[i].scenario))
                bench.execute(sc, base.ops[i], None, recorded[i])

        # Timed passes first, untraced or alternating with traced ones; then
        # untimed passes, checked like the others, while --seconds lasts.
        timed = [False, True] * TRACED_PASSES if trace else [False] * TIMED_PASSES
        timings = {kind: [OpTiming() for _ in work.ops] for kind in (False, True)}
        passes = {False: 0, True: 0}
        pass_outcomes: list[dict] = []
        traces: list[LayerTrace] = []
        traced_seconds: list[float] = []
        refs: list[float] = []
        first: list[str | None] = [None] * len(work.ops)
        last_duration = 0.0
        clock_start = time.perf_counter()
        while len(pass_outcomes) < len(timed) or time.perf_counter() - clock_start + last_duration <= seconds:
            kind = timed[len(pass_outcomes)] if len(pass_outcomes) < len(timed) else None
            if pass_outcomes:  # set-up samples spread over the whole run
                set_up_again(work, inputs, setup_times)
            refs.append(reference_loop())
            layer_trace = LayerTrace(modules) if kind else None
            pass_start = time.perf_counter()
            records = []
            for i, op in enumerate(work.ops):
                rec = bench.execute(scenarios[op.scenario], op, first[i], expected[i])
                if first[i] is None:
                    first[i] = rec.digest or None
                if kind is not None:
                    timings[kind][i].add(rec)
                records.append(rec)
            if kind is not True:
                last_duration = time.perf_counter() - pass_start
            if kind is not None:
                passes[kind] += 1
            pass_outcomes.append(outcomes(records))
            if layer_trace is not None:
                layer_trace.remove()
                traces.append(layer_trace)
                traced_seconds.append(sum(r.time for r in records))
        bench.marks.remove()
        set_up(work, inputs, setup_times)

    setup_s = setup_time(setup_times)
    tps, plan_times = throughput(timings[False])
    out = pass_outcomes[0]
    if any(o != out for o in pass_outcomes[1:]):
        bench.problems.append("outcome sums differ between passes")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(f"# evoroute bench  workload={name} seed={seed} trace={int(trace)} seconds={seconds:g}")
    print(
        f"# context  git={git_sha()} python={platform.python_version()} "
        f"cpu_count={os.cpu_count()}"
    )
    print(
        f"# passes  timed={passes[False]} traced={passes[True]} "
        f"untimed={len(pass_outcomes) - passes[False] - passes[True]} ops/pass={len(work.ops)} "
        f"attempted={bench.attempted} failed={bench.failed}"
    )
    print(
        f"# reference loop  median={statistics.median(refs) * 1000:.2f} ms "
        f"min={min(refs) * 1000:.2f} max={max(refs) * 1000:.2f} over {len(refs)} passes"
    )

    def latency(samples, q):
        try:
            return f"{percentile(samples, q) * 1000:.3f} ms"
        except ValueError as exc:
            return f"n/a ({exc})"

    report = [
        ("setup_s", f"{setup_s:.5f} s"),
        ("ticks_per_s", f"{tps:.2f} 1/s"),
        ("plan_ms_p50", latency(plan_times, 50) + f"  [{len(plan_times)} plans]"),
        ("plan_ms_p90", latency(plan_times, 90)),
        ("peak_rss_mb", f"{peak_rss_mb:.1f} MB"),
        ("congestion_events", f"{out['congestion_events']} count"),
        ("congested_s", f"{out['congested_s']} s"),
        ("loss_proxy", f"{out['loss_proxy']:.6f} share"),
        ("plan_calls", f"{out['plan_calls']} count"),
    ]
    for key, text in report:
        print(f"{key:<20} {text}")

    if trace:
        traced_tps = throughput(timings[True])[0]
        overhead = 1.0 - traced_tps / tps if tps else 0.0
        values, problems, traced_ms = layer_metrics(traces, overhead, traced_seconds)
        bench.problems += problems
        self_sum = sum(v for k, (v, u) in values.items() if k.endswith(".self_ms") and v != UNMEASURED)
        print(
            f"# per traced pass: layer self times sum to {self_sum:.3f} ms, "
            f"the operations took {traced_ms:.3f} ms read outside the spans"
        )
        if traces[0].missing:
            print(f"# names not found, layers unmeasured: {', '.join(traces[0].missing)}")
        for key, (value, unit) in values.items():
            shown = "unmeasured" if value == UNMEASURED else f"{value:.6g} {unit}"
            print(f"{key:<32} {shown}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ticks_per_s": {"value": tps, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        try:
            metrics["plan_ms_p50"] = {"value": percentile(plan_times, 50) * 1000, "unit": "ms"}
        except ValueError:
            pass  # too few plans: static-churn never plans

    for p in bench.problems[:20]:
        print(f"FAILED {p}")
    correct = not bench.problems
    print(json.dumps({"correct": correct, "attempted": bench.attempted, "failed": bench.failed, "metrics": metrics}))
    return 0 if correct else 1


def record_digests() -> int:
    """Re-record the outputs of every operation of every workload at the
    default seed. Do this only when a change to the program's outputs is
    intended."""
    find_program()
    out = {}
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        modules = fresh_import()
        for name in workloads.WORKLOADS:
            work = workloads.build(name, DEFAULT_SEED, ROOT)
            inputs = os.path.join(tmp, name)
            os.mkdir(inputs)
            work.write(inputs)
            scenarios = {f: modules["sim"].load_scenario(os.path.join(inputs, f)) for f in work.scenarios}
            ops = []
            for op in work.ops:
                result = modules["sim"].run_scenario(scenarios[op.scenario], seed=op.seed, router=op.router)
                problems = gate.check_result(scenarios[op.scenario], result)
                if problems:
                    print(f"{name} {op}: {problems}", file=sys.stderr)
                    return 1
                ops.append(gate.output_digest(modules["sim"], result, tmp))
            out[name] = {"seed": DEFAULT_SEED, "ops": ops}
            print(f"{name}: {len(ops)} operations recorded")
    with open(DIGESTS, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.record_digests:
            return record_digests()
        if args.workload is None:
            parser.error("--workload is required")
        if args.workload != "all":
            return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        status = 0
        for name in workloads.WORKLOADS:
            child = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
            )
            status = max(status, child.returncode)
        return status
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
