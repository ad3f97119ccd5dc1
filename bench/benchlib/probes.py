"""Timing and counting at layer boundaries, from outside the program.

A probe rebinds a module attribute that a caller looks up (for example
``planner.eval_expr``, which ``compute_surrogate`` calls) to a wrapper. The
program's source is never edited. ``expr.eval_expr`` itself is never
wrapped: its recursion goes through that name, so every tree node would
become a span.

Two instruments exist. ``Marks`` is always installed and is all an untraced
run carries: timestamps at a few boundaries, so that every operation's time
splits into segments of a few milliseconds at most. ``LayerTrace`` adds a
span and a count at every layer boundary.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

# (module, attribute, layer): the names callers look up, and the layer
# whose self time a call through each name is charged to.
BOUNDARIES = (
    ("sim", "run_scenario", "sim.run"),
    ("sim", "route_request", "sim.route"),
    ("sim", "shortest_weighted_path", "netmodel.route"),
    ("planner", "shortest_weighted_path", "netmodel.route"),
    ("sim", "make_snapshot", "netmodel.util"),
    ("sim", "link_utilizations", "netmodel.util"),
    ("planner", "link_utilizations", "netmodel.util"),
    ("sim", "eval_expr", "expr.eval.sim"),
    ("sim", "to_weight", "expr.eval.sim"),
    ("planner", "eval_expr", "expr.eval.planner"),
    ("planner", "to_weight", "expr.eval.planner"),
    ("planner", "grow_random", "expr.gp"),
    ("planner", "crossover", "expr.gp"),
    ("planner", "mutate", "expr.gp"),
    ("loop", "gen_plan", "planner.plan"),
    ("planner", "find_flows_causing_congestion", "planner.select"),
    ("planner", "compute_surrogate", "planner.surrogate"),
    ("planner", "evaluate_plan", "planner.evaluate"),
    ("planner", "_breed", "planner.breed"),
    ("sim", "adapt_step", "loop.adapt"),
    ("sim", "detect", "loop.detect"),
    ("loop", "detect", "loop.detect"),
)

UNMEASURED = -1


class Tracer:
    """Self time per layer from nested spans.

    A span's self time is its duration minus the durations of the spans
    opened inside it, so the self times of all spans under a root add up to
    the root's duration.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []  # [layer, start, time in child spans]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.root_s = 0.0  # summed duration of the spans opened at top level

    def enter(self, layer: str) -> None:
        self.stack.append([layer, self.clock(), 0.0])

    def exit(self) -> float:
        layer, start, child = self.stack.pop()
        duration = self.clock() - start
        self.self_s[layer] += duration - child
        if self.stack:
            self.stack[-1][2] += duration
        else:
            self.root_s += duration
        return duration


class Patches:
    """Module attributes rebound by probes, restorable in reverse order."""

    def __init__(self):
        self.saved: list[tuple[object, str, object]] = []

    def set(self, module, attr: str, value) -> None:
        self.saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def undo(self) -> None:
        while self.saved:
            module, attr, value = self.saved.pop()
            setattr(module, attr, value)


class Marks:
    """The untraced instrument: timestamps that cut each operation into
    short segments.

    A stamp is taken at the start of every tick (``sim.make_snapshot`` runs
    once per tick), at every arrival (``sim.route_request``), at every
    fitness evaluation (``planner.compute_surrogate``) and on entry to and
    exit from every ``adapt_step``. ``plans`` holds, for each
    ``adapt_step`` that returned a plan, the indices of its entry and exit
    stamps. A name the program no longer has is skipped; its segments are
    then just longer.
    """

    def __init__(self, modules: dict, clock=time.perf_counter):
        self.stamps: list[float] = []
        self.plans: list[tuple[int, int]] = []
        self.patches = Patches()
        stamps, plans = self.stamps, self.plans

        def stamp(fn):
            def wrapped(*args, **kwargs):
                stamps.append(clock())
                return fn(*args, **kwargs)

            return wrapped

        def adapt_step(adapt):
            def wrapped(*args, **kwargs):
                entry = len(stamps)
                stamps.append(clock())
                result = adapt(*args, **kwargs)
                stamps.append(clock())
                if result is not None:
                    plans.append((entry, len(stamps) - 1))
                return result

            return wrapped

        for module, attr, wrap in (
            (modules["sim"], "make_snapshot", stamp),
            (modules["sim"], "route_request", stamp),
            (modules["sim"], "adapt_step", adapt_step),
            (modules["planner"], "compute_surrogate", stamp),
        ):
            if hasattr(module, attr):
                self.patches.set(module, attr, wrap(getattr(module, attr)))

    def take(self) -> tuple[list[float], list[tuple[int, int]]]:
        out = (self.stamps[:], self.plans[:])
        self.stamps.clear()
        self.plans.clear()
        return out

    def remove(self) -> None:
        self.patches.undo()


class LayerTrace:
    """The traced instrument: spans and counts at every boundary.

    Install it after ``Marks`` so that its spans wrap the marks' wrappers.
    Counts and derived shares:

    - ``calls[(module, attr)]``: calls through each boundary;
    - ``unreachable``: ``shortest_weighted_path`` calls that returned None;
    - ``distinct_inputs``: formula evaluations whose (bw, dl, util,
      threshold) input was new within one weights computation. One weights
      computation is one ``compute_surrogate`` call, or the evaluations
      ``run_scenario`` makes before one ``route_request``;
    - ``formula_nodes``/``weight_sets``: summed ``size()`` of the formula of
      each weights computation, and their number;
    - ``fitness_evals``/``distinct_formulas``: ``compute_surrogate`` calls
      and distinct formula texts among them, summed per ``gen_plan``;
    - ``bad_flows``, ``generations``, ``resolved``: from the results of
      ``find_flows_causing_congestion`` and ``gen_plan``;
    - ``ticks``, ``planner_invocations``, ``logged_generations``: from the
      results of ``run_scenario``, for the cross-checks.
    """

    def __init__(self, modules: dict, clock=time.perf_counter):
        self.tracer = Tracer(clock)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.patches = Patches()
        self._inputs: set = set()
        self._formulas: set = set()
        self._size = modules["expr"].size
        self._format = modules["expr"].format_expr
        for mod_name, attr, layer in BOUNDARIES:
            module = modules[mod_name]
            if not hasattr(module, attr):
                self.missing.append(f"{mod_name}.{attr}")
                continue
            self.patches.set(module, attr, self._wrap(getattr(module, attr), mod_name, attr, layer))

    def remove(self) -> None:
        self.patches.undo()

    def _close_weight_set(self) -> None:
        self.counts["distinct_inputs"] += len(self._inputs)
        self._inputs.clear()

    def _wrap(self, fn, mod_name: str, attr: str, layer: str):
        tracer, calls, counts = self.tracer, self.calls, self.counts
        key = (mod_name, attr)
        enter, exit_ = tracer.enter, tracer.exit

        if attr == "eval_expr":
            inputs, size = self._inputs, self._size

            def wrapped(expr, ctx):
                calls[key] += 1
                if not inputs:
                    counts["weight_sets"] += 1
                    counts["formula_nodes"] += size(expr)
                inputs.add((ctx.bw, ctx.dl, ctx.util, ctx.threshold))
                enter(layer)
                try:
                    return fn(expr, ctx)
                finally:
                    exit_()

            return wrapped

        before = after = None
        if attr == "compute_surrogate":
            formulas, fmt = self._formulas, self._format

            def before(args, kwargs):
                self._close_weight_set()
                expr = kwargs["expr"] if "expr" in kwargs else args[4]
                formulas.add(fmt(expr))
                counts["fitness_evals"] += 1

            def after(result):
                self._close_weight_set()

        elif attr == "route_request":

            def before(args, kwargs):
                self._close_weight_set()

        elif attr == "gen_plan":

            def before(args, kwargs):
                self._formulas.clear()

            def after(result):
                counts["distinct_formulas"] += len(self._formulas)
                self._formulas.clear()
                counts["generations"] += result.generations
                counts["resolved"] += result.best.fitness < 2.0

        elif attr == "shortest_weighted_path":

            def after(result):
                counts["unreachable"] += result is None

        elif attr == "find_flows_causing_congestion":

            def after(result):
                counts["bad_flows"] += len(result)

        elif attr == "run_scenario":

            def after(result):
                counts["ticks"] += len(result.trace)
                counts["planner_invocations"] += result.metrics.planner_invocations
                counts["logged_generations"] += sum(r.generations for r in result.state.log)

        def wrapped(*args, **kwargs):
            calls[key] += 1
            if before is not None:
                before(args, kwargs)
            enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            if after is not None:
                after(result)
            return result

        return wrapped

