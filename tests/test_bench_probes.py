"""The names the benchmark's probes rebind must exist in the program.

``bench/benchlib/probes.py`` skips a name the program no longer has, and
says nothing: a missing ``LayerTrace`` boundary drops a layer from the
per-layer metrics, and a missing ``Marks`` name lengthens the segments
that every timing is cut into, which lowers the measured ``ticks_per_s``.
"""

import importlib.util
import inspect
import os

from conftest import scenario_path

from evoroute import expr, loop, netmodel, planner, sim

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = {"sim": sim, "planner": planner, "loop": loop, "expr": expr, "netmodel": netmodel}

# the formula is evaluated through the planner's weigher only
ABSENT = {("sim", "eval_expr"), ("sim", "to_weight")}


def load_probes():
    path = os.path.join(ROOT, "bench", "benchlib", "probes.py")
    spec = importlib.util.spec_from_file_location("evoroute_bench_probes", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Recorder:
    """A stand-in module that has every attribute and records each name asked for."""

    def __init__(self):
        self.asked = []

    def __getattr__(self, name):
        self.asked.append(name)
        return lambda *args, **kwargs: None


def test_every_layer_boundary_exists_but_the_sim_side_evaluation():
    probes = load_probes()
    missing = {(mod, attr) for mod, attr, _ in probes.BOUNDARIES if not hasattr(MODULES[mod], attr)}
    assert missing == ABSENT


def test_every_mark_name_exists():
    probes = load_probes()
    recorders = {name: Recorder() for name in MODULES}
    probes.Marks(recorders).remove()
    asked = {(mod, attr) for mod, rec in recorders.items() for attr in set(rec.asked)}
    assert len(asked) == 4
    assert all(hasattr(MODULES[mod], attr) for mod, attr in asked), asked


def test_surrogate_formula_is_the_fifth_positional_argument():
    # LayerTrace reads the formula of each fitness evaluation as args[4]
    params = list(inspect.signature(planner.compute_surrogate).parameters)
    assert params[4] == "expr"


def test_traced_runs_count_alike_and_agree_with_their_results():
    # as the bench runs it: Marks, then LayerTrace over it, on the real modules,
    # and one loaded scenario reused for every traced pass
    probes = load_probes()
    scenario = sim.load_scenario(scenario_path("fig1"))
    traces, results = [], []
    marks = probes.Marks(MODULES)
    try:
        for _ in range(2):
            trace = probes.LayerTrace(MODULES)
            try:
                results.append(sim.run_scenario(scenario, seed=1, router="genadapt"))
            finally:
                trace.remove()
            traces.append(trace)
    finally:
        marks.remove()
    first, second = traces
    assert (first.calls, first.counts) == (second.calls, second.counts)
    plans = results[0].metrics.planner_invocations
    assert first.calls[("sim", "adapt_step")] == plans > 0
    assert first.counts["generations"] == first.counts["logged_generations"]
