"""Valid scenario files built from parts, and what a run of each must write.

The generator writes only text that ``load_scenario`` accepts: a topology
(``full``, ``mnp``, or a ``network file`` written by ``save_network``),
requests and bursts with constant or piecewise profiles, GP lines inside
``SCENARIO_KEYS``' ranges, and a router, with a ``kb`` line for
``genadapt-reuse``. Link statics are drawn from their whole valid ranges
(``netmodel.MIN_MBPS``, ``MAX_MS``) and demands up to ``MAX_MBPS``, where a
fitness or a utilization overflowed before they were bounded. Generations
and populations stay small, so that each property runs in a few seconds.
"""

import contextlib
import csv
import io
import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evoroute import cli
from evoroute.cli import main
from evoroute.netmodel import (
    MAX_MBPS,
    MAX_MS,
    MIN_MBPS,
    TOPOLOGIES,
    Network,
    Request,
)
from evoroute.planner import GpConfig, evaluate_plan
from evoroute.scenario import ROUTERS, Scenario, load_scenario, save_network
from evoroute.sim import run_scenario

# link statics from the whole ranges Link accepts, and demands with the bounds among them
_BW = st.floats(MIN_MBPS, allow_infinity=False)
_DL = st.floats(0.0, MAX_MS, exclude_min=True)
_DEMANDS = (0.0, 0.5, 30.0, 90.0, MAX_MBPS)
_TIMES = st.integers(0, 24).map(lambda q: q / 4)  # quarter ticks: on and off the tick grid
# a knowledge base whose formulas fit every max_depth
_KB = "0.5 util\n1.5 dl\n2.5 7.25\n"


@st.composite
def _profile(draw):
    """A constant demand, or piecewise segments with strictly increasing starts."""
    if draw(st.booleans()):
        return repr(draw(st.sampled_from(_DEMANDS)))
    starts = sorted(draw(st.sets(_TIMES, min_size=1, max_size=3)))
    return ",".join(f"{start!r}:{draw(st.sampled_from(_DEMANDS))!r}" for start in starts)


@st.composite
def scenario_parts(draw):
    """(scenario text, the network its ``network file`` line names, or None)."""
    kind = draw(st.sampled_from(["full", "mnp", "file"]))
    lines, net_file = [], None
    generated = draw(st.sampled_from(sorted(TOPOLOGIES)))
    size = draw(st.integers(2, 4))
    network = TOPOLOGIES[generated](size)
    if kind == "file":  # the generated graph, each link with statics of its own
        links = [link._replace(bw=draw(_BW), dl=draw(_DL)) for link in network.links]
        network = Network(network.n_nodes, links)
        lines.append("network file net.txt")
        net_file = network
    else:
        lines.append(f"network {generated} {size}")
        if draw(st.booleans()):
            lines.append(f"link_bw {draw(_BW)!r}")
        if draw(st.booleans()):
            lines.append(f"link_dl {draw(_DL)!r}")
    # every node reaches every other: full is complete, and mnp's edges run both ways
    pairs = [(s, d) for s in range(network.n_nodes) for d in range(network.n_nodes) if s != d]

    arrivals = []
    for _ in range(draw(st.integers(1, 4))):
        (s, d), arrival = draw(st.sampled_from(pairs)), draw(_TIMES)
        lines.append(f"request {s} {d} {arrival!r} {draw(_profile())}")
        arrivals.append(arrival)
    for _ in range(draw(st.integers(0, 2))):
        s, d = draw(st.sampled_from(pairs))
        per_burst, bursts, spacing = draw(st.integers(1, 2)), draw(st.integers(1, 3)), draw(_TIMES.filter(bool))
        lines.append(f"burst {s} {d} {per_burst} {bursts} {spacing!r} {draw(_profile())}")
        arrivals.append((bursts - 1) * spacing)

    population = draw(st.integers(1, 8))
    gp_lines = {
        "threshold": repr(draw(st.floats(0.05, 0.95))),
        "population": str(population),
        "tournament": str(draw(st.integers(1, population))),
        "max_generations": str(draw(st.integers(0, 3))),
        "crossover_rate": repr(draw(st.floats(0.0, 1.0))),
        "mutation_rate": repr(draw(st.floats(0.0, 1.0))),
        "max_depth": str(draw(st.integers(1, 15))),
        "early_stop": repr(draw(st.floats(-1.0, 3.0))),
        "seed": str(draw(st.integers(0, 3))),
    }
    # max_generations is always written: the default of 200 would make a long
    # run; and a population with its tournament, which defaults to 7
    keys = draw(st.sets(st.sampled_from(sorted(gp_lines)))) | {"max_generations"}
    for key in keys | ({"tournament"} if "population" in keys else set()):
        lines.append(f"{key} {gp_lines[key]}")
    router = draw(st.sampled_from(ROUTERS))
    lines.append(f"router {router}")
    if router == "genadapt-reuse":
        lines.append("kb warm.kb")
    if draw(st.booleans()):  # a duration past the last arrival's tick
        lines.append(f"duration {math.ceil(max(arrivals)) + draw(st.integers(1, 4))}")
    return "\n".join(draw(st.permutations(lines))) + "\n", net_file


def _read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def _quiet_main(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 0, err.getvalue()


@pytest.fixture(scope="module")
def scenario_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("valid")
    (path / "warm.kb").write_text(_KB)
    return path


@settings(max_examples=60, deadline=None)
@given(scenario_parts())
def test_a_valid_scenario_runs_and_writes_consistent_outputs(scenario_dir, parts):
    text, network = parts
    if network is not None:
        save_network(network, str(scenario_dir / "net.txt"))
    path, out = scenario_dir / "valid.scenario", scenario_dir / "out"
    path.write_text(text)

    results = []

    def recording(*args, **kwargs):
        results.append(run_scenario(*args, **kwargs))
        return results[-1]

    with mock.patch.object(cli, "run_scenario", recording):
        _quiet_main(["run", "--scenario", str(path), "--out", str(out)])

    (result,) = results
    scenario = load_scenario(str(path))
    for flow in result.flows.values():
        scenario.network.validate_flow(flow)
    trace = _read_csv(out / "trace.csv")
    (metrics,) = _read_csv(out / "metrics.csv")
    invocations = _read_csv(out / "invocations.csv")
    occurrences, congested = int(metrics["congestion_occurrences"]), int(metrics["congestion_duration_s"])
    assert occurrences <= congested <= scenario.resolved_duration() == len(trace)
    assert congested == sum(row["congested_flag"] == "1" for row in trace)
    loss = float(metrics["packet_loss_proxy"])
    assert math.isfinite(loss) and loss >= 0
    assert len(invocations) == int(metrics["planner_invocations"])
    assert all(math.isfinite(float(row["best_fitness"])) for row in invocations)


@settings(max_examples=20, deadline=None)
@given(scenario_parts())
def test_compare_writes_the_rows_that_separate_runs_write(scenario_dir, parts):
    text, network = parts
    if network is not None:
        save_network(network, str(scenario_dir / "net.txt"))
    path, cold = scenario_dir / "valid.scenario", scenario_dir / "cold.scenario"
    path.write_text(text)
    # only genadapt-reuse reads a knowledge base, so the other routers run without the kb line
    cold.write_text("".join(line for line in text.splitlines(True) if line != "kb warm.kb\n"))
    kb = str(scenario_dir / "warm.kb")
    _quiet_main(["compare", "--scenario", str(path), "--out", str(scenario_dir / "cmp"),
                 "--routers", ",".join(ROUTERS), "--seeds", "0-1", "--kb", kb])

    rows = []
    for router in ROUTERS:
        for seed in (0, 1):
            out = scenario_dir / f"run-{router}-{seed}"
            argv = ["run", "--router", router, "--seed", str(seed), "--out", str(out)]
            if router == "genadapt-reuse":
                argv += ["--scenario", str(path), "--kb", kb]
            else:
                argv += ["--scenario", str(cold)]
            _quiet_main(argv)
            (metrics,) = (out / "metrics.csv").read_text().splitlines()[1:]
            rows.append(f"{router},{seed},{metrics}")
    assert (scenario_dir / "cmp" / "runs.csv").read_text().splitlines()[1:] == rows


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(sorted(TOPOLOGIES)),
    st.integers(2, 4),
    st.sampled_from([MIN_MBPS, 100.0]),
    st.sampled_from([25.0, MAX_MS]),
    st.lists(st.tuples(_TIMES, st.sampled_from([MIN_MBPS, 50.0, MAX_MBPS])), min_size=2, max_size=6),
    st.integers(0, 3),
)
def test_fitness_stays_finite_at_the_bounds(kind, size, bw, dl, demands, seed):
    network = TOPOLOGIES[kind](size, bw, dl)
    requests = [Request.constant(i, 0, 1, arrival, bd) for i, (arrival, bd) in enumerate(demands)]
    gp = GpConfig(population_size=6, tournament_size=3, max_generations=3)
    result = run_scenario(Scenario(network, requests, gp=gp), seed=seed)
    assert all(math.isfinite(record.best_fitness) for record in result.state.log)
    flows = list(result.flows.values())
    bandwidths = {r.id: r.bd(math.inf) for r in requests}
    for threshold in (gp.threshold, math.inf):  # an infinite threshold forces the delay-sum regime
        assert math.isfinite(evaluate_plan(network, flows, flows, bandwidths, threshold))
