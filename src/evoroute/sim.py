"""Time-stepped scenario execution: arrivals, routing under the active weight
formula, per-tick monitoring and adaptation, and outcome metrics, written as
CSV. The scenarios it runs come from ``scenario``, which owns their file
format."""

import math
from collections.abc import Sequence
from functools import cache
from random import Random
from typing import NamedTuple

from .loop import AdaptationState, adapt_step, detect
from .netmodel import (
    Flow,
    Network,
    Request,
    Weights,
    check_weights,
    link_utilizations,
    make_snapshot,
    shortest_weighted_path,
    unit_weights,
)
from .planner import formula_weigher, link_inputs, link_weights, reweigh
from .scenario import ROUTERS, Scenario, ScenarioError, check_kb
# re-exported, not used here: the bench harness (bench/run.py, bench/test_bench.py)
# loads scenarios through sim.load_scenario, so sim keeps the name until it moves
from .scenario import load_scenario  # noqa: F401

ADAPTIVE_ROUTERS = ("genadapt", "genadapt-reuse")  # they plan

INVERSE_BW_REFERENCE = 1e5  # Mbps; the 100 Gbps reference-bandwidth convention


class MetricsRecord(NamedTuple):
    congestion_occurrences: int
    congestion_duration: int  # seconds (ticks) spent congested
    packet_loss_proxy: float
    planner_invocations: int


# the CSV columns of a MetricsRecord, field by field
METRICS_COLUMNS = ("congestion_occurrences", "congestion_duration_s", "packet_loss_proxy", "planner_invocations")


class TickRow(NamedTuple):
    t: int
    max_util: float
    congested: bool
    flow_count: int
    formula_id: int


class RunResult(NamedTuple):
    metrics: MetricsRecord
    trace: list[TickRow]
    flows: dict[int, Flow]  # request id -> final flow
    state: AdaptationState


def inverse_bw_weights(network: Network) -> Weights:
    """Weights inversely proportional to link bandwidth: max(1, floor(C/bw)),
    C being ``INVERSE_BW_REFERENCE``."""
    return check_weights(network, [max(1, math.floor(INVERSE_BW_REFERENCE / bw)) for bw in network.bws])


def route_request(
    network: Network,
    weights: Weights,
    request: Request,
) -> Flow:
    """Create the flow for a newly arrived request under the given weights."""
    path = shortest_weighted_path(network, weights, request.s, request.d)
    if path is None:
        raise ScenarioError(
            f"request {request.id}: destination {request.d} unreachable from {request.s}"
        )
    return Flow(request.id, path)


def packet_loss_proxy(
    excess_total: float, demand_total: float
) -> float:
    """Over-capacity excess summed over ticks divided by total demand."""
    if demand_total <= 0:
        return 0.0
    return excess_total / demand_total


def run_scenario(scenario: Scenario, seed: int | None = None, router: str | None = None) -> RunResult:
    """Execute a scenario tick by tick; optional overrides for batch runs.

    The planner starts from the scenario's knowledge base under
    ``genadapt-reuse`` (see ``check_kb``) and from none under the other
    routers. The final formulas are on ``result.state.retained``.
    """
    router = router or scenario.router
    if router not in ROUTERS:
        raise ScenarioError(f"router: unknown value {router!r}")
    seed = scenario.seed if seed is None else seed
    network = scenario.network
    duration = scenario.resolved_duration()
    gp = scenario.gp

    adaptive = router in ADAPTIVE_ROUTERS
    baseline = inverse_bw_weights(network) if router == "inverse-bw-ospf" else unit_weights(network)
    weigh = None  # the installed formula's memoised weigher; None routes under the baseline
    # the weights arrivals route under, and the utilization map the installed
    # formula's weights were last weighed on (an install weighs the idle network)
    weights, weighed = baseline, {}

    rng = Random(seed)
    state = AdaptationState(check_kb(scenario, (router,)) if router == "genadapt-reuse" else ())
    flows: dict[int, Flow] = {}
    trace: list[TickRow] = []
    excess_total = 0.0
    demand_total = 0.0

    # The event index, by tick: the requests arriving on it, in (arrival, id)
    # order, and those whose profile starts a segment on it after they
    # arrived (demand changes nowhere else: before its first segment a
    # request demands 0.0, which is also what it held before arriving). The
    # snapshot is rebuilt only on these ticks and right after a plan; in
    # between, the same floats carry over.
    arrivals: dict[int, list[Request]] = {}
    changes: dict[int, list[Request]] = {}
    for r in sorted(scenario.requests, key=lambda r: (r.arrival, r.id)):
        arrivals.setdefault(math.ceil(r.arrival), []).append(r)
        for tick in {math.ceil(start) for start, _ in r.profile if r.arrival < start}:
            changes.setdefault(tick, []).append(r)
    # every demand, in scenario order since the demand sum adds in that
    # order; a request not yet arrived holds 0.0, which leaves the sum exact
    bandwidths = dict.fromkeys([r.id for r in scenario.requests], 0.0)
    demand = 0.0
    snapshot = None  # the monitored state of the flows that persist; None once they change

    for t in range(duration):
        changed, arrived = changes.get(t, ()), arrivals.get(t, ())
        if changed or arrived:
            bandwidths.update([(r.id, r.bd(t)) for r in (*changed, *arrived)])
            demand = sum(bandwidths.values())
            if changed:
                snapshot = None

        # admit arrivals, routing each under the weights of the moment: only
        # the links whose utilization changed since the last weighing are weighed again
        for req in arrived:
            if weigh is not None:
                util = snapshot.util if snapshot else link_utilizations(network, list(flows.values()), bandwidths)
                stale = [e for e in weighed.keys() | util.keys() if util.get(e, 0.0) != weighed.get(e, 0.0)]
                weights, weighed = reweigh(network, weights, stale, util, weigh), util
            flows[req.id] = route_request(network, weights, req)
            snapshot = None

        if snapshot is None:
            snapshot = make_snapshot(network, list(flows.values()), bandwidths)
        congested = detect(snapshot, gp.threshold)
        max_util = snapshot.peak

        if congested and adaptive:
            plan = adapt_step(network, snapshot, t, bandwidths, state, gp, rng)
            flows = {f.request: f for f in plan.new_flows}
            # arrivals meet the same inputs again until the next install
            weigh = cache(formula_weigher(plan.best.expr, gp.threshold))
            weights, weighed = link_weights(link_inputs(network, {}), weigh), {}
            # the re-routed flows persist through this tick
            snapshot = make_snapshot(network, list(flows.values()), bandwidths)

        # loss proxy accounts the state that persists through this tick
        excess_total += snapshot.excess
        demand_total += demand

        # positional: the cheapest way to build a row
        trace.append(TickRow(t, max_util, congested, len(flows), len(state.log)))

    # the congestion metrics read the trace: an occurrence is a maximal run of
    # congested ticks, so it starts on a congested tick whose previous is calm
    flags = [row.congested for row in trace]
    occurrences = sum(c and not p for p, c in zip([False, *flags], flags))
    metrics = MetricsRecord(
        occurrences, sum(flags), packet_loss_proxy(excess_total, demand_total), len(state.log)
    )
    return RunResult(metrics, trace, flows, state)


# ---------------------------------------------------------------------------
# CSV emission (fixed 6-decimal formatting keeps outputs diff-stable)


def write_trace_csv(trace: Sequence[TickRow], path: str) -> None:
    with open(path, "w") as fh:
        fh.write("t,max_util,congested_flag,flow_count,active_formula_id\n")
        for row in trace:
            fh.write(
                f"{row.t},{row.max_util:.6f},{int(row.congested)},"
                f"{row.flow_count},{row.formula_id}\n"
            )


def metrics_row(m: MetricsRecord) -> str:
    """The ``METRICS_COLUMNS`` values of one record, comma-separated."""
    return f"{m.congestion_occurrences},{m.congestion_duration},{m.packet_loss_proxy:.6f},{m.planner_invocations}"


def write_metrics_csv(metrics: MetricsRecord, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(METRICS_COLUMNS) + "\n")
        fh.write(metrics_row(metrics) + "\n")


def write_invocations_csv(state: AdaptationState, path: str) -> None:
    with open(path, "w") as fh:
        fh.write("tick,max_util,generations,best_fitness,wallclock_ms,formula_text\n")
        for rec in state.log:
            fh.write(
                f"{rec.tick},{rec.max_util:.6f},{rec.generations},"
                f"{rec.best_fitness:.6f},{rec.wallclock_ms:.3f},\"{rec.formula}\"\n"
            )
