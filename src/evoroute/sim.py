"""Time-stepped scenario execution: arrivals, routing under the active weight
formula, per-tick monitoring and adaptation, and outcome metrics."""

import math
import os
from collections.abc import Collection, Sequence
from functools import cache
from random import Random
from typing import NamedTuple

from .expr import DEFAULT_MAX_DEPTH
from .loop import AdaptationState, KbImportError, adapt_step, detect, import_kb
from .netmodel import (
    TOPOLOGIES,
    Flow,
    InputError,
    Network,
    Request,
    Weights,
    check_weights,
    link_utilizations,
    load_network,
    make_snapshot,
    read_lines,
    shortest_weighted_path,
    unit_weights,
)
from .planner import GpConfig, Individual, formula_weigher, link_inputs, link_weights, reweigh

ROUTERS = ("unit-ospf", "inverse-bw-ospf", "genadapt", "genadapt-reuse")
ADAPTIVE_ROUTERS = ("genadapt", "genadapt-reuse")  # they plan

INVERSE_BW_REFERENCE = 1e5  # Mbps; the 100 Gbps reference-bandwidth convention


class ScenarioError(ValueError):
    pass


class Scenario(NamedTuple):
    network: Network
    requests: list[Request]
    duration: int | None = None
    router: str = "genadapt"
    gp: GpConfig = GpConfig()  # immutable, so one default serves every scenario
    seed: int = 0
    kb: tuple[Individual, ...] | None = None  # the knowledge base's formulas (see ``with_kb``)
    kb_source: str = "kb"  # names them in messages: "kb: line N: PATH" or "kb: --kb PATH"

    def resolved_duration(self) -> int:
        if self.duration is not None:
            return self.duration
        last = max((r.arrival for r in self.requests), default=0.0)
        return int(math.ceil(last)) + 10


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


def check_kb(scenario: Scenario, routers: Collection[str]) -> tuple[Individual, ...]:
    """The knowledge-base rule: ``scenario.kb`` is read by genadapt-reuse runs
    alone, and each needs a non-empty one. Refuses runs of ``routers`` that
    break it; returns the formulas a genadapt-reuse run starts from."""
    name, others = scenario.kb_source, " or ".join(routers)
    if "genadapt-reuse" not in routers:
        _require(scenario.kb is None, f"{name}: only genadapt-reuse reads a knowledge base, not {others}")
        return ()
    _require(bool(scenario.kb), f"{name}: genadapt-reuse needs a non-empty knowledge base (--kb or a kb line)")
    return scenario.kb


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
# scenario files


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ScenarioError(message)


def _parse_request(rid: int, s: int, d: int, arrival: float, text: str) -> Request:
    """``text`` is "30" for a constant demand, "0:30,40:50" for a
    piecewise-constant one."""
    if ":" not in text:
        return Request.constant(rid, s, d, arrival, float(text))
    segments = []
    for seg in text.split(","):
        parts = seg.split(":")
        if len(parts) != 2:
            raise ValueError(f"profile segment {seg!r} is not START:MBPS")
        segments.append((float(parts[0]), float(parts[1])))
    return Request(rid, s, d, arrival, tuple(segments))


def _reachable(network: Network, sources: set[int]) -> dict[int, set[int]]:
    """Per source, the nodes some directed path reaches from it, itself included."""
    out = network.out_by_dst
    reach: dict[int, set[int]] = {}
    for src in sources:
        seen = {src}
        stack = [src]
        while stack:
            u = stack.pop()
            if u in reach:  # an earlier source: what it reaches is reached
                seen |= reach[u]
                continue
            for v, _ in out[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        reach[src] = seen
    return reach


def with_kb(scenario: Scenario, path: str, source: str) -> Scenario:
    """``scenario`` with the formulas of knowledge-base file ``path``, parsed
    under its ``max_depth`` and named ``source``; refuses a bad file."""
    try:
        kb = tuple(import_kb(path, max_depth=scenario.gp.max_depth))
    except (OSError, KbImportError, InputError) as exc:
        raise ScenarioError(f"{source}: {exc}") from None
    return scenario._replace(kb=kb, kb_source=source)


def _finite_positive(value: float) -> bool:
    return 0 < value < math.inf  # written so that NaN fails too


# the most ticks a run may last and the most requests a scenario may hold,
# bursts expanded; a line that would ask for more is refused before anything
# is built for it (networks: ``netmodel.MAX_LINKS``, ``netmodel.MAX_NODES``)
MAX_TICKS = 100_000
MAX_REQUESTS = 100_000


def _check_request_count(lineno: int, key: str, total: int) -> None:
    _require(
        total <= MAX_REQUESTS,
        f"line {lineno}: {key} would make {total} requests, more than the {MAX_REQUESTS} a scenario may hold",
    )


# single-value directive -> (what it configures, field, conversion, check,
# what the check requires); the tournament size is also checked against the
# population, and the duration against the last arrival, once all are read
SCENARIO_KEYS = {
    "link_bw": ("topology", "bw", float, _finite_positive, "finite and > 0"),
    "link_dl": ("topology", "dl", float, _finite_positive, "finite and > 0"),
    "threshold": ("gp", "threshold", float, lambda v: 0 < v < 1, "in (0,1)"),
    "duration": ("scenario", "duration", int, lambda v: v <= MAX_TICKS, f"at most {MAX_TICKS}"),
    "router": ("scenario", "router", str, ROUTERS.__contains__, f"one of {', '.join(ROUTERS)}"),
    "seed": ("scenario", "seed", int, lambda v: True, "an integer"),
    "kb": ("scenario", "kb", str, lambda v: True, "a path"),
    "population": ("gp", "population_size", int, lambda v: v >= 1, "at least 1"),
    "max_generations": ("gp", "max_generations", int, lambda v: v >= 0, "at least 0"),
    "crossover_rate": ("gp", "crossover_rate", float, lambda v: 0 <= v <= 1, "in [0, 1]"),
    "mutation_rate": ("gp", "mutation_rate", float, lambda v: 0 <= v <= 1, "in [0, 1]"),
    "tournament": ("gp", "tournament_size", int, lambda v: v >= 1, "at least 1"),
    "max_depth": (
        "gp", "max_depth", int, lambda v: 1 <= v <= DEFAULT_MAX_DEPTH, f"in 1..{DEFAULT_MAX_DEPTH}"
    ),
    "early_stop": ("gp", "early_stop_fitness", float, math.isfinite, "finite"),
}


def load_scenario(path: str) -> Scenario:
    """Parse the flat key-value scenario format.

    Directives: ``network full N | mnp K | file PATH``, the single-value
    directives of ``SCENARIO_KEYS`` (each takes exactly one value),
    ``request SRC DST ARRIVAL BD`` and
    ``burst SRC DST PER_BURST BURSTS SPACING BD``; lines are read under
    ``read_lines``. Settings outside their ranges are refused, naming the
    line that set them; so are a second ``network`` or single-value line,
    naming both lines, a ``network
    file`` or ``kb`` file that cannot be read or parsed (see ``with_kb``), a
    ``link_bw`` or ``link_dl`` beside a ``network file`` (the file sets
    every link's), a request whose endpoint is no node or whose destination
    no directed path reaches from its source, and a ``duration`` that does
    not exceed the last arrival's tick (``ceil(arrival)``), so that no tick
    would admit that request. So are sizes past the bounds: a run longer
    than ``MAX_TICKS`` (naming the ``duration`` line, or without one the
    request with the last arrival), more than ``MAX_REQUESTS`` requests, a
    generated network of more than ``netmodel.MAX_LINKS`` links, and a
    network file of more than ``netmodel.MAX_NODES`` nodes.
    """
    base = os.path.dirname(os.path.abspath(path))
    net_spec: tuple | None = None
    settings: dict[str, dict] = {"topology": {}, "scenario": {}, "gp": {}}  # owner -> field -> value
    lines: dict[str, int] = {}  # single-value directive or network -> line that set it
    requests: list[Request] = []
    request_lines: list[str] = []  # per request, "request: line N" or "burst: line N"

    for lineno, line in read_lines(path):
        parts = line.split()
        key, args = parts[0], parts[1:]
        try:
            if key in lines:
                raise ScenarioError(f"line {lineno}: {key} already set on line {lines[key]}")
            if key in SCENARIO_KEYS:
                owner, name, conv, check, rule = SCENARIO_KEYS[key]
                _require(len(args) == 1, f"line {lineno}: {key} takes exactly one value, got {len(args)}")
                value = conv(args[0])
                _require(check(value), f"line {lineno}: {key} must be {rule}, got {args[0]}")
                settings[owner][name] = value
                lines[key] = lineno
            elif key == "network":
                _require(len(args) == 2, f"line {lineno}: network needs kind and value")
                kind = args[0]
                _require(kind in TOPOLOGIES or kind == "file", f"line {lineno}: network kind {kind!r}")
                net_spec = (kind, args[1])
                lines[key] = lineno
            elif key == "request":
                _require(len(args) == 4, f"line {lineno}: request SRC DST ARRIVAL BD")
                _check_request_count(lineno, key, len(requests) + 1)
                s, d, arrival = int(args[0]), int(args[1]), float(args[2])
                requests.append(_parse_request(len(requests), s, d, arrival, args[3]))
                request_lines.append(f"request: line {lineno}")
            elif key == "burst":
                _require(len(args) == 6, f"line {lineno}: burst SRC DST PER_BURST BURSTS SPACING BD")
                s, d, per_burst, bursts = map(int, args[:4])
                spacing = float(args[4])
                for field, count in (("PER_BURST", per_burst), ("BURSTS", bursts)):
                    _require(count >= 1, f"line {lineno}: burst {field} must be at least 1, got {count}")
                _require(spacing > 0, f"line {lineno}: burst spacing must be positive")
                _check_request_count(lineno, key, len(requests) + per_burst * bursts)
                for b in range(bursts):
                    for _ in range(per_burst):
                        requests.append(_parse_request(len(requests), s, d, b * spacing, args[5]))
                        request_lines.append(f"burst: line {lineno}")
            else:
                raise ScenarioError(f"line {lineno}: unknown directive {key!r}")
        except (ValueError, IndexError) as exc:
            if isinstance(exc, ScenarioError):
                raise
            raise ScenarioError(f"{key}: line {lineno}: {exc}") from None

    gp = GpConfig(**settings["gp"])
    if gp.tournament_size > gp.population_size:
        # name the later of the two lines: the one that broke the pair
        lineno = max(lines.get("population", 0), lines.get("tournament", 0))
        raise ScenarioError(
            f"tournament: line {lineno}: tournament size {gp.tournament_size} "
            f"exceeds population {gp.population_size}"
        )
    _require(net_spec is not None, "network: no network directive in scenario")
    (kind, value), lineno = net_spec, lines["network"]
    if kind == "file" and settings["topology"]:  # the file sets every link's bw and dl
        at, key = min((lines[k], k) for k in ("link_bw", "link_dl") if k in lines)
        raise ScenarioError(
            f"{key}: line {at}: applies only to generated networks ({', '.join(TOPOLOGIES)}), not network file"
        )
    try:
        if kind == "file":
            network = load_network(os.path.join(base, value))
        else:
            network = TOPOLOGIES[kind](int(value), **settings["topology"])
    except (OSError, ValueError) as exc:  # NetworkError and ConfigError included
        raise ScenarioError(f"network: line {lineno}: {exc}") from None

    _require(bool(requests), "request: scenario has no requests")
    for r, where in zip(requests, request_lines):
        _require(0 <= r.s < network.n_nodes, f"{where}: source {r.s} out of range")
        _require(0 <= r.d < network.n_nodes, f"{where}: destination {r.d} out of range")
    reach = _reachable(network, {r.s for r in requests})
    for r, where in zip(requests, request_lines):
        _require(r.d in reach[r.s], f"{where}: destination {r.d} unreachable from {r.s}")

    kb = settings["scenario"].pop("kb", None)
    scenario = Scenario(network, requests, gp=gp, **settings["scenario"])
    if kb is not None:
        scenario = with_kb(scenario, os.path.join(base, kb), f"kb: line {lines['kb']}: {kb}")
    # a request arrives on tick ceil(arrival), and ticks run 0..duration-1
    last = math.ceil(max(r.arrival for r in requests))
    if last >= scenario.resolved_duration():
        raise ScenarioError(
            f"duration: line {lines['duration']}: must exceed the last arrival's tick {last}, "
            f"got {scenario.duration}"
        )
    ticks = scenario.resolved_duration()
    if ticks > MAX_TICKS:  # only without a duration line, whose value is checked when read
        r, where = max(zip(requests, request_lines), key=lambda pair: pair[0].arrival)
        raise ScenarioError(f"{where}: arrival {r.arrival:g} would run {ticks} ticks, more than {MAX_TICKS}")
    return scenario


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
