from random import Random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import EXAMPLE_FORMULA, dense_throughputs, scenario_path

from evoroute import sim
from evoroute.expr import parse_expr
from evoroute.loop import AdaptationState, adapt_step, import_kb
from evoroute.netmodel import (
    Link,
    Network,
    Request,
    Snapshot,
    Weights,
    check_weights,
    full_topology,
    link_utilizations,
    mnp_topology,
    unit_weights,
)
from evoroute.planner import GpConfig, Individual, formula_weigher, link_inputs, link_weights
from evoroute.scenario import ROUTERS, SCENARIO_KEYS, Scenario, ScenarioError, load_scenario
from evoroute.sim import (
    MetricsRecord,
    TickRow,
    inverse_bw_weights,
    packet_loss_proxy,
    route_request,
    run_scenario,
    write_metrics_csv,
    write_trace_csv,
)


def dense_excess(network, thr):
    return sum(x - bw for x, bw in zip(thr, network.bws) if x > bw)


def reference_run(scenario, seed, router, kb):
    """The tick loop ``run_scenario`` ran before it recomputed per-link state
    only on change ticks: every tick rebuilds the demands, the utilizations,
    the congestion verdict and the loss excess from scratch, over dense
    per-link lists, and weighs every link apart. Returns the trace, the
    metrics, the final flows and the adaptation state."""
    network = scenario.network
    gp = scenario.gp
    adaptive = router in ("genadapt", "genadapt-reuse")
    static = inverse_bw_weights(network) if router == "inverse-bw-ospf" else unit_weights(network)
    baseline = [static.values[link.id] for link in network.links]
    rng = Random(seed)
    state = AdaptationState(retained=list(kb))
    installed = None  # the last plan's formula; None routes under the baseline
    flows = {}
    pending = sorted(scenario.requests, key=lambda r: (r.arrival, r.id))
    trace = []
    occurrences = congested_ticks = 0
    in_run = False
    excess_total = demand_total = 0.0
    for t in range(scenario.resolved_duration()):
        bandwidths = {r.id: r.bd(t) for r in scenario.requests if r.arrival <= t}
        while pending and pending[0].arrival <= t:
            req = pending.pop(0)
            weights = baseline
            if installed is not None:
                thr = dense_throughputs(network, flows.values(), bandwidths)
                weigh = formula_weigher(installed, gp.threshold)
                weights = [weigh(link.bw, link.dl, x / link.bw) for x, link in zip(thr, network.links)]
            flows[req.id] = route_request(network, check_weights(network, weights), req)
        thr = dense_throughputs(network, flows.values(), bandwidths)
        util = [x / bw for x, bw in zip(thr, network.bws)]
        max_util = max(util, default=0.0)
        congested = max_util > gp.threshold
        if congested and adaptive:
            excess = dense_excess(network, thr)
            snapshot = Snapshot(tuple(flows.values()), dict(enumerate(util)), max_util, excess)
            plan = adapt_step(network, snapshot, t, bandwidths, state, gp, rng)
            flows = {f.request: f for f in plan.new_flows}
            installed = plan.best.expr
        if congested:
            congested_ticks += 1
            occurrences += not in_run
        in_run = congested
        excess_total += dense_excess(network, dense_throughputs(network, flows.values(), bandwidths))
        demand_total += sum(bandwidths.values())
        trace.append(TickRow(t, max_util, congested, len(flows), len(state.log)))
    metrics = MetricsRecord(
        occurrences, congested_ticks, packet_loss_proxy(excess_total, demand_total), len(state.log)
    )
    return trace, metrics, flows, state


def log_rows(state):
    """The invocation records without their wall-clock times."""
    return [(r.tick, r.max_util, r.generations, r.best_fitness, r.formula) for r in state.log]


_MBPS = st.floats(0.0, 90.0, allow_nan=False).map(lambda x: x + 0.37)
_TIME = st.integers(0, 40).map(lambda q: q / 4)  # quarter ticks: on and off the tick grid
_START = st.integers(-4, 68).map(lambda q: q / 4)  # -1..16: some at or after the run's end


@st.composite
def profile_starts(draw):
    """Sorted distinct segment starts: a few anywhere, plus up to four in
    the quarter ticks up to one tick, which all take effect on that tick."""
    starts = set(draw(st.lists(_START, min_size=1, max_size=4)))
    tick = draw(st.integers(0, 16))
    starts |= {tick - q / 4 for q in draw(st.sets(st.integers(0, 3), max_size=4))}
    return sorted(starts)


@st.composite
def small_scenarios(draw):
    """A complete graph of 3-5 nodes with mixed link bandwidths, and up to
    eight requests with fractional arrivals and piecewise profiles whose
    segments start on and between ticks, several within one tick, and
    before, during and after the run."""
    n = draw(st.integers(3, 5))
    pairs = [(s, d) for s in range(n) for d in range(n) if s != d]
    bws = draw(st.lists(st.sampled_from([60.0, 100.0, 150.0]), min_size=len(pairs), max_size=len(pairs)))
    network = Network(n, [Link(i, s, d, bw, 25.0) for i, ((s, d), bw) in enumerate(zip(pairs, bws))])
    requests = []
    for rid in range(draw(st.integers(1, 8))):
        s, d = draw(st.sampled_from(pairs))
        starts = draw(profile_starts())
        profile = tuple(zip(starts, draw(st.lists(_MBPS, min_size=len(starts), max_size=len(starts)))))
        requests.append(Request(rid, s, d, draw(_TIME), profile))
    duration = draw(st.one_of(st.none(), st.integers(11, 14)))
    gp = GpConfig(population_size=6, tournament_size=3, max_generations=2, max_depth=5)
    return Scenario(network, requests, duration=duration, gp=gp)


# A plan on every tick: the snapshot built right after tick 1's plan serves
# tick 2's detection, which must still log tick 2, not the tick it was built.
_PLAN_EVERY_TICK = Scenario(
    mnp_topology(3),
    [Request.constant(0, 0, 1, 0.0, 90.0), Request.constant(1, 0, 1, 0.5, 90.0)],
    duration=6,
    gp=GpConfig(population_size=6, tournament_size=3, max_generations=2, max_depth=5),
)


@settings(max_examples=150, deadline=None)
@given(
    small_scenarios(),
    st.sampled_from(["genadapt", "unit-ospf", "inverse-bw-ospf"]),
    st.integers(0, 3),
    st.booleans(),
)
@example(_PLAN_EVERY_TICK, "genadapt", 0, False)
def test_run_matches_per_tick_reference(scenario, router, seed, warm):
    # a warm knowledge base holds the example formula, which weighs links by
    # utilization, so that arrivals after a plan avoid the loaded links; only
    # genadapt-reuse reads it, and the static routers start cold beside it
    kb = (Individual(parse_expr(EXAMPLE_FORMULA)),) if warm else ()
    if warm:
        scenario = scenario._replace(kb=kb)
        router = "genadapt-reuse" if router == "genadapt" else router
    result = run_scenario(scenario, seed=seed, router=router)
    trace, metrics, flows, state = reference_run(scenario, seed, router, kb)
    assert result.trace == trace
    fields = ("congestion_occurrences", "congestion_duration", "packet_loss_proxy", "planner_invocations")
    assert [getattr(result.metrics, f) for f in fields] == [getattr(metrics, f) for f in fields]
    assert result.flows == flows
    assert log_rows(result.state) == log_rows(state)
    # the run's invariants: every final flow is a simple path between its
    # request's endpoints, congestion lasts within the run, loss is not negative
    network, by_id = scenario.network, {r.id: r for r in scenario.requests}
    for rid, flow in result.flows.items():
        assert flow.request == rid
        network.validate_flow(flow)
        assert network.path_endpoints(flow.path) == (by_id[rid].s, by_id[rid].d)
    m = result.metrics
    assert m.congestion_occurrences <= m.congestion_duration <= scenario.resolved_duration()
    assert m.packet_loss_proxy >= 0


def test_demand_adds_in_scenario_order_not_arrival_order():
    # requests 0-3 arrive on tick 1 in the order 2, 3, 0, 1; in scenario
    # order 1 + 2**53 rounds down to 2**53 and each 1e-16 is lost, while in
    # arrival order the small demands add up first and the total rounds up
    # to 2**53 + 2, under plain and under compensated summation alike
    demands = [1.0, 2.0**53, 1e-16, 1e-16]
    arrivals = [0.75, 1.0, 0.25, 0.5]
    requests = [Request.constant(i, 0, 1, a, bd) for i, (a, bd) in enumerate(zip(arrivals, demands))]
    assert sum(demands) != sum(demands[i] for i in (2, 3, 0, 1))
    scenario = Scenario(full_topology(2), requests, duration=3, router="unit-ospf")
    result = run_scenario(scenario)
    trace, metrics, flows, state = reference_run(scenario, 0, "unit-ospf", [])
    assert result.trace == trace
    assert result.metrics.packet_loss_proxy == metrics.packet_loss_proxy > 0


@st.composite
def arrival_scenarios(draw):
    """A complete graph of 3-5 nodes with mixed link bandwidths. Two requests
    of 40-80 Mbps arrive at 0 on one pair, which mostly congests it, so the
    run plans early; then 2-10 requests of 1-30 Mbps arrive between ticks 1
    and 10, several per tick. Any request may drop to 0 Mbps within three
    ticks of its arrival, leaving its links idle."""
    n = draw(st.integers(3, 5))
    pairs = [(s, d) for s in range(n) for d in range(n) if s != d]
    bws = draw(st.lists(st.sampled_from([60.0, 100.0, 150.0]), min_size=len(pairs), max_size=len(pairs)))
    network = Network(n, [Link(i, s, d, bw, 25.0) for i, ((s, d), bw) in enumerate(zip(pairs, bws))])
    hot = draw(st.sampled_from(pairs))
    requests = []
    for rid in range(2 + draw(st.integers(2, 10))):
        if rid < 2:
            (s, d), arrival, bd = hot, 0.0, draw(st.floats(40.0, 80.0))
        else:
            (s, d), arrival, bd = draw(st.sampled_from(pairs)), draw(st.integers(4, 40)) / 4, draw(st.floats(1.0, 30.0))
        profile = ((0.0, bd),)
        if draw(st.booleans()):
            profile += ((arrival + draw(st.integers(1, 12)) / 4, 0.0),)
        requests.append(Request(rid, s, d, arrival, profile))
    gp = GpConfig(population_size=6, tournament_size=3, max_generations=2, max_depth=5)
    return Scenario(network, requests, duration=12, gp=gp)


# At seed 2, one plan, on tick 0, where requests 0 and 1 load link 0 to 1.0;
# its install weighs the idle network; then arrivals under its formula: one on
# tick 1, which reweighs the links the plan's flows load, and two on tick 3,
# after request 0 dropped to 0 Mbps on tick 2, which reweigh the links it left
# idle and those request 3 loaded.
_ARRIVALS_AFTER_A_PLAN = Scenario(
    mnp_topology(3),
    [
        Request(0, 0, 1, 0.0, ((0.0, 50.0), (2.0, 0.0))),
        Request.constant(1, 0, 1, 0.0, 50.0),
        Request.constant(2, 0, 1, 1.0, 20.0),
        Request.constant(3, 0, 1, 3.0, 20.0),
        Request.constant(4, 0, 1, 3.0, 20.0),
    ],
    duration=5,
    gp=GpConfig(population_size=6, tournament_size=3, max_generations=2, max_depth=5),
)


@settings(max_examples=150, deadline=None)
@given(arrival_scenarios(), st.integers(0, 3))
@example(_ARRIVALS_AFTER_A_PLAN, 2)
def test_kept_weights_equal_a_fresh_weighing(scenario, seed):
    """Every arrival under an installed formula is routed on the weights a
    fresh ``link_weights`` gives the utilization of that moment, though the
    run reweighs only the links changed since the install weighed the idle
    network, and on a floor at or below every weight. The flows of the moment are followed as the
    run builds them: a plan's flows replace them, and each arrival's flow is
    appended; the demands are the run's own map, which ``adapt_step`` sees."""
    network, threshold = scenario.network, scenario.gp.threshold
    real_route, real_adapt = sim.route_request, sim.adapt_step
    flows = {}
    installed = {}  # the installed formula's weigher and the run's demand map
    checked = []

    def adapt(*args):
        plan = real_adapt(*args)
        installed.update(weigh=formula_weigher(plan.best.expr, threshold), bandwidths=args[3])
        flows.clear()
        flows.update((f.request, f) for f in plan.new_flows)
        return plan

    def route(net, weights, request):
        if installed:
            util = link_utilizations(network, list(flows.values()), installed["bandwidths"])
            assert weights.values == link_weights(link_inputs(network, util), installed["weigh"]).values
            assert 1 <= weights.lo <= min(weights.values)
            checked.append(request.id)
        flows[request.id] = flow = real_route(net, weights, request)
        return flow

    with mock.patch.object(sim, "route_request", route), mock.patch.object(sim, "adapt_step", adapt):
        result = run_scenario(scenario, seed=seed, router="genadapt")
    assert result.flows == flows
    if scenario is _ARRIVALS_AFTER_A_PLAN:
        assert checked == [2, 3, 4] and result.metrics.planner_invocations == 1


@pytest.fixture
def fig1_scenario():
    return load_scenario(scenario_path("fig1"))


class TestRouteRequest:
    def test_fig1_unit_weights_direct(self):
        net = mnp_topology(3)
        flow = route_request(net, unit_weights(net), Request.constant(0, 0, 1, 0.0, 30))
        assert flow.path == (0,)

    def test_two_node_full_graph(self):
        net = full_topology(2)
        flow = route_request(net, unit_weights(net), Request.constant(0, 0, 1, 0.0, 30))
        assert flow.path == (0,)

    def test_unreachable_destination_raises(self):
        # load_scenario refuses such a pair; a scenario built in code reaches here
        net = Network(2, [Link(0, 0, 1, 100.0, 25.0)])
        with pytest.raises(ScenarioError, match="request 4: destination 0 unreachable from 1"):
            route_request(net, unit_weights(net), Request.constant(4, 1, 0, 0.0, 30))


class TestInverseBwWeights:
    def test_uniform_hundreds(self):
        net = full_topology(3, bw=100.0)
        weights = inverse_bw_weights(net)
        assert set(weights.values) == {1000} and weights.lo == 1000

    def test_inverse_proportionality(self):
        from evoroute.netmodel import Link, Network

        net = Network(2, [Link(0, 0, 1, 100.0, 25.0), Link(1, 1, 0, 50.0, 25.0)])
        weights = inverse_bw_weights(net)
        assert weights == Weights([1000, 2000], 1000)

    def test_huge_bandwidth_clamps(self):
        net = full_topology(2, bw=2e5)
        assert inverse_bw_weights(net) == Weights([1, 1], 1)


class TestPacketLoss:
    def test_never_over_capacity(self):
        assert packet_loss_proxy(0.0, 500.0) == 0.0

    def test_excess_ratio(self):
        # one link at 150/100 for 10 ticks against an arbitrary total demand
        assert packet_loss_proxy(50.0 * 10, 3000.0) == pytest.approx(500 / 3000)

    def test_zero_demand(self):
        assert packet_loss_proxy(0.0, 0.0) == 0.0


class TestRunScenario:
    def test_fig1_baseline_congests_forever(self, fig1_scenario):
        result = run_scenario(fig1_scenario, router="unit-ospf")
        m = result.metrics
        assert m.congestion_occurrences == 1
        assert m.congestion_duration == 40  # ticks 20..59
        assert m.planner_invocations == 0
        assert all(f.path == (0,) for f in result.flows.values())
        # six 30s on a 100 link from t=50: proxy positive
        assert m.packet_loss_proxy > 0

    def test_fig1_genadapt_resolves(self, fig1_scenario):
        result = run_scenario(fig1_scenario)
        assert result.metrics.planner_invocations >= 1
        assert not result.trace[-1].congested

    def test_zero_requests_all_metrics_zero(self):
        scenario = Scenario(network=mnp_topology(3), requests=[], gp=GpConfig())
        result = run_scenario(scenario)
        m = result.metrics
        assert (
            m.congestion_occurrences,
            m.congestion_duration,
            m.packet_loss_proxy,
            m.planner_invocations,
        ) == (0, 0, 0.0, 0)

    def test_flow_conservation(self, fig1_scenario):
        result = run_scenario(fig1_scenario, router="unit-ospf")
        admitted = [r for r in fig1_scenario.requests]
        assert sorted(result.flows) == sorted(r.id for r in admitted)
        for row in result.trace:
            expected = sum(1 for r in admitted if r.arrival <= row.t)
            assert row.flow_count == expected

    def test_occurrences_bounded_by_duration(self, fig1_scenario):
        for router in ("unit-ospf", "genadapt"):
            m = run_scenario(fig1_scenario, router=router).metrics
            assert m.congestion_occurrences <= max(m.congestion_duration, 0) or (
                m.congestion_duration == 0 and m.congestion_occurrences == 0
            )

    def test_deterministic_trace_bytes(self, fig1_scenario, tmp_path):
        paths = []
        for i in range(2):
            result = run_scenario(fig1_scenario, seed=3)
            trace = tmp_path / f"trace{i}.csv"
            metrics = tmp_path / f"metrics{i}.csv"
            write_trace_csv(result.trace, str(trace))
            write_metrics_csv(result.metrics, str(metrics))
            paths.append((trace.read_bytes(), metrics.read_bytes()))
        assert paths[0] == paths[1]

    def test_preseeded_formula_single_invocation(self, fig1_scenario, example_expr):
        warm = fig1_scenario._replace(kb=(Individual(example_expr),))
        result = run_scenario(warm, router="genadapt-reuse")
        m = result.metrics
        assert m.planner_invocations == 1
        assert m.congestion_duration == 1
        by_req = {k: v.path for k, v in result.flows.items()}
        assert by_req == {
            0: (0,),
            1: (0,),
            2: (2, 4),
            3: (2, 4),
            4: (6, 8, 10),
            5: (6, 8, 10),
        }

    def test_each_install_memoises_its_own_weigher(self, fig1_scenario, monkeypatch):
        # the planner's weigher keeps no state; the run memoises it once per
        # install, so the weigher behind that memo never sees an input twice
        real = sim.formula_weigher
        weighers = []  # per weigher built, the inputs it was asked to weigh
        formulas = []  # per weigher built, its formula

        def recording(expr, threshold):
            weigh, seen = real(expr, threshold), []
            weighers.append(seen)
            formulas.append(expr)

            def wrapped(bw, dl, util):
                seen.append((bw, dl, util))
                return weigh(bw, dl, util)

            return wrapped

        monkeypatch.setattr(sim, "formula_weigher", recording)
        result = run_scenario(fig1_scenario, seed=1, router="genadapt")
        assert len(weighers) == result.metrics.planner_invocations > 1
        assert any(weighers)  # some arrival is weighed
        assert all(len(seen) == len(set(seen)) for seen in weighers)
        # each install is the formula its plan returned and logged
        assert formulas == [parse_expr(r.formula) for r in result.state.log]

    def test_demand_is_zero_before_the_first_segment_starts(self):
        # the request arrives at 0 but its only segment starts at 5: the link
        # carries nothing before tick 5, and 90 of 100 Mbps from it on
        request = Request(0, 0, 1, 0.0, ((5.0, 90.0),))
        scenario = Scenario(mnp_topology(3), [request], duration=8, router="unit-ospf")
        result = run_scenario(scenario)
        assert [(row.max_util, row.congested) for row in result.trace] == [(0.0, False)] * 5 + [(0.9, True)] * 3
        assert result.metrics.congestion_occurrences == 1
        assert result.metrics.congestion_duration == 3

    def test_unknown_router_rejected(self, fig1_scenario):
        with pytest.raises(ScenarioError, match="router"):
            run_scenario(fig1_scenario, router="rip")


class TestKnowledgeBaseFile:
    @staticmethod
    def outcome(result):
        m = result.metrics
        return (
            result.trace,
            (m.congestion_occurrences, m.congestion_duration, m.packet_loss_proxy, m.planner_invocations),
            result.flows,
            log_rows(result.state),
            result.state.retained,
        )

    def test_parsed_at_load_and_only_read_by_runs(self, tmp_path, monkeypatch):
        kb_file = tmp_path / "kb.txt"
        kb_file.write_text(f"1.5 {EXAMPLE_FORMULA}\n1.9 ((dl / threshold) * util)\n")
        path = tmp_path / "warm.scenario"
        with open(scenario_path("mnp5_2")) as fh:
            path.write_text(fh.read() + "kb kb.txt\n")
        imports = []
        real = import_kb

        def counting(*args, **kwargs):
            imports.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr("evoroute.scenario.import_kb", counting)
        scenario = load_scenario(str(path))
        assert imports == [(str(kb_file),)]
        assert scenario.kb == (
            Individual(parse_expr(EXAMPLE_FORMULA), None),
            Individual(parse_expr("((dl / threshold) * util)"), None),
        )
        kb = scenario.kb
        for seed in range(3):
            result = run_scenario(scenario, seed=seed, router="genadapt-reuse")
            assert result.metrics.planner_invocations >= 1
            reread = scenario._replace(kb=tuple(real(str(kb_file))))
            fresh = run_scenario(reread, seed=seed, router="genadapt-reuse")
            assert self.outcome(result) == self.outcome(fresh)
        assert len(imports) == 1
        assert scenario.kb is kb  # the runs left the parsed formulas as they were read

    def test_parsed_under_the_scenarios_max_depth(self, tmp_path):
        # depth 3, over a max_depth set after the kb line
        (tmp_path / "kb.txt").write_text("0.5 ((util + bw) * dl)\n")
        path = tmp_path / "s.scenario"
        path.write_text("network mnp 3\nkb kb.txt\nmax_depth 2\nrequest 0 1 0 30\n")
        message = "kb: line 2: kb.txt: line 1: formula deeper than the depth bound 2 at offset 1"
        with pytest.raises(ScenarioError, match=message):
            load_scenario(str(path))

    @pytest.mark.parametrize("kb", [None, ()])
    def test_reuse_without_formulas_is_refused_at_run(self, fig1_scenario, kb):
        assert fig1_scenario.kb is None
        with pytest.raises(ScenarioError) as excinfo:
            run_scenario(fig1_scenario._replace(kb=kb), router="genadapt-reuse")
        assert str(excinfo.value) == "kb: genadapt-reuse needs a non-empty knowledge base (--kb or a kb line)"

    def test_run_leaves_the_given_formulas_unchanged(self):
        kb = [Individual(parse_expr(EXAMPLE_FORMULA)), Individual(parse_expr("util"), 1.5)]
        before = [(ind, ind.expr, ind.fitness) for ind in kb]
        scenario = load_scenario(scenario_path("mnp5_2"))
        result = run_scenario(scenario._replace(kb=kb), seed=0, router="genadapt-reuse")
        assert result.metrics.planner_invocations >= 1
        assert len(kb) == len(before)
        for ind, (was, expr, fitness) in zip(kb, before):
            assert ind is was and ind.expr is expr and ind.fitness == fitness
        # the final formulas are the run's own: the top half of the last population
        retained = result.state.retained
        assert len(retained) == scenario.gp.population_size // 2
        assert all(ind.fitness is not None for ind in retained)
        assert not any(ind is given for ind in retained for given in kb)


class TestScenarioFiles:
    def test_fig1_fields(self, fig1_scenario):
        assert fig1_scenario.network.n_nodes == 5
        assert len(fig1_scenario.requests) == 6
        assert fig1_scenario.resolved_duration() == 60
        assert fig1_scenario.router == "genadapt"
        assert fig1_scenario.gp.max_generations == 300

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError, match="nope.scenario"):
            load_scenario("nope.scenario")

    def test_unknown_directive_names_line(self, tmp_path):
        path = tmp_path / "bad.scenario"
        path.write_text("network mnp 3\nwibble 4\nrequest 0 1 0 30\n")
        with pytest.raises(ScenarioError, match="wibble"):
            load_scenario(str(path))

    def test_request_out_of_range(self, tmp_path):
        path = tmp_path / "bad.scenario"
        path.write_text("network mnp 3\nrequest 0 99 0 30\n")
        with pytest.raises(ScenarioError, match="destination"):
            load_scenario(str(path))

    def test_duration_before_last_arrival(self, tmp_path):
        path = tmp_path / "bad.scenario"
        path.write_text("network mnp 3\nduration 5\nrequest 0 1 10 30\n")
        with pytest.raises(ScenarioError, match="duration"):
            load_scenario(str(path))

    def test_piecewise_profile(self, tmp_path):
        path = tmp_path / "p.scenario"
        path.write_text("network mnp 3\nrequest 0 1 0 0:30,40:50\n")
        scenario = load_scenario(str(path))
        req = scenario.requests[0]
        assert req.bd(0) == 30.0 and req.bd(45) == 50.0

    def test_network_from_file(self, tmp_path):
        from evoroute.netmodel import save_network

        save_network(mnp_topology(3), str(tmp_path / "net.txt"))
        path = tmp_path / "s.scenario"
        path.write_text("network file net.txt\nrequest 0 1 0 30\n")
        scenario = load_scenario(str(path))
        assert scenario.network.n_nodes == 5


# what a single-value directive's argument may look like in a hand-written file
_TOKENS = st.one_of(
    st.integers(-3, 40).map(str),
    st.floats(-0.5, 1.5).map(repr),
    st.floats(-1e3, 1e3).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "abc", *ROUTERS]),
    st.just("warm.kb"),  # a kb file beside the scenario
)
# one value is the legal count, so it is drawn as often as any other count
_ARGS = st.one_of(st.lists(_TOKENS, min_size=1, max_size=1), st.lists(_TOKENS, max_size=3))


def _field_value(scenario, owner, name):
    """The value a single-value directive set on a loaded scenario."""
    if owner == "gp":
        return getattr(scenario.gp, name)
    if owner == "topology":  # every generated link has the same bw and dl
        (value,) = set(scenario.network.bws if name == "bw" else scenario.network.dls)
        return value
    return getattr(scenario, name)


class TestSingleValueDirectives:
    @pytest.fixture(scope="class")
    def scenario_dir(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("single")
        (base / "warm.kb").write_text(f"1.5 {EXAMPLE_FORMULA}\n0.5 util\n")
        return base

    def test_one_table_reads_all_fourteen(self):
        assert set(SCENARIO_KEYS) == {
            "link_bw", "link_dl", "threshold", "duration", "router", "seed", "kb",
            "population", "max_generations", "crossover_rate", "mutation_rate",
            "tournament", "max_depth", "early_stop",
        }

    @pytest.mark.parametrize("key", sorted(SCENARIO_KEYS))
    def test_sets_its_field_or_names_its_line(self, scenario_dir, key):
        owner, name, conv, _, _ = SCENARIO_KEYS[key]
        path = scenario_dir / f"{key}.scenario"

        # a legal value for every directive, so each one's success branch is taken
        @example(tokens=["0.5"])
        @example(tokens=["7"])
        @example(tokens=["genadapt-reuse"])
        @example(tokens=["warm.kb"])
        @settings(max_examples=100, deadline=None)
        @given(tokens=_ARGS)
        def check(tokens):
            path.write_text(f"network mnp 3\n{key} {' '.join(tokens)}\nrequest 0 1 0 30\n")
            try:
                scenario = load_scenario(str(path))
            except ScenarioError as exc:
                assert "line 2" in str(exc)
                return
            assert len(tokens) == 1
            expected = conv(tokens[0])
            if key == "kb":
                expected = tuple(import_kb(str(scenario_dir / expected), scenario.gp.max_depth))
            assert _field_value(scenario, owner, name) == expected

        check()
