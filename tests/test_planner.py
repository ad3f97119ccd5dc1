import random
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EXAMPLE_FORMULA, dense_throughputs

from evoroute import planner
from evoroute.expr import Const, EvalContext, eval_expr, format_expr, grow_random, parse_expr, to_weight
from evoroute.netmodel import (
    Flow,
    Link,
    Network,
    NetworkError,
    check_weights,
    full_topology,
    link_utilizations,
    mnp_topology,
    shortest_weighted_path,
)
from evoroute.planner import (
    GpConfig,
    Individual,
    compute_surrogate,
    evaluate_plan,
    find_flows_causing_congestion,
    formula_weigher,
    gen_plan,
    lcs_distance,
    link_inputs,
    link_weights,
    normalize,
    reweigh,
    tournament_select,
)


def lcs_oracle(p, q):
    """Independent recursive LCS over link-id sequences."""

    @lru_cache(maxsize=None)
    def rec(i, j):
        if i == 0 or j == 0:
            return 0
        if p[i - 1] == q[j - 1]:
            return rec(i - 1, j - 1) + 1
        return max(rec(i - 1, j), rec(i, j - 1))

    return len(p) + len(q) - 2 * rec(len(p), len(q))


@pytest.fixture
def fig1():
    return mnp_topology(3)


def three_direct_flows():
    return [Flow(0, (0,)), Flow(1, (0,)), Flow(2, (0,))]


BW3 = {0: 30.0, 1: 30.0, 2: 30.0}


class TestNormalize:
    @pytest.mark.parametrize("x,expected", [(0, 0.0), (1, 0.5), (99, 0.99)])
    def test_examples(self, x, expected):
        assert normalize(x) == pytest.approx(expected)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            normalize(-0.1)

    def test_monotone_below_one(self):
        xs = [0, 0.5, 1, 3, 10, 1000]
        ys = [normalize(x) for x in xs]
        assert ys == sorted(ys)
        assert all(0 <= y < 1 for y in ys)


class TestLcsDistance:
    def test_identical(self):
        assert lcs_distance((1, 2, 3), (1, 2, 3)) == 0

    def test_example(self):
        assert lcs_distance((1, 2), (1, 3, 4)) == 3

    def test_disjoint(self):
        assert lcs_distance((9,), (1, 2, 3)) == 4

    def test_matches_oracle_on_random_pairs(self):
        rng = random.Random(17)
        for _ in range(300):
            p = tuple(rng.randrange(8) for _ in range(rng.randint(0, 12)))
            q = tuple(rng.randrange(8) for _ in range(rng.randint(0, 12)))
            assert lcs_distance(p, q) == lcs_oracle(p, q)
            assert lcs_distance(p, q) == lcs_distance(q, p)
            assert (lcs_distance(p, q) == 0) == (p == q)


class TestEvaluate:
    def test_congested_regime(self, fig1):
        flows = three_direct_flows()
        fit = evaluate_plan(fig1, flows, flows, BW3, 0.8)
        assert fit == pytest.approx(0.9 / 1.9 + 2.0, abs=1e-9)

    def test_empty_flows_zero(self, fig1):
        assert evaluate_plan(fig1, [], [], {}, 0.8) == 0.0

    def test_resolved_regime_components(self):
        net = full_topology(4)  # all links bw=100, dl=25
        old = [Flow(0, (0,)), Flow(1, (5,))]
        new = [Flow(0, (1,)), Flow(1, (5,))]  # one reroute: Fit2=2, Fit3=50
        fit = evaluate_plan(net, new, old, {0: 30.0, 1: 30.0}, 0.8)
        assert fit == pytest.approx(2 / 3 + 50 / 51, abs=1e-9)

    def test_range_and_regime_boundary(self, fig1):
        # exactly at threshold counts as unresolved
        flows = [Flow(0, (0,)), Flow(1, (0,))]
        fit = evaluate_plan(fig1, flows, flows, {0: 40.0, 1: 40.0}, 0.8)
        assert fit >= 2.0

    def test_request_set_mismatch(self, fig1):
        with pytest.raises(NetworkError):
            evaluate_plan(fig1, [Flow(0, (0,))], [Flow(1, (0,))], {0: 30.0, 1: 30.0}, 0.8)


class TestFindFlows:
    def test_fig1_removes_exactly_one(self, fig1):
        removed = find_flows_causing_congestion(
            fig1, three_direct_flows(), BW3, 0.8, random.Random(0)
        )
        assert len(removed) == 1
        remaining = [f for f in three_direct_flows() if f.request != removed[0].request]
        assert max(link_utilizations(fig1, remaining, BW3).values()) <= 0.8

    def test_no_congestion_empty(self, fig1):
        flows = [Flow(0, (0,))]
        assert find_flows_causing_congestion(fig1, flows, BW3, 0.8, random.Random(0)) == []

    def test_never_removes_a_flow_without_demand(self, fig1):
        # a departed request keeps its path at 0 Mbps, and loads nothing
        flows = [Flow(0, (0,)), Flow(1, (0,)), Flow(2, (0,)), Flow(3, (0,))]
        bw = {0: 0.0, 1: 30.0, 2: 30.0, 3: 30.0}
        for seed in range(50):
            removed = find_flows_causing_congestion(fig1, flows, bw, 0.8, random.Random(seed))
            assert len(removed) == 1 and bw[removed[0].request] > 0

    def test_two_half_flows(self, fig1):
        flows = [Flow(0, (0,)), Flow(1, (0,))]
        bw = {0: 50.0, 1: 50.0}
        removed = find_flows_causing_congestion(fig1, flows, bw, 0.8, random.Random(3))
        assert len(removed) == 1
        remaining = [f for f in flows if f.request != removed[0].request]
        assert max(link_utilizations(fig1, remaining, bw).values()) == pytest.approx(0.5)


def kept_inputs(network, keep_flows, bandwidths):
    """The link inputs of the kept flows, as ``gen_plan`` passes them."""
    return link_inputs(network, link_utilizations(network, keep_flows, bandwidths))


class TestComputeSurrogate:
    def test_fig1_reroute(self, fig1, example_expr):
        # the kept flows load the direct link; only the re-routed flow comes back
        keep = [Flow(0, (0,)), Flow(1, (0,))]
        bad = [Flow(2, (0,))]
        new = compute_surrogate(fig1, bad, BW3, kept_inputs(fig1, keep, BW3), example_expr, 0.8)
        assert new == [Flow(2, (2, 4))]  # 0 -> 2 -> 1

    def test_empty_bad(self, fig1, example_expr):
        keep = [Flow(0, (0,))]
        assert compute_surrogate(fig1, [], BW3, kept_inputs(fig1, keep, BW3), example_expr, 0.8) == []

    def test_sequential_diversion(self, fig1, example_expr):
        # the first reroute fills the two-hop path to 0.6 and its weights jump
        # to 4, diverting the second bad flow onto the three-hop path
        keep = [Flow(0, (0,)), Flow(1, (0,))]
        bad = [Flow(2, (0,)), Flow(3, (0,))]
        bw = {0: 30.0, 1: 30.0, 2: 60.0, 3: 30.0}
        inputs = kept_inputs(fig1, keep, bw)
        new = {f.request: f for f in compute_surrogate(fig1, bad, bw, inputs, example_expr, 0.8)}
        assert new[2].path == (2, 4)
        assert new[3].path == (6, 8, 10)

    def test_request_set_preserved(self, fig1, example_expr):
        # the bad flows' requests, in bad_flows order
        keep = [Flow(0, (0,))]
        bad = [Flow(2, (0,)), Flow(1, (0,))]
        new = compute_surrogate(fig1, bad, BW3, kept_inputs(fig1, keep, BW3), example_expr, 0.8)
        assert [f.request for f in new] == [2, 1]


def reference_surrogate(network, keep_flows, bad_flows, bandwidths, expr, threshold):
    """The re-route that also weighs the last placed flow's links, over a
    dense utilization list with every link weighed apart. Returns the
    re-routed flows."""
    thr = dense_throughputs(network, keep_flows, bandwidths)
    util = [x / link.bw for x, link in zip(thr, network.links)]
    weigh = formula_weigher(expr, threshold)
    weights = [weigh(link.bw, link.dl, util[link.id]) for link in network.links]
    rerouted = []
    for f in bad_flows:
        src, dst = network.path_endpoints(f.path)
        path = shortest_weighted_path(network, check_weights(network, weights), src, dst) or f.path
        for e in path:
            link = network.link(e)
            util[e] += bandwidths[f.request] / link.bw
            weights[e] = weigh(link.bw, link.dl, util[e])
        rerouted.append(Flow(f.request, tuple(path)))
    return rerouted


@st.composite
def surrogate_cases(draw):
    """1-4 bad flows and 0-4 kept flows on one-link paths of a small graph,
    with a random formula or the example one."""
    network = draw(st.sampled_from([mnp_topology(3), mnp_topology(5), full_topology(5)]))
    n_bad = draw(st.integers(1, 4))
    n_keep = draw(st.integers(0, 4))
    links = draw(st.lists(st.integers(0, len(network.links) - 1), min_size=n_bad + n_keep, max_size=n_bad + n_keep))
    flows = [Flow(r, (e,)) for r, e in enumerate(links)]
    bandwidths = {r: draw(st.sampled_from([10.0, 25.0, 30.0, 47.5])) for r in range(len(flows))}
    seed = draw(st.one_of(st.none(), st.integers(0, 10**9)))
    expr = parse_expr(EXAMPLE_FORMULA) if seed is None else grow_random(6, random.Random(seed))
    return network, flows[n_bad:], flows[:n_bad], bandwidths, expr


class TestSurrogateStopsAfterLastPath:
    @settings(max_examples=300, deadline=None)
    @given(surrogate_cases())
    def test_matches_reference(self, case):
        network, keep, bad, bandwidths, expr = case
        inputs = kept_inputs(network, keep, bandwidths)
        assert compute_surrogate(network, bad, bandwidths, inputs, expr, 0.8) == reference_surrogate(
            network, keep, bad, bandwidths, expr, 0.8
        )

    def test_floor_follows_a_refreshed_weight_below_it(self):
        # weights fall as links load: placing flow 0 on 0->2 takes that
        # link's weight from 50 to 5, below the floor of 30, so flow 1's
        # route 0->2->1 (5 + 30) beats the direct link (55) only when the
        # floor follows the weight down; a floor left at 30 stops the route
        # as it settles node 2, at 30 + 30 >= 55
        net = Network(
            3,
            [Link(0, 0, 1, 100.0, 55.0), Link(1, 0, 2, 100.0, 50.0), Link(2, 2, 1, 100.0, 30.0)]
            + [Link(3 + i, s, d, 100.0, 60.0) for i, (s, d) in enumerate([(1, 0), (1, 2), (2, 0)])],
        )
        bad = [Flow(0, (1,)), Flow(1, (0,))]
        bandwidths = {0: 90.0, 1: 10.0}
        expr = parse_expr("(dl * (1.0 - util))")
        got = compute_surrogate(net, bad, bandwidths, kept_inputs(net, [], bandwidths), expr, 0.8)
        assert got == [Flow(0, (1,)), Flow(1, (1, 2))]
        assert got == reference_surrogate(net, [], bad, bandwidths, expr, 0.8)

    @settings(max_examples=200, deadline=None)
    @given(surrogate_cases(), st.lists(st.one_of(st.none(), st.integers(0, 10**9)), min_size=2, max_size=8))
    def test_formulas_sharing_one_memo_match_the_reference(self, case, seeds):
        # small trees weigh the kept inputs alike often, and a repeated seed
        # repeats its formula, so later formulas read routes from the memo
        network, keep, bad, bandwidths, first = case
        inputs = kept_inputs(network, keep, bandwidths)
        routes = {}
        for seed in seeds:
            expr = first if seed is None else grow_random(1 + seed % 3, random.Random(seed % 50))
            got = compute_surrogate(network, bad, bandwidths, inputs, expr, 0.8, routes)
            assert got == reference_surrogate(network, keep, bad, bandwidths, expr, 0.8)

    def test_formulas_that_weigh_alike_share_one_route(self, fig1, monkeypatch):
        routed = []
        real_route = planner.shortest_weighted_path

        def counting_route(*args):
            routed.append(args[2:])
            return real_route(*args)

        monkeypatch.setattr(planner, "shortest_weighted_path", counting_route)
        keep, bad = [Flow(0, (0,))], [Flow(2, (0,))]
        inputs, routes = kept_inputs(fig1, keep, BW3), {}
        # both constants weigh every link 3: one key, whatever the load
        got = [compute_surrogate(fig1, bad, BW3, inputs, Const(c), 0.8, routes) for c in (3.2, 3.9)]
        assert got[0] == got[1] == [Flow(2, (0,))]
        assert len(routed) == 1 and list(routes) == [(3, 3)]  # the idle links and link 0

    @pytest.mark.parametrize("n_bad", [1, 2, 3])
    def test_no_evaluation_after_last_route(self, fig1, example_expr, monkeypatch, n_bad):
        events = []
        real_eval, real_route = planner.eval_expr, planner.shortest_weighted_path

        def counting_eval(expr, ctx):
            events.append("eval")
            return real_eval(expr, ctx)

        def counting_route(*args):
            events.append("route")
            return real_route(*args)

        monkeypatch.setattr(planner, "eval_expr", counting_eval)
        monkeypatch.setattr(planner, "shortest_weighted_path", counting_route)
        bad = [Flow(r, (0,)) for r in range(n_bad)]
        bandwidths = {r: 20.0 + r for r in range(n_bad)}
        compute_surrogate(fig1, bad, bandwidths, kept_inputs(fig1, [], bandwidths), example_expr, 0.8)
        # one evaluation for the idle links' class, then each flow takes link
        # 0 and every placement but the last re-weighs it at a new load
        assert events == ["eval", "route"] * n_bad


class TestTournament:
    def population(self):
        return [Individual(parse_expr("util"), fitness=float(i)) for i in range(10)]

    def test_k1_uniform(self):
        pop = self.population()
        seen = {tournament_select(pop, 1, random.Random(s)).fitness for s in range(300)}
        assert len(seen) > 5

    def test_full_tournament_favours_best(self):
        pop = self.population()
        rng = random.Random(42)
        wins = sum(tournament_select(pop, 10, rng).fitness == 0.0 for _ in range(10_000))
        # global best wins unless missed by all 10 draws: >= 1-(1-1/10)^10
        assert wins / 10_000 >= 1 - (1 - 1 / 10) ** 10 - 0.02

    def test_deterministic(self):
        pop = self.population()
        assert (
            tournament_select(pop, 7, random.Random(9)).fitness
            == tournament_select(pop, 7, random.Random(9)).fitness
        )

    def test_draws_as_choice(self):
        # the reference tournament, through rng.choice: the same individual
        # (the first of the lowest fitness among the draws) and the same stream
        def reference(population, k, rng):
            best = rng.choice(population)
            for _ in range(k - 1):
                challenger = rng.choice(population)
                if challenger.fitness < best.fitness:
                    best = challenger
            return best

        for n in range(1, 34):
            pop = [Individual(parse_expr("util"), fitness=float(i % 3)) for i in range(n)]
            for seed in range(20):
                rng, ref = random.Random(seed), random.Random(seed)
                for k in range(1, n + 1):
                    assert tournament_select(pop, k, rng) is reference(pop, k, ref)
                assert rng.getstate() == ref.getstate()

    def test_errors(self):
        with pytest.raises(ValueError):
            tournament_select([], 1, random.Random(0))
        with pytest.raises(ValueError):
            tournament_select(self.population(), 11, random.Random(0))


class TestGenPlan:
    def test_fig1_resolves(self, fig1):
        result = gen_plan(
            fig1, three_direct_flows(), BW3, [], GpConfig(max_generations=300), random.Random(1)
        )
        util = link_utilizations(fig1, result.new_flows, BW3)
        assert max(util.values()) < 0.8
        moved = [
            f for f in result.new_flows if f.path != (0,)
        ]
        assert len(moved) == 1

    def test_seeded_formula_early_stops(self, fig1, example_expr):
        result = gen_plan(
            fig1,
            three_direct_flows(),
            BW3,
            [Individual(example_expr)],
            GpConfig(max_generations=300),
            random.Random(5),
        )
        assert result.generations == 0
        assert result.best.fitness < 2.0
        assert format_expr(result.best.expr) == format_expr(example_expr)

    def test_zero_generations_returns_initial_best(self, fig1):
        result = gen_plan(
            fig1, three_direct_flows(), BW3, [], GpConfig(max_generations=0), random.Random(2)
        )
        assert result.generations == 0

    def test_bit_reproducible(self, fig1):
        runs = [
            gen_plan(
                fig1,
                three_direct_flows(),
                BW3,
                [],
                GpConfig(max_generations=300),
                random.Random(77),
            )
            for _ in range(2)
        ]
        assert format_expr(runs[0].best.expr) == format_expr(runs[1].best.expr)
        assert runs[0].new_flows == runs[1].new_flows
        assert runs[0].generations == runs[1].generations
        assert runs[0].retained == runs[1].retained

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_best_is_the_lowest_fitness_of_the_search(self, fig1, monkeypatch, seed):
        # each demand is above every link's capacity, so no plan resolves and
        # the search runs to its cap; a tournament of one selects parents
        # blindly, so a generation may lose the best plan found before it
        fitnesses = []
        real = planner.evaluate_plan

        def recording(*args):
            fitnesses.append(real(*args))
            return fitnesses[-1]

        monkeypatch.setattr(planner, "evaluate_plan", recording)
        bandwidths = {0: 150.0, 1: 120.0, 2: 110.0}
        config = GpConfig(population_size=4, tournament_size=1, max_generations=30)
        result = gen_plan(fig1, three_direct_flows(), bandwidths, [], config, random.Random(seed))
        assert result.generations == 30
        assert result.best.fitness == min(fitnesses)

    def test_retained_is_top_half(self, fig1):
        result = gen_plan(
            fig1, three_direct_flows(), BW3, [], GpConfig(max_generations=300), random.Random(3)
        )
        assert len(result.retained) == 5
        fits = [ind.fitness for ind in result.retained]
        assert fits == sorted(fits)

    def test_seeds_lead_initial_population(self, fig1, example_expr):
        seeds = [Individual(example_expr) for _ in range(5)]
        result = gen_plan(
            fig1, three_direct_flows(), BW3, seeds, GpConfig(max_generations=0), random.Random(4)
        )
        assert len(result.initial) == 10
        assert result.initial[:5] == [example_expr] * 5


def reference_weights(network, util, expr, threshold):
    """The formula evaluated afresh for every link."""
    return [
        to_weight(eval_expr(expr, EvalContext(link.bw, link.dl, util[link.id], threshold)))
        for link in network.links
    ]


@st.composite
def weighted_networks(draw):
    """A complete graph whose links are uniform, drawn from a few (bw, dl)
    classes, or each drawn apart; utilizations are 0 or drawn from a few
    values, so that inputs repeat, none of them 0 (every class fully
    loaded), all but one link's nonzero, or all drawn apart. One node
    makes a network without links."""
    n = draw(st.integers(min_value=1, max_value=6))
    n_links = n * (n - 1)
    kind = draw(st.sampled_from(["uniform", "classes", "heterogeneous"]))
    if kind == "uniform":
        statics = [(100.0, 25.0)] * n_links
    elif kind == "classes":
        pool = [(100.0, 25.0), (50.0, 25.0), (100.0, 5.0)]
        statics = draw(st.lists(st.sampled_from(pool), min_size=n_links, max_size=n_links))
    else:
        value = st.floats(min_value=0.5, max_value=500.0)
        statics = draw(st.lists(st.tuples(value, value), min_size=n_links, max_size=n_links))
    pairs = [(s, d) for s in range(n) for d in range(n) if s != d]
    net = Network(n, [Link(i, s, d, bw, dl) for i, ((s, d), (bw, dl)) in enumerate(zip(pairs, statics))])
    loads = draw(st.sampled_from(["idle", "repeated", "loaded", "all but one", "distinct"]))
    if loads == "idle":
        util = [0.0] * n_links
    elif loads in ("repeated", "loaded"):
        levels = [0.3, 0.9, 1.5] if loads == "loaded" else [0.0, 0.3, 0.9, 1.5]
        util = draw(st.lists(st.sampled_from(levels), min_size=n_links, max_size=n_links))
    elif loads == "all but one":
        util = draw(st.lists(st.sampled_from([0.3, 0.9, 1.5]), min_size=n_links, max_size=n_links))
        if util:
            util[draw(st.integers(0, n_links - 1))] = 0.0
    else:
        util = draw(st.lists(st.floats(min_value=0.0, max_value=2.0), min_size=n_links, max_size=n_links))
    return net, util


def load_map(util, idle):
    """The utilization map of ``util``: every loaded link, plus every idle
    link at 0.0 ("all"), none ("none") or the first ("first")."""
    first = util.index(0.0) if 0.0 in util else None
    return {e: u for e, u in enumerate(util) if u or idle == "all" or (idle == "first" and e == first)}


class TestLinkWeights:
    @settings(max_examples=300, deadline=None)
    @given(
        weighted_networks(),
        st.integers(min_value=0, max_value=10**9),
        st.integers(1, 6),
        st.sampled_from(["all", "none", "first"]),
    )
    def test_equals_per_link_evaluation(self, net_util, seed, max_depth, idle):
        # on a one-class network, a map one entry short of every link keeps
        # the idle template, and a full one is grouped afresh
        net, util = net_util
        loaded = load_map(util, idle)
        expr = grow_random(max_depth, random.Random(seed))
        weigh = formula_weigher(expr, 0.8)
        weighed = []

        def recording(*key):
            weighed.append(key)
            return weigh(*key)

        table = link_inputs(net, loaded)
        assert table.one_class == (len(net.link_classes[0]) == 1 and len(loaded) < len(net.links))
        got = link_weights(table, recording)
        assert got.values == reference_weights(net, util, expr, 0.8)
        assert all(type(w) is int for w in got.values)
        assert got.lo == min(got.values, default=0)
        # each input some link has is weighed once, and no other input is
        inputs = {(link.bw, link.dl, util[link.id]) for link in net.links}
        assert sorted(weighed) == sorted(inputs)

    @settings(max_examples=200, deadline=None)
    @given(weighted_networks(), st.data(), st.integers(min_value=0, max_value=10**9), st.integers(1, 6))
    def test_reweigh_equals_a_fresh_weighing(self, net_util, data, seed, max_depth):
        # a second map where each link keeps its utilization or takes a new
        # one: loaded links fall idle, idle ones load, and loads change; the
        # links weighed again are every changed link and any unchanged ones
        net, util = net_util
        changes = data.draw(st.lists(st.sampled_from([None, 0.0, 0.3, 1.5]), min_size=len(util), max_size=len(util)))
        later = [u if c is None else c for u, c in zip(util, changes)]
        before = {e: u for e, u in enumerate(util) if u}
        after = {e: u for e, u in enumerate(later) if u}
        changed = {e for e, (u, v) in enumerate(zip(util, later)) if u != v}
        extra = data.draw(st.lists(st.booleans(), min_size=len(util), max_size=len(util)))
        links = data.draw(st.permutations([e for e, x in enumerate(extra) if x or e in changed]))
        weigh = formula_weigher(grow_random(max_depth, random.Random(seed)), 0.8)
        got = reweigh(net, link_weights(link_inputs(net, before), weigh), links, after, weigh)
        assert got.values == link_weights(link_inputs(net, after), weigh).values
        assert 1 <= got.lo <= min(got.values) if got.values else got.lo == 0

    @settings(max_examples=100, deadline=None)
    @given(weighted_networks(), st.integers(min_value=0, max_value=10**9), st.sampled_from(["all", "none", "first"]))
    def test_each_weighing_is_a_fresh_list(self, net_util, seed, idle):
        # reweigh writes into the values it is given, so two weighings of
        # one table must not share a list
        net, util = net_util
        table = link_inputs(net, load_map(util, idle))
        weigh = formula_weigher(grow_random(4, random.Random(seed)), 0.8)
        first, second = link_weights(table, weigh), link_weights(table, weigh)
        assert first.values is not second.values
        before = list(second.values)
        for e in range(len(first.values)):
            first.values[e] += 1
        assert second.values == before

    def test_one_evaluation_per_distinct_input(self, example_expr, monkeypatch):
        inputs = []
        real = planner.eval_expr

        def counting(expr, ctx):
            inputs.append((ctx.bw, ctx.dl, ctx.util))
            return real(expr, ctx)

        monkeypatch.setattr(planner, "eval_expr", counting)
        net = full_topology(5)  # 20 links, one (bw, dl) class
        util = {3: 0.5, 7: 0.5, 9: 0.25}
        link_weights(link_inputs(net, util), formula_weigher(example_expr, 0.8))
        assert sorted(inputs) == [(100.0, 25.0, 0.0), (100.0, 25.0, 0.25), (100.0, 25.0, 0.5)]

        inputs.clear()  # no idle link: the class is never weighed at util 0
        link_weights(link_inputs(net, dict.fromkeys(range(20), 0.5)), formula_weigher(example_expr, 0.8))
        assert inputs == [(100.0, 25.0, 0.5)]


class TestFitnessCache:
    def test_one_evaluation_per_distinct_plan(self, fig1, monkeypatch):
        plans = Counter()
        real = planner.evaluate_plan

        def counting(network, new_flows, *rest):
            plans[tuple(new_flows)] += 1
            return real(network, new_flows, *rest)

        formulas = set()
        real_surrogate = planner.compute_surrogate

        def recording(network, bad, bandwidths, keep, expr, *rest):
            formulas.add(expr)
            return real_surrogate(network, bad, bandwidths, keep, expr, *rest)

        monkeypatch.setattr(planner, "evaluate_plan", counting)
        monkeypatch.setattr(planner, "compute_surrogate", recording)
        result = gen_plan(
            fig1, three_direct_flows(), BW3, [], GpConfig(max_generations=300), random.Random(2)
        )
        assert result.generations == 19
        assert len(formulas) > len(plans)  # distinct formulas made the same plan
        assert max(plans.values()) == 1

    def test_each_fitness_is_its_own_plans(self, monkeypatch):
        net = mnp_topology(5)
        old = [Flow(r, (0,)) for r in range(4)]  # two of them must move
        bandwidths = {0: 30.0, 1: 30.0, 2: 30.0, 3: 25.0}
        surrogates = {}
        real_surrogate, real_breed = planner.compute_surrogate, planner._breed

        def recording(network, bad, bw, keep, expr, *rest):
            surrogates[expr] = real_surrogate(network, bad, bw, keep, expr, *rest)
            return surrogates[expr]

        def whole_plan(rerouted):  # the re-routed flows, then the kept ones in old order
            moved = {f.request for f in rerouted}
            return rerouted + [f for f in old if f.request not in moved]

        checked = []

        def checking(population, *rest):  # sees every scored generation but the last
            for ind in population:
                plan = whole_plan(surrogates[ind.expr])
                assert ind.fitness == evaluate_plan(net, plan, old, bandwidths, 0.8)
                checked.append(ind)
            return real_breed(population, *rest)

        monkeypatch.setattr(planner, "compute_surrogate", recording)
        monkeypatch.setattr(planner, "_breed", checking)
        # no early stop: every generation runs, so many formulas are scored
        config = GpConfig(max_generations=30, early_stop_fitness=0.0)
        result = gen_plan(net, old, bandwidths, [], config, random.Random(0))
        assert len(checked) == 300
        # the flow set is the best plan's: its re-routed flows, then the kept ones
        assert result.new_flows == whole_plan(surrogates[result.best.expr])

    def test_surrogate_once_per_distinct_formula(self, fig1, monkeypatch):
        calls = Counter()
        real = planner.compute_surrogate

        def counting(network, bad, bandwidths, keep, expr, threshold, routes):
            calls[format_expr(expr)] += 1
            return real(network, bad, bandwidths, keep, expr, threshold, routes)

        monkeypatch.setattr(planner, "compute_surrogate", counting)
        # seed 2 searches for 19 generations, so parents recur
        result = gen_plan(
            fig1, three_direct_flows(), BW3, [], GpConfig(max_generations=300), random.Random(2)
        )
        assert result.generations == 19
        # also covers the best formula: its final flows come from the cache
        assert calls and max(calls.values()) == 1
        assert format_expr(result.best.expr) in calls


# gen_plan on four flows over link 0 (two must move), GpConfig(max_generations=60):
# (topology, seed) -> (best formula, best fitness, generations, final paths)
_RANDOM_FORMULA = (
    "((((((((util + (((45.79542036471842 * 54.43194976514813) / util) * dl)) / (((bw + "
    "(util - threshold)) / (threshold + 16.567497287207978)) - bw)) + util) * ((util / util) "
    "+ 83.74483937438902)) - 40.181682221254356) + (71.73241433110373 * threshold)) - (bw - "
    "((util - (util + (((bw * 4.229760200279409) - dl) + ((((((threshold - bw) * dl) / dl) / "
    "((bw + threshold) * util)) + (util - (threshold + (dl * 9.94003382387011)))) * (dl / "
    "69.95952911506184))))) * dl))) - bw)"
)
PINNED_PLANS = {
    ("mnp5", 0): (_RANDOM_FORMULA, 1.8693181818181817, 0,
                  [(0, (0,)), (1, (6, 8, 10)), (2, (0,)), (3, (2, 4))]),
    ("mnp5", 1): ("((dl / threshold) / util)", 1.8693181818181817, 6,
                  [(0, (0,)), (1, (2, 4)), (2, (0,)), (3, (6, 8, 10))]),
    ("mnp5", 2): ("((dl / threshold) * util)", 1.8693181818181817, 19,
                  [(0, (2, 4)), (1, (6, 8, 10)), (2, (0,)), (3, (0,))]),
    ("full10", 0): (_RANDOM_FORMULA, 1.8505203405865656, 0,
                    [(0, (0,)), (1, (2, 28)), (2, (0,)), (3, (1, 19))]),
    ("full10", 1): ("((dl / threshold) / util)", 1.8505203405865656, 6,
                    [(0, (0,)), (1, (1, 19)), (2, (0,)), (3, (2, 28))]),
    ("full10", 2): ("((dl / threshold) * util)", 1.8505203405865656, 19,
                    [(0, (1, 19)), (1, (2, 28)), (2, (0,)), (3, (0,))]),
}


@pytest.mark.parametrize("topology,seed", sorted(PINNED_PLANS))
def test_gen_plan_pinned(topology, seed):
    net = mnp_topology(5) if topology == "mnp5" else full_topology(10)
    flows = [Flow(r, (0,)) for r in range(4)]
    bandwidths = {0: 30.0, 1: 30.0, 2: 30.0, 3: 25.0}
    result = gen_plan(net, flows, bandwidths, [], GpConfig(max_generations=60), random.Random(seed))
    got = (
        format_expr(result.best.expr),
        result.best.fitness,
        result.generations,
        sorted((f.request, f.path) for f in result.new_flows),
    )
    assert got == PINNED_PLANS[(topology, seed)]
