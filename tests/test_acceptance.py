"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and prints a single
PASS/FAIL line for it. The seed-batch fixture is shared between the
resolution and comparison criteria to keep total runtime low.
"""

import math
import random
import statistics
import time
from contextlib import contextmanager

import pytest

from conftest import EXAMPLE_FORMULA, scenario_path
from test_netmodel import brute_force_shortest
from test_planner import lcs_oracle

from evoroute.expr import EvalContext, eval_expr, parse_expr, to_weight
from evoroute.netmodel import Flow, Link, Network, full_topology, link_utilizations
from evoroute.planner import (
    GpConfig,
    Individual,
    evaluate_plan,
    gen_plan,
    lcs_distance,
    normalize,
)
from evoroute.scenario import export_kb, import_kb, load_scenario
from evoroute.sim import (
    run_scenario,
    write_metrics_csv,
    write_trace_csv,
)

SUBJECTS = {
    "FULL(5,3)": "full5_3",
    "FULL(7,3)": "full7_3",
    "MNP(3)": "mnp3_2",
    "MNP(4)": "mnp4_2",
}
SEEDS = range(30)
BASELINES = ("unit-ospf", "inverse-bw-ospf")


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"\nacceptance criterion {number} ({title}): FAIL", flush=True)
        raise
    print(f"\nacceptance criterion {number} ({title}): PASS", flush=True)


def end_state_max_util(scenario, result):
    """Highest link utilization of the final flow assignment."""
    t = scenario.resolved_duration() - 1
    bandwidths = {r.id: r.bd(t) for r in scenario.requests if r.arrival <= t}
    utils = link_utilizations(scenario.network, list(result.flows.values()), bandwidths)
    return max(utils.values(), default=0.0)


@pytest.fixture(scope="module")
def seed_batch():
    """metrics and end-state utilization for subject x router x seed."""
    out = {}
    for name, stem in SUBJECTS.items():
        scenario = load_scenario(scenario_path(stem))
        for router in ("genadapt",) + BASELINES:
            for seed in SEEDS:
                result = run_scenario(scenario, seed=seed, router=router)
                out[(name, router, seed)] = (
                    result.metrics,
                    end_state_max_util(scenario, result),
                )
    return out


def test_criterion_1_golden_trace():
    with criterion(1, "motivating-example golden trace"):
        scenario = load_scenario(scenario_path("fig1"))
        warm = scenario._replace(kb=(Individual(parse_expr(EXAMPLE_FORMULA)),))
        start = time.perf_counter()
        result = run_scenario(warm, router="genadapt-reuse")
        elapsed = time.perf_counter() - start

        assert result.metrics.planner_invocations == 1
        paths = {rid: f.path for rid, f in result.flows.items()}
        # requests are numbered 0..5 in arrival order; links (2, 4) form the
        # two-hop detour and (6, 8, 10) the three-hop one
        assert paths[2] == (2, 4) and paths[3] == (2, 4)
        assert paths[4] == (6, 8, 10) and paths[5] == (6, 8, 10)
        adaptation_tick = result.state.log[0].tick
        assert all(not row.congested for row in result.trace if row.t > adaptation_tick)
        # at the rerouted flow's routing moment the direct link carries two
        # 30-unit flows on a 100-unit link, and the installed formula maps
        # that 0.6 utilization to weight 4
        direct = scenario.network.link(0)
        ctx = EvalContext(direct.bw, direct.dl, 0.6, scenario.gp.threshold)
        assert to_weight(eval_expr(parse_expr(result.state.log[0].formula), ctx)) == 4
        assert elapsed < 1.0


def test_criterion_2_resolution(seed_batch):
    with criterion(2, "congestion resolved on all subjects, 30/30 seeds"):
        for name in SUBJECTS:
            for seed in SEEDS:
                metrics, max_util = seed_batch[(name, "genadapt", seed)]
                assert metrics.congestion_occurrences >= 1, (name, seed)
                assert max_util <= 0.8, (name, seed, max_util)


def test_criterion_3_adaptation_advantage(seed_batch):
    with criterion(3, "lower mean congestion than both static baselines"):
        def means(name, router):
            ms = [seed_batch[(name, router, s)][0] for s in SEEDS]
            return (
                statistics.mean(m.congestion_duration for m in ms),
                statistics.mean(m.congestion_occurrences for m in ms),
            )

        for name in SUBJECTS:
            dur, occ = means(name, "genadapt")
            for baseline in BASELINES:
                base_dur, base_occ = means(name, baseline)
                assert dur < base_dur, (name, baseline)
                assert occ < base_occ, (name, baseline)


def test_criterion_4_fitness_suite():
    with criterion(4, "fitness function unit suite"):
        assert normalize(1) == pytest.approx(0.5, abs=1e-12)

        net = full_topology(3)  # spokes 0->1 via link 0, 0->2->1 via (1, 3)
        congested = [Flow(0, (0,)), Flow(1, (0,)), Flow(2, (0,))]
        fit = evaluate_plan(net, congested, congested, {i: 30.0 for i in range(3)}, 0.8)
        assert fit == pytest.approx(0.9 / 1.9 + 2.0, abs=1e-9)

        boundary = [Flow(0, (0,)), Flow(1, (0,))]
        fit = evaluate_plan(net, boundary, boundary, {0: 40.0, 1: 40.0}, 0.8)
        assert fit == pytest.approx(0.8 / 1.8 + 2.0, abs=1e-9)

        net4 = full_topology(4)  # uniform bw=100, dl=25
        old = [Flow(0, (0,)), Flow(1, (5,))]
        new = [Flow(0, (1,)), Flow(1, (5,))]
        fit = evaluate_plan(net4, new, old, {0: 30.0, 1: 30.0}, 0.8)
        assert fit == pytest.approx(2 / 3 + 50 / 51, abs=1e-9)

        # range and regime equivalence over random flow assignments
        rng = random.Random(2024)
        links = [l.id for l in net4.links]
        for _ in range(500):
            n_flows = rng.randint(1, 6)
            old = [Flow(i, (rng.choice(links),)) for i in range(n_flows)]
            new = [Flow(i, (rng.choice(links),)) for i in range(n_flows)]
            bw = {i: rng.uniform(5.0, 60.0) for i in range(n_flows)}
            fit = evaluate_plan(net4, new, old, bw, 0.8)
            max_util = max(link_utilizations(net4, new, bw).values())
            assert 0.0 <= fit < 3.0
            assert (fit >= 2.0) == (max_util >= 0.8)


def test_criterion_5_oracles():
    with criterion(5, "search primitives match exhaustive oracles"):
        from evoroute.netmodel import check_weights, shortest_weighted_path

        rng = random.Random(99)
        for _ in range(200):
            n = rng.randint(2, 7)
            links = []
            for src in range(n):
                for dst in range(n):
                    if src != dst and rng.random() < 0.5:
                        links.append(Link(len(links), src, dst, 100, 25))
            net = Network(n, links)
            weights = [rng.randint(1, 9) for l in net.links]
            src, dst = rng.sample(range(n), 2)
            assert shortest_weighted_path(net, check_weights(net, weights), src, dst) == brute_force_shortest(
                net, weights, src, dst
            )

        for _ in range(1000):
            p = tuple(rng.randrange(8) for _ in range(rng.randint(0, 12)))
            q = tuple(rng.randrange(8) for _ in range(rng.randint(0, 12)))
            assert lcs_distance(p, q) == lcs_oracle(p, q)


def test_criterion_6_knowledge_base_reuse(tmp_path):
    with criterion(6, "knowledge-base export, bootstrap, and transfer"):
        # export after adaptation: exactly population/2 = 5 formulas
        scenario = load_scenario(scenario_path("mnp3_2"))
        result = run_scenario(scenario, seed=0)
        assert result.metrics.planner_invocations >= 1
        kb_file = str(tmp_path / "kb.txt")
        export_kb(result.state.retained, kb_file)
        kb = import_kb(kb_file)
        assert len(kb) == 5

        # generation 0 of a bootstrapped planning round = 5 imported + 5 random
        net = scenario.network
        flows = [Flow(i, (0,)) for i in range(3)]
        bw = {i: 30.0 for i in range(3)}
        plan = gen_plan(net, flows, bw, kb, GpConfig(max_generations=0), random.Random(1))
        assert len(plan.initial) == 10
        assert plan.initial[:5] == [i.expr for i in kb]

        # transfer: the 3-path-trained kb resolves the 5-path subject, 30/30
        target = load_scenario(scenario_path("mnp5_2"))._replace(kb=tuple(kb))
        for seed in SEEDS:
            res = run_scenario(target, seed=seed, router="genadapt-reuse")
            assert res.metrics.congestion_occurrences >= 1, seed
            assert end_state_max_util(target, res) <= 0.8, seed


def test_criterion_7_scaling_shape():
    with criterion(7, "planner wall-clock linear in link count"):
        sizes = (10, 20, 30, 40, 50)
        nets = [full_topology(n) for n in sizes]
        flows = [Flow(i, (0,)) for i in range(5)]  # 5 x 30 = 150 Mbps
        bw = {i: 30.0 for i in range(5)}
        times = [[math.inf] * 15 for _ in sizes]
        # every seed times all sizes in turn, so that a phase of host
        # contention slows every size alike instead of one size's median;
        # each (size, seed) search is the same work every round, and keeps
        # its fastest of three rounds, so a burst that slows one round moves
        # no sample
        for _ in range(3):
            for seed in range(15):
                for net, samples in zip(nets, times):
                    start = time.perf_counter()
                    gen_plan(net, flows, bw, [], GpConfig(), random.Random(seed))
                    samples[seed] = min(samples[seed], time.perf_counter() - start)
        medians = [statistics.median(samples) for samples in times]
        link_counts = [len(net.links) for net in nets]

        # R² of the least-squares line with an intercept: the squared correlation
        r_squared = statistics.correlation(link_counts, medians) ** 2
        assert r_squared >= 0.9, (r_squared, medians)


def test_criterion_8_determinism(tmp_path):
    with criterion(8, "byte-identical outputs under a fixed seed"):
        for stem in ("fig1", "full5_3", "mnp4_2"):
            scenario = load_scenario(scenario_path(stem))
            blobs = []
            for attempt in range(2):
                result = run_scenario(scenario, seed=11)
                trace = tmp_path / f"{stem}_{attempt}_trace.csv"
                metrics = tmp_path / f"{stem}_{attempt}_metrics.csv"
                write_trace_csv(result.trace, str(trace))
                write_metrics_csv(result.metrics, str(metrics))
                blobs.append((trace.read_bytes(), metrics.read_bytes()))
            assert blobs[0] == blobs[1], stem
