"""Per-link state is a map of the loaded links only. These properties check
it, bit for bit, against the dense per-link lists it replaced: every link
in a list indexed by link id, summed in flow order with zero-demand flows
included."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_throughputs

from evoroute.expr import grow_random
from evoroute.netmodel import Flow, Link, Network, Weights, link_throughputs, link_utilizations, make_snapshot
from evoroute.planner import (
    evaluate_plan,
    find_flows_causing_congestion,
    formula_weigher,
    link_inputs,
    link_weights,
    normalize,
)


def dense_utilizations(network, flows, bandwidths):
    return [x / link.bw for x, link in zip(dense_throughputs(network, flows, bandwidths), network.links)]


def expand(network, per_link):
    return [per_link.get(e, 0.0) for e in range(len(network.links))]


def bits(values):
    return [x.hex() for x in values]


def dense_find_flows(network, flows, bandwidths, threshold, rng):
    """Bad-flow selection over the dense list: the peak, and its lowest
    link id from ``list.index``."""
    remaining = list(flows)
    removed = []
    while True:
        util = dense_utilizations(network, remaining, bandwidths)
        peak = max(util, default=None)
        if peak is None or peak <= threshold:
            return removed
        worst = util.index(peak)
        carriers = [f for f in remaining if worst in f.path and bandwidths[f.request] > 0]
        victim = carriers[rng.randrange(len(carriers))]
        remaining.remove(victim)
        removed.append(victim)


_DEMAND = st.one_of(
    st.just(0.0),
    st.sampled_from([12.5, 30.0, 47.5, 60.0]),
    st.floats(min_value=0.0, max_value=200.0, allow_nan=False),
)


@st.composite
def loaded_networks(draw):
    """A complete graph of 2-6 nodes whose links have mixed bandwidths and
    delays, from one, two or eight static classes, and up to 8 flows on
    simple paths of one or more links; some demands are 0.0, and demands
    repeat, so that links tie."""
    n = draw(st.integers(2, 6))
    pairs = [(s, d) for s in range(n) for d in range(n) if s != d]
    link_id = {pair: i for i, pair in enumerate(pairs)}
    pool = [(bw, dl) for bw in (100.0, 60.0, 10.0, 150.0) for dl in (25.0, 5.0)]
    classes = pool[: draw(st.sampled_from([1, 2, 8]))]
    statics = draw(st.lists(st.sampled_from(classes), min_size=len(pairs), max_size=len(pairs)))
    network = Network(n, [Link(i, s, d, bw, dl) for i, ((s, d), (bw, dl)) in enumerate(zip(pairs, statics))])
    flows, bandwidths = [], {}
    for r in range(draw(st.integers(0, 8))):
        nodes = draw(st.permutations(range(n)))[: draw(st.integers(2, n))]
        flows.append(Flow(r, tuple(link_id[pair] for pair in zip(nodes, nodes[1:]))))
        bandwidths[r] = draw(_DEMAND)
    return network, flows, bandwidths


@settings(max_examples=150, deadline=None)
@given(loaded_networks())
def test_maps_expand_to_the_dense_lists(case):
    network, flows, bandwidths = case
    thr = link_throughputs(network, flows, bandwidths)
    util = link_utilizations(network, flows, bandwidths)
    assert bits(expand(network, thr)) == bits(dense_throughputs(network, flows, bandwidths))
    assert bits(expand(network, util)) == bits(dense_utilizations(network, flows, bandwidths))
    # an entry for each link that a flow with positive demand crosses, and no other
    assert set(thr) == set(util) == {e for f in flows if bandwidths[f.request] for e in f.path}


@settings(max_examples=150, deadline=None)
@given(loaded_networks())
def test_peak_and_worst_link_equal_the_dense_ones(case):
    network, flows, bandwidths = case
    util = link_utilizations(network, flows, bandwidths)
    dense = dense_utilizations(network, flows, bandwidths)
    peak = max(util.values(), default=0.0)
    assert peak == max(dense)
    if peak > 0:  # a peak of 0.0 is held by idle links too
        assert min(e for e, u in util.items() if u == peak) == dense.index(peak)


@settings(max_examples=150, deadline=None)
@given(loaded_networks())
def test_loss_excess_equals_the_dense_sum(case):
    # the snapshot's one walk gives the excess, the utilizations and their peak
    network, flows, bandwidths = case
    dense = dense_throughputs(network, flows, bandwidths)
    expected = float(sum(x - bw for x, bw in zip(dense, network.bws) if x > bw))
    snapshot = make_snapshot(network, flows, bandwidths)
    assert snapshot.excess.hex() == expected.hex()
    dense_util = dense_utilizations(network, flows, bandwidths)
    assert bits(expand(network, snapshot.util)) == bits(dense_util)
    assert set(snapshot.util) == set(link_throughputs(network, flows, bandwidths))
    assert snapshot.peak.hex() == max(dense_util).hex()
    assert snapshot.flows == tuple(flows)


@settings(max_examples=150, deadline=None)
@given(loaded_networks(), st.integers(0, 10**9), st.integers(1, 6))
def test_link_weights_equal_per_link_evaluation(case, seed, max_depth):
    network, flows, bandwidths = case
    expr = grow_random(max_depth, random.Random(seed))
    weigh = formula_weigher(expr, 0.8)
    dense = dense_utilizations(network, flows, bandwidths)
    weighed = []

    def recording(*key):
        weighed.append(key)
        return weigh(*key)

    got = link_weights(link_inputs(network, link_utilizations(network, flows, bandwidths)), recording)
    expected = [weigh(link.bw, link.dl, dense[link.id]) for link in network.links]
    assert got == Weights(expected, min(expected, default=0))
    # one weighing per distinct input some link has, and no other
    inputs = {(link.bw, link.dl, dense[link.id]) for link in network.links}
    assert len(weighed) == len(set(weighed)) == len(inputs)
    assert set(weighed) == inputs


@settings(max_examples=150, deadline=None)
@given(loaded_networks(), st.integers(0, 10**9), st.floats(min_value=0.05, max_value=0.95))
def test_bad_flow_selection_draws_as_the_dense_one(case, seed, threshold):
    network, flows, bandwidths = case
    rng, dense_rng = random.Random(seed), random.Random(seed)
    removed = find_flows_causing_congestion(network, flows, bandwidths, threshold, rng)
    assert removed == dense_find_flows(network, flows, bandwidths, threshold, dense_rng)
    assert rng.getstate() == dense_rng.getstate()


@settings(max_examples=150, deadline=None)
@given(loaded_networks(), st.floats(min_value=0.05, max_value=0.95))
def test_plan_fitness_regime_reads_the_dense_peak(case, threshold):
    network, flows, bandwidths = case
    peak = max(dense_utilizations(network, flows, bandwidths))
    fitness = evaluate_plan(network, flows, flows, bandwidths, threshold)
    if peak >= threshold:
        assert fitness == normalize(peak) + 2.0
    else:
        assert fitness < 2.0
