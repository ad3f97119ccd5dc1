import heapq
import random
import re
from math import inf, nan

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import throughput
from evoroute.netmodel import (
    ConfigError,
    Flow,
    InputError,
    MAX_MBPS,
    MAX_NODES,
    Link,
    Network,
    NetworkError,
    Request,
    Weights,
    check_weights,
    full_topology,
    link_throughputs,
    link_utilizations,
    load_network,
    make_snapshot,
    mnp_topology,
    read_lines,
    save_network,
    shortest_weighted_path,
    unit_weights,
)


LINK = Link(0, 0, 1, 100.0, 25.0)
REQUEST = Request.constant(0, 0, 1, 0.0, 30.0)


@pytest.fixture
def fig1():
    # 5 nodes, 3 node-disjoint paths: direct 0->1, 0->2->1, 0->3->4->1
    return mnp_topology(3)


def brute_force_shortest(network, weights, src, dst):
    """Enumerate all simple paths; min by (cost, node sequence)."""
    best = None

    def dfs(node, visited, links, nodes, cost):
        nonlocal best
        if node == dst:
            key = (cost, nodes)
            if best is None or key < best[0]:
                best = (key, tuple(links))
            return
        for v, e in network.out_by_dst[node]:
            if v not in visited:
                dfs(v, visited | {v}, links + [e], nodes + (v,), cost + weights[e])

    dfs(src, {src}, [], (src,), 0)
    return None if best is None else best[1]


def reference_shortest(network, weights, src, dst):
    """The forward search ``shortest_weighted_path`` used before it settled
    distances to dst: heap entries carry the node and link sequences, so
    ties in distance resolve to the lexicographically smallest path."""
    heap = [(0, (src,), ())]
    pushed = {}
    settled = set()
    while heap:
        dist, nodes, path = heapq.heappop(heap)
        u = nodes[-1]
        if u in settled:
            continue
        settled.add(u)
        if u == dst:
            return path
        for v, e in network.out_by_dst[u]:
            if v in settled:
                continue
            entry = (dist + weights[e], nodes + (v,))
            if v in pushed and entry >= pushed[v]:
                continue
            pushed[v] = entry
            heapq.heappush(heap, (entry[0], entry[1], path + (e,)))
    return None


class TestBasics:
    def test_link_invariants(self):
        with pytest.raises(NetworkError):
            Link(0, 1, 1, 100, 25)
        with pytest.raises(NetworkError):
            Link(0, 0, 1, -5, 25)
        with pytest.raises(NetworkError):
            Link(0, 0, 1, 100, 0)

    @pytest.mark.parametrize("bw, dl", [(nan, 25.0), (inf, 25.0), (100.0, nan), (100.0, inf), (-inf, 25.0)])
    def test_link_numbers_must_be_finite(self, bw, dl):
        with pytest.raises(NetworkError, match="must be finite and > 0"):
            Link(0, 0, 1, bw, dl)

    def test_request_invariants(self):
        with pytest.raises(NetworkError):
            Request.constant(0, 2, 2, 0.0, 30)
        with pytest.raises(NetworkError):
            Request.constant(0, 0, 1, -1.0, 30)

    @pytest.mark.parametrize(
        "arrival, profile, message",
        [
            (nan, ((0.0, 30.0),), "arrival"),
            (inf, ((0.0, 30.0),), "arrival"),
            (0.0, ((0.0, nan),), "bandwidth"),
            (0.0, ((0.0, 30.0), (5.0, inf)), "bandwidth"),
            (0.0, ((0.0, -1.0),), "bandwidth"),
            (0.0, ((nan, 30.0),), "start times must be finite"),
            (0.0, ((0.0, 30.0), (inf, 0.0)), "start times must be finite"),
            (0.0, ((-inf, 30.0),), "start times must be finite"),
        ],
    )
    def test_request_numbers_must_be_finite(self, arrival, profile, message):
        with pytest.raises(NetworkError, match=message):
            Request(0, 0, 1, arrival, profile)

    def test_request_profile(self):
        r = Request(0, 0, 1, 0.0, ((0.0, 30.0), (40.0, 50.0)))
        assert r.bd(0) == 30.0
        assert r.bd(39.9) == 30.0
        assert r.bd(40) == 50.0

    def test_request_demands_nothing_before_its_first_segment(self):
        r = Request(0, 0, 1, 0.0, ((5.0, 90.0), (8.0, 10.0)))
        assert [r.bd(t) for t in (0, 4.9, 5, 7.9, 8, 100)] == [0.0, 0.0, 90.0, 90.0, 10.0, 10.0]

    @pytest.mark.parametrize("profile", [((15.0, 0.0), (0.0, 90.0)), ((0.0, 30.0), (0.0, 50.0))])
    def test_request_profile_starts_strictly_increasing(self, profile):
        with pytest.raises(NetworkError, match="strictly increasing"):
            Request(0, 0, 1, 0.0, profile)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Link._make((0, 1, 1, 100.0, 25.0)), "link 0: self-loop on node 1"),
            (lambda: LINK._replace(bw=0.0), "link 0: bandwidth must be finite and > 0, got 0.0"),
            (lambda: LINK._replace(dl=nan), "link 0: delay must be finite and > 0, got nan"),
            (lambda: REQUEST._replace(profile=()), "request 0: empty bandwidth profile"),
            (
                lambda: REQUEST._replace(profile=((0.0, 30.0), (5.0, 2 * MAX_MBPS))),
                "request 0: bandwidth must be finite and >= 0, at most 1e+16 Mbps",
            ),
            (
                lambda: Request._make((0, 0, 1, 0.0, ((5.0, 30.0), (0.0, 50.0)))),
                "request 0: profile start times must be strictly increasing",
            ),
        ],
    )
    def test_make_and_replace_check_like_the_constructor(self, build, message):
        with pytest.raises(NetworkError, match=f"^{re.escape(message)}$"):
            build()

    def test_make_and_replace_keep_the_type(self):
        assert type(LINK._replace(bw=50.0)) is Link and LINK._replace(bw=50.0).bw == 50.0
        assert type(Link._make(LINK)) is Link and Link._make(LINK) == LINK
        assert type(REQUEST._replace(arrival=2.0)) is Request and Request._make(REQUEST) == REQUEST

    def test_network_rejects_duplicate_pair(self):
        links = [Link(0, 0, 1, 100, 25), Link(1, 0, 1, 100, 25)]
        with pytest.raises(NetworkError):
            Network(2, links)

    def test_network_rejects_sparse_ids(self):
        with pytest.raises(NetworkError):
            Network(2, [Link(1, 0, 1, 100, 25)])

    def test_static_link_vectors(self):
        links = [Link(0, 0, 1, 100.0, 25.0), Link(1, 1, 0, 50.0, 25.0), Link(2, 1, 2, 100.0, 5.0)]
        net = Network(3, links)
        assert net.bws == (100.0, 50.0, 100.0)
        assert net.dls == (25.0, 25.0, 5.0)

    def test_adjacency_built_on_first_use(self):
        net = Network(3, [Link(0, 2, 0, 100.0, 25.0), Link(1, 0, 2, 100.0, 25.0), Link(2, 0, 1, 100.0, 25.0)])
        assert "in_links" not in vars(net) and "out_by_dst" not in vars(net)
        assert shortest_weighted_path(net, check_weights(net, [1, 1, 1]), 0, 2) == (1,)
        assert net.in_links == ([(0, 2)], [(2, 0)], [(1, 0)])
        assert net.out_by_dst == ([(1, 2), (2, 1)], [], [(0, 0)])

    def test_flow_validation(self, fig1):
        fig1.validate_flow(Flow(0, (2, 4)))
        with pytest.raises(NetworkError):
            fig1.validate_flow(Flow(0, (2, 2)))  # does not chain
        with pytest.raises(NetworkError):
            fig1.validate_flow(Flow(0, ()))


class TestThroughputUtilization:
    def test_two_flows_sum(self, fig1):
        flows = [Flow(0, (0,)), Flow(1, (0,))]
        assert link_throughputs(fig1, flows, {0: 30, 1: 30}) == {0: 60}

    def test_no_flows(self, fig1):
        assert link_throughputs(fig1, [], {}) == {}

    def test_single_flow(self, fig1):
        assert link_throughputs(fig1, [Flow(0, (0,))], {0: 30}) == {0: 30}

    def test_unknown_link(self, fig1):
        with pytest.raises(NetworkError, match="unknown link id 999"):
            fig1.link(999)

    def test_link_throughputs_match_per_link_throughput(self, fig1):
        flows = [Flow(0, (0,)), Flow(1, (2, 4)), Flow(2, (0,))]
        bw = {0: 30.0, 1: 45.0, 2: 12.5}
        thr = link_throughputs(fig1, flows, bw)
        # links 0, 2 and 4 are loaded; the others are idle and have no entry
        assert thr == {e: throughput(flows, bw, e) for e in (0, 2, 4)}
        assert link_utilizations(fig1, flows, bw) == {e: t / fig1.bws[e] for e, t in thr.items()}

    def test_zero_demand_flows_load_no_link(self, fig1):
        flows = [Flow(0, (0,)), Flow(1, (2, 4)), Flow(2, (0, 6))]
        bw = {0: 30.0, 1: 0.0, 2: 0.0}
        assert link_throughputs(fig1, flows, bw) == {0: 30.0}

    def test_snapshot_roundtrip(self, fig1):
        flows = [Flow(0, (0,)), Flow(1, (2, 4))]
        bw = {0: 30.0, 1: 45.0}
        snap = make_snapshot(fig1, flows, bw)
        assert snap.util == link_utilizations(fig1, flows, bw)
        assert (snap.flows, snap.peak, snap.excess) == (tuple(flows), 0.45, 0.0)


class TestShortestPath:
    def test_unit_weights_direct(self, fig1):
        assert shortest_weighted_path(fig1, unit_weights(fig1), 0, 1) == (0,)

    def test_loaded_direct_link_diverts(self, fig1):
        weights = list(unit_weights(fig1).values)
        weights[0] = 4
        assert shortest_weighted_path(fig1, check_weights(fig1, weights), 0, 1) == (2, 4)

    @pytest.mark.parametrize("weight", [1, 500])
    def test_unreachable(self, weight):
        net = Network(3, [Link(0, 0, 1, 100, 25)])
        assert shortest_weighted_path(net, check_weights(net, [weight]), 0, 2) is None
        empty = Network(2, [])
        assert shortest_weighted_path(empty, check_weights(empty, []), 0, 1) is None

    def test_same_node_rejected(self, fig1):
        with pytest.raises(NetworkError):
            shortest_weighted_path(fig1, unit_weights(fig1), 1, 1)

    def test_list_weights(self, fig1):
        weights = [1] * len(fig1.links)
        assert shortest_weighted_path(fig1, check_weights(fig1, weights), 0, 1) == (0,)
        weights[0] = 4
        assert shortest_weighted_path(fig1, check_weights(fig1, weights), 0, 1) == (2, 4)

    @pytest.mark.parametrize("weights", [[1] * 12, (1,) * 12, {e: 1 for e in range(12)}])
    def test_plain_sequence_rejected(self, fig1, weights):
        with pytest.raises(TypeError, match="weights must be a Weights value"):
            shortest_weighted_path(fig1, weights, 0, 1)

    def test_two_weights_are_not_taken_for_values_and_floor(self):
        two = Network(2, [Link(0, 0, 1, 100, 25), Link(1, 1, 0, 100, 25)])
        with pytest.raises(TypeError, match="got list$"):
            shortest_weighted_path(two, [1, 1], 0, 1)

    def test_deterministic_tie_break(self):
        net = full_topology(4)
        weights = list(unit_weights(net).values)
        # all two-hop 0->x->3 paths cost 2 with direct cost raised to 3;
        # lexicographically smallest node sequence goes through node 1
        for link in net.links:
            if link.src == 0 and link.dst == 3:
                weights[link.id] = 3
        path = shortest_weighted_path(net, check_weights(net, weights), 0, 3)
        first = net.link(path[0])
        assert first.dst == 1
        assert path == shortest_weighted_path(net, check_weights(net, weights), 0, 3)

    def test_matches_brute_force(self):
        rng = random.Random(42)
        for _ in range(60):
            n = rng.randint(2, 7)
            links = []
            for src in range(n):
                for dst in range(n):
                    if src != dst and rng.random() < 0.5:
                        links.append(Link(len(links), src, dst, 100, 25))
            net = Network(n, links)
            weights = [rng.randint(1, 9) for l in net.links]
            src, dst = rng.sample(range(n), 2)
            expected = brute_force_shortest(net, weights, src, dst)
            assert shortest_weighted_path(net, check_weights(net, weights), src, dst) == expected


@st.composite
def routing_cases(draw):
    """A random directed graph and its link weights. Weights are a floor
    (1-60) plus a spread of 0, 1, 3 or the floor itself: the smallest weight
    is mostly above 1, so a route that stopped one smallest weight early
    would show, and equal-cost paths are common, across hop counts too when
    the spread is the floor (2f = f + f)."""
    n = draw(st.integers(min_value=2, max_value=7))
    pairs = [(s, d) for s in range(n) for d in range(n) if s != d]
    # each pair linked or not, as a coin flip: drawn as one list, the links
    # would mostly be few, and two-hop detours rare
    linked = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    chosen = draw(st.permutations([p for p, keep in zip(pairs, linked) if keep]))
    net = Network(n, [Link(i, s, d, 100, 25) for i, (s, d) in enumerate(chosen)])
    floor = draw(st.integers(1, 60))
    spread = draw(st.sampled_from([0, 1, 3, floor]))
    weights = draw(st.lists(st.integers(floor, floor + spread), min_size=len(chosen), max_size=len(chosen)))
    return net, weights


@settings(max_examples=300, deadline=None)
@given(routing_cases())
def test_shortest_path_matches_brute_force(case):
    """Every pair of each graph, unreachable ones included: a stop one
    smallest weight early misroutes few pairs of a small graph, so a check
    of one drawn pair would seldom see it."""
    net, weights = case
    for src in range(net.n_nodes):
        for dst in range(net.n_nodes):
            if src != dst:
                expected = brute_force_shortest(net, weights, src, dst)
                assert shortest_weighted_path(net, check_weights(net, weights), src, dst) == expected, (src, dst)


@settings(max_examples=100, deadline=None)
@given(routing_cases())
def test_a_looser_floor_changes_no_path(case):
    """Every floor k in 1..min(v) routes every pair as the exact floor
    does: the stop at d + k >= dist[src] is exact for any k at or below
    every weight, and a lower k only settles more nodes. The planner and
    the simulator rely on it when they keep the floor a bound."""
    net, values = case
    exact = check_weights(net, values)
    for src in range(net.n_nodes):
        for dst in range(net.n_nodes):
            if src != dst:
                expected = shortest_weighted_path(net, exact, src, dst)
                for k in range(1, exact.lo + 1):
                    assert shortest_weighted_path(net, Weights(values, k), src, dst) == expected, (src, dst, k)


class TestCheckWeights:
    def test_short_list_rejected(self, fig1):
        with pytest.raises(NetworkError, match="missing for link 11"):
            check_weights(fig1, [1] * 11)

    def test_long_list_rejected(self, fig1):
        with pytest.raises(NetworkError, match="13 weights for 12 links"):
            check_weights(fig1, [1] * 13)

    @pytest.mark.parametrize("floor", [1, 500])
    def test_zero_weight_in_list_rejected(self, fig1, floor):
        weights = [floor] * 12
        weights[5] = 0
        with pytest.raises(NetworkError, match="link 5 must be >= 1"):
            check_weights(fig1, weights)

    def test_floor_is_the_smallest_weight(self, fig1):
        weights = [7] * 12
        weights[3] = 2
        assert check_weights(fig1, weights) == Weights(weights, 2)
        assert unit_weights(fig1) == Weights([1] * 12, 1)
        assert check_weights(Network(2, []), []) == Weights([], 0)


def _assert_matches_reference(net, weights, pairs):
    checked = check_weights(net, weights)
    for src, dst in pairs:
        expected = reference_shortest(net, weights, src, dst)
        assert shortest_weighted_path(net, checked, src, dst) == expected, (src, dst)


@pytest.mark.parametrize("n", [20, 25, 30])
@pytest.mark.parametrize("spread", [2, 100])
def test_dense_graphs_match_reference(n, spread):
    """Complete graphs with near-uniform (1-2) and random (1-100) weights,
    the regime of the planner on dense networks."""
    rng = random.Random(n * 1000 + spread)
    net = full_topology(n)
    for _ in range(3):
        weights = [rng.randint(1, spread) for _ in net.links]
        pairs = [tuple(rng.sample(range(n), 2)) for _ in range(150)]
        _assert_matches_reference(net, weights, pairs)


@pytest.mark.parametrize("floor", [1, 500])
def test_uniform_floor_with_one_heavy_link_matches_reference(floor):
    """Complete graphs where every weight is the floor but one heavy direct
    link: the planner's case on a dense network with one loaded link, where
    a route settles only a few nodes before it stops. A floor of 500 is an
    inverse-bw-like weight (1e5 / 200 Mbps). Heavy weights just above, at
    and around twice the floor make the two-hop detours cost more than,
    the same as and less than the direct link."""
    rng = random.Random(floor)
    n = 20
    net = full_topology(n)
    every_pair = [(s, d) for s in range(n) for d in range(n) if s != d]
    for heavy in (floor + 1, 2 * floor - 1, 2 * floor, 2 * floor + 1, 3 * floor):
        for link in [net.links[n - 2], *rng.sample(net.links, 12)]:  # 0 -> n-1 first
            weights = [floor] * len(net.links)
            weights[link.id] = heavy
            pairs = every_pair if link.id == n - 2 else [(link.src, link.dst)]
            _assert_matches_reference(net, weights, pairs)


@pytest.mark.parametrize("seed", range(4))
def test_loaded_networks_match_reference(tmp_path, seed):
    """Networks read from files whose link ids follow no order of
    destination (nor of source), with weights indexed by those ids."""
    rng = random.Random(seed)
    n = 12
    pairs = [(s, d) for s in range(n) for d in range(n) if s != d and rng.random() < 0.4]
    rng.shuffle(pairs)
    path = tmp_path / "net.txt"
    path.write_text(
        f"nodes {n}\n" + "".join(f"link {i} {s} {d} 100.0 25.0\n" for i, (s, d) in enumerate(pairs))
    )
    net = load_network(str(path))
    assert [link.dst for link in net.links] != sorted(link.dst for link in net.links)
    for spread in (1, 3, 50):
        weights = [rng.randint(1, spread) for link in net.links]
        _assert_matches_reference(net, weights, [(s, d) for s in range(n) for d in range(n) if s != d])


class TestTopologies:
    @pytest.mark.parametrize("n,count", [(5, 20), (50, 2450), (2, 2)])
    def test_full_link_count(self, n, count):
        assert len(full_topology(n).links) == count

    def test_full_rejects_small(self):
        with pytest.raises(ConfigError):
            full_topology(1)

    @pytest.mark.parametrize("k,nodes", [(3, 5), (4, 8), (5, 12), (6, 17)])
    def test_mnp_node_counts(self, k, nodes):
        assert mnp_topology(k).n_nodes == nodes

    def test_mnp_rejects_small(self):
        with pytest.raises(ConfigError):
            mnp_topology(1)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_mnp_has_k_disjoint_paths(self, k):
        net = mnp_topology(k)
        paths = []

        def dfs(node, visited, links):
            if node == 1:
                paths.append(tuple(links))
                return
            for v, e in net.out_by_dst[node]:
                if v not in visited:
                    dfs(v, visited | {v}, links + [e])

        dfs(0, {0}, [])
        assert len(paths) == k
        assert sorted(len(p) for p in paths) == list(range(1, k + 1))
        inner_nodes = [
            {net.link(e).src for e in p} - {0} for p in paths
        ]
        for i, a in enumerate(inner_nodes):
            for b in inner_nodes[i + 1 :]:
                assert not (a & b)

    def test_mnp_bidirectional(self):
        net = mnp_topology(3)
        pairs = {(l.src, l.dst) for l in net.links}
        assert all((d, s) in pairs for s, d in pairs)
        assert len(net.links) == 12


class TestSerialization:
    def test_round_trip(self, tmp_path):
        net = mnp_topology(4, bw=80.0, dl=12.5)
        path = str(tmp_path / "net.txt")
        save_network(net, path)
        loaded = load_network(path)
        assert loaded.n_nodes == net.n_nodes
        assert loaded.links == net.links

    def test_bad_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("nodes 2\nbogus stuff\n")
        with pytest.raises(NetworkError, match="2"):
            load_network(str(path))

    @pytest.mark.parametrize("line", ["nodes two", "link 1 0 1 100.0 nan", "link 1 0 1 100.0 x", "nodes 3"])
    def test_bad_value_names_the_line(self, tmp_path, line):
        path = tmp_path / "bad.txt"
        path.write_text(f"nodes 2\nlink 0 1 0 100.0 25.0\n{line}\n")
        with pytest.raises(NetworkError, match="bad.txt:3: "):
            load_network(str(path))

    def test_trailing_comments_load(self, tmp_path):
        # a comment runs from '#' to the end of the line, as in scenario files
        path = tmp_path / "net.txt"
        path.write_text("# two nodes\nnodes 2  # header\nlink 0 0 1 100.0 25.0 # forward\nlink 1 1 0 100.0 25.0\n")
        loaded = load_network(str(path))
        assert (loaded.n_nodes, loaded.links) == (2, full_topology(2).links)

    def test_lines_are_utf8_and_a_bad_byte_is_refused_on_its_line(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes(b"# caf\xc3\xa9\r\nnodes 2 # \xe2\x82\xac\r\nlink 0 0 1 100.0 25.0 # \xc3\n")
        lines = read_lines(str(path))
        assert next(lines) == (2, "nodes 2")
        with pytest.raises(InputError, match=f"^{re.escape(str(path))}:3: byte 0xc3 is not UTF-8$"):
            next(lines)

    def test_nodes_past_the_bound_is_refused_on_its_line(self, tmp_path):
        path = tmp_path / "big.txt"
        path.write_text("nodes 100001\nlink 0 0 1 100.0 25.0\n")
        with pytest.raises(NetworkError, match=f"^{re.escape(str(path))}:1: nodes must be at most 100000, got 100001$"):
            load_network(str(path))
        path.write_text("nodes 100000\nlink 0 0 1 100.0 25.0\n")
        assert MAX_NODES == load_network(str(path)).n_nodes == 100000

    def test_missing_header(self, tmp_path):
        path = tmp_path / "nohdr.txt"
        path.write_text("link 0 0 1 100.0 25.0\n")
        with pytest.raises(NetworkError, match="nodes"):
            load_network(str(path))
