"""Directed network graphs, flows, link utilization and weighted routing.

Everything here is an immutable value: networks, links, requests, flows and
snapshots never change after construction, and all operations are pure
functions; none opens a file (``scenario`` reads and writes network files).
Link weights are positive integers supplied by the caller, as a
``Weights`` value that carries its floor.
"""

import heapq
import math
from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple


class NetworkError(ValueError):
    """Structurally invalid network, flow or routing input. ``link`` is the
    index of the link at fault when ``Network`` refuses one of its links."""

    def __init__(self, message: str, link: int | None = None):
        super().__init__(message)
        self.link = link


class ConfigError(ValueError):
    """Invalid topology-generator or scenario configuration."""


class _LinkFields(NamedTuple):
    id: int
    src: int
    dst: int
    bw: float
    dl: float


class Link(_LinkFields):
    """A directed link with static bandwidth (Mbps) and delay (ms).

    Every way to build one checks it: the constructor, ``_make`` and
    ``_replace``, which calls ``_make``.
    """

    __slots__ = ()

    def __new__(cls, id: int, src: int, dst: int, bw: float, dl: float) -> "Link":
        if src == dst:
            raise NetworkError(f"link {id}: self-loop on node {src}")
        # written so that NaN fails too
        if not MIN_MBPS <= bw < math.inf:
            raise NetworkError(f"link {id}: bandwidth must be finite and > 0, at least {MIN_MBPS:g} Mbps, got {bw}")
        if not 0 < dl <= MAX_MS:
            raise NetworkError(f"link {id}: delay must be finite and > 0, at most {MAX_MS:g} ms, got {dl}")
        return tuple.__new__(cls, (id, src, dst, bw, dl))

    @classmethod
    def _make(cls, iterable) -> "Link":
        return cls(*iterable)


class _RequestFields(NamedTuple):
    id: int
    s: int
    d: int
    arrival: float
    profile: tuple[tuple[float, float], ...]


class Request(_RequestFields):
    """A data-transmission demand from node s to node d.

    The bandwidth profile is piecewise constant: ``profile`` holds
    (start_time, mbps) segments with finite starts, sorted by start time.
    Bundled scenarios use a single constant segment. Checked as ``Link``
    is, however built.
    """

    __slots__ = ()

    def __new__(
        cls, id: int, s: int, d: int, arrival: float, profile: tuple[tuple[float, float], ...]
    ) -> "Request":
        if s == d:
            raise NetworkError(f"request {id}: source equals destination ({s})")
        # written so that NaN fails too
        if not 0 <= arrival < math.inf:
            raise NetworkError(f"request {id}: arrival must be finite and >= 0, got {arrival}")
        if not profile:
            raise NetworkError(f"request {id}: empty bandwidth profile")
        if not all(0 <= bd <= MAX_MBPS for _, bd in profile):
            raise NetworkError(f"request {id}: bandwidth must be finite and >= 0, at most {MAX_MBPS:g} Mbps")
        starts = [start for start, _ in profile]
        if not all(math.isfinite(start) for start in starts):
            raise NetworkError(f"request {id}: profile start times must be finite")
        if not all(a < b for a, b in zip(starts, starts[1:])):
            raise NetworkError(f"request {id}: profile start times must be strictly increasing")
        return tuple.__new__(cls, (id, s, d, arrival, profile))

    @classmethod
    def _make(cls, iterable) -> "Request":
        return cls(*iterable)

    @classmethod
    def constant(cls, id: int, s: int, d: int, arrival: float, bd: float) -> "Request":
        return cls(id, s, d, arrival, ((0.0, float(bd)),))

    def bd(self, t: float) -> float:
        """Bandwidth demand at time t: the value of the last segment that
        started at or before t, and 0.0 before the first segment starts."""
        value = 0.0
        for start, bd in self.profile:
            if start <= t:
                value = bd
            else:
                break
        return value


@dataclass(frozen=True)
class Flow:
    """The directed link-path currently serving one request.

    The one record that stays a dataclass: callers build a changed copy of
    a flow with ``dataclasses.replace``.
    """

    request: int
    path: tuple[int, ...]


class Network:
    """A directed graph over dense integer node ids with dense link ids."""

    def __init__(self, n_nodes: int, links: Sequence[Link]):
        if n_nodes < 1:
            raise NetworkError("network needs at least one node")
        self.n_nodes = n_nodes
        self.links: tuple[Link, ...] = tuple(links)
        seen_pairs = set()
        for i, link in enumerate(self.links):
            if link.id != i:
                raise NetworkError(f"link ids must be dense 0..L-1, got {link.id} at index {i}", i)
            if not (0 <= link.src < n_nodes and 0 <= link.dst < n_nodes):
                raise NetworkError(f"link {link.id}: endpoint outside 0..{n_nodes - 1}", i)
            if (link.src, link.dst) in seen_pairs:
                raise NetworkError(f"duplicate link for node pair {link.src}->{link.dst}", i)
            seen_pairs.add((link.src, link.dst))
        self.bws: tuple[float, ...] = tuple(link.bw for link in self.links)
        self.dls: tuple[float, ...] = tuple(link.dl for link in self.links)

    @cached_property
    def in_links(self) -> tuple[list[tuple[int, int]], ...]:
        """Per node, the (link id, source node) of every link into it;
        built on first use, since only routing needs it."""
        into: tuple[list[tuple[int, int]], ...] = tuple([] for _ in range(self.n_nodes))
        for link in self.links:
            into[link.dst].append((link.id, link.src))
        return into

    @cached_property
    def link_classes(
        self,
    ) -> tuple[dict[tuple[float, float, float], int], tuple[int, ...], int]:
        """The static (bw, dl) classes of the links, numbered in order of
        first link: per class, the formula input ``(bw, dl, 0.0)`` of an
        idle link mapped to the class number; per link id, its class; and
        the number of links in the smallest class. Built on first use.
        """
        idle: dict[tuple[float, float, float], int] = {}
        of = tuple(idle.setdefault((bw, dl, 0.0), len(idle)) for bw, dl in zip(self.bws, self.dls))
        return idle, of, min(Counter(of).values(), default=0)

    @cached_property
    def out_by_dst(self) -> tuple[list[tuple[int, int]], ...]:
        """Per node, the (destination node, link id) of every link out of
        it, sorted by destination; built on first use."""
        out: tuple[list[tuple[int, int]], ...] = tuple([] for _ in range(self.n_nodes))
        for link in self.links:
            out[link.src].append((link.dst, link.id))
        for pairs in out:
            pairs.sort()
        return out

    def link(self, link_id: int) -> Link:
        if not (0 <= link_id < len(self.links)):
            raise NetworkError(f"unknown link id {link_id}")
        return self.links[link_id]

    def validate_flow(self, flow: Flow) -> None:
        """Check that a flow path is a directed simple path in this network."""
        if not flow.path:
            raise NetworkError(f"flow for request {flow.request}: empty path")
        links = [self.link(e) for e in flow.path]
        visited = {links[0].src}
        for prev, cur in zip(links, links[1:]):
            if prev.dst != cur.src:
                raise NetworkError(
                    f"flow for request {flow.request}: links {prev.id} and {cur.id} do not chain"
                )
        for link in links:
            if link.dst in visited:
                raise NetworkError(f"flow for request {flow.request}: node {link.dst} revisited")
            visited.add(link.dst)

    def path_endpoints(self, path: Sequence[int]) -> tuple[int, int]:
        return self.link(path[0]).src, self.link(path[-1]).dst


class Snapshot(NamedTuple):
    """Monitored state of a set of flows under given demands."""

    flows: tuple[Flow, ...]
    util: dict[int, float]  # per loaded link id; a link that is absent is idle (0.0)
    peak: float  # the largest utilization, 0.0 when no link is loaded
    excess: float  # throughput above capacity (Mbps), summed over the links


def link_throughputs(
    network: Network, flows: Sequence[Flow], bandwidths: Mapping[int, float]
) -> dict[int, float]:
    """Throughput (Mbps) per loaded link: the bandwidths of the flows over
    each link, summed in flow order.

    Only links that a flow with positive demand crosses have an entry;
    every other link carries 0.0. Demands are non-negative (``Request``
    checks it), so skipping the zero ones leaves every sum as it was, and
    a sum that starts at 0.0 equals its first term.
    """
    thr: dict[int, float] = {}
    for f in flows:
        bd = bandwidths[f.request]
        if bd:
            for e in f.path:
                if e in thr:
                    thr[e] += bd
                else:
                    thr[e] = bd
    return thr


def link_utilizations(
    network: Network, flows: Sequence[Flow], bandwidths: Mapping[int, float]
) -> dict[int, float]:
    """Utilization fraction throughput/bw per loaded link, computed from the
    given flows; a fraction may exceed 1.0 under over-capacity demand. A
    link without an entry is idle. Every link's bandwidth is positive:
    ``Link`` checks it."""
    bws = network.bws
    util = link_throughputs(network, flows, bandwidths)
    for e, x in util.items():  # in place: the keys stay as they are
        util[e] = x / bws[e]
    return util


def make_snapshot(
    network: Network, flows: Sequence[Flow], bandwidths: Mapping[int, float]
) -> Snapshot:
    """One walk over the flows: the excess is summed over the overloaded links
    in link-id order, then the throughputs become utilizations in place."""
    bws = network.bws
    util = link_throughputs(network, flows, bandwidths)
    over = sorted([e for e, x in util.items() if x > bws[e]])
    excess = sum([util[e] - bws[e] for e in over], 0.0)
    for e, x in util.items():
        util[e] = x / bws[e]
    return Snapshot(tuple(flows), util, max(util.values(), default=0.0), excess)


class Weights(NamedTuple):
    """Link weights, indexed by link id, with a floor: ``lo`` is at most
    every weight, and at least 1 (0 on a network without links).

    ``check_weights`` builds a checked value from a plain sequence. A caller
    that already knows its weights are integers >= 1 (the planner's come
    from ``expr.to_weight``) may build one directly and keep ``lo`` a bound
    as it changes weights. A looser floor only settles more nodes.
    """

    values: Sequence[int]
    lo: int


def check_weights(network: Network, values: Sequence[int]) -> Weights:
    """The one weight check: every link needs a weight of at least 1, and
    the values, indexed by link id, must cover exactly the links. Returns
    them with their smallest weight as the floor."""
    n_links = len(network.links)
    if len(values) < n_links:
        raise NetworkError(f"weight missing for link {len(values)}")
    if len(values) > n_links:
        raise NetworkError(f"{len(values)} weights for {n_links} links")
    if not values:
        return Weights(values, 0)
    lo = min(values)
    if lo < 1:
        raise NetworkError(f"weight for link {values.index(lo)} must be >= 1")
    return Weights(values, lo)


def shortest_weighted_path(
    network: Network, weights: Weights, src: int, dst: int
) -> tuple[int, ...] | None:
    """Minimum-total-weight directed path from src to dst as a tuple of link ids.

    ``weights`` is a ``Weights`` value; routing reads its floor and scans no
    weight to check it. A plain sequence is refused (``TypeError``).
    Among equal-cost paths, returns the one with the lexicographically
    smallest node-id sequence, which makes routing deterministic. Returns
    None when dst is unreachable.
    """
    if src == dst:
        raise NetworkError("src and dst must differ")
    if not (0 <= src < network.n_nodes and 0 <= dst < network.n_nodes):
        raise NetworkError(f"node out of range: src={src} dst={dst}")
    if type(weights) is not Weights:
        raise TypeError(f"weights must be a Weights value (see check_weights), got {type(weights).__name__}")
    values, lo = weights

    # Settle distances to dst over in-links until the first pop d with
    # d + lo >= dist[src]. The stop is exact for any floor lo at or below
    # every weight: a node nearer to dst than dist[src] has its next hop
    # nearer than dist[src] - lo <= d, which is settled, so that node's
    # distance is final, and so is src's. Then walk from src, at each node
    # taking the smallest-id neighbour that stays on a shortest path: the
    # walk yields the lexicographically smallest node sequence, and since
    # weights are >= 1 the distance falls at each step.
    inf = math.inf
    dist = [inf] * network.n_nodes
    dist[dst] = 0
    heap = [(0, dst)]
    into = network.in_links
    while heap:
        d, v = heapq.heappop(heap)
        if d + lo >= dist[src]:
            break
        if d > dist[v]:
            continue
        for e, u in into[v]:
            du = d + values[e]
            if du < dist[u]:
                dist[u] = du
                heapq.heappush(heap, (du, u))
    if dist[src] == inf:
        return None
    path = []
    u = src
    out = network.out_by_dst
    while u != dst:
        du = dist[u]
        for v, e in out[u]:
            if dist[v] + values[e] == du:
                path.append(e)
                u = v
                break
    return tuple(path)


# the most links a generated topology may have, checked before any is built
MAX_LINKS = 100_000
# the most nodes a network file may declare, checked on its nodes line
MAX_NODES = 100_000
# the most a request may demand, checked by Request: a run's demand sums
# stay finite under scenario.MAX_REQUESTS * scenario.MAX_TICKS * MAX_MBPS,
# and a demand of 2**53 (where adding 1 is lost to rounding) is still allowed
MAX_MBPS = 1e16
# the least bandwidth and the most delay a link may have, checked by Link.
# With at most 1e5 requests (scenario.MAX_REQUESTS) of at most 1e16 Mbps, a
# link carries at most 1e21 Mbps, so a utilization is at most 1e21 / 1e-3 =
# 1e24, and so is a formula's util leaf. A flow's path is simple, so it has
# fewer than 1e5 links (MAX_NODES), and the delay sums of a plan's flows are
# at most 1e5 * 1e5 * 1e9 = 1e19 ms. A tick's excess is at most the sum of
# every flow's demand over every link of its path, 1e21 * 1e5 = 1e26 Mbps,
# and over 1e5 ticks (scenario.MAX_TICKS) the loss sums stay within 1e31.
# All of them are far below the float limit, about 1.8e308.
MIN_MBPS = 1e-3
MAX_MS = 1e9


def _check_links(kind: str, size: int, n_links: int) -> None:
    if n_links > MAX_LINKS:
        raise ConfigError(f"{kind} {size} would have {n_links} links, more than {MAX_LINKS}")


def full_topology(n: int, bw: float = 100.0, dl: float = 25.0) -> Network:
    """Directed complete graph on n nodes: one link per ordered pair, n(n-1) links."""
    if n < 2:
        raise ConfigError(f"full topology needs at least 2 nodes, got {n}")
    _check_links("full", n, n * (n - 1))
    links = []
    for src in range(n):
        for dst in range(n):
            if src != dst:
                links.append(Link(len(links), src, dst, bw, dl))
    return Network(n, links)


def mnp_topology(k: int, bw: float = 100.0, dl: float = 25.0) -> Network:
    """Source node 0 and destination node 1 joined by k node-disjoint paths.

    Path i (i = 1..k) has i links; every undirected edge is emitted as two
    directed links. k=3 reproduces the five-node, six-edge example network.
    """
    if k < 2:
        raise ConfigError(f"mnp topology needs at least 2 paths, got {k}")
    _check_links("mnp", k, k * (k + 1))  # paths of 1..k edges, two links each
    links: list[Link] = []
    next_node = 2

    def add_edge(u: int, v: int) -> None:
        links.append(Link(len(links), u, v, bw, dl))
        links.append(Link(len(links), v, u, bw, dl))

    for length in range(1, k + 1):
        prev = 0
        for _ in range(length - 1):
            add_edge(prev, next_node)
            prev = next_node
            next_node += 1
        add_edge(prev, 1)
    return Network(next_node, links)


# generated topology kind -> its generator, called as generate(size, bw, dl)
TOPOLOGIES = {"full": full_topology, "mnp": mnp_topology}


def unit_weights(network: Network) -> Weights:
    return check_weights(network, [1] * len(network.links))
