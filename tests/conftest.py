import os
import random

import pytest

from evoroute.expr import OPS, BinOp, grow_random, parse_expr

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")

# the example weight formula: (1.5*threshold)^2 / (1.5*threshold - util)^2
EXAMPLE_FORMULA = (
    "(((1.5 * threshold) * (1.5 * threshold)) / "
    "(((1.5 * threshold) - util) * ((1.5 * threshold) - util)))"
)


def scenario_path(name: str) -> str:
    return os.path.join(SCENARIO_DIR, f"{name}.scenario")


def tree_of_height(height: int, seed: int):
    """A random tree exactly ``height`` high: a spine of operator nodes, each
    beside a grown subtree no taller than the spine below it, on either side."""
    rng = random.Random(seed)
    expr = grow_random(1, rng)
    for level in range(1, height):
        side = grow_random(level, rng)
        pair = (expr, side) if rng.random() < 0.5 else (side, expr)
        expr = BinOp(OPS[rng.randrange(len(OPS))], *pair)
    return expr


def dense_throughputs(network, flows, bandwidths):
    """The per-link throughput list the simulator and the planner once kept:
    every link in a list indexed by link id, the flows' demands added in
    flow order, zero demands included. The reference the sparse per-link
    maps are checked against."""
    thr = [0.0] * len(network.links)
    for f in flows:
        bd = bandwidths[f.request]
        for e in f.path:
            thr[e] += bd
    return thr


def throughput(flows, bandwidths, link_id):
    """Total bandwidth (Mbps) of the flows whose path traverses the given
    link: the one-link reference ``link_throughputs`` is checked against."""
    return sum(bandwidths[f.request] for f in flows if link_id in f.path)


@pytest.fixture
def example_expr():
    return parse_expr(EXAMPLE_FORMULA)
