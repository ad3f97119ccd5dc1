"""The benchmark's workloads, generated from a workload seed.

Every workload is a list of operations, one operation being one
``run_scenario`` call for one (scenario, router, run seed) triple. The
program receives only the scenario, topology and knowledge-base text that
these generators write; nothing here imports evoroute.

Runs with different workload seeds must agree within each metric's bound,
so a workload's cost must not hinge on its seed. Cold GP searches have
heavy-tailed lengths and random formulas heavy-tailed sizes, and these are
most of the seed-to-seed variation; hence the fixed run seeds of
``paper-batch`` and the warm knowledge base and depth bound of the two
per-link workloads.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from random import Random

STATIC_ROUTERS = ("unit-ospf", "inverse-bw-ospf")
PAPER_ROUTERS = STATIC_ROUTERS + ("genadapt",)
BUNDLED = ("fig1", "full5_3", "full7_3", "mnp3_2", "mnp4_2", "mnp5_2")

# Util-aware formulas in the knowledge-base file format, `<fitness> <formula>`.
# The first is the paper's example formula. Starting from them, the planner
# resolves ordinary congestion from its initial population.
WARM_KB = "".join(
    f"0.0 {formula}\n"
    for formula in (
        "(((1.5 * threshold) * (1.5 * threshold)) / "
        "(((1.5 * threshold) - util) * ((1.5 * threshold) - util)))",
        "(1.0 + (util * 10.0))",
        "((util * util) * 100.0)",
        "(dl / (1.0 - util))",
        "((bw * util) + dl)",
    )
)


@dataclass(frozen=True)
class Op:
    scenario: str  # file name inside the workload's input directory
    router: str
    seed: int


@dataclass
class Workload:
    name: str
    files: dict[str, str]  # file name -> text
    scenarios: list[str]  # the files that are scenarios, in load order
    ops: list[Op]
    canary: list[int]  # op indices checked against recorded digests on every run

    def write(self, directory: str) -> None:
        for fname, text in self.files.items():
            with open(os.path.join(directory, fname), "w") as fh:
                fh.write(text)


def _run_seeds(rng: Random, count: int) -> list[int]:
    return rng.sample(range(1_000_000), count)


def paper_batch(seed: int, repo_root: str) -> Workload:
    """The paper's evaluation: every bundled scenario under the two static
    routers and genadapt, over run seeds 0-14. The workload seed only
    shuffles the order of the operations: with run seeds drawn from it, the
    batch's fitness evaluations varied by 10-17% from seed to seed."""
    files = {}
    for stem in BUNDLED:
        with open(os.path.join(repo_root, "scenarios", f"{stem}.scenario")) as fh:
            files[f"{stem}.scenario"] = fh.read()
    ops = [
        Op(f"{stem}.scenario", router, s)
        for stem in BUNDLED
        for router in PAPER_ROUTERS
        for s in range(15)
    ]
    Random(f"paper-batch:{seed}").shuffle(ops)
    # one genadapt operation per scenario: the planner's whole range of search lengths
    canary = [i for i, op in enumerate(ops) if op.router == "genadapt" and op.seed == 0]
    return Workload("paper-batch", files, list(files), ops, canary)


def dense_scale(seed: int) -> Workload:
    """100 run seeds of one scenario on a uniform complete graph of 20 nodes
    (380 links) under genadapt-reuse. Each of two events, three ticks apart,
    puts two 30 Mbps flows on a node pair and a third one tick later: 90 of
    100 Mbps congests the direct link and the planner re-routes. The planner
    starts warm, so every search stops at its initial population and
    per-link work sets the cost."""
    rng = Random(f"dense-scale:{seed}")
    lines = [
        f"# dense-scale, workload seed {seed}",
        "network full 20",
        "threshold 0.8",
        "router genadapt-reuse",
        "kb warm.kb",
        "max_depth 6",
        "max_generations 40",
    ]
    for t in (1, 4):
        s, d = rng.sample(range(20), 2)
        lines += [f"request {s} {d} {t} 0:30,{t + 6}:0"] * 2
        lines.append(f"request {s} {d} {t + 1} 0:30,{t + 6}:0")
    lines.append("duration 13")
    files = {"dense.scenario": "\n".join(lines) + "\n", "warm.kb": WARM_KB}
    ops = [Op("dense.scenario", "genadapt-reuse", s) for s in _run_seeds(rng, 100)]
    return Workload("dense-scale", files, ["dense.scenario"], ops, [0, 50, 99])


def _regular_topology(rng: Random, n_nodes: int) -> str:
    """A ring plus chords from two random perfect matchings, so every node
    has four neighbours and the graph has n_nodes * 4 directed links. Every
    directed link draws its own bandwidth (100-200 Mbps) and delay (5-50 ms),
    so no two links share a (bw, dl) class."""
    edges = {frozenset((i, (i + 1) % n_nodes)) for i in range(n_nodes)}
    pairs = [(i, (i + 1) % n_nodes) for i in range(n_nodes)]
    for _ in range(2):
        while True:
            order = list(range(n_nodes))
            rng.shuffle(order)
            matching = [(order[i], order[i + 1]) for i in range(0, n_nodes, 2)]
            if not any(frozenset(p) in edges for p in matching):
                break
        edges.update(frozenset(p) for p in matching)
        pairs.extend(matching)
    lines = [f"nodes {n_nodes}"]
    for u, v in pairs:
        for src, dst in ((u, v), (v, u)):
            bw = rng.uniform(100.0, 200.0)
            dl = rng.uniform(5.0, 50.0)
            lines.append(f"link {len(lines) - 1} {src} {dst} {bw:.3f} {dl:.3f}")
    return "\n".join(lines) + "\n"


def _churn(rng: Random, n_nodes: int, n_requests: int, horizon: int, life: tuple[int, int]) -> list[str]:
    """Requests of 15-35 Mbps between random pairs, arriving evenly spaced
    over the horizon, each living a random number of seconds in ``life``."""
    lines = []
    for i in range(n_requests):
        s, d = rng.sample(range(n_nodes), 2)
        arrival = i * horizon // n_requests
        lines.append(f"request {s} {d} {arrival} 0:{rng.randint(15, 35)},{arrival + rng.randint(*life)}:0")
    return lines


def hetero_churn(seed: int) -> Workload:
    """32 scenarios under genadapt-reuse, each on its own 40-node, 160-link
    graph from ``_regular_topology``. Three 55 Mbps flows on one pair at
    tick 1 congest the baseline route, so every scenario plans early and
    routes its later arrivals under a formula; then 60 churn requests arrive
    over 20 ticks. Every eighth scenario also holds a hot request of 175 Mbps
    for one tick: no link carries it below the threshold, so that plan runs
    to the generation cap of 10, the planner's worst case."""
    rng = Random(f"hetero-churn:{seed}")
    files = {"warm.kb": WARM_KB}
    scenarios = []
    for k in range(32):
        tag = f"hetero{k}"
        files[f"{tag}.topo"] = _regular_topology(rng, 40)
        s, d = rng.sample(range(40), 2)
        lines = [
            f"# {tag}, workload seed {seed}",
            f"network file {tag}.topo",
            "threshold 0.8",
            "router genadapt-reuse",
            "kb warm.kb",
            "max_depth 6",
            "max_generations 10",
        ]
        lines += [f"request {s} {d} 1 0:55,9:0"] * 3
        lines += _churn(rng, 40, 60, 20, (5, 20))
        if k % 8 == 0:
            s, d = rng.sample(range(40), 2)
            lines.append(f"request {s} {d} 10 0:175,11:0")
        lines.append("duration 25")
        files[f"{tag}.scenario"] = "\n".join(lines) + "\n"
        scenarios.append(f"{tag}.scenario")
    ops = [Op(f, "genadapt-reuse", s) for f, s in zip(scenarios, _run_seeds(rng, len(scenarios)))]
    return Workload("hetero-churn", files, scenarios, ops, [0, 1])


def static_churn(seed: int) -> Workload:
    """3000 churn requests over 600 ticks, living 2-16 s, on a 70-node,
    280-link graph from ``_regular_topology``, under the two static routers:
    no planner or formula work runs."""
    rng = Random(f"static-churn:{seed}")
    files = {"static.topo": _regular_topology(rng, 70)}
    lines = [f"# static-churn, workload seed {seed}", "network file static.topo", "threshold 0.8"]
    lines += _churn(rng, 70, 3000, 600, (2, 16))
    lines.append("duration 605")
    files["static.scenario"] = "\n".join(lines) + "\n"
    run_seed = _run_seeds(rng, 1)[0]
    ops = [Op("static.scenario", router, run_seed) for router in STATIC_ROUTERS]
    return Workload("static-churn", files, ["static.scenario"], ops, [0])


def build(name: str, seed: int, repo_root: str) -> Workload:
    if name == "paper-batch":
        return paper_batch(seed, repo_root)
    if name == "dense-scale":
        return dense_scale(seed)
    if name == "hetero-churn":
        return hetero_churn(seed)
    if name == "static-churn":
        return static_churn(seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("paper-batch", "dense-scale", "hetero-churn", "static-churn")
