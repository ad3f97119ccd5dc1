"""The per-operation correctness gate and the output digests it compares."""

from __future__ import annotations

import hashlib
import os


def check_result(scenario, result) -> list[str]:
    """Invariants every run must satisfy, whatever the router or seed.

    Every admitted request has a final flow that is a valid simple path in
    the network (``Network.validate_flow``) from the request's source to its
    destination, and the outcome metrics stay in bounds.
    """
    problems: list[str] = []
    network = scenario.network
    duration = scenario.resolved_duration()
    admitted = {r.id: r for r in scenario.requests if r.arrival <= duration - 1}
    if set(result.flows) != set(admitted):
        problems.append(
            f"flows cover {len(result.flows)} requests, {len(admitted)} were admitted"
        )
    for rid, flow in result.flows.items():
        request = admitted.get(rid)
        if request is None:
            continue
        try:
            network.validate_flow(flow)
        except ValueError as exc:
            problems.append(f"request {rid}: {exc}")
            continue
        ends = (network.links[flow.path[0]].src, network.links[flow.path[-1]].dst)
        if ends != (request.s, request.d):
            problems.append(f"request {rid}: flow runs {ends}, request is {(request.s, request.d)}")
    m = result.metrics
    if not m.congestion_occurrences <= m.congestion_duration <= duration:
        problems.append(
            f"congestion events {m.congestion_occurrences}, congested {m.congestion_duration}s, "
            f"duration {duration}s out of order"
        )
    if not m.packet_loss_proxy >= 0:
        problems.append(f"loss proxy {m.packet_loss_proxy} is negative")
    return problems


def output_digest(sim, result, scratch_dir: str) -> str:
    """sha256 of the bytes ``write_trace_csv`` and ``write_metrics_csv`` emit.

    ``invocations.csv`` is left out: it holds wall-clock times.
    """
    trace_path = os.path.join(scratch_dir, "trace.csv")
    metrics_path = os.path.join(scratch_dir, "metrics.csv")
    sim.write_trace_csv(result.trace, trace_path)
    sim.write_metrics_csv(result.metrics, metrics_path)
    digest = hashlib.sha256()
    for path in (trace_path, metrics_path):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()

