"""The periodic adaptation loop: congestion detection, planner invocation,
and the knowledge base of retained formulas reused across rounds and
exportable to other networks."""

import time
from collections.abc import Mapping, Sequence
from random import Random
from typing import NamedTuple

from .expr import DEFAULT_MAX_DEPTH, format_expr, parse_expr
from .netmodel import Network, Snapshot, read_lines
from .planner import GpConfig, Individual, PlanResult, gen_plan


class KbImportError(ValueError):
    pass


class InvocationRecord(NamedTuple):
    tick: int
    max_util: float
    generations: int
    best_fitness: float
    wallclock_ms: float
    formula: str


class AdaptationState:
    """One record per plan so far, the last naming the installed formula, and the knowledge base."""

    __slots__ = ("log", "retained")

    def __init__(self, retained: Sequence[Individual] = ()):
        self.log: list[InvocationRecord] = []
        # the knowledge base: the best formulas of the last planning round,
        # ascending by fitness, that seed the next round
        self.retained: list[Individual] = list(retained)


def detect(snapshot: Snapshot, threshold: float) -> bool:
    """Congested iff some link utilization strictly exceeds the threshold."""
    return snapshot.peak > threshold


def adapt_step(
    network: Network,
    snapshot: Snapshot,
    tick: int,
    bandwidths: Mapping[int, float],
    state: AdaptationState,
    config: GpConfig,
    rng: Random,
) -> PlanResult:
    """One congested tick of the loop: plan a new formula and log it.

    The caller has found the snapshot congested (``detect``) on ``tick``,
    which may be later than the tick that built it. Returns the plan, whose
    ``new_flows`` the caller applies atomically and whose ``best.expr`` it
    installs. The retained formulas are replaced with the top half of the
    planner's final population.
    """
    start = time.perf_counter()
    result = gen_plan(
        network, list(snapshot.flows), bandwidths, state.retained, config, rng
    )
    wall_ms = (time.perf_counter() - start) * 1000.0
    state.log.append(
        InvocationRecord(
            tick=tick,
            max_util=snapshot.peak,
            generations=result.generations,
            best_fitness=result.best.fitness,
            wallclock_ms=wall_ms,
            formula=format_expr(result.best.expr),
        )
    )
    state.retained = result.retained
    return result


def export_kb(retained: Sequence[Individual], path: str) -> None:
    """Write one `<fitness> <formula>` line per retained individual."""
    if not retained:
        raise KbImportError("refusing to export an empty knowledge base")
    with open(path, "w") as fh:
        for ind in retained:
            fitness = ind.fitness if ind.fitness is not None else 0.0
            fh.write(f"{fitness:.6f} {format_expr(ind.expr)}\n")


def import_kb(path: str, max_depth: int = DEFAULT_MAX_DEPTH) -> list[Individual]:
    """Read a formula file; every formula is re-validated by ``parse_expr``
    against the grammar and ``max_depth``, and fitness is treated as
    unevaluated. A bad line is refused naming its number."""
    retained: list[Individual] = []
    for lineno, line in read_lines(path):
        parts = line.split(maxsplit=1)
        if len(parts) != 2:
            raise KbImportError(f"line {lineno}: expected '<fitness> <formula>'")
        try:
            float(parts[0])
        except ValueError:
            raise KbImportError(f"line {lineno}: bad fitness value {parts[0]!r}") from None
        try:
            expr = parse_expr(parts[1], max_depth)
        except ValueError as exc:
            raise KbImportError(f"line {lineno}: {exc}") from None
        retained.append(Individual(expr, None))
    return retained
