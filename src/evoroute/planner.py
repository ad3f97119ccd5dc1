"""Congestion planner: bad-flow selection, surrogate re-routing, the
three-part fitness, and the generational search over weight formulas."""

from collections.abc import Callable, Iterable, Mapping, Sequence
from itertools import starmap
from operator import attrgetter
from random import Random
from typing import NamedTuple

from .expr import (
    DEFAULT_MAX_DEPTH,
    EvalContext,
    Expr,
    below,
    crossover,
    eval_expr,
    grow_random,
    mutate,
    to_weight,
)
from .netmodel import (
    Flow,
    Network,
    NetworkError,
    Weights,
    link_utilizations,
    shortest_weighted_path,
)


class GpConfig(NamedTuple):
    """Search parameters; the defaults are the evaluated configuration."""

    population_size: int = 10
    max_generations: int = 200
    crossover_rate: float = 0.7
    mutation_rate: float = 0.1
    tournament_size: int = 7
    max_depth: int = DEFAULT_MAX_DEPTH
    threshold: float = 0.8
    early_stop_fitness: float = 2.0


class Individual(NamedTuple):
    """A weight formula with its fitness on the snapshot it was assessed on
    (None when unassessed). Immutable, so it is shared, never copied."""

    expr: Expr
    fitness: float | None = None


_FITNESS = attrgetter("fitness")


class PlanResult(NamedTuple):
    best: Individual
    new_flows: list[Flow]
    retained: list[Individual]
    generations: int
    initial: list[Expr]  # the initial population's formulas, in order


def normalize(x: float) -> float:
    """Map a non-negative magnitude into [0, 1) monotonically: x / (x + 1)."""
    if x < 0:
        raise ValueError(f"normalize expects x >= 0, got {x}")
    return x / (x + 1.0)


def lcs_distance(p: Sequence[int], q: Sequence[int]) -> int:
    """Insertions plus deletions to turn one link sequence into the other."""
    n, m = len(p), len(q)
    prev = [0] * (m + 1)
    for i in range(1, n + 1):
        cur = [0] * (m + 1)
        for j in range(1, m + 1):
            if p[i - 1] == q[j - 1]:
                cur[j] = prev[j - 1] + 1
            else:
                cur[j] = max(prev[j], cur[j - 1])
        prev = cur
    return n + m - 2 * prev[m]


def find_flows_causing_congestion(
    network: Network,
    flows: Sequence[Flow],
    bandwidths: Mapping[int, float],
    threshold: float,
    rng: Random,
) -> list[Flow]:
    """Remove flows (uniformly at random among those that carry demand over
    the most loaded link) until no link exceeds the threshold. Returns the
    removed flows in order."""
    remaining = list(flows)
    removed: list[Flow] = []
    while True:
        util = link_utilizations(network, remaining, bandwidths)
        # idle links are at 0.0, under every loaded one, so the peak and the
        # lowest id holding it are those of the loaded links
        peak = max(util.values(), default=None)
        if peak is None or peak <= threshold:
            break
        worst = min(e for e, u in util.items() if u == peak)
        # a flow at 0 Mbps (a departed request keeps its path) loads nothing
        carriers = [f for f in remaining if worst in f.path and bandwidths[f.request] > 0]
        assert carriers, "a loaded link must carry at least one flow"
        victim = carriers[below(rng, len(carriers))]
        remaining.remove(victim)
        removed.append(victim)
    return removed


Weigher = Callable[[float, float, float], int]


def formula_weigher(expr: Expr, threshold: float) -> Weigher:
    """The weight the formula gives a link of static (bw, dl) at a utilization.

    Keeps no state: each call evaluates the formula. ``link_weights`` weighs
    each distinct input of its table once; a caller that weighs the same
    inputs again may memoise the weigher, as the simulator does.
    """

    def weigh(bw: float, dl: float, util: float) -> int:
        return to_weight(eval_expr(expr, EvalContext(bw, dl, util, threshold)))

    return weigh


class LinkInputs(NamedTuple):
    """Every link's formula input, for one utilization map."""

    util: Mapping[int, float]  # per loaded link id; an absent link is idle
    inputs: list[tuple[float, float, float]]  # the distinct (bw, dl, util) triples
    of: list[int]  # per link id, its index into inputs
    one_class: bool  # every link not in util has inputs[0], the one idle input


def link_inputs(network: Network, util: Mapping[int, float]) -> LinkInputs:
    """The links grouped by (bw, dl, util).

    Starts from the network's idle template, where each link has the input
    of its static (bw, dl) class at utilization 0.0, and visits the loaded
    links only. Once there are as many loaded links as the smallest class
    has links, a class may have no idle link left, and an input that no
    link has must not be weighed: then every link is grouped afresh. A
    template of one class is marked ``one_class``, for ``spread``.
    """
    classes = network.link_classes
    bws, dls = network.bws, network.dls
    if len(util) >= classes[2]:
        loads = [0.0] * len(bws)
        for e, u in util.items():
            loads[e] = u
        index: dict[tuple[float, float, float], int] = {}  # input -> its position
        of = [index.setdefault(key, len(index)) for key in zip(bws, dls, loads)]
        one_class = False
    else:
        idle, class_of, _ = classes
        index = idle.copy()  # class c's idle input is at position c
        of = list(class_of)
        for e, u in util.items():
            of[e] = index.setdefault((bws[e], dls[e], u), len(index))
        one_class = len(idle) == 1
    return LinkInputs(util, list(index), of, one_class)


def link_weights(table: LinkInputs, weigh: Weigher) -> Weights:
    """Every link's weight under a weigher: one weighing per distinct input."""
    return spread(table, tuple(starmap(weigh, table.inputs)))


def spread(table: LinkInputs, by_input: Sequence[int]) -> Weights:
    """Every link's weight from the weights of ``table.inputs``, in order.

    The values are a fresh list indexed by link id. The floor is the
    smallest weight over the distinct inputs, which is the smallest link
    weight, since some link has each input. The weights must be integers
    >= 1, as ``formula_weigher`` gives. On a ``one_class`` table the list
    is filled with the idle weight and only the loaded links are visited.
    """
    lo = min(by_input) if by_input else 0
    if not table.one_class:
        return Weights([by_input[i] for i in table.of], lo)
    values, of = [by_input[0]] * len(table.of), table.of
    for e in table.util:
        values[e] = by_input[of[e]]
    return Weights(values, lo)


def reweigh(
    network: Network, weights: Weights, links: Iterable[int], util: Mapping[int, float], weigh: Weigher
) -> Weights:
    """The one in-place weight refresh: each of ``links`` is weighed again at
    its utilization in ``util`` (a link absent from it is idle), and the
    floor is lowered to any new weight below it. Exact when ``links`` holds
    every link whose utilization changed since ``weights`` was weighed, since
    a weight is a function of the link's (bw, dl, util) alone."""
    values, lo = weights
    bws, dls, get = network.bws, network.dls, util.get
    for e in links:
        w = values[e] = weigh(bws[e], dls[e], get(e, 0.0))
        if w < lo:
            lo = w
    return Weights(values, lo)


def compute_surrogate(
    network: Network,
    bad_flows: Sequence[Flow],
    bandwidths: Mapping[int, float],
    keep: LinkInputs,
    expr: Expr,
    threshold: float,
    routes: dict[tuple[int, ...], tuple[int, ...]] | None = None,
) -> list[Flow]:
    """Re-route the bad flows one by one under the candidate formula;
    returns the re-routed flows, in ``bad_flows`` order.

    Utilization starts from the kept flows only: ``keep`` holds their link
    inputs, and is not changed. The weights at ``keep.inputs`` fix every
    link's weight and the floor, so the first flow's route: ``routes``, a
    memo for one ``bad_flows`` and ``keep``, maps them to it. After each
    placement but the last, the placed flow's load is added along its path
    and ``reweigh`` refreshes those links.
    """
    if not bad_flows:
        return []
    weigh = formula_weigher(expr, threshold)
    by_input = tuple(starmap(weigh, keep.inputs))
    routes = {} if routes is None else routes
    path = routes.get(by_input)
    if path is None or len(bad_flows) > 1:
        weights = spread(keep, by_input)
    if path is None:
        path = shortest_weighted_path(network, weights, *network.path_endpoints(bad_flows[0].path))
        routes[by_input] = path
    rerouted = [Flow(bad_flows[0].request, path)]
    if len(bad_flows) == 1:
        return rerouted
    util = dict(keep.util)
    for placed, f in zip(bad_flows, bad_flows[1:]):
        bd = bandwidths[placed.request]
        for e in path:
            util[e] = util.get(e, 0.0) + bd / network.bws[e]
        weights = reweigh(network, weights, path, util, weigh)
        path = shortest_weighted_path(network, weights, *network.path_endpoints(f.path))
        rerouted.append(Flow(f.request, path))
    return rerouted


def evaluate_plan(
    network: Network,
    new_flows: Sequence[Flow],
    old_flows: Sequence[Flow],
    bandwidths: Mapping[int, float],
    threshold: float,
) -> float:
    """Two-regime fitness in [0, 3).

    While the worst link stays at or above the threshold the value is
    norm(max utilization) + 2; below it, the value is norm(re-routing edit
    distance) + norm(total path delay summed per flow).
    """
    new_by_req = {f.request: f for f in new_flows}
    old_by_req = {f.request: f for f in old_flows}
    if set(new_by_req) != set(old_by_req) or len(new_by_req) != len(new_flows):
        raise NetworkError("new and old flows must cover the same request set")

    util = link_utilizations(network, new_flows, bandwidths)
    fit1 = max(util.values(), default=0.0)
    if fit1 >= threshold:
        return normalize(fit1) + 2.0
    fit2 = sum(lcs_distance(old_by_req[r].path, new_by_req[r].path) for r in old_by_req)
    dls = network.dls
    fit3 = sum(dls[e] for f in new_flows for e in f.path)
    return normalize(fit2) + normalize(fit3)


def tournament_select(population: Sequence[Individual], k: int, rng: Random) -> Individual:
    """Draw k individuals with replacement; return the first of the lowest
    fitness. Each draw is ``expr.below``'s, inlined: k draws are those of k
    ``rng.choice(population)`` calls."""
    n = len(population)
    if not 1 <= k <= n:  # an empty population fits no size
        raise ValueError(f"tournament size {k} invalid for population {n}")
    bits, draw, best = n.bit_length(), rng.getrandbits, None
    for _ in range(k):
        i = draw(bits)
        while i >= n:
            i = draw(bits)
        if best is None or population[i].fitness < best.fitness:
            best = population[i]
    return best


def _breed(population: list[Individual], config: GpConfig, rng: Random) -> list[Expr]:
    offspring: list[Expr] = []
    while len(offspring) < config.population_size:
        p1 = tournament_select(population, config.tournament_size, rng)
        p2 = tournament_select(population, config.tournament_size, rng)
        if rng.random() < config.crossover_rate:
            c1, c2 = crossover(p1.expr, p2.expr, rng, config.max_depth)
        else:
            c1, c2 = p1.expr, p2.expr
        for child in (c1, c2):
            if rng.random() < config.mutation_rate:
                child = mutate(child, rng, config.max_depth)
            offspring.append(child)
    return offspring[: config.population_size]


def gen_plan(
    network: Network,
    old_flows: Sequence[Flow],
    bandwidths: Mapping[int, float],
    best_sol: Sequence[Individual],
    config: GpConfig,
    rng: Random,
) -> PlanResult:
    """Evolve a weight formula that re-routes a minimal flow set congestion-free.

    The initial population takes up to half its members from best_sol (their
    fitness is recomputed for this snapshot) and fills the rest with random
    trees. The search stops once the best fitness drops below
    early_stop_fitness or the generation cap is reached; the best individual
    across all generations is returned together with its flows and the top
    half of the final population.
    """
    bad_flows = find_flows_causing_congestion(network, old_flows, bandwidths, config.threshold, rng)
    bad_ids = {f.request for f in bad_flows}
    keep_flows = [f for f in old_flows if f.request not in bad_ids]
    # the kept flows' link inputs are the same for every candidate
    keep = link_inputs(network, link_utilizations(network, keep_flows, bandwidths))

    initial = [ind.expr for ind in best_sol[: config.population_size // 2]]
    initial += [grow_random(config.max_depth, rng) for _ in range(config.population_size - len(initial))]

    # (fitness, re-routed flows) per formula already scored in this call;
    # scoring draws no random numbers, so skipping a repeat leaves the RNG
    # stream as it was. Trees compare by value, so the key is exact up to
    # the sign of a zero constant (Const(0.0) == Const(-0.0)), which cannot
    # change a weight: a signed zero only changes the sign of zero results,
    # division by a zero of either sign is protected, and to_weight takes
    # the absolute value.
    scored: dict[Expr, tuple[float, list[Flow]]] = {}
    # Fitness per plan: the re-routed flows come in bad_flows order, and
    # everything else evaluate_plan reads (the kept flows among it) is
    # fixed for the call, so their paths alone decide the fitness.
    # Distinct formulas often make the same plan.
    plans: dict[tuple[tuple[int, ...], ...], float] = {}
    # The first bad flow's route per weights at the kept inputs: distinct
    # formulas often weigh those inputs alike (see compute_surrogate).
    routes: dict[tuple[int, ...], tuple[int, ...]] = {}

    def assess(expr: Expr) -> Individual:
        hit = scored.get(expr)
        if hit is None:
            rerouted = compute_surrogate(network, bad_flows, bandwidths, keep, expr, config.threshold, routes)
            plan = tuple(f.path for f in rerouted)
            fitness = plans.get(plan)
            if fitness is None:
                fitness = plans[plan] = evaluate_plan(
                    network, rerouted + keep_flows, old_flows, bandwidths, config.threshold
                )
            hit = scored[expr] = (fitness, rerouted)
        return Individual(expr, hit[0])

    # min keeps the first of equal fitnesses: the earlier best, then the
    # earlier individual
    population = [assess(expr) for expr in initial]
    best = min(population, key=_FITNESS)

    generations = 0
    while best.fitness >= config.early_stop_fitness and generations < config.max_generations:
        population = [assess(expr) for expr in _breed(population, config, rng)]
        best = min([best, *population], key=_FITNESS)
        generations += 1

    retained = sorted(population, key=_FITNESS)[: config.population_size // 2]
    return PlanResult(best, scored[best.expr][1] + keep_flows, retained, generations, initial)
