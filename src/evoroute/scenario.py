"""The input file formats: a scenario and the files it names. What a
scenario holds, the directives that set it, the bounds a file is held to,
and the knowledge-base rule of which run reads formulas; the network and
knowledge-base files, read and written; and the line rules all three share
(``read_lines``). Every reader and writer of an input file is here; ``sim``
runs the scenarios it yields."""

import math
import os
from collections.abc import Collection, Iterator, Sequence
from typing import NamedTuple

from .expr import DEFAULT_MAX_DEPTH, format_expr, parse_expr
from .netmodel import MAX_MS, MAX_NODES, MIN_MBPS, TOPOLOGIES, Link, Network, NetworkError, Request
from .planner import GpConfig, Individual

ROUTERS = ("unit-ospf", "inverse-bw-ospf", "genadapt", "genadapt-reuse")


class ScenarioError(ValueError):
    pass


class InputError(ValueError):
    """An input file line that is not UTF-8 text."""


class KbImportError(ValueError):
    pass


def read_lines(path: str) -> Iterator[tuple[int, str]]:
    """Each line of an input file that holds more than a comment, as (line
    number, text); in every format a comment runs from ``#`` to the line's end.

    Files are read as UTF-8 whatever the locale. A line with a byte that is
    not UTF-8, in a comment too, is refused (``InputError``) naming
    ``path:line``.
    """
    # an undecodable byte b reads as the lone surrogate U+DC00 + b, which
    # no UTF-8 text holds, so encoding the line back finds it
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw.encode("utf-8")
            except UnicodeEncodeError as exc:
                byte = ord(raw[exc.start]) - 0xDC00
                raise InputError(f"{path}:{lineno}: byte 0x{byte:02x} is not UTF-8") from None
            text = raw.split("#", 1)[0].strip()
            if text:
                yield lineno, text


def load_network(path: str) -> Network:
    n_nodes = nodes_line = None
    links: list[Link] = []
    link_lines: list[int] = []  # per link, the line that holds it
    for lineno, line in read_lines(path):
        parts = line.split()
        try:
            if parts[0] == "nodes" and len(parts) == 2:
                if nodes_line is not None:
                    raise NetworkError(f"nodes already set on line {nodes_line}")
                n_nodes, nodes_line = int(parts[1]), lineno
                if n_nodes > MAX_NODES:
                    raise NetworkError(f"nodes must be at most {MAX_NODES}, got {n_nodes}")
            elif parts[0] == "link" and len(parts) == 6:
                links.append(
                    Link(int(parts[1]), int(parts[2]), int(parts[3]), float(parts[4]), float(parts[5]))
                )
                link_lines.append(lineno)
            else:
                raise NetworkError(f"unrecognized line {line!r}")
        except ValueError as exc:  # NetworkError included
            raise NetworkError(f"{path}:{lineno}: {exc}") from None
    if n_nodes is None:
        raise NetworkError(f"{path}: missing 'nodes' header")
    try:
        return Network(n_nodes, links)
    except NetworkError as exc:  # name the line of the link at fault, else the nodes line
        lineno = nodes_line if exc.link is None else link_lines[exc.link]
        raise NetworkError(f"{path}:{lineno}: {exc}") from None


def save_network(network: Network, path: str) -> None:
    """Write the plain-text edge-list format used by scenario files. Each
    static is written as its ``repr``, the shortest text that reads back as
    the same float, so ``load_network`` gives back the same links."""
    with open(path, "w") as fh:
        fh.write(f"nodes {network.n_nodes}\n")
        for link in network.links:
            fh.write(f"link {link.id} {link.src} {link.dst} {link.bw!r} {link.dl!r}\n")


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


class Scenario(NamedTuple):
    network: Network
    requests: list[Request]
    duration: int | None = None
    router: str = "genadapt"
    gp: GpConfig = GpConfig()  # immutable, so one default serves every scenario
    seed: int = 0
    kb: tuple[Individual, ...] | None = None  # the knowledge base's formulas (see ``with_kb``)
    kb_source: str = "kb"  # names them in messages: "kb: line N: PATH" or "kb: --kb PATH"

    def resolved_duration(self) -> int:
        if self.duration is not None:
            return self.duration
        last = max((r.arrival for r in self.requests), default=0.0)
        return int(math.ceil(last)) + 10


def check_kb(scenario: Scenario, routers: Collection[str]) -> tuple[Individual, ...]:
    """The knowledge-base rule: ``scenario.kb`` is read by genadapt-reuse runs
    alone, and each needs a non-empty one. Refuses runs of ``routers`` that
    break it; returns the formulas a genadapt-reuse run starts from."""
    name, others = scenario.kb_source, " or ".join(routers)
    if "genadapt-reuse" not in routers:
        _require(scenario.kb is None, f"{name}: only genadapt-reuse reads a knowledge base, not {others}")
        return ()
    _require(bool(scenario.kb), f"{name}: genadapt-reuse needs a non-empty knowledge base (--kb or a kb line)")
    return scenario.kb


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ScenarioError(message)


def _parse_request(rid: int, s: int, d: int, arrival: float, text: str) -> Request:
    """``text`` is "30" for a constant demand, "0:30,40:50" for a
    piecewise-constant one."""
    if ":" not in text:
        return Request.constant(rid, s, d, arrival, float(text))
    segments = []
    for seg in text.split(","):
        parts = seg.split(":")
        if len(parts) != 2:
            raise ValueError(f"profile segment {seg!r} is not START:MBPS")
        segments.append((float(parts[0]), float(parts[1])))
    return Request(rid, s, d, arrival, tuple(segments))


def _reachable(network: Network, sources: set[int]) -> dict[int, set[int]]:
    """Per source, the nodes some directed path reaches from it, itself included."""
    out = network.out_by_dst
    reach: dict[int, set[int]] = {}
    for src in sources:
        seen = {src}
        stack = [src]
        while stack:
            u = stack.pop()
            if u in reach:  # an earlier source: what it reaches is reached
                seen |= reach[u]
                continue
            for v, _ in out[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        reach[src] = seen
    return reach


def with_kb(scenario: Scenario, path: str, source: str) -> Scenario:
    """``scenario`` with the formulas of knowledge-base file ``path``, parsed
    under its ``max_depth`` and named ``source``; refuses a bad file."""
    try:
        kb = tuple(import_kb(path, max_depth=scenario.gp.max_depth))
    except (OSError, KbImportError, InputError) as exc:
        raise ScenarioError(f"{source}: {exc}") from None
    return scenario._replace(kb=kb, kb_source=source)


# the most ticks a run may last, the most requests a scenario may hold,
# bursts expanded, and the most formulas a GP population may hold; a line
# that would ask for more is refused before anything is built for it
# (networks: ``netmodel.MAX_LINKS``, ``netmodel.MAX_NODES``)
MAX_TICKS = 100_000
MAX_REQUESTS = 100_000
MAX_POPULATION = 10_000


def _check_request_count(lineno: int, key: str, total: int) -> None:
    _require(
        total <= MAX_REQUESTS,
        f"line {lineno}: {key} would make {total} requests, more than the {MAX_REQUESTS} a scenario may hold",
    )


# single-value directive -> (what it configures, field, conversion, check,
# what the check requires); the tournament size is also checked against the
# population, and the duration against the last arrival, once all are read.
# The link statics are held to the bounds ``netmodel.Link`` checks, so that a
# value past them names this line rather than the network line.
SCENARIO_KEYS = {
    "link_bw": (
        "topology", "bw", float, lambda v: MIN_MBPS <= v < math.inf, f"finite and > 0, at least {MIN_MBPS:g} Mbps"
    ),
    "link_dl": ("topology", "dl", float, lambda v: 0 < v <= MAX_MS, f"finite and > 0, at most {MAX_MS:g} ms"),
    "threshold": ("gp", "threshold", float, lambda v: 0 < v < 1, "in (0,1)"),
    "duration": ("scenario", "duration", int, lambda v: v <= MAX_TICKS, f"at most {MAX_TICKS}"),
    "router": ("scenario", "router", str, ROUTERS.__contains__, f"one of {', '.join(ROUTERS)}"),
    "seed": ("scenario", "seed", int, lambda v: True, "an integer"),
    "kb": ("scenario", "kb", str, lambda v: True, "a path"),
    "population": (
        "gp", "population_size", int, lambda v: 1 <= v <= MAX_POPULATION, f"at least 1, at most {MAX_POPULATION}"
    ),
    "max_generations": ("gp", "max_generations", int, lambda v: v >= 0, "at least 0"),
    "crossover_rate": ("gp", "crossover_rate", float, lambda v: 0 <= v <= 1, "in [0, 1]"),
    "mutation_rate": ("gp", "mutation_rate", float, lambda v: 0 <= v <= 1, "in [0, 1]"),
    "tournament": ("gp", "tournament_size", int, lambda v: v >= 1, "at least 1"),
    "max_depth": (
        "gp", "max_depth", int, lambda v: 1 <= v <= DEFAULT_MAX_DEPTH, f"in 1..{DEFAULT_MAX_DEPTH}"
    ),
    "early_stop": ("gp", "early_stop_fitness", float, math.isfinite, "finite"),
}


def load_scenario(path: str) -> Scenario:
    """Parse the flat key-value scenario format.

    Directives: ``network full N | mnp K | file PATH``, the single-value
    directives of ``SCENARIO_KEYS`` (each takes exactly one value),
    ``request SRC DST ARRIVAL BD`` and
    ``burst SRC DST PER_BURST BURSTS SPACING BD``; lines are read under
    ``read_lines``. Settings outside their ranges are refused, naming the
    line that set them; so are a second ``network`` or single-value line,
    naming both lines, a ``network
    file`` or ``kb`` file that cannot be read or parsed (see ``with_kb``), a
    ``link_bw`` or ``link_dl`` beside a ``network file`` (the file sets
    every link's), a request whose endpoint is no node or whose destination
    no directed path reaches from its source, and a ``duration`` that does
    not exceed the last arrival's tick (``ceil(arrival)``), so that no tick
    would admit that request. So are sizes past the bounds: a run longer
    than ``MAX_TICKS`` (naming the ``duration`` line, or without one the
    request with the last arrival), more than ``MAX_REQUESTS`` requests, a
    ``population`` above ``MAX_POPULATION``, a generated network of more
    than ``netmodel.MAX_LINKS`` links, and a network file of more than
    ``netmodel.MAX_NODES`` nodes; and link statics past
    ``netmodel.MIN_MBPS`` and ``netmodel.MAX_MS``, on a ``link_bw`` or
    ``link_dl`` line or in a network file.
    """
    base = os.path.dirname(os.path.abspath(path))
    net_spec: tuple | None = None
    settings: dict[str, dict] = {"topology": {}, "scenario": {}, "gp": {}}  # owner -> field -> value
    lines: dict[str, int] = {}  # single-value directive or network -> line that set it
    requests: list[Request] = []
    request_lines: list[str] = []  # per request, "request: line N" or "burst: line N"

    for lineno, line in read_lines(path):
        parts = line.split()
        key, args = parts[0], parts[1:]
        try:
            if key in lines:
                raise ScenarioError(f"line {lineno}: {key} already set on line {lines[key]}")
            if key in SCENARIO_KEYS:
                owner, name, conv, check, rule = SCENARIO_KEYS[key]
                _require(len(args) == 1, f"line {lineno}: {key} takes exactly one value, got {len(args)}")
                value = conv(args[0])
                _require(check(value), f"line {lineno}: {key} must be {rule}, got {args[0]}")
                settings[owner][name] = value
                lines[key] = lineno
            elif key == "network":
                _require(len(args) == 2, f"line {lineno}: network needs kind and value")
                kind = args[0]
                _require(kind in TOPOLOGIES or kind == "file", f"line {lineno}: network kind {kind!r}")
                net_spec = (kind, args[1])
                lines[key] = lineno
            elif key == "request":
                _require(len(args) == 4, f"line {lineno}: request SRC DST ARRIVAL BD")
                _check_request_count(lineno, key, len(requests) + 1)
                s, d, arrival = int(args[0]), int(args[1]), float(args[2])
                requests.append(_parse_request(len(requests), s, d, arrival, args[3]))
                request_lines.append(f"request: line {lineno}")
            elif key == "burst":
                _require(len(args) == 6, f"line {lineno}: burst SRC DST PER_BURST BURSTS SPACING BD")
                s, d, per_burst, bursts = map(int, args[:4])
                spacing = float(args[4])
                for field, count in (("PER_BURST", per_burst), ("BURSTS", bursts)):
                    _require(count >= 1, f"line {lineno}: burst {field} must be at least 1, got {count}")
                _require(spacing > 0, f"line {lineno}: burst spacing must be positive")
                _check_request_count(lineno, key, len(requests) + per_burst * bursts)
                for b in range(bursts):
                    for _ in range(per_burst):
                        requests.append(_parse_request(len(requests), s, d, b * spacing, args[5]))
                        request_lines.append(f"burst: line {lineno}")
            else:
                raise ScenarioError(f"line {lineno}: unknown directive {key!r}")
        except (ValueError, IndexError) as exc:
            if isinstance(exc, ScenarioError):
                raise
            raise ScenarioError(f"{key}: line {lineno}: {exc}") from None

    gp = GpConfig(**settings["gp"])
    if gp.tournament_size > gp.population_size:
        # name the later of the two lines: the one that broke the pair
        lineno = max(lines.get("population", 0), lines.get("tournament", 0))
        raise ScenarioError(
            f"tournament: line {lineno}: tournament size {gp.tournament_size} "
            f"exceeds population {gp.population_size}"
        )
    _require(net_spec is not None, "network: no network directive in scenario")
    (kind, value), lineno = net_spec, lines["network"]
    if kind == "file" and settings["topology"]:  # the file sets every link's bw and dl
        at, key = min((lines[k], k) for k in ("link_bw", "link_dl") if k in lines)
        raise ScenarioError(
            f"{key}: line {at}: applies only to generated networks ({', '.join(TOPOLOGIES)}), not network file"
        )
    try:
        if kind == "file":
            network = load_network(os.path.join(base, value))
        else:
            network = TOPOLOGIES[kind](int(value), **settings["topology"])
    except (OSError, ValueError) as exc:  # NetworkError and ConfigError included
        raise ScenarioError(f"network: line {lineno}: {exc}") from None

    _require(bool(requests), "request: scenario has no requests")
    for r, where in zip(requests, request_lines):
        _require(0 <= r.s < network.n_nodes, f"{where}: source {r.s} out of range")
        _require(0 <= r.d < network.n_nodes, f"{where}: destination {r.d} out of range")
    reach = _reachable(network, {r.s for r in requests})
    for r, where in zip(requests, request_lines):
        _require(r.d in reach[r.s], f"{where}: destination {r.d} unreachable from {r.s}")

    kb = settings["scenario"].pop("kb", None)
    scenario = Scenario(network, requests, gp=gp, **settings["scenario"])
    if kb is not None:
        scenario = with_kb(scenario, os.path.join(base, kb), f"kb: line {lines['kb']}: {kb}")
    # a request arrives on tick ceil(arrival), and ticks run 0..duration-1
    last = math.ceil(max(r.arrival for r in requests))
    if last >= scenario.resolved_duration():
        raise ScenarioError(
            f"duration: line {lines['duration']}: must exceed the last arrival's tick {last}, "
            f"got {scenario.duration}"
        )
    ticks = scenario.resolved_duration()
    if ticks > MAX_TICKS:  # only without a duration line, whose value is checked when read
        r, where = max(zip(requests, request_lines), key=lambda pair: pair[0].arrival)
        raise ScenarioError(f"{where}: arrival {r.arrival:g} would run {ticks} ticks, more than {MAX_TICKS}")
    return scenario
