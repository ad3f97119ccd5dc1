"""Operator command line: run scenarios, compare routers over seed batches,
transfer knowledge bases, and generate topology files."""

import argparse
import os
import sys

from .loop import KbImportError, export_kb, import_kb
from .netmodel import TOPOLOGIES, ConfigError, InputError, NetworkError, save_network
from .scenario import ROUTERS, ScenarioError, check_kb, load_scenario, with_kb
from .sim import (
    METRICS_COLUMNS,
    MetricsRecord,
    metrics_row,
    run_scenario,
    write_invocations_csv,
    write_metrics_csv,
    write_trace_csv,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
MAX_SEEDS = 100_000  # the most values a comma list may hold; only --seeds can reach it


def _parse_list(text: str, what: str, parse_chunk) -> list:
    """A comma list of ``what``: each non-blank chunk parsed to its values
    by ``parse_chunk``, a range or tuple counted before it is expanded; the
    whole must be non-empty, duplicate-free and at most ``MAX_SEEDS`` long."""
    rule = f"{what}: list must be non-empty and duplicate-free"
    values: dict = {}  # ordered like the text; a set would lose the order
    for chunk in map(str.strip, text.split(",")):
        if not chunk:
            continue
        chunk_values = parse_chunk(chunk)
        if (n := len(values) + len(chunk_values)) > MAX_SEEDS:
            raise ScenarioError(f"{what}: {chunk!r} would make {n} {what}, more than {MAX_SEEDS}")
        for value in chunk_values:
            if value in values:
                raise ScenarioError(f"{rule}, but {chunk!r} repeats {value!r}")
            values[value] = None
    if not values:
        raise ScenarioError(rule)
    return list(values)


def _seed_chunk(chunk: str) -> range:
    """A seed ``N`` or an ascending range ``LO-HI``, both ends included."""
    try:
        if "-" in chunk and not chunk.startswith("-"):
            lo, hi = map(int, chunk.split("-", 1))
        else:
            lo = hi = int(chunk)
        if lo > hi:
            raise ValueError
    except ValueError:
        raise ScenarioError(f"seeds: {chunk!r} is neither a seed nor a range LO-HI") from None
    return range(lo, hi + 1)


def _router_chunk(chunk: str) -> tuple[str]:
    if chunk not in ROUTERS:
        raise ScenarioError(f"router: unknown value {chunk!r}")
    return (chunk,)


def cmd_run(args) -> None:
    scenario = load_scenario(args.scenario)
    if args.kb:
        scenario = with_kb(scenario, args.kb, f"kb: --kb {args.kb}")
    router = args.router or scenario.router
    check_kb(scenario, (router,))
    result = run_scenario(scenario, seed=args.seed, router=router)
    if args.kb_out:  # first, so that a refused export leaves no --out behind
        export_kb(result.state.retained, args.kb_out)
    os.makedirs(args.out, exist_ok=True)
    write_trace_csv(result.trace, os.path.join(args.out, "trace.csv"))
    write_metrics_csv(result.metrics, os.path.join(args.out, "metrics.csv"))
    write_invocations_csv(result.state, os.path.join(args.out, "invocations.csv"))
    m = result.metrics
    print(
        f"run complete: occurrences={m.congestion_occurrences} "
        f"duration={m.congestion_duration}s loss={m.packet_loss_proxy:.6f} "
        f"invocations={m.planner_invocations}"
    )


def cmd_compare(args) -> None:
    scenario = load_scenario(args.scenario)
    if args.kb:
        scenario = with_kb(scenario, args.kb, f"kb: --kb {args.kb}")
    routers = _parse_list(args.routers, "routers", _router_chunk)
    seeds = _parse_list(args.seeds, "seeds", _seed_chunk)
    check_kb(scenario, routers)

    os.makedirs(args.out, exist_ok=True)
    metrics: dict[str, list[MetricsRecord]] = {}  # router -> per seed, in --seeds order
    for router in routers:
        metrics[router] = []
        for seed in seeds:
            try:
                result = run_scenario(scenario, seed=seed, router=router)
            except Exception as exc:
                print(f"run failed for router={router} seed={seed}: {exc}", file=sys.stderr)
                raise
            metrics[router].append(result.metrics)

    with open(os.path.join(args.out, "runs.csv"), "w") as fh:
        fh.write(",".join(("router", "seed", *METRICS_COLUMNS)) + "\n")
        for router, records in metrics.items():
            for seed, m in zip(seeds, records):
                fh.write(f"{router},{seed},{metrics_row(m)}\n")

    with open(os.path.join(args.out, "summary.csv"), "w") as fh:
        fh.write(",".join(("router", *(f"mean_{c}" for c in METRICS_COLUMNS))) + "\n")
        for router, records in metrics.items():
            # per column, summed in seed order
            means = [sum(column) / len(records) for column in zip(*records)]
            fh.write(",".join((router, *(f"{mean:.6f}" for mean in means))) + "\n")
    print(f"compared {len(routers)} router(s) x {len(seeds)} seed(s) -> {args.out}")


def cmd_export(args) -> None:
    scenario = load_scenario(args.scenario)
    check_kb(scenario, ("genadapt",))  # export plans cold, under genadapt
    retained = run_scenario(scenario, seed=args.seed, router="genadapt").state.retained
    export_kb(retained, args.out)
    print(f"exported {len(retained)} formulas to {args.out}")


def cmd_import(args) -> None:
    kb = import_kb(args.kb)
    print(f"{len(kb)} formulas accepted")
    if not kb:
        print("warning: knowledge base is empty", file=sys.stderr)


def cmd_gen_topology(args) -> None:
    network = TOPOLOGIES[args.kind](args.size, args.bw, args.dl)
    save_network(network, args.out)
    print(f"wrote {args.kind} topology: {network.n_nodes} nodes, {len(network.links)} links")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="evoroute")
    sub = parser.add_subparsers(dest="cmd", required=True)
    # the arguments every scenario-reading command takes first
    io = argparse.ArgumentParser(add_help=False)
    io.add_argument("--scenario", required=True)
    io.add_argument("--out", required=True)

    p_run = sub.add_parser("run", parents=[io], help="run one scenario and write trace/metrics CSVs")
    p_run.add_argument("--router", choices=ROUTERS)
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--kb", help="knowledge-base file for a genadapt-reuse run; replaces a kb line")
    p_run.add_argument("--kb-out", help="export the final knowledge base here")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", parents=[io], help="run a router x seed batch and aggregate means")
    p_cmp.add_argument("--routers", default="unit-ospf,genadapt")
    p_cmp.add_argument("--seeds", default="0-29")
    p_cmp.add_argument("--kb", help="knowledge-base file for the genadapt-reuse runs; replaces a kb line")
    p_cmp.set_defaults(func=cmd_compare)

    p_tr = sub.add_parser("transfer", help="export or import a knowledge base")
    tr_sub = p_tr.add_subparsers(dest="transfer_cmd", required=True)
    p_exp = tr_sub.add_parser("export", parents=[io])
    p_exp.add_argument("--seed", type=int)
    p_exp.set_defaults(func=cmd_export)
    p_imp = tr_sub.add_parser("import")
    p_imp.add_argument("--kb", required=True)
    p_imp.set_defaults(func=cmd_import)

    p_gen = sub.add_parser("gen-topology", help="write a topology edge-list file")
    p_gen.add_argument("--kind", choices=tuple(TOPOLOGIES), required=True)
    p_gen.add_argument("--size", type=int, required=True)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--bw", type=float, default=100.0)
    p_gen.add_argument("--dl", type=float, default=25.0)
    p_gen.set_defaults(func=cmd_gen_topology)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code != 2:  # --help exits 0
            raise
        return EXIT_VALIDATION  # a usage error; argparse has printed it
    try:
        args.func(args)  # a command fails by raising; main alone picks the exit code
    except (ScenarioError, NetworkError, ConfigError, KbImportError, InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
