"""Operator command line: run scenarios, compare routers over seed batches,
transfer knowledge bases, and generate topology files."""

import argparse
import os
import sys

from .loop import KbImportError, export_kb, import_kb
from .netmodel import ConfigError, NetworkError, full_topology, mnp_topology, save_network
from .sim import (
    ADAPTIVE_ROUTERS,
    MetricsRecord,
    ROUTERS,
    ScenarioError,
    load_scenario,
    run_scenario,
    write_invocations_csv,
    write_metrics_csv,
    write_trace_csv,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


def _parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        try:
            if "-" in chunk and not chunk.startswith("-"):
                lo, hi = chunk.split("-", 1)
                seeds.extend(range(int(lo), int(hi) + 1))
            elif chunk:
                seeds.append(int(chunk))
        except ValueError:
            raise ScenarioError(f"seeds: {chunk!r} is neither a seed nor a range LO-HI") from None
    if not seeds or len(set(seeds)) != len(seeds):
        raise ScenarioError("seeds: list must be non-empty and duplicate-free")
    return seeds


def cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    router = args.router or scenario.router
    if args.kb and router not in ADAPTIVE_ROUTERS:
        # a file no run reads would change nothing
        raise ScenarioError(f"kb: router {router} never reads --kb; use genadapt or genadapt-reuse")
    if scenario.kb is not None and router != "genadapt-reuse":
        raise ScenarioError(f"kb: router {router} never reads the scenario's kb file; use genadapt-reuse")
    kb = import_kb(args.kb, max_depth=scenario.gp.max_depth) if args.kb else None
    result = run_scenario(scenario, seed=args.seed, router=router, kb=kb)
    os.makedirs(args.out, exist_ok=True)
    write_trace_csv(result.trace, os.path.join(args.out, "trace.csv"))
    write_metrics_csv(result.metrics, os.path.join(args.out, "metrics.csv"))
    write_invocations_csv(result.state, os.path.join(args.out, "invocations.csv"))
    if args.kb_out:
        export_kb(result.state.retained, args.kb_out)
    m = result.metrics
    print(
        f"run complete: occurrences={m.congestion_occurrences} "
        f"duration={m.congestion_duration}s loss={m.packet_loss_proxy:.6f} "
        f"invocations={m.planner_invocations}"
    )
    return EXIT_OK


def cmd_compare(args) -> int:
    scenario = load_scenario(args.scenario)
    routers = [r.strip() for r in args.routers.split(",") if r.strip()]
    for router in routers:
        if router not in ROUTERS:
            raise ScenarioError(f"router: unknown value {router!r}")
    seeds = _parse_seeds(args.seeds)
    if args.kb and "genadapt-reuse" not in routers:
        raise ScenarioError("kb: --kb warms only genadapt-reuse runs, and --routers has none")
    if scenario.kb is not None and "genadapt-reuse" not in routers:
        raise ScenarioError(f"kb: only genadapt-reuse reads a scenario kb; --routers {args.routers} has none")
    kb = import_kb(args.kb, max_depth=scenario.gp.max_depth) if args.kb else None

    os.makedirs(args.out, exist_ok=True)
    rows: list[tuple[str, int, MetricsRecord]] = []
    for router in routers:
        for seed in seeds:
            run_kb = kb if router == "genadapt-reuse" else None
            try:
                result = run_scenario(scenario, seed=seed, router=router, kb=run_kb)
            except Exception as exc:
                print(f"run failed for router={router} seed={seed}: {exc}", file=sys.stderr)
                raise
            rows.append((router, seed, result.metrics))

    with open(os.path.join(args.out, "runs.csv"), "w") as fh:
        fh.write(
            "router,seed,congestion_occurrences,congestion_duration_s,"
            "packet_loss_proxy,planner_invocations\n"
        )
        for router, seed, m in rows:
            fh.write(
                f"{router},{seed},{m.congestion_occurrences},{m.congestion_duration},"
                f"{m.packet_loss_proxy:.6f},{m.planner_invocations}\n"
            )

    with open(os.path.join(args.out, "summary.csv"), "w") as fh:
        fh.write(
            "router,mean_congestion_occurrences,mean_congestion_duration_s,"
            "mean_packet_loss_proxy,mean_planner_invocations\n"
        )
        for router in routers:
            ms = [m for r, _, m in rows if r == router]
            n = len(ms)
            fh.write(
                f"{router},"
                f"{sum(m.congestion_occurrences for m in ms) / n:.6f},"
                f"{sum(m.congestion_duration for m in ms) / n:.6f},"
                f"{sum(m.packet_loss_proxy for m in ms) / n:.6f},"
                f"{sum(m.planner_invocations for m in ms) / n:.6f}\n"
            )
    print(f"compared {len(routers)} router(s) x {len(seeds)} seed(s) -> {args.out}")
    return EXIT_OK


def cmd_transfer(args) -> int:
    if args.transfer_cmd == "export":
        scenario = load_scenario(args.scenario)
        if scenario.kb is not None:
            raise ScenarioError(
                "kb: transfer export runs genadapt cold and never reads the scenario's kb file"
            )
        result = run_scenario(scenario, seed=args.seed, router="genadapt")
        retained = result.state.retained
        if not retained:
            print("no adaptation happened; nothing to export", file=sys.stderr)
            return EXIT_RUNTIME
        export_kb(retained, args.out)
        print(f"exported {len(retained)} formulas to {args.out}")
        return EXIT_OK
    kb = import_kb(args.kb)
    print(f"{len(kb)} formulas accepted")
    if not kb:
        print("warning: knowledge base is empty", file=sys.stderr)
    return EXIT_OK


def cmd_gen_topology(args) -> int:
    if args.kind == "full":
        network = full_topology(args.size, args.bw, args.dl)
    else:
        network = mnp_topology(args.size, args.bw, args.dl)
    save_network(network, args.out)
    print(f"wrote {args.kind} topology: {network.n_nodes} nodes, {len(network.links)} links")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="evoroute")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_run = sub.add_parser("run", help="run one scenario and write trace/metrics CSVs")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--router", choices=ROUTERS)
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--kb", help="knowledge-base file to warm-start an adaptive router")
    p_run.add_argument("--kb-out", help="export the final knowledge base here")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run a router x seed batch and aggregate means")
    p_cmp.add_argument("--scenario", required=True)
    p_cmp.add_argument("--out", required=True)
    p_cmp.add_argument("--routers", default="unit-ospf,genadapt")
    p_cmp.add_argument("--seeds", default="0-29")
    p_cmp.add_argument(
        "--kb",
        help="knowledge-base file for the genadapt-reuse runs (--routers must include one); "
        "genadapt runs start cold",
    )
    p_cmp.set_defaults(func=cmd_compare)

    p_tr = sub.add_parser("transfer", help="export or import a knowledge base")
    tr_sub = p_tr.add_subparsers(dest="transfer_cmd", required=True)
    p_exp = tr_sub.add_parser("export")
    p_exp.add_argument("--scenario", required=True)
    p_exp.add_argument("--out", required=True)
    p_exp.add_argument("--seed", type=int)
    p_exp.set_defaults(func=cmd_transfer)
    p_imp = tr_sub.add_parser("import")
    p_imp.add_argument("--kb", required=True)
    p_imp.set_defaults(func=cmd_transfer)

    p_gen = sub.add_parser("gen-topology", help="write a topology edge-list file")
    p_gen.add_argument("--kind", choices=("full", "mnp"), required=True)
    p_gen.add_argument("--size", type=int, required=True)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--bw", type=float, default=100.0)
    p_gen.add_argument("--dl", type=float, default=25.0)
    p_gen.set_defaults(func=cmd_gen_topology)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, NetworkError, ConfigError, KbImportError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
