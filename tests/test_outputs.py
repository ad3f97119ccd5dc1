"""The program's outputs, pinned byte for byte.

Every bundled scenario runs under each router at seeds 0-9; each run's
trace and metrics CSVs, final flows, invocation log (without the wall
clock) and retained formulas must hash to the digests in
``outputs.json``. So must the ``runs.csv`` and ``summary.csv`` that
``evoroute compare`` writes for each scenario. ``genadapt-reuse`` starts
from the knowledge base that criterion 6 exports: ``mnp3_2`` at seed 0.

A change that is meant to alter the outputs re-records the table:

    PYTHONPATH=src python tests/test_outputs.py --record
"""

import hashlib
import json
import os
import sys
import tempfile

import pytest

from conftest import SCENARIO_DIR, scenario_path

from evoroute.cli import main
from evoroute.expr import format_expr
from evoroute.loop import export_kb, import_kb
from evoroute.sim import ROUTERS, load_scenario, run_scenario, write_metrics_csv, write_trace_csv

TABLE = os.path.join(os.path.dirname(__file__), "outputs.json")
SCENARIOS = sorted(name[: -len(".scenario")] for name in os.listdir(SCENARIO_DIR) if name.endswith(".scenario"))
SEEDS = range(10)
COMPARE_ROUTERS = "unit-ospf,inverse-bw-ospf,genadapt"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return sha256(fh.read())


def lines_digest(lines) -> str:
    return sha256("".join(f"{line}\n" for line in lines).encode())


def reuse_kb(workdir: str):
    """The knowledge base criterion 6 exports: ``mnp3_2`` at seed 0."""
    result = run_scenario(load_scenario(scenario_path("mnp3_2")), seed=0)
    path = os.path.join(workdir, "mnp3.kb")
    export_kb(result.state.retained, path)
    return tuple(import_kb(path))


def run_digests(scenario, router: str, seed: int, workdir: str) -> dict[str, str]:
    result = run_scenario(scenario, seed=seed, router=router)
    trace, metrics = os.path.join(workdir, "trace.csv"), os.path.join(workdir, "metrics.csv")
    write_trace_csv(result.trace, trace)
    write_metrics_csv(result.metrics, metrics)
    return {
        "trace": file_digest(trace),
        "metrics": file_digest(metrics),
        "flows": lines_digest(f"{rid} {flow.path}" for rid, flow in sorted(result.flows.items())),
        "invocations": lines_digest(
            f"{r.tick} {r.max_util!r} {r.generations} {r.best_fitness!r} {r.formula}" for r in result.state.log
        ),
        "retained": lines_digest(f"{ind.fitness!r} {format_expr(ind.expr)}" for ind in result.state.retained),
    }


def scenario_digests(name: str, kb, workdir: str) -> dict[str, dict[str, str]]:
    # only genadapt-reuse reads the knowledge base; the other routers start cold
    scenario = load_scenario(scenario_path(name))._replace(kb=kb)
    return {
        f"{name} {router} {seed}": run_digests(scenario, router, seed, workdir)
        for router in ROUTERS
        for seed in SEEDS
    }


def compare_digests(name: str, workdir: str) -> dict[str, str]:
    out = os.path.join(workdir, f"cmp-{name}")
    args = ["compare", "--scenario", scenario_path(name), "--out", out]
    code = main([*args, "--routers", COMPARE_ROUTERS, "--seeds", f"{SEEDS[0]}-{SEEDS[-1]}"])
    assert code == 0
    return {csv: file_digest(os.path.join(out, csv)) for csv in ("runs.csv", "summary.csv")}


def load_table() -> dict:
    with open(TABLE) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def kb(tmp_path_factory):
    return reuse_kb(str(tmp_path_factory.mktemp("kb")))


@pytest.mark.parametrize("name", SCENARIOS)
def test_runs_match_the_table(name, kb, tmp_path):
    expected = {k: v for k, v in load_table()["runs"].items() if k.startswith(f"{name} ")}
    assert scenario_digests(name, kb, str(tmp_path)) == expected


@pytest.mark.parametrize("name", SCENARIOS)
def test_compare_matches_the_table(name, tmp_path):
    assert compare_digests(name, str(tmp_path)) == load_table()["compare"][name]


def record() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        kb = reuse_kb(workdir)
        table = {"runs": {}, "compare": {}}
        for name in SCENARIOS:
            table["runs"].update(scenario_digests(name, kb, workdir))
            table["compare"][name] = compare_digests(name, workdir)
    with open(TABLE, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(table['runs'])} runs and {len(table['compare'])} comparisons in {TABLE}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_outputs.py --record")
    record()
