import contextlib
import csv
import io
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import scenario_path, tree_of_height

from evoroute import cli, netmodel, sim
from evoroute.cli import main
from evoroute.expr import format_expr

METRICS = ("congestion_occurrences", "congestion_duration_s", "packet_loss_proxy", "planner_invocations")


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


@pytest.fixture
def mnp3_kb(tmp_path):
    """The knowledge base exported after an mnp3_2 run (seed 0)."""
    kb_file = tmp_path / "mnp3.kb"
    args = ["--scenario", scenario_path("mnp3_2"), "--out", str(kb_file), "--seed", "0"]
    assert main(["transfer", "export", *args]) == 0
    return kb_file


# a formula nested far deeper than any legal tree, and than the interpreter's
# recursion limit
DEEP_FORMULA = "(" * 1200 + "util" + " + util)" * 1200


def run_metrics(out, router, seed, kb=None):
    """The metrics row of one ``run`` on mnp5_2."""
    args = ["run", "--scenario", scenario_path("mnp5_2"), "--out", str(out)]
    args += ["--router", router, "--seed", str(seed)] + (["--kb", str(kb)] if kb else [])
    assert main(args) == 0
    row = read_csv(out / "metrics.csv")[0]
    return [row[k] for k in METRICS]


class TestRun:
    def test_fig1_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["run", "--scenario", scenario_path("fig1"), "--out", str(out), "--seed", "7"]
        )
        assert code == 0
        for name in ("trace.csv", "metrics.csv", "invocations.csv"):
            assert (out / name).exists()
        metrics = read_csv(out / "metrics.csv")[0]
        assert int(metrics["planner_invocations"]) >= 1
        assert "run complete" in capsys.readouterr().out

    def test_missing_scenario_is_validation_error(self, tmp_path, capsys):
        code = main(["run", "--scenario", "missing.scenario", "--out", str(tmp_path)])
        assert code == 1
        assert "missing.scenario" in capsys.readouterr().err

    def test_directory_as_scenario_exits_one(self, tmp_path, capsys):
        assert main(["run", "--scenario", str(tmp_path), "--out", str(tmp_path / "out")]) == 1
        assert str(tmp_path) in capsys.readouterr().err

    def test_static_router_never_resolves(self, tmp_path):
        out = tmp_path / "out"
        assert (
            main(
                [
                    "run",
                    "--scenario",
                    scenario_path("fig1"),
                    "--out",
                    str(out),
                    "--router",
                    "unit-ospf",
                ]
            )
            == 0
        )
        metrics = read_csv(out / "metrics.csv")[0]
        assert int(metrics["planner_invocations"]) == 0
        assert int(metrics["congestion_duration_s"]) == 40

    def test_rerun_outputs_byte_identical(self, tmp_path):
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert (
                main(
                    ["run", "--scenario", scenario_path("fig1"), "--out", str(out), "--seed", "4"]
                )
                == 0
            )
            blobs.append(
                ((out / "trace.csv").read_bytes(), (out / "metrics.csv").read_bytes())
            )
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("router", ["genadapt", None])
    def test_kb_under_genadapt_exits_one(self, tmp_path, capsys, monkeypatch, mnp3_kb, router):
        # None: the router comes from the scenario file, which names genadapt
        monkeypatch.setattr(cli, "run_scenario", None)  # refused before any run
        out = tmp_path / "out"
        args = ["run", "--scenario", scenario_path("mnp5_2"), "--out", str(out), "--kb", str(mnp3_kb)]
        assert main(args + (["--router", router] if router else [])) == 1
        message = f"kb: --kb {mnp3_kb}: only genadapt-reuse reads a knowledge base, not genadapt"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


# the knowledge-base rule, per (a genadapt-reuse run among the routers, source):
# the refusal, or None for a command that runs
KB_RULE = {
    (False, "none"): None,
    (False, "--kb"): "kb: {flag}: only genadapt-reuse reads a knowledge base, not {routers}",
    (False, "kb line"): "kb: {line}: only genadapt-reuse reads a knowledge base, not {routers}",
    (False, "both"): "kb: {flag}: only genadapt-reuse reads a knowledge base, not {routers}",
    (False, "empty --kb"): "kb: {flag}: only genadapt-reuse reads a knowledge base, not {routers}",
    (False, "empty kb line"): "kb: {line}: only genadapt-reuse reads a knowledge base, not {routers}",
    (True, "none"): "kb: genadapt-reuse needs a non-empty knowledge base (--kb or a kb line)",
    (True, "--kb"): None,
    (True, "kb line"): None,
    (True, "both"): None,  # --kb replaces the kb line, whose file here is empty
    (True, "empty --kb"): "kb: {flag}: genadapt-reuse needs a non-empty knowledge base (--kb or a kb line)",
    (True, "empty kb line"): "kb: {line}: genadapt-reuse needs a non-empty knowledge base (--kb or a kb line)",
}
KB_RULE_CASES = [
    (command, routers, source)
    for command, routers in [
        ("run", "unit-ospf"),
        ("run", "genadapt"),
        ("run", "genadapt-reuse"),
        ("compare", "unit-ospf,genadapt"),
        ("compare", "genadapt,genadapt-reuse"),
        ("transfer export", "genadapt"),  # it has no --kb, and always plans under genadapt
    ]
    for reuse, source in KB_RULE
    if reuse == ("genadapt-reuse" in routers)
    and not (command == "transfer export" and source in ("--kb", "both", "empty --kb"))
]


@pytest.mark.parametrize("command, routers, source", KB_RULE_CASES)
def test_only_genadapt_reuse_reads_a_knowledge_base(
    tmp_path, capsys, monkeypatch, mnp3_kb, command, routers, source
):
    (tmp_path / "empty.kb").write_text("# no formulas\n")
    line_file = {"kb line": mnp3_kb.name, "both": "empty.kb", "empty kb line": "empty.kb"}.get(source)
    flag_file = {"--kb": mnp3_kb, "both": mnp3_kb, "empty --kb": tmp_path / "empty.kb"}.get(source)
    path = tmp_path / "kb.scenario"
    # one generation a plan is enough for the rule; the kb line stays line 2
    kb_line = f"kb {line_file}\n" if line_file else ""
    path.write_text("network mnp 3\n" + kb_line + "request 0 1 0 90\nmax_generations 1\n")
    out = tmp_path / "out"
    args = {
        "run": ["run", "--router", routers, "--seed", "0"],
        "compare": ["compare", "--routers", routers, "--seeds", "0-1"],
        "transfer export": ["transfer", "export", "--seed", "0"],
    }[command]
    args += ["--scenario", str(path), "--out", str(out)] + (["--kb", str(flag_file)] if flag_file else [])

    refusal = KB_RULE[("genadapt-reuse" in routers, source)]
    if refusal is None:
        assert main(args) == 0
        assert out.exists()
        return
    monkeypatch.setattr(cli, "run_scenario", None)  # refused before any run
    assert main(args) == 1
    message = refusal.format(
        flag=f"--kb {flag_file}", line=f"line 2: {line_file}", routers=routers.replace(",", " or ")
    )
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize(
    "text, message",
    [("0.5 (util +\n", "line 1: unexpected end of input at offset 7"), (None, "No such file or directory")],
)
def test_bad_kb_file_exits_one_naming_the_flag_and_the_file(tmp_path, capsys, command, text, message):
    kb = tmp_path / "bad.kb"
    if text is not None:
        kb.write_text(text)
    out = tmp_path / "out"
    args = [command, "--scenario", scenario_path("mnp5_2"), "--out", str(out), "--kb", str(kb)]
    assert main(args + ["--routers" if command == "compare" else "--router", "genadapt-reuse"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: kb: --kb {kb}: ") and message in err
    assert not out.exists()


# argparse's usage errors; OUT stands for an --out directory
USAGE_ERRORS = [
    (["run", "--out", "OUT", "--router", "bogus"], "argument --router: invalid choice: 'bogus'"),
    (["run", "--out", "OUT", "--seed", "abc"], "argument --seed: invalid int value: 'abc'"),
    (["gen-topology", "--kind", "full", "--size", "abc", "--out", "OUT"], "argument --size: invalid int value: 'abc'"),
    (["run"], "the following arguments are required: --out"),
]


@pytest.mark.parametrize("args, message", USAGE_ERRORS, ids=["router", "seed", "size", "no-out"])
def test_usage_error_exits_one_with_argparse_message(tmp_path, capsys, args, message):
    out = tmp_path / "out"
    if args[0] == "run":
        args = [*args, "--scenario", scenario_path("fig1")]
    assert main([str(out) if a == "OUT" else a for a in args]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    assert "--scenario" in capsys.readouterr().out


class TestScenarioValidation:
    @pytest.mark.parametrize(
        "profile, message",
        [
            ("0:30,abc", "profile segment 'abc'"),
            ("0:30:5", "profile segment '0:30:5'"),
            ("15:0,0:90", "strictly increasing"),
            ("0:30,0:50", "strictly increasing"),
            ("0:30,inf:0", "start times must be finite"),
            ("nan:30", "start times must be finite"),
            ("0:30,1e400:0", "start times must be finite"),
        ],
    )
    def test_bad_profile_exits_one_naming_the_line(self, tmp_path, capsys, profile, message):
        path = tmp_path / "bad.scenario"
        path.write_text(f"network mnp 3\n# demand\nrequest 0 1 0 {profile}\n")
        code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert "line 3" in err and message in err
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize(
        "directives, line, message",
        [
            ("population 3", 2, "tournament size 7 exceeds population 3"),
            ("population 12\ntournament 13", 3, "tournament size 13 exceeds population 12"),
            ("tournament 5\npopulation 4", 3, "tournament size 5 exceeds population 4"),
            ("tournament 0", 2, "tournament must be at least 1"),
            ("population 0", 2, "population must be at least 1"),
            ("crossover_rate 7", 2, "crossover_rate must be in [0, 1]"),
            ("mutation_rate -0.1", 2, "mutation_rate must be in [0, 1]"),
            ("mutation_rate nan", 2, "mutation_rate must be in [0, 1]"),
            ("early_stop nan", 2, "early_stop must be finite"),
            ("early_stop inf", 2, "early_stop must be finite"),
            ("max_generations -1", 2, "max_generations must be at least 0"),
            ("max_depth 3000", 2, "max_depth must be in 1..15"),
            ("max_depth 0", 2, "max_depth must be in 1..15"),
        ],
    )
    def test_bad_gp_setting_exits_one_naming_the_line(self, tmp_path, capsys, directives, line, message):
        path = tmp_path / "bad.scenario"
        path.write_text(f"network mnp 3\n{directives}\nrequest 0 1 0 30\n")
        code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"line {line}" in err and message in err

    @pytest.mark.parametrize(
        "directive, message",
        [
            ("request 0 1 0 nan", "bandwidth must be finite and >= 0"),
            ("request 0 1 0 inf", "bandwidth must be finite and >= 0"),
            ("request 0 1 0 0:30,5:inf", "bandwidth must be finite and >= 0"),
            ("request 0 1 inf 30", "arrival must be finite and >= 0"),
            ("request 0 1 nan 30", "arrival must be finite and >= 0"),
            ("burst 0 1 2 2 5 inf", "bandwidth must be finite and >= 0"),
            # past netmodel.MAX_MBPS the demand sums overflow, and the loss proxy read nan
            ("request 0 1 0 1e308", "at most 1e+16 Mbps"),
            ("request 0 1 0 0:30,5:2e16", "at most 1e+16 Mbps"),
            ("link_bw nan", "link_bw must be finite and > 0"),
            ("link_bw -5", "link_bw must be finite and > 0"),
            ("link_bw inf", "link_bw must be finite and > 0"),
            ("link_dl inf", "link_dl must be finite and > 0"),
            ("link_dl 0", "link_dl must be finite and > 0"),
        ],
    )
    def test_non_finite_or_out_of_range_number_exits_one_naming_the_line(
        self, tmp_path, capsys, directive, message
    ):
        path = tmp_path / "bad.scenario"
        path.write_text(f"network mnp 3\n{directive}\nrequest 0 1 0 30\n")
        code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert "line 2" in err and message in err

    def test_demand_at_the_bound_keeps_the_loss_proxy_finite(self, tmp_path):
        path = tmp_path / "huge.scenario"
        request = f"request 0 1 0 {netmodel.MAX_MBPS!r}\n"
        path.write_text("network mnp 3\n" + request * 2 + "duration 2\n")
        assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 0
        (row,) = read_csv(tmp_path / "out" / "metrics.csv")
        assert 0 < float(row["packet_loss_proxy"]) < math.inf

    @pytest.mark.parametrize(
        "network, message",
        [
            ("full 1", "at least 2 nodes"),
            ("mnp two", "invalid literal"),
            ("file bad.net", "bad.net:3: link 1: bandwidth must be finite and > 0, got nan"),
            ("file nope.net", "No such file or directory"),
            ("ring 3", "network kind 'ring'"),
        ],
    )
    def test_bad_network_exits_one_naming_the_line(self, tmp_path, capsys, network, message):
        (tmp_path / "bad.net").write_text("nodes 2\nlink 0 0 1 100 25\nlink 1 1 0 nan 25\n")
        path = tmp_path / "bad.scenario"
        path.write_text(f"# topology\nnetwork {network}\nrequest 0 1 0 30\n")
        code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert "line 2" in err and message in err

    @pytest.mark.parametrize(
        "duration, arrival, tick",
        [
            (5, "4.5", 5),  # admitted on tick ceil(4.5) = 5, after the last tick, 4
            (5, "5", 5),
            (0, "0", 0),  # no tick at all
        ],
    )
    def test_duration_without_the_last_arrival_tick_exits_one(
        self, tmp_path, capsys, monkeypatch, duration, arrival, tick
    ):
        path = tmp_path / "bad.scenario"
        path.write_text(f"network mnp 3\nduration {duration}\nrequest 0 1 0 30\nrequest 0 1 {arrival} 30\n")
        monkeypatch.setattr(cli, "run_scenario", None)  # refused at load: any run would fail
        code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"duration: line 2: must exceed the last arrival's tick {tick}, got {duration}" in err

    @pytest.mark.parametrize(
        "directive, message",
        [
            ("request 2 0 40 30", "request: line 4: destination 0 unreachable from 2"),
            ("burst 1 0 2 2 5 30", "burst: line 4: destination 0 unreachable from 1"),
            ("request 0 3 0 30", "request: line 4: destination 3 out of range"),
            ("burst 5 1 1 1 5 30", "burst: line 4: source 5 out of range"),
        ],
    )
    def test_bad_request_endpoints_exit_one_naming_the_line(
        self, tmp_path, capsys, monkeypatch, directive, message
    ):
        # a one-way chain 0 -> 1 -> 2
        (tmp_path / "chain.net").write_text("nodes 3\nlink 0 0 1 100 25\nlink 1 1 2 100 25\n")
        path = tmp_path / "bad.scenario"
        path.write_text(f"network file chain.net\nrequest 0 2 0 30\nrequest 1 2 0 30\n{directive}\n")
        monkeypatch.setattr(cli, "run_scenario", None)  # refused at load: any run would fail
        code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "burst, message",
        [
            ("burst 0 1 -3 2 10 30", "line 3: burst PER_BURST must be at least 1, got -3"),
            ("burst 0 1 0 2 10 30", "line 3: burst PER_BURST must be at least 1, got 0"),
            ("burst 0 1 2 0 10 30", "line 3: burst BURSTS must be at least 1, got 0"),
        ],
    )
    def test_burst_count_below_one_exits_one_naming_the_line(
        self, tmp_path, capsys, monkeypatch, burst, message
    ):
        # such a line would add no request, beside one that does
        path = tmp_path / "bad.scenario"
        path.write_text(f"network mnp 3\nrequest 0 1 0 30\n{burst}\n")
        monkeypatch.setattr(cli, "run_scenario", None)  # refused at load: any run would fail
        code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("network file net.txt\nlink_bw 50\n", "link_bw: line 2: "),
            ("link_dl 5\nnetwork file net.txt\n", "link_dl: line 1: "),
            ("network file net.txt\nlink_bw 50\nlink_dl 5\n", "link_bw: line 2: "),  # the first one
        ],
        ids=["link_bw", "link_dl-first", "both"],
    )
    def test_link_setting_under_a_network_file_exits_one_naming_its_line(
        self, tmp_path, capsys, monkeypatch, text, message
    ):
        # the file sets every link's bandwidth and delay, so these would go unread
        (tmp_path / "net.txt").write_text("nodes 2\nlink 0 0 1 100 25\nlink 1 1 0 100 25\n")
        path = tmp_path / "bad.scenario"
        path.write_text(f"{text}request 0 1 0 30\n")
        monkeypatch.setattr(cli, "run_scenario", None)  # refused at load: any run would fail
        code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert message + "applies only to generated networks (full, mnp), not network file" in err

    @pytest.mark.parametrize(
        "directive",
        ["threshold 0.5 0.9", "population 10 20", "router unit-ospf genadapt", "duration 50 5", "seed 1 2"],
    )
    def test_extra_value_exits_one_naming_the_line(self, tmp_path, capsys, directive):
        path = tmp_path / "bad.scenario"
        path.write_text(f"network mnp 3\n{directive}\nrequest 0 1 0 30\n")
        code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        key = directive.split()[0]
        assert f"line 2: {key} takes exactly one value, got 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("network mnp 3\nthreshold 0.5\nthreshold 0.9\nnetwork full 4\n", "line 3: threshold already set on line 2"),
            ("network mnp 3\nnetwork full 4\n", "line 2: network already set on line 1"),
            ("network mnp 3\nseed 1\n# the same value\nseed 1\n", "line 4: seed already set on line 2"),
            ("router unit-ospf\nnetwork mnp 3\nrouter genadapt\n", "line 3: router already set on line 1"),
            ("network mnp 3\nrouter genadapt-reuse\nkb a.kb\nkb a.kb\n", "line 4: kb already set on line 3"),
            ("network file two.net\n", "network: line 1: {tmp}/two.net:3: nodes already set on line 1"),
        ],
        ids=["threshold", "network", "seed", "router", "kb", "nodes"],
    )
    def test_repeated_single_value_line_exits_one_naming_both_lines(
        self, tmp_path, capsys, monkeypatch, text, message
    ):
        # the last value would win unseen; request, burst and link lines repeat
        (tmp_path / "a.kb").write_text("0.5 util\n")
        (tmp_path / "two.net").write_text("nodes 3\nlink 0 0 1 100 25\nnodes 2\nlink 1 1 0 100 25\n")
        path = tmp_path / "twice.scenario"
        path.write_text(f"{text}request 0 1 0 30\nrequest 0 1 2 30\n")
        monkeypatch.setattr(cli, "run_scenario", None)  # refused at load: any run would fail
        code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message.format(tmp=tmp_path)}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("router", ["unit-ospf", "genadapt-reuse"])
    @pytest.mark.parametrize("kb, message", [("nope.kb", "No such file or directory"), (".", "Is a directory")])
    def test_unreadable_kb_file_exits_one_naming_its_line(
        self, tmp_path, capsys, monkeypatch, router, kb, message
    ):
        # read at load, whether or not the router would use it
        path = tmp_path / "bad.scenario"
        path.write_text(f"network mnp 3\nrouter {router}\nkb {kb}\nrequest 0 1 0 30\n")
        monkeypatch.setattr(cli, "run_scenario", None)  # refused at load: any run would fail
        code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"kb: line 3: {kb}: " in err and message in err

    def test_too_deeply_nested_kb_file_exits_one_naming_both_lines(self, tmp_path, capsys):
        (tmp_path / "deep.kb").write_text(f"0.0 {DEEP_FORMULA}\n")
        path = tmp_path / "bad.scenario"
        path.write_text("network mnp 3\nkb deep.kb\nrequest 0 1 0 30\n")
        assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "kb: line 2: deep.kb: line 1: formula deeper than the depth bound 15 at offset 14" in err

    @pytest.mark.parametrize("byte", [b"\xe9", b"\xff"])
    @pytest.mark.parametrize("where", ["scenario", "network file", "kb line", "transfer import"])
    def test_undecodable_byte_exits_one_naming_the_file_and_line(self, tmp_path, capsys, byte, where):
        # a byte that is not UTF-8, here in a trailing comment or a formula,
        # after a line whose comment is UTF-8 text beyond ASCII
        (tmp_path / "k.kb").write_bytes(b"0.5 util  # r\xc3\xa9sum\xc3\xa9\n0.5 util" + byte + b"\n")
        (tmp_path / "n.net").write_bytes(b"nodes 2  # caf\xc3\xa9\nlink 0 0 1 100 25  # " + byte + b"\n")
        scenario = tmp_path / "s.scenario"
        lines = {
            "scenario": b"network mnp 3  # caf\xc3\xa9\nrequest 0 1 0 30  # " + byte + b"\n",
            "network file": b"network file n.net\nrequest 0 1 0 30\n",
            "kb line": b"network mnp 3\nrouter genadapt-reuse\nkb k.kb\nrequest 0 1 0 30\n",
        }
        scenario.write_bytes(lines.get(where, b""))
        out = tmp_path / "out"
        if where == "transfer import":
            args = ["transfer", "import", "--kb", str(tmp_path / "k.kb")]
        else:
            args = ["run", "--scenario", str(scenario), "--out", str(out)]
        assert main(args) == 1
        bad = f"byte 0x{byte[0]:02x} is not UTF-8"
        expected = {
            "scenario": f"{scenario}:2: {bad}",
            "network file": f"network: line 1: {tmp_path / 'n.net'}:2: {bad}",
            "kb line": f"kb: line 3: k.kb: {tmp_path / 'k.kb'}:2: {bad}",
            "transfer import": f"{tmp_path / 'k.kb'}:2: {bad}",
        }[where]
        assert capsys.readouterr().err == f"error: {expected}\n"
        assert not out.exists()

    def test_gp_settings_at_their_bounds_run(self, tmp_path):
        path = tmp_path / "edge.scenario"
        path.write_text(
            "network mnp 3\npopulation 1\ntournament 1\ncrossover_rate 1\nmutation_rate 0\n"
            "max_generations 0\nmax_depth 15\nearly_stop 0\nburst 0 1 3 1 1 30\n"
        )
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(path), "--out", str(out)]) == 0
        assert int(read_csv(out / "metrics.csv")[0]["planner_invocations"]) >= 1


class TestSizeBounds:
    """A line that asks for more ticks, requests or generated links than the
    bounds allow is refused, naming it, before anything is built for it. The
    huge values would otherwise loop or allocate without end; the others are
    one past a bound."""

    @pytest.mark.parametrize(
        "text, message",
        [
            ("network mnp 3\nduration 1000000000\nrequest 0 1 0 30\n",
             "line 2: duration must be at most 100000, got 1000000000"),
            ("network mnp 3\nduration 100001\nrequest 0 1 0 30\n", "line 2: duration must be at most 100000, got 100001"),
            ("network mnp 3\nrequest 0 1 0 30\nrequest 0 1 100000000 30\n",
             "request: line 3: arrival 1e+08 would run 100000010 ticks, more than 100000"),
            ("network mnp 3\nrequest 0 1 99990.5 30\nrequest 0 1 7 30\n",
             "request: line 2: arrival 99990.5 would run 100001 ticks, more than 100000"),
            ("network full 100000\nrequest 0 1 0 30\n",
             "network: line 1: full 100000 would have 9999900000 links, more than 100000"),
            ("network full 317\nrequest 0 1 0 30\n", "network: line 1: full 317 would have 100172 links, more than 100000"),
            ("network mnp 100000\nrequest 0 1 0 30\n",
             "network: line 1: mnp 100000 would have 10000100000 links, more than 100000"),
            ("network mnp 316\nrequest 0 1 0 30\n", "network: line 1: mnp 316 would have 100172 links, more than 100000"),
            ("network mnp 3\nrequest 0 1 0 30\nburst 0 1 100000 100000 1 30\n",
             "line 3: burst would make 10000000001 requests, more than the 100000 a scenario may hold"),
            ("network mnp 3\nrequest 0 1 0 30\nburst 0 1 50000 2 1 30\n",
             "line 3: burst would make 100001 requests, more than the 100000 a scenario may hold"),
            ("network mnp 3\nburst 0 1 50000 2 1 30\nrequest 0 1 0 30\n",
             "line 3: request would make 100001 requests, more than the 100000 a scenario may hold"),
        ],
        ids=["duration", "duration-past", "arrival", "arrival-past", "full", "full-past", "mnp", "mnp-past",
             "burst", "burst-past", "request-past"],
    )
    def test_scenario_past_a_bound_exits_one_naming_the_line(self, tmp_path, capsys, monkeypatch, text, message):
        path = tmp_path / "huge.scenario"
        path.write_text(text)
        monkeypatch.setattr(cli, "run_scenario", None)  # refused at load: any run would fail
        code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_network_file_past_the_node_bound_exits_one(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "big.net").write_text("nodes 100001\nlink 0 0 1 100 25\nlink 1 1 0 100 25\n")
        path = tmp_path / "big.scenario"
        path.write_text("network file big.net\nrequest 0 1 0 30\n")
        monkeypatch.setattr(cli, "run_scenario", None)  # refused at load: any run would fail
        assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 1
        message = f"network: line 1: {tmp_path / 'big.net'}:1: nodes must be at most 100000, got 100001"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "seeds, message",
        [
            ("0-1000000000", "'0-1000000000' would make 1000000001 seeds"),
            ("0-100000", "'0-100000' would make 100001 seeds"),
            ("0-99999,100000", "'100000' would make 100001 seeds"),
        ],
        ids=["huge", "past", "past-over-chunks"],
    )
    def test_compare_past_the_seed_bound_exits_one(self, tmp_path, capsys, monkeypatch, seeds, message):
        # the range is measured from its ends: expanding the huge one would fill a dict of 10^9 seeds
        monkeypatch.setattr(cli, "run_scenario", None)  # refused before any run
        out = tmp_path / "cmp"
        assert main(["compare", "--scenario", scenario_path("fig1"), "--out", str(out), "--seeds", seeds]) == 1
        assert capsys.readouterr().err == f"error: seeds: {message}, more than 100000\n"
        assert not out.exists()

    def test_seed_list_at_the_bound_parses(self):
        assert cli._parse_list("0-99998,99999", "seeds", cli._seed_chunk) == list(range(cli.MAX_SEEDS)) == list(range(100000))

    @pytest.mark.parametrize("kind, links", [("full", 9999900000), ("mnp", 10000100000)])
    def test_gen_topology_past_the_link_bound_exits_one(self, tmp_path, capsys, kind, links):
        out = tmp_path / "net.txt"
        assert main(["gen-topology", "--kind", kind, "--size", "100000", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {kind} 100000 would have {links} links, more than 100000\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, ticks, requests, links",
        [
            ("network mnp 3\nduration 100000\nrequest 0 1 99999 30\n", 100000, 1, 12),
            ("network mnp 3\nrequest 0 1 0 30\nrequest 0 1 99990 30\n", 100000, 2, 12),
            ("network full 316\nrequest 0 1 0 30\n", 10, 1, 99540),  # the largest complete graph
            ("network mnp 315\nrequest 0 1 0 30\n", 10, 1, 99540),
            ("network mnp 3\nrequest 0 1 0 30\nburst 0 1 99999 1 1 30\n", 10, 100000, 12),
        ],
        ids=["duration", "arrival", "full", "mnp", "burst"],
    )
    def test_scenario_at_the_bounds_loads(self, tmp_path, text, ticks, requests, links):
        assert (sim.MAX_TICKS, sim.MAX_REQUESTS, netmodel.MAX_LINKS) == (100000, 100000, 100000)
        path = tmp_path / "edge.scenario"
        path.write_text(text)
        scenario = sim.load_scenario(str(path))
        assert (scenario.resolved_duration(), len(scenario.requests), len(scenario.network.links)) == (
            ticks, requests, links
        )


class TestTransfer:
    def test_export_then_import(self, tmp_path, capsys):
        kb_file = tmp_path / "kb.txt"
        code = main(
            [
                "transfer",
                "export",
                "--scenario",
                scenario_path("fig1"),
                "--out",
                str(kb_file),
                "--seed",
                "0",
            ]
        )
        assert code == 0
        assert "exported 5 formulas" in capsys.readouterr().out
        assert len(kb_file.read_text().splitlines()) == 5

        assert main(["transfer", "import", "--kb", str(kb_file)]) == 0
        assert "5 formulas accepted" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["transfer", "run"])
    def test_export_without_adaptation_exits_one(self, tmp_path, capsys, command):
        # one 30 Mbps request never congests a 100 Mbps path, so nothing plans
        path = tmp_path / "calm.scenario"
        path.write_text("network mnp 3\nrequest 0 1 0 30\n")
        kb = tmp_path / "out.kb"
        if command == "transfer":
            args = ["transfer", "export", "--scenario", str(path), "--out", str(kb)]
        else:
            args = ["run", "--scenario", str(path), "--out", str(tmp_path / "out"), "--kb-out", str(kb)]
        assert main(args) == 1
        assert "error: refusing to export an empty knowledge base" in capsys.readouterr().err
        assert not kb.exists()
        assert not (tmp_path / "out").exists()

    def test_import_empty_warns(self, tmp_path, capsys):
        kb_file = tmp_path / "kb.txt"
        kb_file.write_text("")
        assert main(["transfer", "import", "--kb", str(kb_file)]) == 0
        captured = capsys.readouterr()
        assert "0 formulas accepted" in captured.out
        assert "warning" in captured.err

    def test_import_malformed_is_validation_error(self, tmp_path, capsys):
        kb_file = tmp_path / "kb.txt"
        kb_file.write_text("0.5 (util +\n")
        assert main(["transfer", "import", "--kb", str(kb_file)]) == 1
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("formula", ["(1e400 * util)", "((1e400 - 1e400) + bw)"])
    def test_import_overflowing_constant_exits_one_naming_the_line(self, tmp_path, capsys, formula):
        kb_file = tmp_path / "kb.txt"
        kb_file.write_text(f"0.0 {formula}\n")
        assert main(["transfer", "import", "--kb", str(kb_file)]) == 1
        err = capsys.readouterr().err
        assert "line 1" in err and "'1e400' is not finite" in err

    @pytest.mark.parametrize("formula", ["(1e400 * util)", "((1e400 - 1e400) + bw)"])
    def test_run_with_overflowing_constant_exits_one_naming_the_line(self, tmp_path, capsys, formula):
        kb_file = tmp_path / "kb.txt"
        kb_file.write_text(f"0.0 {formula}\n")
        args = ["run", "--scenario", scenario_path("mnp3_2"), "--out", str(tmp_path / "out")]
        assert main(args + ["--router", "genadapt-reuse", "--kb", str(kb_file)]) == 1
        err = capsys.readouterr().err
        assert "line 1" in err and "'1e400' is not finite" in err

    def test_import_too_deeply_nested_exits_one_naming_the_line(self, tmp_path, capsys):
        kb_file = tmp_path / "kb.txt"
        kb_file.write_text(f"0.0 {DEEP_FORMULA}\n")
        assert main(["transfer", "import", "--kb", str(kb_file)]) == 1
        assert "line 1: formula deeper than the depth bound 15 at offset 14" in capsys.readouterr().err

    def test_run_with_too_deeply_nested_kb_exits_one_naming_the_line(self, tmp_path, capsys):
        kb_file = tmp_path / "kb.txt"
        kb_file.write_text(f"0.0 {DEEP_FORMULA}\n")
        args = ["run", "--scenario", scenario_path("mnp3_2"), "--out", str(tmp_path / "out")]
        assert main(args + ["--kb", str(kb_file)]) == 1
        assert "line 1: formula deeper than the depth bound 15 at offset 14" in capsys.readouterr().err

    def test_import_directory_exits_one(self, tmp_path, capsys):
        assert main(["transfer", "import", "--kb", str(tmp_path)]) == 1
        assert str(tmp_path) in capsys.readouterr().err

    def test_run_with_imported_kb(self, tmp_path):
        kb_file = tmp_path / "kb.txt"
        assert (
            main(
                [
                    "transfer",
                    "export",
                    "--scenario",
                    scenario_path("fig1"),
                    "--out",
                    str(kb_file),
                    "--seed",
                    "0",
                ]
            )
            == 0
        )
        out = tmp_path / "out"
        assert (
            main(
                [
                    "run",
                    "--scenario",
                    scenario_path("fig1"),
                    "--out",
                    str(out),
                    "--seed",
                    "1",
                    "--router",
                    "genadapt-reuse",
                    "--kb",
                    str(kb_file),
                ]
            )
            == 0
        )
        assert int(read_csv(out / "metrics.csv")[0]["planner_invocations"]) >= 1


# Knowledge-base file text: mostly `<fitness> <formula>` lines, with fitness
# tokens that read as floats (nan, inf and 1e400 among them) or do not, and
# formulas up to three levels past the depth bound with characters inserted;
# a trailing comment, or a blank, comment-only or free-text line.
_KB_FITNESS = st.sampled_from(["0.5", "-3", "1e-3", "nan", "inf", "-inf", "1e400", "0x1p3", "1_0", "abc"])
_KB_INSERTS = st.one_of(
    st.sampled_from([*"()+-*/.e#", " ", "\t", "\n", "1e400", "nan", "util", "x"]), st.text(min_size=1, max_size=1)
)


@st.composite
def _kb_lines(draw):
    kind = draw(st.integers(0, 5))
    if kind == 0:
        return draw(st.text(max_size=20))
    if kind == 1:
        return draw(st.sampled_from(["", "   ", "# retained", "\t# indented"]))
    text = format_expr(tree_of_height(draw(st.integers(1, 18)), draw(st.integers(0, 10**9))))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(_KB_INSERTS) + text[at:]
    gap = draw(st.sampled_from([" ", "\t", "  "]))
    note = draw(st.sampled_from(["", "  # best", "#"]))
    return f"{draw(_KB_FITNESS)}{gap}{text}{note}"


@pytest.fixture(scope="module")
def fuzz_kb(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "kb.txt"


@settings(max_examples=300, deadline=None)
@given(st.lists(_kb_lines(), max_size=4))
def test_import_of_any_kb_text_exits_zero_or_one_naming_the_line(fuzz_kb, lines):
    fuzz_kb.write_text("\n".join(lines), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["transfer", "import", "--kb", str(fuzz_kb)])
    assert code in (0, 1), err.getvalue()
    if code == 1:
        assert err.getvalue().startswith("error: line "), err.getvalue()


# Scenario file text: a bundled scenario with lines mutated, dropped, repeated
# or added, after a first line that caps the generations at 3 so that a run
# stays short (the bundled max_generations line is left out). The tokens are
# numbers from a small set (non-finite and out-of-range ones among them, none
# large enough to make a long run), garbage, and bytes that are not UTF-8; the
# added lines are GP directives, kb, router and network lines, and garbage.
_SCENARIO_BASES = {
    name: [line for line in Path(scenario_path(name)).read_bytes().splitlines() if b"max_generations" not in line]
    for name in ("fig1", "full5_3", "mnp3_2", "mnp5_2")
}
_SCENARIO_TOKENS = st.sampled_from(
    [b"0", b"1", b"2", b"3", b"-1", b"0.5", b"1.5", b"nan", b"inf", b"-inf", b"1e400", b"1e-300", b"0:2,1:0", b"x",
     b"genadapt-reuse", b"#", b"\xff", b"caf\xe9", b""]
)
_SCENARIO_LINES = st.sampled_from(
    [b"population 2", b"max_generations 1", b"tournament 0", b"max_depth 16", b"crossover_rate nan",
     b"mutation_rate 2", b"early_stop inf", b"kb fuzz.kb", b"kb missing.kb", b"router genadapt-reuse",
     b"network full 3", b"network file fuzz.net", b"network file missing.net", b"link_bw 50", b"duration 2",
     b"request 0 1 0 90", b"burst", b"bogus 1", b"\xff\xfe", b"# comment", b""]
)


@st.composite
def _scenario_texts(draw):
    lines = list(_SCENARIO_BASES[draw(st.sampled_from(sorted(_SCENARIO_BASES)))])
    for _ in range(draw(st.integers(1, 3))):
        kind, at = draw(st.integers(0, 3)), draw(st.integers(0, len(lines)))
        if kind == 0 and at < len(lines):  # one token replaced
            parts = lines[at].split()
            if parts:
                parts[draw(st.integers(0, len(parts) - 1))] = draw(_SCENARIO_TOKENS)
                lines[at] = b" ".join(parts)
        elif kind == 1 and at < len(lines):
            del lines[at]
        elif kind == 2 and at < len(lines):
            lines.insert(at, lines[at])
        else:
            lines.insert(at, draw(_SCENARIO_LINES))
    return b"\n".join([b"max_generations 3", *lines, b""])


@pytest.fixture(scope="module")
def fuzz_scenario_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "fuzz.kb").write_text("0.5 (util * bw)\n")
    (path / "fuzz.net").write_text("nodes 2\nlink 0 0 1 100 25\nlink 1 1 0 100 25\n")
    return path


@settings(max_examples=300, deadline=None)
@given(_scenario_texts())
def test_run_of_any_scenario_text_exits_zero_or_one(fuzz_scenario_dir, text):
    path = fuzz_scenario_dir / "fuzz.scenario"
    path.write_bytes(text)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["run", "--scenario", str(path), "--out", str(fuzz_scenario_dir / "out")])
    assert code in (0, 1), err.getvalue()


class TestCompare:
    def test_adaptive_beats_static(self, tmp_path):
        out = tmp_path / "cmp"
        code = main(
            [
                "compare",
                "--scenario",
                scenario_path("fig1"),
                "--out",
                str(out),
                "--routers",
                "unit-ospf,genadapt",
                "--seeds",
                "0-4",
            ]
        )
        assert code == 0
        runs = read_csv(out / "runs.csv")
        assert len(runs) == 10
        summary = {row["router"]: row for row in read_csv(out / "summary.csv")}
        assert float(summary["genadapt"]["mean_congestion_duration_s"]) < float(
            summary["unit-ospf"]["mean_congestion_duration_s"]
        )

    def test_kb_is_read_once_and_warms_only_the_reuse_runs(self, tmp_path, mnp3_kb, monkeypatch):
        imports = []
        real = sim.import_kb

        def counting(*args, **kwargs):
            imports.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(sim, "import_kb", counting)
        out = tmp_path / "cmp"
        seeds = range(1, 4)  # on seed 3 the warm run's metrics differ from the cold one's
        args = ["--routers", "genadapt,genadapt-reuse", "--seeds", "1-3", "--kb", str(mnp3_kb)]
        assert main(["compare", "--scenario", scenario_path("mnp5_2"), "--out", str(out), *args]) == 0
        assert len(imports) == 1

        rows = {(r["router"], int(r["seed"])): [r[k] for k in METRICS] for r in read_csv(out / "runs.csv")}
        for seed in seeds:
            warm = run_metrics(tmp_path / f"warm{seed}", "genadapt-reuse", seed, kb=mnp3_kb)
            cold = run_metrics(tmp_path / f"cold{seed}", "genadapt", seed)
            assert rows[("genadapt-reuse", seed)] == warm
            assert rows[("genadapt", seed)] == cold
        assert any(rows[("genadapt-reuse", s)] != rows[("genadapt", s)] for s in seeds)

    def test_reuse_without_a_knowledge_base_starts_no_run(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_scenario", None)  # refused before any run
        out = tmp_path / "cmp"
        args = ["--routers", "genadapt,genadapt-reuse", "--seeds", "0-29"]
        assert main(["compare", "--scenario", scenario_path("fig1"), "--out", str(out), *args]) == 1
        message = "kb: genadapt-reuse needs a non-empty knowledge base (--kb or a kb line)"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_duplicate_seeds_rejected(self, tmp_path, capsys):
        code = main(
            [
                "compare",
                "--scenario",
                scenario_path("fig1"),
                "--out",
                str(tmp_path),
                "--seeds",
                "1,1",
            ]
        )
        assert code == 1
        assert "seeds: list must be non-empty and duplicate-free, but '1' repeats 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "seeds, chunk", [("abc", "abc"), ("1-2-3", "1-2-3"), ("0-2,3-x", "3-x"), ("0-2,5-3", "5-3")]
    )
    def test_malformed_seeds_exit_one(self, tmp_path, capsys, seeds, chunk):
        out = tmp_path / "cmp"
        args = ["compare", "--scenario", scenario_path("fig1"), "--out", str(out), "--seeds", seeds]
        assert main(args) == 1
        assert f"seeds: {chunk!r} is neither a seed nor a range LO-HI" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "routers, repeat",
        [
            ("unit-ospf,unit-ospf", ", but 'unit-ospf' repeats 'unit-ospf'"),
            ("genadapt, unit-ospf ,genadapt", ", but 'genadapt' repeats 'genadapt'"),
            (" , ", "\n"),
        ],
    )
    def test_duplicate_or_empty_routers_exit_one(self, tmp_path, capsys, routers, repeat):
        out = tmp_path / "cmp"
        args = ["compare", "--scenario", scenario_path("fig1"), "--out", str(out), "--routers", routers]
        assert main([*args, "--seeds", "0-1"]) == 1
        assert "error: routers: list must be non-empty and duplicate-free" + repeat in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_router_rejected(self, tmp_path):
        code = main(
            [
                "compare",
                "--scenario",
                scenario_path("fig1"),
                "--out",
                str(tmp_path),
                "--routers",
                "rip",
            ]
        )
        assert code == 1


class TestGenTopology:
    def test_full_five(self, tmp_path, capsys):
        out = tmp_path / "net.txt"
        assert main(["gen-topology", "--kind", "full", "--size", "5", "--out", str(out)]) == 0
        assert "20 links" in capsys.readouterr().out
        from evoroute.netmodel import load_network

        net = load_network(str(out))
        assert (net.n_nodes, len(net.links)) == (5, 20)

    def test_mnp_is_bidirectional(self, tmp_path):
        out = tmp_path / "net.txt"
        assert main(["gen-topology", "--kind", "mnp", "--size", "3", "--out", str(out)]) == 0
        from evoroute.netmodel import load_network

        net = load_network(str(out))
        pairs = {(l.src, l.dst) for l in net.links}
        assert all((d, s) in pairs for s, d in pairs)

    def test_too_small_is_validation_error(self, tmp_path, capsys):
        code = main(
            ["gen-topology", "--kind", "full", "--size", "1", "--out", str(tmp_path / "n.txt")]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err
