import random

import pytest

from evoroute.expr import BinOp, Var, format_expr
from evoroute.loop import (
    AdaptationState,
    KbImportError,
    adapt_step,
    detect,
    export_kb,
    import_kb,
)
from evoroute.netmodel import Flow, Snapshot, link_utilizations, make_snapshot, mnp_topology
from evoroute.planner import GpConfig, Individual, gen_plan


@pytest.fixture
def fig1():
    return mnp_topology(3)


def snapshot_with_utils(utils):
    return Snapshot((), dict(enumerate(utils)), max(utils, default=0.0), 0.0)


class TestDetect:
    def test_above(self):
        assert detect(snapshot_with_utils([0.3, 0.9]), 0.8)

    def test_exactly_at_threshold_is_fine(self):
        assert not detect(snapshot_with_utils([0.8]), 0.8)

    def test_empty(self):
        assert not detect(snapshot_with_utils([]), 0.8)


class TestAdaptStep:
    def test_congestion_installs_formula(self, fig1):
        bw = {i: 30.0 for i in range(3)}
        flows = [Flow(i, (0,)) for i in range(3)]
        snap = make_snapshot(fig1, flows, bw)
        state = AdaptationState()
        plan = adapt_step(
            fig1, snap, 5, bw, state, GpConfig(max_generations=300), random.Random(1)
        )
        assert max(link_utilizations(fig1, plan.new_flows, bw).values()) <= 0.8
        assert state.log[-1].formula == format_expr(plan.best.expr)
        assert len(state.retained) == 5
        assert len(state.log) == 1
        assert state.log[0].tick == 5

    def test_next_round_bootstraps_retained(self, fig1):
        bw = {i: 30.0 for i in range(3)}
        flows = [Flow(i, (0,)) for i in range(3)]
        snap = make_snapshot(fig1, flows, bw)
        state = AdaptationState()
        adapt_step(fig1, snap, 0, bw, state, GpConfig(max_generations=300), random.Random(1))
        prior = [ind.expr for ind in state.retained]
        result = gen_plan(
            fig1, flows, bw, state.retained, GpConfig(max_generations=0), random.Random(2)
        )
        assert result.initial[:5] == prior


class TestKbFiles:
    def make_kb(self):
        rng = random.Random(0)
        from evoroute.expr import grow_random

        return [Individual(grow_random(6, rng), fitness=float(i)) for i in range(5)]

    def test_round_trip(self, tmp_path):
        kb = self.make_kb()
        path = str(tmp_path / "kb.txt")
        export_kb(kb, path)
        loaded = import_kb(path)
        assert [ind.expr for ind in loaded] == [ind.expr for ind in kb]
        assert all(ind.fitness is None for ind in loaded)

    def test_export_empty_rejected(self, tmp_path):
        with pytest.raises(KbImportError):
            export_kb([], str(tmp_path / "kb.txt"))

    def test_malformed_line_number(self, tmp_path):
        path = tmp_path / "kb.txt"
        path.write_text("0.5 util\nnot-a-kb-line\n")
        with pytest.raises(KbImportError, match="line 2"):
            import_kb(str(path))

    def test_bad_formula_reported(self, tmp_path):
        path = tmp_path / "kb.txt"
        path.write_text("0.5 (util +\n")
        with pytest.raises(KbImportError, match="line 1"):
            import_kb(str(path))

    def test_depth_violation_rejected(self, tmp_path):
        expr = Var("util")
        for _ in range(16):
            expr = BinOp("+", expr, Var("util"))
        assert expr.height == 17
        path = tmp_path / "kb.txt"
        path.write_text(f"0.5 {format_expr(expr)}\n")
        with pytest.raises(KbImportError, match="depth"):
            import_kb(str(path))

    def test_trailing_comments_load(self, tmp_path):
        # a comment runs from '#' to the end of the line, as in scenario files
        path = tmp_path / "kb.txt"
        path.write_text("# retained\n0.5 (util + bw)  # best\n1.25 dl#second\n")
        assert [format_expr(ind.expr) for ind in import_kb(str(path))] == ["(util + bw)", "dl"]

    def test_empty_file_gives_empty_kb(self, tmp_path):
        path = tmp_path / "kb.txt"
        path.write_text("")
        assert import_kb(str(path)) == []
