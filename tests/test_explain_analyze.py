"""Continuous EXPLAIN ANALYZE: plan-node attribution of opcode timings."""

import re

import pytest

from repro import DataCell
from repro.sql.compiler import compile_continuous
from repro.sql.optimizer import optimize
from repro.sql.parser import parse_select

CQ = (
    "select s.sensor, s.temp from "
    "[select * from sensors where sensors.temp > 30.0] as s"
)


def build_cell():
    cell = DataCell()
    cell.execute("create basket sensors (sensor int, temp double)")
    query = cell.submit_continuous(CQ, name="hot")
    return cell, query


def drive(cell, batches=3):
    for i in range(batches):
        cell.insert("sensors", [(i, 45.0), (i + 100, 10.0)])
        cell.run_until_quiescent()


class TestAttribution:
    def test_95_percent_of_interpreter_time_attributed(self):
        cell, query = build_cell()
        drive(cell, batches=5)
        program = query.program()
        attributed = sum(
            slot[1]
            for node, slot in program.node_stats.items()
            if node is not None
        )
        measured = sum(
            prof["seconds"] for prof in cell.interpreter.profile().values()
        )
        assert measured > 0
        assert attributed / measured >= 0.95

    def test_calls_scale_with_activations(self):
        cell, query = build_cell()
        drive(cell, batches=4)
        program = query.program()
        scan = next(
            node_id for node_id, node in program.nodes.items()
            if node.label == "basket sensors"
        )
        calls = program.node_stats[scan][0]
        assert calls > 0
        assert calls % 4 == 0  # same instructions, once per activation

    def test_rows_accumulate_across_activations(self):
        cell, query = build_cell()
        drive(cell, batches=3)
        program = query.program()
        result = next(
            node_id for node_id, node in program.nodes.items()
            if node.label == "result"
        )
        # one qualifying tuple per batch, summed over activations
        assert program.node_stats[result][2] == 3

    def test_stats_survive_the_optimizer(self):
        # the submit path optimizes (CSE/DCE rebuild instructions);
        # every surviving non-glue instruction must keep its node tag
        cell, query = build_cell()
        program = query.program()
        tagged = [ins for ins in program.instructions if ins.node is not None]
        assert len(tagged) >= len(program.instructions) - 2
        for ins in tagged:
            assert ins.node in program.nodes


class TestRendering:
    def test_tree_annotated_with_time_calls_rows(self):
        cell, query = build_cell()
        drive(cell, batches=2)
        text = cell.explain("hot")
        assert text.startswith("continuous query hot")
        assert "continuous select" in text
        assert "basket sensors" in text
        assert "result" in text
        stats = re.findall(
            r"\[time=([\d.]+) ms, calls=(\d+), rows=(\d+)\]", text
        )
        assert stats  # at least one operator carries measurements
        assert any(int(calls) > 0 for _, calls, _ in stats)
        assert "total analyzed:" in text

    def test_tree_structure_indents_children(self):
        cell, query = build_cell()
        text = cell.explain("hot")
        lines = text.splitlines()
        select_line = next(
            line for line in lines if "continuous select" in line
        )
        scan_line = next(
            line for line in lines if "basket sensors" in line
        )
        indent = len(select_line) - len(select_line.lstrip())
        scan_indent = len(scan_line) - len(scan_line.lstrip())
        assert scan_indent > indent

    def test_never_executed_marker_before_first_batch(self):
        cell, query = build_cell()
        text = cell.explain("hot")
        assert "(never executed)" in text
        assert "[time=" not in text

    def test_explain_by_name_vs_sql(self):
        cell, query = build_cell()
        drive(cell, batches=1)
        by_name = cell.explain("hot")
        assert "[time=" in by_name
        # unknown name falls through to SQL compilation and raises there
        by_sql = cell.explain("select * from sensors")
        assert "algebra" in by_sql or "resultset" in by_sql

    def test_hand_built_plan_explains_gracefully(self):
        from repro.core.factory import CallablePlan
        from repro.kernel.types import AtomType

        cell = DataCell()
        cell.execute("create basket src (v int)")
        query = cell.submit_plan(
            "w", CallablePlan(lambda s: None, default_output="w_out"),
            ["src"], [("v", AtomType.INT)],
        )
        text = query.explain_analyze()
        assert "hand-built plan" in text
        assert query.program() is None


class TestCompilerNodeTree:
    def test_fresh_program_has_node_tree(self):
        cell, _ = build_cell()
        stmt = parse_select(CQ)
        compiled = compile_continuous(cell.catalog, stmt)
        program = compiled.program
        assert program.plan_root is not None
        labels = {node.label for node in program.nodes.values()}
        assert {"continuous select", "from", "basket sensors",
                "project", "result"} <= labels
        # every emitted instruction is tagged with a node in the tree
        for ins in program.instructions:
            assert ins.node is not None
            assert ins.node in program.nodes

    def test_optimizer_clone_keeps_tree(self):
        cell, _ = build_cell()
        stmt = parse_select(CQ)
        compiled = compile_continuous(cell.catalog, stmt)
        before = dict(compiled.program.nodes)
        optimized, _ = optimize(
            compiled.program,
            protected=[b.consumed_var for b in compiled.basket_inputs],
        )
        assert optimized.plan_root == compiled.program.plan_root
        assert set(optimized.nodes) == set(before)

    def test_unbalanced_node_scope_raises(self):
        from repro.kernel.mal import MalError, Program

        program = Program("p")
        with pytest.raises(MalError):
            program.end_node()
