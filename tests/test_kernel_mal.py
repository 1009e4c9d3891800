"""Unit tests for MAL programs, the interpreter, and Algorithm 1 fidelity."""

import dataclasses

import pytest

from repro import DataCell
from repro.errors import CatalogError, MalError, TypeMismatchError
from repro.kernel.bat import bat_from_values
from repro.kernel.catalog import Catalog
from repro.kernel.interpreter import OPCODES, MalInterpreter
from repro.kernel.mal import Const, Instr, Program, ResultSet, Var
from repro.kernel.types import AtomType


@pytest.fixture
def catalog():
    cat = Catalog()
    t = cat.create_table(
        "readings", [("sensor", AtomType.INT), ("temp", AtomType.DBL)]
    )
    t.append_rows([(1, 10.0), (2, 35.0), (3, 40.0), (1, 5.0)])
    return cat


class TestProgram:
    def test_emit_allocates_fresh_names(self):
        p = Program()
        a = p.emit("language", "pass", [Const(1)])
        b = p.emit("language", "pass", [Const(2)])
        assert a != b
        assert len(p) == 2

    def test_render(self):
        p = Program(name="demo", inputs=["x"])
        p.emit("language", "pass", [Var("x")], results=["y"])
        p.output = "y"
        text = p.render()
        assert "function demo(x):" in text
        assert "y := language.pass(x)" in text
        assert "return y;" in text

    def test_validate_def_before_use(self):
        p = Program()
        p.emit("language", "pass", [Var("ghost")])
        with pytest.raises(MalError):
            p.validate()

    def test_validate_output_defined(self):
        p = Program(output="never")
        with pytest.raises(MalError):
            p.validate()

    def test_validate_ok(self):
        p = Program(inputs=["x"])
        p.output = p.emit("language", "pass", [Var("x")])
        p.validate()


class TestResultSet:
    def test_rows(self):
        rs = ResultSet(
            ["a", "b"],
            [
                bat_from_values(AtomType.INT, [1, 2]),
                bat_from_values(AtomType.STR, ["x", None]),
            ],
        )
        assert rs.rows() == [(1, "x"), (2, None)]
        assert rs.count == 2

    def test_column_lookup(self):
        rs = ResultSet(["a"], [bat_from_values(AtomType.INT, [1])])
        assert rs.column("a").python_list() == [1]
        with pytest.raises(MalError):
            rs.column("zz")

    def test_arity_mismatch(self):
        with pytest.raises(MalError):
            ResultSet(["a", "b"], [bat_from_values(AtomType.INT, [1])])

    def test_length_mismatch(self):
        with pytest.raises(MalError):
            ResultSet(
                ["a", "b"],
                [
                    bat_from_values(AtomType.INT, [1]),
                    bat_from_values(AtomType.INT, [1, 2]),
                ],
            )


class TestInterpreter:
    def test_select_project_pipeline(self, catalog):
        """The classic plan: bind, select, project, result."""
        p = Program(name="hot")
        temp = p.emit("sql", "bind", [Const("readings"), Const("temp")])
        cands = p.emit(
            "algebra",
            "thetaselect",
            [Var(temp), Const(None), Const(">"), Const(30.0)],
        )
        sensor = p.emit("sql", "bind", [Const("readings"), Const("sensor")])
        out_sensor = p.emit("algebra", "projection", [Var(cands), Var(sensor)])
        out_temp = p.emit("algebra", "projection", [Var(cands), Var(temp)])
        p.output = p.emit(
            "sql",
            "resultset",
            [Const(("sensor", "temp")), Var(out_sensor), Var(out_temp)],
        )
        p.validate()
        result = MalInterpreter(catalog).run(p)
        assert result.rows() == [(2, 35.0), (3, 40.0)]

    def test_missing_input_raises(self, catalog):
        p = Program(inputs=["needed"])
        with pytest.raises(MalError):
            MalInterpreter(catalog).execute(p)

    def test_unknown_primitive(self, catalog):
        p = Program()
        p.instructions.append(Instr(("x",), "nosuch", "fn", ()))
        with pytest.raises(MalError):
            MalInterpreter(catalog).execute(p)

    def test_undefined_variable(self, catalog):
        p = Program()
        p.instructions.append(
            Instr(("x",), "language", "pass", (Var("ghost"),))
        )
        with pytest.raises(MalError):
            MalInterpreter(catalog).execute(p)

    def test_primitive_failure_wrapped(self, catalog, monkeypatch):
        # a library error keeps its class; only a foreign exception, a
        # python bug in a primitive, is wrapped
        p = Program()
        p.emit("sql", "bind", [Const("readings"), Const("nope")])
        with pytest.raises(CatalogError):
            MalInterpreter(catalog).execute(p)

        def broken(ctx, value=None):
            raise ValueError("planted")

        monkeypatch.setitem(OPCODES, "language.pass", dataclasses.replace(
            OPCODES["language.pass"], fn=broken))
        p = Program()
        p.emit("language", "pass", [Const(1)])
        with pytest.raises(MalError, match="planted") as failure:
            MalInterpreter(catalog).execute(p)
        assert isinstance(failure.value.__cause__, ValueError)

    def test_one_time_cast_error_keeps_its_class(self):
        # as the window and view routes raise it
        cell = DataCell()
        cell.execute("create table t (s varchar(8))")
        cell.insert("t", [("abc",)])
        with pytest.raises(TypeMismatchError, match="cannot coerce 'abc'"):
            cell.query("select cast(s as int) from t")

    def test_multi_result_instruction(self, catalog):
        p = Program()
        col = p.emit("sql", "bind", [Const("readings"), Const("sensor")])
        p.emit("group", "group", [Var(col)], results=("grp", "ext", "n"))
        env = MalInterpreter(catalog).execute(p)
        assert env["n"] == 3

    def test_inputs_flow_through(self, catalog):
        p = Program(inputs=["x"])
        p.output = p.emit("language", "pass", [Var("x")])
        assert MalInterpreter(catalog).run(p, {"x": 42}) == 42

    def test_grouped_aggregate_plan(self, catalog):
        p = Program()
        sensor = p.emit("sql", "bind", [Const("readings"), Const("sensor")])
        temp = p.emit("sql", "bind", [Const("readings"), Const("temp")])
        grp, ext, n = p.emit(
            "group", "group", [Var(sensor)], results=("grp", "ext", "n")
        )
        sums = p.emit("aggr", "subsum", [Var(temp), Var(grp), Var(n)])
        keys = p.emit("algebra", "projection", [Var(ext), Var(sensor)])
        p.output = p.emit(
            "sql", "resultset", [Const(("sensor", "total")), Var(keys), Var(sums)]
        )
        # extents are candidate-order positions; translate via dense cands
        result = MalInterpreter(catalog).run(p)
        rows = dict(result.rows())
        assert rows == {1: 15.0, 2: 35.0, 3: 40.0}

    def test_batcalc_plan(self, catalog):
        p = Program()
        temp = p.emit("sql", "bind", [Const("readings"), Const("temp")])
        doubled = p.emit("batcalc", "*", [Var(temp), Const(2.0)])
        hot = p.emit("batcalc", ">", [Var(doubled), Const(50.0)])
        cands = p.emit("algebra", "mask2cand", [Var(hot)])
        p.output = p.emit("algebra", "projection", [Var(cands), Var(temp)])
        out = MalInterpreter(catalog).run(p)
        assert out.python_list() == [35.0, 40.0]
