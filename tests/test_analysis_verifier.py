"""Static plan verifier: corpus, planted-bad programs, surfaced bugs."""

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.analysis.corpus import (
    GOOD_QUERIES,
    planted_bad_cases,
    run_good_corpus,
)
from repro.analysis.diagnostics import PlanVerificationError
from repro.analysis.signatures import AbstractValue, Kind
from repro.analysis.verifier import verify_continuous, verify_program
from repro.core.engine import DataCell
from repro.errors import TypeMismatchError
from repro.kernel.aggregate import grouped_aggregate
from repro.kernel.bat import BAT, bat_from_values
from repro.kernel.calc import calc_neg
from repro.kernel.catalog import Catalog
from repro.kernel.interpreter import OPCODES, MalContext
from repro.kernel.mal import Instr, Var
from repro.kernel.types import AtomType, literal_atom, python_values
from repro.sql.compiler import compile_continuous
from repro.testing import current_seed
from repro.sql.optimizer import eliminate_dead_code
from repro.sql.parser import parse_select


def _cell():
    cell = DataCell()
    cell.create_basket(
        "trades",
        [
            ("price", AtomType.DBL),
            ("qty", AtomType.INT),
            ("sym", AtomType.STR),
        ],
    )
    return cell


# ----------------------------------------------------------------------
# declared vs runtime atoms: every opcode's atom rule against its primitive
# ----------------------------------------------------------------------
ATOMS = list(AtomType)
# STR and BOOL are where most rules draw their lines: draw them more often
COLUMN_ATOMS = ATOMS + [AtomType.STR, AtomType.BOOL] * 2
ATOM_NAMES = st.sampled_from([a.value for a in ATOMS])
LITERALS = st.sampled_from([False, True, 0, 1, 0.0, 1.0, "0", "1", "x"])
THETA_OPS = st.sampled_from(["==", "!=", "<", "<=", ">", ">="])
PATTERNS = st.sampled_from(["%", "0%", "_", "1"])
OMIT = object()  # drop this (optional, trailing) argument


def _bats(draw, n, atoms=COLUMN_ATOMS):
    # every atom stores 0 and 1 (and "0"/"1" cast to any atom), so a drawn
    # column never fails on its values, only on its atom
    atom = draw(st.sampled_from(atoms))
    cells = ["0", "1", None] if atom is AtomType.STR else [0, 1, None]
    values = draw(st.lists(st.sampled_from(cells), min_size=n, max_size=n))
    return bat_from_values(atom, values)


def _cands(draw, n):
    mask = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return np.flatnonzero(mask).astype(np.int64)


def _groups(draw, n):
    """An aligned OID group-id BAT and its group count."""
    k = draw(st.integers(1, 3))
    groups = BAT(AtomType.OID)
    groups.append_array(np.array(
        draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)),
        dtype=np.int64,
    ))
    return groups, k


def _grouped(draw, n):
    groups, k = _groups(draw, n)
    return {1: groups, 2: k, 3: OMIT}


def _delta(draw, n, first):
    groups, k = _groups(draw, n)
    weights = bat_from_values(AtomType.LNG, draw(
        st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n)
    ))
    return dict(enumerate(first + [weights, groups, k]))


NULLABLE = st.one_of(st.none(), LITERALS)
# arguments whose meaning a generic draw would miss, by opcode; a key
# ending in "." or "sub" covers a family
OVERRIDES = {
    "batcalc.cast": lambda d, n: {1: d(ATOM_NAMES)},
    "batcalc.const": lambda d, n: {
        0: d(NULLABLE), 2: d(st.one_of(st.none(), ATOM_NAMES)),
    },
    "algebra.select": lambda d, n: {
        2: d(NULLABLE), 3: d(NULLABLE),
        4: d(st.booleans()), 5: d(st.booleans()), 6: d(st.booleans()),
    },
    "algebra.thetaselect": lambda d, n: {2: d(THETA_OPS), 3: d(NULLABLE)},
    "algebra.likeselect": lambda d, n: {2: d(PATTERNS), 3: d(st.booleans())},
    "algebra.slice": lambda d, n: {
        1: d(st.integers(0, n)), 2: d(st.integers(0, n)),
    },
    "batstr.substring": lambda d, n: {
        1: d(st.integers(0, 3)), 2: d(st.integers(0, 3)),
    },
    "batstr.like": lambda d, n: {1: d(PATTERNS), 2: d(st.booleans())},
    "batmath.": lambda d, n: {1: d(st.integers(0, 2))},
    "aggr.sub": _grouped,
    "group.subgroup": lambda d, n: {1: _groups(d, n)[0], 2: OMIT},
    "delta.subsum": lambda d, n: _delta(d, n, [_bats(d, n, [
        a for a in ATOMS if a.is_numeric
    ])]),
    "delta.subcount": lambda d, n: _delta(d, n, []),
}


def _override(name):
    for key, build in OVERRIDES.items():
        if name == key or (key.endswith((".", "sub")) and name.startswith(key)):
            return build
    return lambda d, n: {}


def _draw_args(draw, name, opcode):
    n = draw(st.integers(0, 4))
    fixed = _override(name)(draw, n)
    args = []
    for pos, param in enumerate(opcode.params):
        if pos in fixed:
            if fixed[pos] is OMIT:
                break
            args.append(fixed[pos])
            continue
        if param.endswith("?") and draw(st.booleans()):
            break
        spec = opcode.spec(pos)
        if spec == "bat":
            args.append(_bats(draw, n))
        elif spec == "cand":
            args.append(_cands(draw, n))
        elif spec == "candopt":
            args.append(None if draw(st.booleans()) else _cands(draw, n))
        elif spec == "any":
            args.append(_bats(draw, n) if draw(st.booleans())
                        else draw(LITERALS))
        else:
            args.append(draw(LITERALS))
    if "any" in opcode.params and not any(isinstance(a, BAT) for a in args):
        args[0] = _bats(draw, n)  # a batcalc op needs one column operand
    return args


def _rule_items(opcode, args):
    """What the verifier hands the rule: a scalar's value, else an atom."""
    items = []
    for pos, arg in enumerate(args):
        if opcode.spec(pos) == "scalar":
            items.append(arg)
        elif isinstance(arg, BAT):
            items.append(arg.atom)
        elif isinstance(arg, np.ndarray) or arg is None:
            items.append(None)
        else:
            items.append(literal_atom(arg))
    return items


def _outcome(call):
    try:
        return call(), None
    except TypeMismatchError as exc:
        return None, exc


TYPED_OPCODES = sorted(name for name, op in OPCODES.items() if op.atom)


class TestDeclaredAtoms:
    """Each opcode's atom rule is what its primitive produces: the same
    atom, and a TypeMismatchError on exactly the same inputs."""

    @pytest.mark.parametrize("name", TYPED_OPCODES)
    @seed(current_seed())
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_rule_matches_primitive(self, name, data):
        opcode = OPCODES[name]
        args = _draw_args(data.draw, name, opcode)
        ctx = MalContext(Catalog())
        declared, rule_error = _outcome(
            lambda: opcode.atom(*_rule_items(opcode, args))
        )
        out, kernel_error = _outcome(lambda: opcode.fn(ctx, *args))
        assert (rule_error is None) == (kernel_error is None), (
            name, args, rule_error, kernel_error
        )
        if kernel_error is not None:
            return
        first = out[0] if isinstance(out, tuple) else out
        if isinstance(first, BAT):
            assert first.atom is declared, (name, args)
        elif opcode.returns[0] == "scalar" and first is not None:
            # a scalar aggregate is the python value of its declared atom
            back = python_values(
                declared, bat_from_values(declared, [first]).tail
            )[0]
            assert back == first and type(back) is type(first), (
                name, args, first, declared
            )


class TestGoodCorpus:
    def test_zero_false_positives(self):
        results = run_good_corpus()
        rejected = [r for r in results if not r["registered"]]
        assert rejected == []

    def test_corpus_covers_both_execution_modes(self):
        modes = {execution for _, _, execution in GOOD_QUERIES}
        assert modes == {"reeval", "incremental"}


class TestPlantedBad:
    @pytest.mark.parametrize(
        "name", sorted(planted_bad_cases())
    )
    def test_rejected_with_expected_rule(self, name):
        builder, expected_rule = planted_bad_cases()[name]
        diagnostics = builder()
        errors = [d for d in diagnostics if d.is_error]
        assert errors, f"{name}: no error diagnostics at all"
        assert any(d.rule == expected_rule for d in errors), (
            f"{name}: expected [{expected_rule}] among "
            f"{[d.rule for d in errors]}"
        )

    def test_registration_rejects_with_anchored_diagnostic(self):
        """A bad plan fails at submit time, anchored to a plan node."""
        cell = _cell()
        compiled = compile_continuous(
            cell.catalog,
            parse_select("select x.sym from [select * from trades] as x"),
        )
        # sabotage the compiled plan: reference a variable that does not
        # exist (the classic mid-firing KeyError)
        compiled.program.instructions.insert(
            0,
            Instr(
                ("boom",), "algebra", "densecands", (Var("ghost"),), None
            ),
        )
        compiled.program.instructions.insert(
            1,
            Instr(
                ("boom2",), "algebra", "projection",
                (Var("boom"), Var("ghost")), None,
            ),
        )
        diags = verify_continuous(compiled, cell.catalog)
        errors = [d for d in diags if d.is_error]
        assert any(d.rule == "undefined-variable" for d in errors)
        # instruction anchor survives into the rendered message
        rendered = "\n".join(d.render() for d in errors)
        assert "ghost" in rendered

    def test_error_message_carries_node_path(self):
        """Diagnostics on compiled instructions name the plan node."""
        cell = _cell()
        compiled = compile_continuous(
            cell.catalog,
            parse_select(
                "select x.sym from [select * from trades] as x "
                "where x.price > 1.0"
            ),
        )
        # retype an input so the comparison inside `where` clashes
        diags = verify_program(
            compiled.program,
            catalog=cell.catalog,
            input_values={
                "x.price": AbstractValue(kind=Kind.BAT, atom=AtomType.STR)
            },
        )
        errors = [d for d in diags if d.is_error]
        assert errors
        assert any(d.node_path and "where" in d.node_path for d in errors)


class TestDeadCodeCrossCheck:
    def test_dead_warnings_match_optimizer_dce(self):
        """The verifier's liveness and the optimizer's DCE agree."""
        cell = _cell()
        for _, sql, execution in GOOD_QUERIES:
            if execution != "reeval" or "refs" in sql:
                continue
            compiled = compile_continuous(cell.catalog, parse_select(sql))
            protected = [b.consumed_var for b in compiled.basket_inputs]
            diags = verify_program(
                compiled.program, protected=protected, check_dead=True
            )
            warned = sum(
                1 for d in diags if d.rule == "dead-instruction"
            )
            _, removed = eliminate_dead_code(
                compiled.program, protected=protected
            )
            assert warned == removed, sql

    def test_no_dead_warnings_after_optimize(self):
        cell = _cell()
        q = cell.submit_continuous(
            "select x.sym from [select * from trades] as x "
            "where x.price > 2.0"
        )
        # the registered (optimized) program is warning-free
        factory = next(
            t for t in cell.scheduler.transitions() if t.name == q.name
        )
        program = factory.plan.compiled.program
        diags = verify_program(
            program,
            catalog=cell.catalog,
            protected=[
                b.consumed_var
                for b in factory.plan.compiled.basket_inputs
            ],
        )
        assert [d for d in diags if d.rule == "dead-instruction"] == []
        cell.stop()


class TestEmitterBoundary:
    def test_registration_fails_fast_on_type_clash(self):
        """Declared-vs-computed output atom mismatch rejects at submit."""
        cell = _cell()
        compiled = compile_continuous(
            cell.catalog,
            parse_select(
                "select x.qty from [select * from trades] as x"
            ),
        )
        compiled.output_atoms[0] = AtomType.STR  # sabotage the contract
        diags = verify_continuous(compiled, cell.catalog)
        errors = [d for d in diags if d.is_error]
        assert any(d.rule == "emitter-boundary" for d in errors)

    def test_engine_raises_plan_verification_error(self, monkeypatch):
        cell = _cell()
        import repro.core.lowering as lowering_mod

        real = lowering_mod.generate_continuous

        def sabotage(query):
            compiled = real(query)
            # miscompile the interface: declared output atom no longer
            # matches what the plan computes (STR column declared INT)
            compiled.output_atoms[0] = AtomType.INT
            return compiled

        monkeypatch.setattr(lowering_mod, "generate_continuous", sabotage)
        with pytest.raises(PlanVerificationError) as excinfo:
            cell.submit_continuous(
                "select x.sym from [select * from trades] as x"
            )
        assert "emitter-boundary" in str(excinfo.value)
        cell.stop()


class TestSurfacedBugs:
    """Regression tests for real bugs the verifier's rules exposed."""

    def test_grouped_min_max_preserve_int_atom(self):
        """grouped min/max over INT must stay INT (was widened to LNG)."""
        values = bat_from_values(AtomType.INT, [5, 3, 9, 1])
        groups = BAT(AtomType.OID)
        groups.append_array(np.array([0, 0, 1, 1], dtype=np.int64))
        out = grouped_aggregate("min", values, groups, 2)
        assert out.atom is AtomType.INT
        assert list(out.tail) == [3, 1]
        out = grouped_aggregate("max", values, groups, 2)
        assert out.atom is AtomType.INT
        assert list(out.tail) == [5, 9]

    def test_grouped_min_preserves_timestamp_atom(self):
        values = bat_from_values(AtomType.TIMESTAMP, [5.0, 3.0, 9.0])
        groups = BAT(AtomType.OID)
        groups.append_array(np.array([0, 0, 0], dtype=np.int64))
        out = grouped_aggregate("min", values, groups, 1)
        assert out.atom is AtomType.TIMESTAMP

    def test_grouped_sum_still_widens_to_lng(self):
        values = bat_from_values(AtomType.INT, [5, 3])
        groups = BAT(AtomType.OID)
        groups.append_array(np.array([0, 0], dtype=np.int64))
        out = grouped_aggregate("sum", values, groups, 1)
        assert out.atom is AtomType.LNG
        assert list(out.tail) == [8]

    def test_continuous_group_by_min_int_fires(self):
        """End to end: the shape that used to die mid-firing."""
        cell = _cell()
        q = cell.submit_continuous(
            "select x.sym, min(x.qty), max(x.qty) from "
            "[select * from trades] as x group by x.sym"
        )
        cell.insert("trades", [(1.0, 7, "a"), (2.0, 3, "a"), (3.0, 9, "b")])
        cell.run_until_quiescent()
        rows = {r[0]: r[1:] for r in q.fetch()}
        assert rows["a"] == (3, 7)
        assert rows["b"] == (9, 9)
        cell.stop()

    def test_unary_neg_preserves_int_atom(self):
        """calc_neg must not widen INT to LNG via its zero constant."""
        values = bat_from_values(AtomType.INT, [5, -3])
        out = calc_neg(values)
        assert out.atom is AtomType.INT
        assert list(out.tail) == [-5, 3]

    def test_continuous_unary_minus_fires(self):
        cell = _cell()
        q = cell.submit_continuous(
            "select x.sym, -x.qty from [select * from trades] as x"
        )
        cell.insert("trades", [(1.0, 7, "a")])
        cell.run_until_quiescent()
        assert q.fetch() == [("a", -7)]
        cell.stop()
