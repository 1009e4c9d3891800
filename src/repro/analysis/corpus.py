"""Verification corpus: ``python -m repro.analysis.corpus [--out F]``.

Two halves, both CI-gated:

* a **good corpus** of continuous-query shapes drawn from the test and
  benchmark suites (filters, expressions, string/math functions, CASE,
  GROUP BY with every aggregate, aggregate and join views).
  Every entry must register cleanly (the engine verifies at
  registration) *and* produce zero error diagnostics — a false positive
  here is a CI failure.
* a **planted-bad corpus** of hand-built broken programs/circuits
  (undefined variable, arity mismatch, emitter-boundary type clash,
  missing retraction operator, misplaced weight column, ...).  Every
  entry must be *rejected* with the expected diagnostic rule — a false
  negative here is a CI failure.

``--out`` writes the full diagnostic listing as a JSON artifact for CI
upload.  The pytest suite (``tests/test_analysis_verifier.py``) reuses
these corpora.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .diagnostics import Diagnostic
from .verifier import verify_circuit, verify_program
from ..kernel.mal import Const, Instr, Program, Var
from ..kernel.types import AtomType

__all__ = [
    "GOOD_QUERIES",
    "planted_bad_cases",
    "run_good_corpus",
    "run_planted_bad",
    "main",
]

# (name, query) — schemas created by _make_cell() below.
GOOD_QUERIES: List[Tuple[str, str]] = [
    ("passthrough", "select * from [select * from trades] as x"),
    (
        "inner-filter",
        "select * from [select * from trades where trades.price > 5.0] as x",
    ),
    (
        "outer-filter",
        "select x.sym, x.price from [select * from trades] as x "
        "where x.qty >= 10 and x.price < 100.0",
    ),
    (
        "arith-projection",
        "select x.sym, x.price * x.qty, -x.qty from "
        "[select * from trades] as x",
    ),
    (
        "string-functions",
        "select upper(x.sym), length(x.sym), substring(x.sym, 1, 2) "
        "from [select * from trades] as x where x.sym like 'A%'",
    ),
    (
        "math-functions",
        "select abs(x.price), sqrt(x.price), round(x.price, 2), "
        "floor(x.qty) from [select * from trades] as x",
    ),
    (
        "case-when",
        "select x.sym, case when x.price > 50.0 then 1 else 0 end "
        "from [select * from trades] as x",
    ),
    (
        "between-in",
        "select x.sym from [select * from trades] as x "
        "where x.price between 1.0 and 9.0 and x.qty in (1, 2, 3)",
    ),
    (
        "scalar-aggregates",
        "select sum(x.price), count(*), avg(x.qty) from "
        "[select * from trades] as x",
    ),
    (
        "group-by-all-aggregates",
        "select x.sym, sum(x.qty), count(x.qty), avg(x.price), "
        "min(x.qty), max(x.price) from [select * from trades] as x "
        "group by x.sym",
    ),
    (
        "group-min-int",
        # regression shape: grouped min/max over an INT column must
        # keep the INT atom through the emitter boundary
        "select x.sym, min(x.qty), max(x.qty) from "
        "[select * from trades] as x group by x.sym",
    ),
    (
        "inner-limit",
        "select * from [select * from trades limit 3] as x",
    ),
    (
        "distinct",
        "select distinct x.sym from [select * from trades] as x",
    ),
    (
        "isnull",
        "select x.sym from [select * from trades] as x "
        "where x.price is not null",
    ),
    (
        "incremental-lift",
        "select x.sym, x.price from "
        "[select * from trades where trades.qty > 0] as x",
    ),
    (
        "incremental-aggregate",
        "create view agg as select x.sym, sum(x.qty), count(*) from "
        "[select * from trades] as x group by x.sym",
    ),
    (
        "incremental-join",
        "create view enriched as select l.sym, l.price, r.sector from "
        "[select * from trades] as l, [select * from refs] as r "
        "where l.sym = r.sym",
    ),
]


def _make_cell():
    from ..core.engine import DataCell

    cell = DataCell()
    cell.create_basket(
        "trades",
        [
            ("price", AtomType.DBL),
            ("qty", AtomType.INT),
            ("sym", AtomType.STR),
        ],
    )
    cell.create_basket(
        "refs", [("sym", AtomType.STR), ("sector", AtomType.STR)]
    )
    return cell


def run_good_corpus() -> List[Dict]:
    """Register every corpus query with verification on; collect results."""
    results: List[Dict] = []
    for name, sql in GOOD_QUERIES:
        entry: Dict = {"name": name, "sql": sql}
        cell = _make_cell()
        try:
            cell.submit_continuous(sql)
            entry["registered"] = True
            entry["errors"] = []
        except Exception as exc:  # any rejection is a false positive
            entry["registered"] = False
            entry["errors"] = [str(exc)]
        finally:
            cell.stop()
        results.append(entry)
    return results


# ----------------------------------------------------------------------
# planted-bad corpus
# ----------------------------------------------------------------------
def _program(instrs: List[Instr], inputs=(), output=None) -> Program:
    prog = Program(name="planted", inputs=list(inputs), output=output)
    for ins in instrs:
        prog.instructions.append(ins)
    return prog


def _bad_undefined_var() -> List[Diagnostic]:
    prog = _program(
        [
            Instr(
                ("v1",), "algebra", "projection",
                (Var("nowhere"), Var("also_nowhere")),
                None,
            )
        ],
        output="v1",
    )
    return verify_program(prog)


def _bad_arity() -> List[Diagnostic]:
    prog = _program(
        [
            Instr(("v0",), "algebra", "densecands", (Var("col"),), None),
            Instr(
                ("v1",), "algebra", "projection",
                (Var("v0"), Var("col"), Const(3), Const(4)),
                None,
            ),
        ],
        inputs=["col"],
        output="v1",
    )
    return verify_program(prog)


def _bad_unknown_opcode() -> List[Diagnostic]:
    prog = _program(
        [Instr(("v1",), "algebra", "teleport", (Var("col"),), None)],
        inputs=["col"],
        output="v1",
    )
    return verify_program(prog)


def _bad_reassignment() -> List[Diagnostic]:
    prog = _program(
        [
            Instr(("v1",), "algebra", "densecands", (Var("col"),), None),
            Instr(("v1",), "algebra", "densecands", (Var("col"),), None),
        ],
        inputs=["col"],
        output="v1",
    )
    return verify_program(prog)


def _bad_emitter_type_clash() -> List[Diagnostic]:
    # plan computes a DBL column where the output basket declares STR
    prog = _program(
        [
            Instr(
                ("v1",), "batcalc", "+", (Var("col"), Const(1.5)), None
            ),
            Instr(
                ("out",), "sql", "resultset",
                (Const(("value",)), Var("v1")),
                None,
            ),
        ],
        inputs=["col"],
        output="out",
    )
    from .signatures import AbstractValue, Kind

    return verify_program(
        prog,
        input_values={
            "col": AbstractValue(Kind.BAT, atom=AtomType.DBL)
        },
        expected_output=[("value", AtomType.STR)],
    )


def _bad_str_arithmetic() -> List[Diagnostic]:
    prog = _program(
        [
            Instr(("v1",), "batcalc", "*", (Var("s"), Const(2)), None),
            Instr(
                ("out",), "sql", "resultset",
                (Const(("v",)), Var("v1")),
                None,
            ),
        ],
        inputs=["s"],
        output="out",
    )
    from .signatures import AbstractValue, Kind

    return verify_program(
        prog,
        input_values={"s": AbstractValue(Kind.BAT, atom=AtomType.STR)},
    )


def _bad_branch_clash() -> List[Diagnostic]:
    # CASE WHEN with a STR branch and an LNG branch: no common atom
    prog = _program(
        [
            Instr(
                ("v1",), "batcalc", "ifthenelse",
                (Var("c"), Var("s"), Var("n")), None,
            ),
            Instr(
                ("out",), "sql", "resultset", (Const(("v",)), Var("v1")),
                None,
            ),
        ],
        inputs=["c", "s", "n"],
        output="out",
    )
    from .signatures import AbstractValue, Kind

    return verify_program(
        prog,
        input_values={
            "c": AbstractValue(Kind.BAT, atom=AtomType.BOOL),
            "s": AbstractValue(Kind.BAT, atom=AtomType.STR),
            "n": AbstractValue(Kind.BAT, atom=AtomType.LNG),
        },
    )


def _catalog():
    from ..kernel.catalog import Catalog

    catalog = Catalog()
    catalog.create_table(
        "trades", [("price", AtomType.DBL), ("sym", AtomType.STR)]
    )
    return catalog


def _bad_unknown_table() -> List[Diagnostic]:
    prog = _program(
        [Instr(("c",), "sql", "bind", (Const("nosuch"), Const("price")),
               None)],
        output="c",
    )
    return verify_program(prog, catalog=_catalog())


def _bad_unknown_column() -> List[Diagnostic]:
    prog = _program(
        [
            Instr(
                ("v1",), "sql", "bind", (Const("trades"), Const("volume")),
                None,
            )
        ],
        output="v1",
    )
    return verify_program(prog, catalog=_catalog())


def _bad_schema_mismatch() -> List[Diagnostic]:
    # two declared result names for one column
    prog = _program(
        [
            Instr(
                ("v1",), "sql", "bind", (Const("trades"), Const("price")),
                None,
            ),
            Instr(
                ("out",), "sql", "resultset",
                (Const(("price", "sym")), Var("v1")), None,
            ),
        ],
        output="out",
    )
    return verify_program(prog, catalog=_catalog())


def _bad_candidate_swap() -> List[Diagnostic]:
    # projection's (cands, bat) order swapped — candidate invariant
    prog = _program(
        [
            Instr(("v0",), "algebra", "densecands", (Var("col"),), None),
            Instr(
                ("v1",), "algebra", "projection",
                (Var("col"), Var("v0")),
                None,
            ),
        ],
        inputs=["col"],
        output="v1",
    )
    from .signatures import AbstractValue, Kind

    return verify_program(
        prog,
        input_values={
            "col": AbstractValue(Kind.BAT, atom=AtomType.INT)
        },
    )


def _bad_result_arity() -> List[Diagnostic]:
    prog = _program(
        [Instr(("a", "b", "c"), "algebra", "join",
               (Var("l"), Var("r")), None)],
        inputs=["l", "r"],
        output="a",
    )
    return verify_program(prog)


def _bad_missing_output() -> List[Diagnostic]:
    prog = _program(
        [Instr(("v1",), "algebra", "densecands", (Var("col"),), None)],
        inputs=["col"],
        output="result_of_nothing",
    )
    return verify_program(prog)


def _make_circuit(kind: str, names, atoms, with_agg: bool):
    from ..incremental.circuit import IncrementalGroupAggregate
    from ..incremental.compile import CircuitContinuousPlan

    plan = CircuitContinuousPlan(
        kind=kind,
        stages=[],
        interpreter=None,
        output_basket="out",
        names=list(names),
        atoms=list(atoms),
    )
    if with_agg:
        plan.agg = IncrementalGroupAggregate(
            ["sum"], [AtomType.INT], AtomType.INT
        )
        plan.item_plan = [("key", 0), ("agg", 0)]
    return plan


def _bad_missing_retraction() -> List[Diagnostic]:
    # aggregate circuit without its integrate/delay operator: deltas
    # would be emitted but retractions never paired
    from ..incremental.zset import WEIGHT_COLUMN

    plan = _make_circuit(
        "aggregate",
        ["k", "total", WEIGHT_COLUMN],
        [AtomType.INT, AtomType.LNG, AtomType.LNG],
        with_agg=False,
    )
    return verify_circuit(plan)


def _bad_weight_atom() -> List[Diagnostic]:
    from ..incremental.zset import WEIGHT_COLUMN

    plan = _make_circuit(
        "aggregate",
        ["k", WEIGHT_COLUMN],
        [AtomType.INT, AtomType.DBL],
        with_agg=True,
    )
    plan.item_plan = [("key", 0)]
    return verify_circuit(plan)


def _bad_weight_position() -> List[Diagnostic]:
    from ..incremental.zset import WEIGHT_COLUMN

    plan = _make_circuit(
        "aggregate",
        [WEIGHT_COLUMN, "k"],
        [AtomType.LNG, AtomType.INT],
        with_agg=True,
    )
    plan.item_plan = [("key", 0)]
    return verify_circuit(plan)


# name -> (builder, expected rule present among error diagnostics)
PLANTED_BAD: Dict[str, Tuple[Callable[[], List[Diagnostic]], str]] = {
    "undefined-var": (_bad_undefined_var, "undefined-variable"),
    "arity-mismatch": (_bad_arity, "arity"),
    "unknown-opcode": (_bad_unknown_opcode, "unknown-opcode"),
    "reassignment": (_bad_reassignment, "reassignment"),
    "emitter-type-clash": (_bad_emitter_type_clash, "emitter-boundary"),
    "str-arithmetic": (_bad_str_arithmetic, "type-check"),
    "branch-clash": (_bad_branch_clash, "type-check"),
    "unknown-table": (_bad_unknown_table, "unknown-table"),
    "unknown-column": (_bad_unknown_column, "unknown-column"),
    "schema-mismatch": (_bad_schema_mismatch, "schema-mismatch"),
    "candidate-swap": (_bad_candidate_swap, "bad-argument"),
    "result-arity": (_bad_result_arity, "result-arity"),
    "missing-output": (_bad_missing_output, "undefined-output"),
    "missing-retraction": (_bad_missing_retraction, "circuit-structure"),
    "weight-atom": (_bad_weight_atom, "circuit-structure"),
    "weight-position": (_bad_weight_position, "circuit-structure"),
}


def planted_bad_cases() -> Dict[str, Tuple[Callable[[], List[Diagnostic]], str]]:
    return dict(PLANTED_BAD)


def run_planted_bad() -> List[Dict]:
    results: List[Dict] = []
    for name, (builder, expected_rule) in PLANTED_BAD.items():
        diagnostics = builder()
        errors = [d for d in diagnostics if d.is_error]
        rejected = any(d.rule == expected_rule for d in errors)
        results.append(
            {
                "name": name,
                "expected_rule": expected_rule,
                "rejected": rejected,
                "diagnostics": [d.to_dict() for d in diagnostics],
            }
        )
    return results


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.corpus",
        description="run the plan-verification corpus (CI gate)",
    )
    parser.add_argument(
        "--out", default=None, help="write the JSON artifact here"
    )
    args = parser.parse_args(argv)

    good = run_good_corpus()
    bad = run_planted_bad()
    false_positives = [g for g in good if not g["registered"]]
    false_negatives = [b for b in bad if not b["rejected"]]

    print(
        f"good corpus: {len(good) - len(false_positives)}/{len(good)} "
        f"registered cleanly"
    )
    for entry in false_positives:
        print(f"FALSE POSITIVE {entry['name']}: {entry['errors']}",
              file=sys.stderr)
    print(
        f"planted-bad corpus: {len(bad) - len(false_negatives)}/{len(bad)} "
        f"rejected with the expected diagnostic"
    )
    for entry in false_negatives:
        print(f"FALSE NEGATIVE {entry['name']}: expected "
              f"[{entry['expected_rule']}]", file=sys.stderr)

    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"good": good, "planted_bad": bad}, handle, indent=2)
        print(f"artifact written to {args.out}")
    return 1 if (false_positives or false_negatives) else 0


if __name__ == "__main__":
    sys.exit(main())
