"""Static MAL program verifier.

Checks a compiled program *before registration* for everything that
would otherwise surface mid-firing as a ``KeyError``/``MalError``/
``TypeMismatchError`` inside a factory thread:

* duplicate/shadowed inputs, single assignment, def-before-use;
* unknown opcodes, arity (argument count bounds and result count) and
  parameter kinds, all read from the interpreter's opcode table
  (:data:`~repro.kernel.interpreter.OPCODES`); the kind checks subsume
  the candidate-list invariants: ``algebra.projection`` takes
  ``(cands, bat)`` in that order, ``algebra.compose``/``firstn`` take
  candidate lists, ...;
* abstract atom-type propagation by the kernel's own result-atom rules,
  with clashes reported where the kernel would raise;
* catalog and schema checks (:data:`~repro.analysis.signatures.SCHEMA_RULES`);
* schema compatibility at the emitter boundary (the program's output
  ``ResultSet`` columns vs the declared output basket schema);
* dead instructions (warning) — cross-checked in tests against the
  optimizer's DCE so the two analyses can't drift apart.

All diagnostics are anchored to the instruction *and* the logical plan
node (``continuous select > where``) via :func:`diagnostics.node_path`.

:func:`verify_continuous` wraps this for a :class:`CompiledQuery` (atoms
of free inputs resolved from catalog basket schemas), and
:func:`verify_circuit` adds the incremental-circuit structure checks
(weight-column discipline, retraction pairing).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from .diagnostics import (
    Diagnostic,
    DiagnosticSink,
    ERROR,
    WARNING,
    node_path,
)
from .signatures import (
    SCHEMA_RULES,
    AbstractValue,
    Kind,
    UNKNOWN,
    accepts,
)
from ..errors import KernelError
from ..kernel.interpreter import OPCODES, Opcode
from ..kernel.mal import Const, Instr, Program, Var
from ..kernel.types import AtomType, compare_atom, literal_atom

__all__ = ["verify_program", "verify_continuous", "verify_circuit"]


@dataclass
class _Context:
    """What the :data:`SCHEMA_RULES` callbacks may consult."""

    catalog: object = None


def _const_value(arg: Const) -> AbstractValue:
    return AbstractValue(
        Kind.SCALAR,
        atom=literal_atom(arg.value),
        const=arg.value,
        has_const=True,
    )


def _needed_instructions(
    program: Program, protected: Sequence[str]
) -> Set[int]:
    """Backward liveness — same walk as the optimizer's DCE."""
    live: Set[str] = set(protected)
    if program.output:
        live.add(program.output)
    needed: Set[int] = set()
    for index in range(len(program.instructions) - 1, -1, -1):
        ins = program.instructions[index]
        if any(r in live for r in ins.results):
            needed.add(index)
            for arg in ins.args:
                if isinstance(arg, Var):
                    live.add(arg.name)
    return needed


def verify_program(
    program: Program,
    catalog: object = None,
    expected_output: Optional[Sequence[Tuple[str, Optional[AtomType]]]] = None,
    protected: Sequence[str] = (),
    input_values: Optional[Dict[str, AbstractValue]] = None,
    check_dead: bool = True,
) -> List[Diagnostic]:
    """Verify one MAL program; returns all diagnostics (errors first).

    ``input_values`` maps free input names to what is known about them
    (e.g. basket column atoms); unnamed inputs verify as unknown.
    ``expected_output`` declares the (name, atom) columns the emitter
    boundary expects the output ``ResultSet`` to carry.  ``protected``
    names extra roots that must stay live (consumed-marker variables).
    """
    sink = DiagnosticSink()
    ctx = _Context(catalog=catalog)
    env: Dict[str, AbstractValue] = {}

    seen_inputs: Set[str] = set()
    for name in program.inputs:
        if name in seen_inputs:
            sink.report(
                "duplicate-input",
                f"input {name!r} declared twice",
            )
        seen_inputs.add(name)
        env[name] = (input_values or {}).get(name, UNKNOWN)

    for index, ins in enumerate(program.instructions):
        path = node_path(program, ins.node)

        def report(
            message: str,
            rule: str = "type-check",
            severity: str = ERROR,
            _index: int = index,
            _ins: Instr = ins,
            _path: Optional[str] = path,
        ) -> None:
            sink.report(
                rule,
                message,
                severity=severity,
                instr_index=_index,
                instr_text=_render(_ins),
                node_id=_ins.node,
                path=_path,
            )

        # -- def-before-use ------------------------------------------------
        args: List[Optional[AbstractValue]] = []
        defined = True
        for arg in ins.args:
            if isinstance(arg, Const):
                args.append(_const_value(arg))
            elif arg.name in env:
                args.append(env[arg.name])
            else:
                report(
                    f"variable {arg.name!r} used before assignment",
                    rule="undefined-variable",
                )
                args.append(UNKNOWN)
                defined = False

        # -- single assignment ---------------------------------------------
        for result in ins.results:
            if result in env:
                report(
                    f"variable {result!r} assigned more than once",
                    rule="reassignment",
                )

        # -- opcode / arity / kinds ----------------------------------------
        opcode = f"{ins.module}.{ins.fn}"
        sig = OPCODES.get(opcode)
        if sig is None:
            report(
                f"unknown MAL primitive {opcode!r} "
                f"(would fail at first firing)",
                rule="unknown-opcode",
            )
            for result in ins.results:
                env[result] = UNKNOWN
            continue

        n_args = len(ins.args)
        max_arity = sig.max_arity
        if n_args < sig.min_arity or (
            max_arity is not None and n_args > max_arity
        ):
            expected = (
                f"{sig.min_arity}+"
                if max_arity is None
                else (
                    str(max_arity)
                    if sig.min_arity == max_arity
                    else f"{sig.min_arity}..{max_arity}"
                )
            )
            report(
                f"{opcode} expects {expected} argument(s), got {n_args}",
                rule="arity",
            )
            for result in ins.results:
                env[result] = UNKNOWN
            continue

        for pos, value in enumerate(args):
            spec = sig.spec(pos)
            if not accepts(spec, value):
                report(
                    f"{opcode} argument {pos} expects "
                    f"{spec}, got {value.kind.value}",
                    rule="bad-argument",
                )

        if len(ins.results) != len(sig.returns):
            report(
                f"{opcode} produces {len(sig.returns)} result(s), "
                f"instruction assigns {len(ins.results)}",
                rule="result-arity",
            )

        # -- abstract evaluation -------------------------------------------
        produced = _evaluate(opcode, sig, args, ctx, report) if defined else ()
        for result, value in zip(ins.results, produced):
            env[result] = value
        for result in ins.results[len(produced):]:
            env[result] = UNKNOWN

    # -- output ------------------------------------------------------------
    if program.output and program.output not in env:
        sink.report(
            "undefined-output",
            f"program output {program.output!r} is never assigned",
        )
    for name in protected:
        if name not in env:
            sink.report(
                "undefined-output",
                f"protected variable {name!r} is never assigned",
            )

    # -- emitter boundary ----------------------------------------------------
    if expected_output is not None and program.output in env:
        _check_emitter_boundary(
            env[program.output], expected_output, sink
        )

    # -- dead instructions ---------------------------------------------------
    if check_dead:
        needed = _needed_instructions(program, protected)
        for index, ins in enumerate(program.instructions):
            if not ins.results:
                continue
            if index not in needed:
                sink.report(
                    "dead-instruction",
                    f"result(s) {', '.join(ins.results)} are never used "
                    f"(optimizer DCE would remove this)",
                    severity=WARNING,
                    instr_index=index,
                    instr_text=_render(ins),
                    node_id=ins.node,
                    path=node_path(program, ins.node),
                )

    sink.diagnostics.sort(key=lambda d: (not d.is_error, d.instr_index or 0))
    return sink.diagnostics


def _evaluate(
    opcode: str, sig: Opcode, args: List[AbstractValue], ctx: _Context, report
) -> Tuple[AbstractValue, ...]:
    """Abstract result values of one instruction.

    A :data:`SCHEMA_RULES` entry computes them when the opcode has one.
    Otherwise they take the declared result kinds, the first typed by the
    opcode's atom rule; that rule runs only when every ``scalar``
    argument is a known constant, and a :class:`KernelError` from it is
    the error the kernel would raise mid-firing.  Rule bugs must never
    block registration, so any other exception leaves the results unknown.
    """
    schema_rule = SCHEMA_RULES.get(opcode)
    if schema_rule is not None:
        padded: List[Optional[AbstractValue]] = list(args)
        padded += [None] * (len(sig.params) - len(padded))
        try:
            out = schema_rule(ctx, padded, report)
        except Exception:
            return ()
        return out if isinstance(out, tuple) else (out,)
    produced = [AbstractValue(Kind(kind)) for kind in sig.returns]
    if sig.atom is None or not produced:
        return tuple(produced)
    items: List[Any] = []
    for pos, value in enumerate(args):
        if sig.spec(pos) != "scalar":
            items.append(value.atom)
        elif value.has_const:
            items.append(value.const)
        else:
            return tuple(produced)
    try:
        atom = sig.atom(*items)
    except KernelError as exc:
        report(f"{opcode}: {exc}")
        return tuple(produced)
    except Exception:
        return tuple(produced)
    if produced[0].kind in (Kind.BAT, Kind.SCALAR):
        produced[0] = AbstractValue(produced[0].kind, atom=atom)
    return tuple(produced)


def _check_emitter_boundary(
    output: AbstractValue,
    expected: Sequence[Tuple[str, Optional[AtomType]]],
    sink: DiagnosticSink,
) -> None:
    if output.kind not in (Kind.RESULT, Kind.ANY):
        sink.report(
            "emitter-boundary",
            f"program output is a {output.kind.value}, expected a "
            f"result set",
        )
        return
    if output.columns is None:
        return
    if len(output.columns) != len(expected):
        sink.report(
            "emitter-boundary",
            f"program produces {len(output.columns)} column(s) but the "
            f"output schema declares {len(expected)}",
        )
        return
    for pos, ((got_name, got_atom), (want_name, want_atom)) in enumerate(
        zip(output.columns, expected)
    ):
        if got_atom is None or want_atom is None:
            continue
        if got_atom is not want_atom:
            sink.report(
                "emitter-boundary",
                f"output column {pos} ({want_name!r}) declared "
                f"{want_atom.name} but the plan computes {got_atom.name} "
                f"(append_bat would reject the column mid-firing)",
            )


def _render(ins: Instr) -> str:
    args = ", ".join(repr(a) for a in ins.args)
    results = ", ".join(ins.results)
    head = f"{results} := " if results else ""
    return f"{head}{ins.module}.{ins.fn}({args})"


# ----------------------------------------------------------------------
# continuous queries and incremental circuits
# ----------------------------------------------------------------------
def _basket_input_values(
    compiled, catalog
) -> Tuple[Dict[str, AbstractValue], List[str]]:
    """Abstract values for a continuous plan's free inputs.

    Free inputs are named ``{alias}.{column}`` and bound to basket
    column snapshots at firing time, so their atoms come from the
    catalog's basket schemas.  Consumed-marker variables are protected
    candidate lists.
    """
    values: Dict[str, AbstractValue] = {}
    protected: List[str] = []
    for basket_input in getattr(compiled, "basket_inputs", ()):
        protected.append(basket_input.consumed_var)
        if catalog is None:
            continue
        try:
            table = catalog.get(basket_input.basket)
        except Exception:
            continue
        for col in table.schema:
            values[f"{basket_input.alias}.{col.name.lower()}"] = (
                AbstractValue(Kind.BAT, atom=col.atom)
            )
    return values, protected


def verify_continuous(
    compiled,
    catalog=None,
    expected_output: Optional[Sequence[Tuple[str, Optional[AtomType]]]] = None,
) -> List[Diagnostic]:
    """Verify a :class:`repro.sql.compiler.CompiledQuery`.

    ``expected_output`` defaults to the compiled query's own declared
    output columns — exactly what the engine creates the output basket
    from, so a mismatch here is the mid-firing ``append_bat`` failure.
    """
    if expected_output is None:
        expected_output = list(
            zip(compiled.output_names, compiled.output_atoms)
        )
    values, protected = _basket_input_values(compiled, catalog)
    return verify_program(
        compiled.program,
        catalog=catalog,
        expected_output=expected_output,
        protected=protected,
        input_values=values,
    )


def verify_circuit(plan, catalog=None) -> List[Diagnostic]:
    """Structure checks for an incremental (Z-set) circuit plan.

    Beyond verifying each stage's MAL program, enforces the weight
    discipline: a circuit (aggregate/join) must carry the ``dc_weight``
    column as its last output with LNG atom and own a retraction-capable
    operator (the integrate/delay pair lives inside
    ``IncrementalGroupAggregate``/``IncrementalJoin`` state).
    """
    from ..incremental.zset import WEIGHT_COLUMN

    sink = DiagnosticSink()
    diagnostics: List[Diagnostic] = []

    kind = getattr(plan, "kind", None)
    if kind not in ("aggregate", "join"):
        sink.report(
            "circuit-structure", f"unknown circuit kind {kind!r}"
        )
        return sink.diagnostics

    for stage_index, stage in enumerate(getattr(plan, "stages", ())):
        expected = list(zip(stage.output_names, stage.output_atoms))
        for diag in verify_continuous(stage, catalog, expected):
            diagnostics.append(
                Diagnostic(
                    rule=diag.rule,
                    message=f"stage {stage_index}: {diag.message}",
                    severity=diag.severity,
                    instr_index=diag.instr_index,
                    instr_text=diag.instr_text,
                    node_id=diag.node_id,
                    node_path=diag.node_path,
                )
            )

    names = list(getattr(plan, "names", ()))
    atoms = list(getattr(plan, "atoms", ()))
    if not names or names[-1] != WEIGHT_COLUMN:
        sink.report(
            "circuit-structure",
            f"weighted {kind} circuit must emit {WEIGHT_COLUMN!r} "
            f"as its last column, got {names!r}",
        )
    elif atoms and atoms[-1] is not AtomType.LNG:
        sink.report(
            "circuit-structure",
            f"{WEIGHT_COLUMN!r} column must be LNG, "
            f"got {atoms[-1].name}",
        )
    if kind == "aggregate" and getattr(plan, "agg", None) is None:
        sink.report(
            "circuit-structure",
            "aggregate circuit is missing its retraction operator "
            "(IncrementalGroupAggregate integrate/delay state)",
        )
    if kind == "join" and getattr(plan, "join", None) is None:
        sink.report(
            "circuit-structure",
            "join circuit is missing its retraction operator "
            "(IncrementalJoin integrated state)",
        )

    if kind == "aggregate" and getattr(plan, "agg", None) is not None:
        _check_aggregate_shape(plan, sink)
    if kind == "join" and getattr(plan, "join", None) is not None:
        _check_join_shape(plan, sink)

    diagnostics.extend(sink.diagnostics)
    diagnostics.sort(key=lambda d: (not d.is_error, d.instr_index or 0))
    return diagnostics


def _check_aggregate_shape(plan, sink: DiagnosticSink) -> None:
    item_plan = list(getattr(plan, "item_plan", ()))
    n_keys = getattr(plan, "n_group_keys", 0)
    n_aggs = len(getattr(plan.agg, "aggregates", ()))
    if len(item_plan) != len(plan.names) - 1:
        sink.report(
            "circuit-structure",
            f"aggregate circuit emits {len(plan.names) - 1} value "
            f"column(s) but plans {len(item_plan)}",
        )
    for source, index in item_plan:
        if source == "key" and not 0 <= index < n_keys:
            sink.report(
                "circuit-structure",
                f"aggregate circuit references group key {index} "
                f"(have {n_keys})",
            )
        elif source == "agg" and not 0 <= index < n_aggs:
            sink.report(
                "circuit-structure",
                f"aggregate circuit references aggregate {index} "
                f"(have {n_aggs})",
            )
    for stage in getattr(plan, "stages", ()):
        width = len(stage.output_names)
        if width != n_keys + len(getattr(plan.agg, "aggregates", ())):
            # lift stage emits (*keys, *values) rows for the operator
            if width < n_keys:
                sink.report(
                    "circuit-structure",
                    f"lift stage emits {width} column(s) but the "
                    f"operator needs {n_keys} group key(s)",
                )


def _check_join_shape(plan, sink: DiagnosticSink) -> None:
    stages = list(getattr(plan, "stages", ()))
    if len(stages) != 2:
        sink.report(
            "circuit-structure",
            f"join circuit needs 2 lift stages, got {len(stages)}",
        )
        return
    left_width = len(stages[0].output_names)
    right_width = len(stages[1].output_names)
    row_width = left_width + right_width - 1
    for pos in getattr(plan, "out_positions", ()):
        if not 0 <= pos < row_width:
            sink.report(
                "circuit-structure",
                f"join circuit projects position {pos} out of a "
                f"{row_width}-column joined row",
            )
    left_key = stages[0].output_atoms[0] if stages[0].output_atoms else None
    right_key = stages[1].output_atoms[0] if stages[1].output_atoms else None
    if left_key is not None and right_key is not None:
        try:
            compare_atom(left_key, right_key)
        except KernelError:
            sink.report(
                "circuit-structure",
                f"join keys have incompatible atoms "
                f"{left_key.name} and {right_key.name}",
            )
