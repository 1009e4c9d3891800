"""What the MAL verifier knows about values, and the checks only it makes.

Every opcode's arity, parameter kinds, result kinds and result-atom rule
come from the interpreter's one opcode table,
:data:`repro.kernel.interpreter.OPCODES`.  This module keeps what the
kernel cannot say: the abstract values the verifier propagates, and the
catalog and schema checks of the opcodes that bind columns and build
result sets (:data:`SCHEMA_RULES`).

The rules are *false-positive safe*: an unknown atom propagates as
``None`` and disables downstream checks; a diagnostic is only reported
when the inputs are known and provably wrong at runtime.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import KernelError
from ..kernel.interpreter import OPCODES
from ..kernel.types import AtomType, atom_named

__all__ = [
    "Kind",
    "AbstractValue",
    "SCHEMA_RULES",
    "accepts",
]


class Kind(enum.Enum):
    """Abstract kind of a MAL variable's value (the opcode kind specs)."""

    BAT = "bat"
    CAND = "cand"
    SCALAR = "scalar"
    RESULT = "result"
    ANY = "any"


Columns = Tuple[Tuple[str, Optional[AtomType]], ...]


@dataclass(frozen=True)
class AbstractValue:
    """What the verifier knows about one MAL variable.

    ``columns`` carries (lower-cased name, atom) pairs for the RESULT
    kind so emitter/factory-boundary checks can compare schemas;
    ``const``/``has_const`` carry literal argument values (``Const``
    operands and folded constants).
    """

    kind: Kind = Kind.ANY
    atom: Optional[AtomType] = None
    columns: Optional[Columns] = None
    const: Any = None
    has_const: bool = False


UNKNOWN = AbstractValue()


def bat(atom: Optional[AtomType] = None) -> AbstractValue:
    return AbstractValue(Kind.BAT, atom=atom)


def scalar(atom: Optional[AtomType] = None) -> AbstractValue:
    return AbstractValue(Kind.SCALAR, atom=atom)


Report = Callable[..., None]
Infer = Callable[[Any, List[Optional[AbstractValue]], Report], Any]


_KIND_ACCEPTS: Dict[str, Tuple[Kind, ...]] = {
    "bat": (Kind.BAT, Kind.ANY),
    "cand": (Kind.CAND, Kind.ANY),
    # a candidate list, or the literal None meaning "all rows"
    "candopt": (Kind.CAND, Kind.SCALAR, Kind.ANY),
    "scalar": (Kind.SCALAR, Kind.ANY),
    "result": (Kind.RESULT, Kind.ANY),
    "any": tuple(Kind),
}


def accepts(spec: str, value: AbstractValue) -> bool:
    """Whether a value of this kind may bind the parameter spec."""
    if spec == "candopt" and value.kind is Kind.SCALAR:
        return value.has_const and value.const is None
    return value.kind in _KIND_ACCEPTS.get(spec, tuple(Kind))


def _atom_named(name: Any) -> Optional[AtomType]:
    try:
        return atom_named(name)
    except KernelError:
        return None


def _table_columns(ctx, name: Any) -> Optional[Columns]:
    catalog = getattr(ctx, "catalog", None)
    if catalog is None or not isinstance(name, str):
        return None
    try:
        table = catalog.get(name)
    except Exception:
        return None
    return tuple(
        (col.name.lower(), col.atom) for col in table.schema
    )


def _infer_sql_bind(ctx, args, report):
    table, column = args[0], args[1]
    cols: Optional[Columns] = None
    if table is not None and table.has_const:
        cols = _table_columns(ctx, table.const)
        if (
            cols is None
            and isinstance(table.const, str)
            and getattr(ctx, "catalog", None) is not None
        ):
            report(
                f"unknown table or basket {table.const!r}",
                rule="unknown-table",
            )
    if (
        cols is not None
        and column is not None
        and column.has_const
        and isinstance(column.const, str)
    ):
        wanted = column.const.lower()
        for col_name, col_atom in cols:
            if col_name == wanted:
                return bat(col_atom)
        report(
            f"unknown column {column.const!r}", rule="unknown-column"
        )
    return bat()


def _infer_resultset(ctx, args, report):
    names = args[0]
    bats = args[1:]
    columns: Optional[Columns] = None
    if names is not None and names.has_const and isinstance(
        names.const, (tuple, list)
    ):
        declared = [str(n) for n in names.const]
        if len(declared) != len(bats):
            report(
                f"sql.resultset: {len(declared)} names for "
                f"{len(bats)} columns",
                rule="schema-mismatch",
            )
        columns = tuple(
            (name.lower(), value.atom)
            for name, value in zip(declared, bats)
        )
    return AbstractValue(Kind.RESULT, columns=columns)


def _infer_single_row(ctx, args, report):
    names, atoms = args[0], args[1]
    values = args[2:]
    columns: Optional[Columns] = None
    if (
        names is not None
        and names.has_const
        and isinstance(names.const, (tuple, list))
        and atoms is not None
        and atoms.has_const
        and isinstance(atoms.const, (tuple, list))
    ):
        declared = [str(n) for n in names.const]
        parsed = [_atom_named(a) for a in atoms.const]
        if not (len(declared) == len(parsed) == len(values)):
            report(
                f"sql.single_row: {len(declared)} names, "
                f"{len(parsed)} atoms, {len(values)} values",
                rule="schema-mismatch",
            )
        columns = tuple(zip((n.lower() for n in declared), parsed))
        for pos, (value, atom) in enumerate(zip(values, parsed)):
            got = value.atom
            if got is None or atom is None:
                continue
            if (got is AtomType.STR) != (atom is AtomType.STR):
                report(
                    f"sql.single_row: value {pos} is {got.name} but "
                    f"column declared {atom.name}",
                    rule="schema-mismatch",
                )
    return AbstractValue(Kind.RESULT, columns=columns)


def _infer_result_column(ctx, args, report):
    result, index = args[0], args[1]
    if (
        result is not None
        and result.columns is not None
        and index is not None
        and index.has_const
        and isinstance(index.const, int)
    ):
        if not 0 <= index.const < len(result.columns):
            report(
                f"sql.result_column: index {index.const} out of range "
                f"for {len(result.columns)} columns",
                rule="schema-mismatch",
            )
            return bat()
        return bat(result.columns[index.const][1])
    return bat()


def _infer_pass(ctx, args, report):
    if args and args[0] is not None:
        return args[0]
    return UNKNOWN


#: the catalog and schema checks, by opcode: each computes the abstract
#: result value(s) from the arguments and reports what would fail
SCHEMA_RULES: Dict[str, Infer] = {
    "sql.bind": _infer_sql_bind,
    "sql.resultset": _infer_resultset,
    "sql.single_row": _infer_single_row,
    "sql.result_column": _infer_result_column,
    # the value itself, columns included, passes through
    "language.pass": _infer_pass,
}

_unregistered = sorted(set(SCHEMA_RULES) - set(OPCODES))
if _unregistered:
    raise KernelError(f"schema rules for unregistered opcodes: {_unregistered}")
