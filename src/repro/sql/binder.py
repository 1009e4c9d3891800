"""Name resolution and type checking helpers for the SQL compiler.

The central structure is :data:`Relation`: the compiler's view of "the
current intermediate table" — an ordered list of columns, each backed by
a MAL variable holding a dense-headed BAT, with the qualifier (source
alias) and atom type needed to resolve references and infer result
types.  :func:`lookup` is the one name-resolution rule, for these and for
the resolver's scopes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence

from ..errors import BindError
from ..kernel.types import AtomType
from .ast_nodes import ColumnRef

__all__ = ["type_name_to_atom", "BoundColumn", "Relation", "lookup"]

_TYPE_NAMES = {
    "int": AtomType.INT,
    "integer": AtomType.INT,
    "smallint": AtomType.INT,
    "bigint": AtomType.LNG,
    "lng": AtomType.LNG,
    "double": AtomType.DBL,
    "dbl": AtomType.DBL,
    "float": AtomType.DBL,
    "real": AtomType.DBL,
    "varchar": AtomType.STR,
    "text": AtomType.STR,
    "string": AtomType.STR,
    "str": AtomType.STR,
    "boolean": AtomType.BOOL,
    "bool": AtomType.BOOL,
    "timestamp": AtomType.TIMESTAMP,
}


def type_name_to_atom(name: str) -> AtomType:
    """Map an SQL type name to a kernel atom type."""
    try:
        return _TYPE_NAMES[name.lower()]
    except KeyError:
        raise BindError(f"unknown SQL type {name!r}") from None


def lookup(columns: Sequence[Any], ref: ColumnRef) -> Any:
    """The one column of ``columns`` (anything with a ``name`` and a
    ``qualifier``) a (possibly qualified) reference names.

    Raises :class:`BindError` for unknown or ambiguous names.
    """
    name = ref.name.lower()
    qualifier = ref.table.lower() if ref.table else None
    matches = [
        c
        for c in columns
        if c.name == name
        and (qualifier is None or c.qualifier == qualifier)
    ]
    if not matches:
        raise BindError(f"unknown column {ref.display()!r}")
    if len(matches) > 1:
        raise BindError(f"ambiguous column {ref.display()!r}")
    return matches[0]


@dataclass
class BoundColumn:
    """One column of a :data:`Relation`."""

    qualifier: Optional[str]  # source alias (lower-cased), None after aggregation
    name: str  # column name (lower-cased)
    var: str  # MAL variable holding the column BAT
    atom: AtomType


#: the compiler's view of "the current intermediate table": an ordered
#: list of bound columns, resolved by :func:`lookup`
Relation = List[BoundColumn]
