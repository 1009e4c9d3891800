"""The column-store kernel: the "modern database kernel" DataCell builds on.

A from-scratch MonetDB stand-in: BATs (virtual-oid columns), candidate
lists, a MAL-style operator algebra, a catalog, and a MAL interpreter that
executes compiled query plans.  See DESIGN.md §"System inventory" item 1.
"""

from .aggregate import grouped_aggregate
from .bat import BAT, bat_from_values, check_aligned, empty_bat
from .catalog import Catalog, ColumnDef, Schema, Table
from .interpreter import MalInterpreter
from .mal import Const, Instr, Program, ResultSet, Var
from .types import AtomType

__all__ = [
    "AtomType",
    "BAT",
    "bat_from_values",
    "empty_bat",
    "check_aligned",
    "Catalog",
    "ColumnDef",
    "Schema",
    "Table",
    "Const",
    "Instr",
    "Program",
    "ResultSet",
    "Var",
    "MalInterpreter",
    "grouped_aggregate",
]
