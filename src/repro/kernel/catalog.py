"""Catalog: schemas, tables, and the registry the SQL binder resolves against.

A :class:`Table` is the relational view over ``k`` tuple-order-aligned BATs.
Baskets (the DataCell's stream buffers) are registered in the same catalog —
the paper keeps "the syntax and semantics of baskets aligned with the table
definition in SQL'03 as much as possible" — but carry a flag so the binder
can tell continuous from one-time scans.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Type

import numpy as np

from ..errors import CatalogError, ReproError
from .bat import BAT, check_aligned, storage_array
from .types import AtomType, python_values

__all__ = ["ColumnDef", "Schema", "Table", "Catalog"]


@dataclass(frozen=True)
class ColumnDef:
    """A column name/type pair in a schema."""

    name: str
    atom: AtomType

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise CatalogError(f"bad column name {self.name!r}")


class Schema:
    """An ordered list of column definitions with case-insensitive lookup."""

    def __init__(self, columns: Sequence[ColumnDef]):
        if not columns:
            raise CatalogError("a schema needs at least one column")
        self.columns: Tuple[ColumnDef, ...] = tuple(columns)
        self._index: Dict[str, int] = {}
        for i, col in enumerate(self.columns):
            key = col.name.lower()
            if key in self._index:
                raise CatalogError(f"duplicate column {col.name!r}")
            self._index[key] = i

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self):
        return iter(self.columns)

    def names(self) -> List[str]:
        return [col.name for col in self.columns]

    def has(self, name: str) -> bool:
        return name.lower() in self._index

    def position(self, name: str) -> int:
        try:
            return self._index[name.lower()]
        except KeyError:
            raise CatalogError(f"unknown column {name!r}") from None

    def column(self, name: str) -> ColumnDef:
        return self.columns[self.position(name)]

    def atom(self, name: str) -> AtomType:
        return self.column(name).atom

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Schema) and self.columns == other.columns

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cols = ", ".join(f"{c.name} {c.atom.value}" for c in self.columns)
        return f"Schema({cols})"


class Table:
    """A named collection of tuple-order-aligned BATs.

    Thread-compatible: mutation is guarded by ``lock`` (an RLock); the
    DataCell's baskets build their exclusive-access protocol on top of it.
    """

    def __init__(self, name: str, schema: Schema, is_basket: bool = False):
        self.name = name
        self.schema = schema
        self.is_basket = is_basket
        self.lock = threading.RLock()
        self._bats: Dict[str, BAT] = {
            col.name.lower(): BAT(col.atom) for col in schema
        }

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        first = next(iter(self._bats.values()))
        return first.count

    def __len__(self) -> int:
        return self.count

    def bat(self, column: str) -> BAT:
        """The BAT storing ``column`` (KeyError-safe)."""
        try:
            return self._bats[column.lower()]
        except KeyError:
            raise CatalogError(
                f"table {self.name!r} has no column {column!r}"
            ) from None

    def bats(self) -> List[BAT]:
        """All column BATs in schema order."""
        return [self._bats[c.name.lower()] for c in self.schema]

    def check_alignment(self) -> None:
        """Verify the tuple-order alignment invariant across all columns."""
        check_aligned(*self.bats())

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def append_row(self, values: Sequence[Any]) -> None:
        """Append one tuple given in schema order."""
        self.append_rows((values,))

    def append_rows(self, rows: Iterable[Sequence[Any]]) -> int:
        """Append many tuples; returns the number appended.  All or
        nothing: a batch with a bad row or value appends no row."""
        rows = list(rows)
        arrays = self._row_arrays(self.schema.columns, rows)
        with self.lock:
            for bat, array in zip(self.bats(), arrays):
                bat.append_array(array)
        return len(rows)

    def append_columns(self, columns: Dict[str, Any]) -> int:
        """Columnar bulk append: dict of column name → values (storage
        arrays are taken as they are), covering the full schema.  All or
        nothing, as :meth:`append_rows`."""
        arrays = self._column_arrays(self.schema.columns, columns)
        with self.lock:
            for bat, array in zip(self.bats(), arrays):
                bat.append_array(array)
        return len(arrays[0])

    # -- the one ingest conversion of tables and baskets ----------------
    #: what a malformed batch raises (a basket raises its own error)
    ingest_error: Type[ReproError] = CatalogError

    def _row_arrays(
        self, columns: Sequence[ColumnDef], rows: List[Sequence[Any]]
    ) -> List[np.ndarray]:
        """A batch of rows as one storage array per column of
        ``columns``, every column converted before the caller appends
        the first (the ingest of tables and baskets is all or nothing).
        The arity is checked for the whole batch in one pass."""
        arity = len(columns)
        if rows and set(map(len, rows)) != {arity}:
            width = next(len(row) for row in rows if len(row) != arity)
            raise self.ingest_error(
                f"row arity {width} != schema arity {arity} in {self.name!r}"
            )
        values: Iterable[Sequence[Any]] = zip(*rows) if rows else [()] * arity
        return [storage_array(col.atom, v) for col, v in zip(columns, values)]

    def _column_arrays(
        self, columns: Sequence[ColumnDef], given: Dict[str, Any]
    ) -> List[np.ndarray]:
        """``given`` (column name → values, exactly ``columns``) as one
        storage array per column, in ``columns`` order, every column
        converted before the caller appends the first."""
        values: Optional[List[Any]] = None
        if len(given) == len(columns):
            try:  # names as the schema spells them, or in any case
                values = [given[col.name] for col in columns]
            except KeyError:
                by_name = {name.lower(): v for name, v in given.items()}
                if by_name.keys() == {col.name.lower() for col in columns}:
                    values = [by_name[col.name.lower()] for col in columns]
        if values is None:
            raise self.ingest_error(
                f"a bulk insert into {self.name!r} must cover exactly "
                f"{[col.name for col in columns]}, got {list(given)}"
            )
        arrays = [
            storage_array(col.atom, column)
            for col, column in zip(columns, values)
        ]
        if len(set(map(len, arrays))) > 1:
            raise self.ingest_error(
                f"bulk insert arrays for {self.name!r} differ in length"
            )
        return arrays

    def truncate(self) -> int:
        """Remove all tuples; returns how many were removed.

        New BAT generations start at the old ``hseq_end`` so oids stay
        globally unique across consume cycles (baskets rely on this).
        """
        with self.lock:
            removed = self.count
            for key, bat in list(self._bats.items()):
                self._bats[key] = BAT(bat.atom, hseqbase=bat.hseq_end)
            return removed

    def replace_bats(self, bats: Dict[str, BAT]) -> None:
        """Swap in a new aligned generation of column BATs (checkpoint restore)."""
        if set(bats) != set(self._bats):
            raise CatalogError("replacement must cover all columns")
        check_aligned(*bats.values())
        with self.lock:
            self._bats = dict(bats)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def rows(self, limit: Optional[int] = None) -> List[Tuple[Any, ...]]:
        """Materialize tuples as python values (testing/emission helper)."""
        with self.lock:
            bats = self.bats()
            n = self.count if limit is None else min(limit, self.count)
            cols = [python_values(b.atom, b.tail[:n]) for b in bats]
        return list(zip(*cols)) if cols and n else []

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "basket" if self.is_basket else "table"
        return f"Table({self.name!r}, {kind}, rows={self.count})"


class Catalog:
    """Name → table registry with case-insensitive lookup.

    ``lock_observer`` is the dev/simtest lock-order seam: when set (any
    object with ``wrap(name, lock) -> lock``, see
    :class:`repro.analysis.lockorder.LockOrderRecorder`), every table
    registered afterwards gets its lock wrapped so acquisitions feed the
    acquisition-graph recorder.  The kernel stays ignorant of the
    recorder's type — production runs carry a single ``None`` check.
    """

    def __init__(self) -> None:
        self._tables: Dict[str, Table] = {}
        self._lock = threading.RLock()
        self.lock_observer = None

    def create_table(
        self,
        name: str,
        columns: Sequence[Tuple[str, AtomType]],
        is_basket: bool = False,
    ) -> Table:
        """Create and register a table (or basket) by column specs."""
        schema = Schema([ColumnDef(n, a) for n, a in columns])
        table = Table(name, schema, is_basket=is_basket)
        self.register(table)
        return table

    def register(self, table: Table) -> None:
        with self._lock:
            key = table.name.lower()
            if key in self._tables:
                raise CatalogError(f"table {table.name!r} already exists")
            if self.lock_observer is not None:
                table.lock = self.lock_observer.wrap(key, table.lock)
            self._tables[key] = table

    def drop(self, name: str) -> None:
        with self._lock:
            if name.lower() not in self._tables:
                raise CatalogError(f"unknown table {name!r}")
            del self._tables[name.lower()]

    def get(self, name: str) -> Table:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    def has(self, name: str) -> bool:
        return name.lower() in self._tables

    def tables(self) -> List[Table]:
        return list(self._tables.values())

    def baskets(self) -> List[Table]:
        return [t for t in self._tables.values() if t.is_basket]
