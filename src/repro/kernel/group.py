"""Grouping primitives (``group.group`` / ``group.subgroup``).

Grouping maps each tuple to a dense group id.  The result triple mirrors
MonetDB:

``groups``
    an ``oid`` BAT aligned with the input, tail = group id of each tuple;
``extents``
    for each group id, the position of its first/representative tuple;
``ngroups``
    number of distinct groups.

Group ids are numbered by first occurrence.  Multi-column grouping
refines an existing grouping with :func:`subgroup`, exactly how the MAL
plans chain ``group.subgroup`` calls.  NULL is a regular group key (SQL
GROUP BY semantics: NULLs group together).

Both are bulk operators: keys are factorised to integer codes — through a
direct-address table when the integer keys span at most
``DENSE_SPAN`` × the row count, otherwise by sorting — and the codes are
re-ranked by first occurrence.  One histogram pass counts the rows per
code; the first positions are looked for in a prefix of the rows, and
past it only for codes the prefix did not hold.  The histogram, in group
id order, stays on the ``groups`` BAT (``BAT.histogram``), where the
aggregates read their per-group row counts.  STR keys become integer
codes first, in :func:`str_codes`; joins use it too.  A window's or a
view's groups live across batches, in the cells of a :class:`KeyMap`.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import KernelError
from .bat import BAT
from .candidates import candidate_tail
from .types import AtomType, nil_mask, numpy_dtype, python_values

__all__ = ["group", "subgroup", "str_codes", "dense_span", "KeyMap"]

#: integer keys whose span is at most this multiple of the row count are
#: looked up in a direct-address table instead of by sorting
DENSE_SPAN = 4

#: first positions are looked for in the first ``max(FIRST_PREFIX, 8 ×
#: codes)`` rows; the rest are read only for codes not seen there
FIRST_PREFIX = 1024


def str_codes(
    *tails: np.ndarray, ordered: bool = False
) -> Tuple[List[np.ndarray], List[str]]:
    """Factorise STR tails jointly to ``int64`` codes, NIL → ``-1``.

    Returns one code array per tail and the list of distinct strings
    indexed by code.  Codes number the strings by first occurrence across
    the tails, or, with ``ordered``, in value order, so that comparing
    codes compares the strings.  One hash pass over the rows; only
    ``ordered`` sorts, and then only the distinct strings.
    """
    rows = [tail.tolist() for tail in tails]  # lists iterate faster
    seen = dict.fromkeys(chain.from_iterable(rows))
    seen.pop(None, None)
    keys = list(seen)
    if ordered:
        keys.sort()
    lookup = dict(zip(keys, range(len(keys))))
    lookup[None] = -1
    codes = [
        np.fromiter(map(lookup.__getitem__, part), np.int64, len(part))
        for part in rows
    ]
    return codes, keys


def dense_span(keys: np.ndarray, rows: int) -> Optional[Tuple[int, int]]:
    """``(lo, span)`` when integer ``keys`` fit a direct-address table.

    ``span`` is ``max - min + 1``; the table is used when that is at most
    ``DENSE_SPAN * rows``.  ``None`` sends the caller to the sort path.
    """
    if keys.dtype.kind not in "iu" or not len(keys):
        return None
    lo, hi = int(keys.min()), int(keys.max())
    span = hi - lo + 1
    return (lo, span) if span <= DENSE_SPAN * max(rows, 1) else None


def _group_codes(bat: BAT, tail: np.ndarray) -> Tuple[np.ndarray, int]:
    """Fresh codes in ``[0, ncodes)`` of ``bat``'s (candidate) ``tail``
    values; all NILs share one."""
    if bat.atom is AtomType.STR:
        (codes,), strings = str_codes(tail)
        if len(codes) and codes.min() < 0:
            return codes + 1, len(strings) + 1  # NIL's -1 becomes code 0
        return codes, len(strings)
    if tail.dtype.kind == "f":
        return _factorise(tail)  # np.unique folds every NaN into one key
    keys = tail
    nil = nil_mask(bat.atom, tail)
    if nil.any():
        # below every valid key, so NILs group together and the span
        # stays the valid keys' span plus one
        keys = tail.astype(np.int64)
        keys[nil] = keys[~nil].min() - 1 if not nil.all() else 0
    return _factorise(keys)


def _factorise(keys: np.ndarray) -> Tuple[np.ndarray, int]:
    """Fresh ``int64`` codes in ``[0, ncodes)``: equal keys, and only
    they, share a code."""
    dense = dense_span(keys, len(keys))
    if dense is not None:
        lo, span = dense
        return np.subtract(keys, lo, dtype=np.int64), span
    uniq, inverse = np.unique(keys, return_inverse=True)
    return inverse.reshape(-1), len(uniq)


def _by_first_occurrence(
    codes: np.ndarray, ncodes: int
) -> Tuple[BAT, np.ndarray, int]:
    """Renumber codes as group ids in first-occurrence order; the groups
    BAT keeps the rows per group id as its histogram."""
    rows = len(codes)
    sizes = np.bincount(codes, minlength=ncodes)
    first = np.full(ncodes, rows, dtype=np.int64)
    seen = min(rows, max(FIRST_PREFIX, 8 * ncodes))
    np.minimum.at(first, codes[:seen], np.arange(seen, dtype=np.int64))
    late = (first == rows) & (sizes > 0)
    if late.any():  # codes first met past the prefix: find only them
        at = seen + np.flatnonzero(late[codes[seen:]])
        np.minimum.at(first, codes[at], at)
    if ncodes and first[-1] < rows and (first[1:] > first[:-1]).all():
        extents = first  # every code present, numbered by first occurrence
    else:
        extents = np.sort(first[first < rows])
        present = codes[extents]
        gid_of = np.empty(ncodes, dtype=np.int64)
        gid_of[present] = np.arange(len(extents), dtype=np.int64)
        codes = gid_of[codes]
        sizes = sizes[present]
    groups = BAT.adopt(AtomType.OID, codes)
    groups.histogram = sizes
    return groups, extents, len(extents)


def group(
    bat: BAT, candidates: Optional[np.ndarray] = None
) -> Tuple[BAT, np.ndarray, int]:
    """Group the (candidate-restricted) tuples of ``bat`` by tail value.

    Returns ``(groups, extents, ngroups)`` where ``groups`` is an OID BAT
    aligned with the candidate order and ``extents[g]`` is the 0-based
    candidate-order position of group ``g``'s first tuple.
    """
    return _by_first_occurrence(
        *_group_codes(bat, candidate_tail(bat, candidates))
    )


def subgroup(
    bat: BAT,
    prev_groups: BAT,
    candidates: Optional[np.ndarray] = None,
) -> Tuple[BAT, np.ndarray, int]:
    """Refine ``prev_groups`` by additionally grouping on ``bat``'s tail.

    ``prev_groups`` must be aligned with the candidate order (it is the
    ``groups`` output of a previous :func:`group`/:func:`subgroup`).
    """
    codes, ncodes = _group_codes(bat, candidate_tail(bat, candidates))
    combined = prev_groups.tail.astype(np.int64) * ncodes + codes
    return _by_first_occurrence(*_factorise(combined))


class KeyMap:
    """The persistent cells of an aggregate's key tuples over ``atoms``,
    numbered by first arrival; ``keys`` holds one storage array per key
    column in cell order, ``size`` counts the cells.  NIL is one key for
    every atom, NaN too; no key columns make one cell, 0.  Only a batch's
    distinct key tuples are looked up in the dict from key (NIL ``None``)
    to cell; a lone STR key's dictionary of strings is that dict.
    """

    def __init__(self, atoms: Sequence[AtomType]) -> None:
        self.atoms = list(atoms)
        self._lone_str = self.atoms == [AtomType.STR]
        self.restore([np.empty(0, numpy_dtype(atom)) for atom in atoms])

    def restore(self, keys: Sequence[np.ndarray]) -> None:
        """Take ``keys``, one array per key column, as the cells 0, 1, …"""
        self.keys = [stored[:0] for stored in keys]
        self.size = 0 if keys else 1
        self._cells: Dict[Any, int] = {}
        self._strings: List[Dict[Any, int]] = (
            [self._cells] if self._lone_str else [{} for _ in keys]
        )
        if keys:
            self.lookup(list(map(BAT.adopt, self.atoms, keys)), len(keys[0]))
            if self.size != len(keys[0]):
                raise KernelError("saved group keys repeat a key")

    def cells(self, bats: Sequence[BAT], rows: int) -> np.ndarray:
        """The cell of each of ``rows`` rows keyed by ``bats``."""
        if self._lone_str:
            cells = _string_codes(self._cells, bats[0].tail)
            if len(self._cells) == self.size:  # else lookup takes new keys
                return cells
        return self.lookup(bats, rows)[0]

    def lookup(
        self, bats: Sequence[BAT], rows: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`cells`, the distinct cells in order of first touch, and
        which of those are new; unseen keys take the next cells."""
        if not bats:
            zero = np.zeros(rows, np.int64)
            return zero, zero[:1], zero[:1] < 0
        groups, extents, _ = _by_first_occurrence(*self._codes(bats))
        reps = [bat.tail[extents] for bat in bats]
        columns = list(map(python_values, self.atoms, reps))
        cells = self._cells
        touched = np.array([
            cells.setdefault(key, len(cells))
            for key in (zip(*columns) if len(columns) > 1 else columns[0])
        ], np.int64)
        new = touched >= self.size
        if new.any():
            self.keys = list(map(np.append, self.keys, [r[new] for r in reps]))
            self.size = len(cells)
        return touched[groups.tail], touched, new

    def _codes(self, bats: Sequence[BAT]) -> Tuple[np.ndarray, int]:
        """A batch's codes, one per distinct key tuple, and the code count:
        a STR column is coded by the map's dictionary of its strings, any
        other by the kernel's factorisation, combined as :func:`subgroup`
        combines columns."""
        codes = np.empty(0, np.int64)
        for strings, bat in zip(self._strings, bats):
            if bat.atom is AtomType.STR:
                more, n = _factorise(_string_codes(strings, bat.tail))
            else:
                more, n = _group_codes(bat, bat.tail)
            if len(codes):  # ranked first, the product stays small
                rank = np.cumsum(np.bincount(codes) > 0) - 1
                more, n = _factorise(rank[codes] * n + more)
            codes = more
        return codes, n

    def fit(self, partials: np.ndarray, identity: np.ndarray) -> np.ndarray:
        """``partials``, whose last axis is its cells, grown to hold every
        cell; new cells hold ``identity``, one value per (first axis) plane."""
        capacity = partials.shape[-1]
        if self.size <= capacity:
            return partials
        shape = partials.shape[:-1] + (max(self.size, 2 * capacity),)
        grown = np.empty(shape, partials.dtype)
        grown[:] = identity.reshape((-1,) + (1,) * (partials.ndim - 1))
        grown[..., :capacity] = partials
        return grown


def _string_codes(strings: Dict[Any, int], tail: np.ndarray) -> np.ndarray:
    """Codes of STR ``tail`` in ``strings``, which numbers the strings by
    first arrival and takes in the unseen ones: one dict probe a row."""
    rows = tail.tolist()  # lists iterate faster
    codes = np.fromiter(
        map(strings.get, rows, repeat(-1)), np.int64, len(rows)
    )
    if codes.min(initial=0) < 0:
        new = np.flatnonzero(codes < 0).tolist()
        codes[new] = [strings.setdefault(rows[i], len(strings)) for i in new]
    return codes
