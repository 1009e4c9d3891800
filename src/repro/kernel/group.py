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
codes first, in :func:`str_codes`, the one place the kernel's bulk
operators touch python string objects; joins and STR MIN/MAX use it
too.
"""

from __future__ import annotations

from itertools import chain
from typing import List, Optional, Tuple

import numpy as np

from .bat import BAT
from .candidates import candidate_tail
from .types import AtomType, nil_mask

__all__ = ["group", "subgroup", "distinct_positions", "str_codes", "dense_span"]

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


def distinct_positions(
    bat: BAT, candidates: Optional[np.ndarray] = None
) -> np.ndarray:
    """Candidate-order positions of the first occurrence of each value."""
    _, extents, _ = group(bat, candidates)
    return extents
