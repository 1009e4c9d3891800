"""Aggregate primitives: one partial-aggregate algebra.

A GROUP BY's ``aggr.sub<name>`` and a window's pane table
(``repro.core.windows``) fold rows into *partials*: per cell (a group,
or a (pane, group)) the planes STAR (rows), COUNT (non-NULL values),
SUM, MIN and MAX — int64 over an integral atom, object over STR,
float64 otherwise.  :func:`fold` scatters rows into cells, :func:`merge`
reduces runs of cells (panes into windows), :func:`finalize` types an
aggregate by :func:`aggregate_atom` and stores it by
:func:`store_numeric`: NULL for a cell without a value, but 0 for the
counts.  A BIGINT sum is exact or refused: a fold or merge whose sum
leaves int64 returns partials holding it as a python int, so AVG divides
it exactly, while SUM's :func:`finalize` raises
:class:`~repro.errors.AggregateOverflowError` (as does a window, whose
pane table holds int64 partials only).
"""

from __future__ import annotations

from functools import lru_cache, total_ordering
from typing import Dict, Optional, Sequence, cast

import numpy as np

from ..errors import AggregateOverflowError, KernelError, TypeMismatchError
from .bat import BAT
from .candidates import candidate_tail
from .types import AtomType, nil_mask, nil_value, numpy_dtype

__all__ = [
    "aggregate_atom",
    "finalize",
    "fold",
    "grouped_aggregate",
    "merge",
    "store_numeric",
    "AGGREGATE_NAMES",
    "IDENTITIES",
    "NEEDS",
    "PLANES",
    "SUM_LIMIT",
]

AGGREGATE_NAMES = ("sum", "count", "count_star", "avg", "min", "max")
#: the planes of partials, in the order a window's pane table keeps them
STAR, COUNT, SUM, MIN, MAX = range(5)
PLANES = 5
#: the planes each aggregate is finalized from
NEEDS = {
    "sum": (COUNT, SUM), "count": (COUNT,), "count_star": (STAR,),
    "avg": (COUNT, SUM), "min": (COUNT, MIN), "max": (COUNT, MAX),
}
_UFUNCS: Dict[int, np.ufunc] = {
    SUM: np.add, MIN: np.minimum, MAX: np.maximum,
}
#: the widest exact sum (BIGINT stores -2**63 as NULL), and the atoms
#: whose values alone can sum past it
SUM_LIMIT = 2**63 - 1
_WIDE = (AtomType.LNG, AtomType.OID)


@lru_cache(maxsize=None)  # finalize asks per column per firing
def aggregate_atom(
    name: str, operand: Optional[AtomType]
) -> Optional[AtomType]:
    """Result atom of aggregate ``name`` over ``operand``.

    The counts are LNG and avg is DBL; sum widens integral atoms to LNG
    and the rest to DBL; min/max keep the operand's atom.  Of these only
    the counts, min and max apply to STR.
    """
    if name not in AGGREGATE_NAMES:
        raise KernelError(f"unknown aggregate {name!r}")
    if name in ("count", "count_star"):
        return AtomType.LNG
    if operand is AtomType.STR and name not in ("min", "max"):
        raise TypeMismatchError(f"aggregate {name} undefined on str")
    if name == "avg":
        return AtomType.DBL
    if operand is None or name != "sum":
        return operand
    return AtomType.LNG if operand.is_integral else AtomType.DBL


@total_ordering
class _StrBound:
    """STR's MIN (``above``) or MAX identity: after, or before, every
    string."""

    def __init__(self, above: bool) -> None:
        self.above = above

    def __lt__(self, other: object) -> bool:
        return not self.above and self is not other


def _identity(atom: AtomType) -> np.ndarray:
    if atom is AtomType.STR:
        return np.array([0, 0, 0, _StrBound(True), _StrBound(False)], object)
    if atom.is_integral:
        return np.array([0, 0, 0, SUM_LIMIT, -SUM_LIMIT], np.int64)
    return np.array([0, 0, 0, np.inf, -np.inf])


#: each plane's identity, the partial of a cell without rows, in the
#: partials' dtype, by value atom (read only)
IDENTITIES = {atom: _identity(atom) for atom in AtomType}


def fold(
    atom: AtomType,
    cells: np.ndarray,
    values: np.ndarray,
    nil: Optional[np.ndarray] = None,
    planes: Sequence[int] = range(PLANES),
    into: Optional[np.ndarray] = None,
    ncells: int = 1,
    counts: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Fold rows into the partials of their cells and return them.

    Row ``i`` holds ``values[i]`` (NULL where ``nil`` is set) and goes
    to cell ``cells[i]`` of ``into``, ``(PLANES, ncells)`` partials
    folded in place, or of fresh ones (int64 when ``planes`` are only
    counts).  Only ``planes`` are folded, and filled when fresh.  A sum
    leaving int64 returns a python-int copy of ``into`` instead.
    ``counts``, the rows per cell where the caller knows them (a
    grouping's histogram), are taken for STAR, and for COUNT when no
    value is NULL.
    """
    fresh = into is None
    if into is None:
        ident = IDENTITIES[atom]
        dtype = ident.dtype if max(planes) > COUNT else np.dtype(np.int64)
        into = np.empty((PLANES, ncells), dtype)
        for plane in planes:
            into[plane] = ident[plane]
    ncells = into.shape[1]
    for plane in (STAR, COUNT):
        if plane == COUNT and nil is not None and nil.any():
            # from here on the rows are the values: the NULLs drop out
            cells, values, counts = cells[~nil], values[~nil], None
        if plane not in planes:
            continue
        if counts is not None:
            into[plane] += counts
        elif ncells == 1:
            into[plane, 0] += len(cells)
        elif len(cells) < ncells:
            np.add.at(into[plane], cells, 1)
        else:
            into[plane] += np.bincount(cells, minlength=ncells)
    for plane in (SUM, MIN, MAX):
        if plane not in planes or not len(values):
            continue
        ufunc = _UFUNCS[plane]
        if plane == SUM and atom in _WIDE and into.dtype.kind == "i" and (
            int(np.abs(values).max()) * len(values)
            + int(np.abs(into[SUM][cells]).max()) > SUM_LIMIT
        ):
            # the magnitudes allow a sum past int64: sum exactly
            exact = into[SUM].astype(object)
            np.add.at(exact, cells, values.astype(object))
            into = _with_sums(into, exact)
        elif ncells == 1:
            # the column reduces in its own dtype, no cast copy of it
            reduced = ufunc.reduce(values, keepdims=True)
            into[plane, :1] = ufunc(into[plane, :1], reduced)
        elif fresh and plane != SUM and into.dtype.kind == "i" and (
            values.dtype != into.dtype
        ):
            # an INT column's MIN or MAX too, from its dtype's extreme: a
            # cell without a value keeps it, and finalizes NULL by COUNT
            info = np.iinfo(values.dtype)
            reduced = np.full(
                ncells, info.max if plane == MIN else info.min, values.dtype
            )
            ufunc.at(reduced, cells, values)
            into[plane] = reduced
        else:
            # ufunc.at casting its operand is many times slower than a copy
            ufunc.at(into[plane], cells, values.astype(into.dtype, copy=False))
    return into


def _with_sums(partials: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """``partials`` with the exact ``sums``, as python ints where one
    leaves int64."""
    if (np.abs(sums) > SUM_LIMIT).any():
        partials = partials.astype(object)
    partials[SUM] = sums
    return partials


def merge(
    atom: AtomType,
    partials: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    planes: Sequence[int] = range(PLANES),
) -> np.ndarray:
    """Reduce runs of cells along axis 1 of ``partials``: run ``i``,
    cells ``[starts[i], ends[i])``, becomes cell ``i`` of the result.

    Runs are in order, may overlap, and the last ends at the last cell.
    The counts and sums up to the last of them in ``planes`` merge as a
    block: by each run's own reduction when the runs cover at most four
    times the cells, else by differences of one prefix sum (exact in
    int64's wrapping arithmetic for a run whose own sum fits).  MIN and
    MAX merge when in ``planes``; planes past MAX, a caller's own (a
    window's first arrival seq), merge by minimum.
    """
    span, rest = partials.shape[1], partials.shape[2:]
    out = np.empty((len(partials), len(starts)) + rest, partials.dtype)
    # reduceat folds [cuts[i], cuts[i+1]): the even slots are the runs
    # (the last runs to the end), the odd ones the gaps between them
    cuts = np.empty(2 * len(starts) - 1, dtype=np.int64)
    cuts[0::2], cuts[1::2] = starts, ends[:-1]
    lengths = ends - starts
    top = 1 + max({STAR, COUNT, SUM}.intersection(planes), default=-1)
    if int(lengths.sum()) <= 4 * span:
        out[:top] = np.add.reduceat(partials[:top], cuts, axis=1)[:, ::2]
    else:
        prefix = np.zeros((top, span + 1) + rest, out.dtype)
        np.cumsum(partials[:top], axis=1, out=prefix[:, 1:])
        out[:top] = prefix[:, ends] - prefix[:, starts]
    sums = partials[SUM]
    if top > SUM and atom in _WIDE and out.dtype.kind == "i" and (
        int(np.abs(sums).max()) * int(lengths.max()) > SUM_LIMIT
    ):
        out = _with_sums(
            out, np.add.reduceat(sums.astype(object), cuts, axis=0)[::2]
        )
    for plane in range(MIN, len(out)):
        if plane in planes or plane >= PLANES:
            ufunc = _UFUNCS.get(plane, np.minimum)
            out[plane] = ufunc.reduceat(partials[plane], cuts, axis=0)[::2]
    return out


def finalize(name: str, atom: AtomType, partials: np.ndarray) -> BAT:
    """Aggregate ``name`` of each cell of ``(PLANES, n)`` partials over
    ``atom`` values.  The planes it reads are handed over: the BAT may
    share them, and NULLs may be stored into them; other aggregates may
    still be finalized from them, nothing folded into them."""
    # an operand atom has a result atom, or aggregate_atom raises
    out_atom = cast(AtomType, aggregate_atom(name, atom))
    if name in ("count", "count_star"):
        return store_numeric(out_atom, partials[NEEDS[name][0]], None)
    counts = partials[COUNT]
    if name in ("min", "max"):
        value = partials[MIN if name == "min" else MAX]
        if atom is AtomType.STR:
            value[counts == 0] = None
            return BAT.adopt(AtomType.STR, value)
    else:
        value = partials[SUM]
        if name == "sum" and value.dtype.kind == "O" and (
            np.abs(value) > SUM_LIMIT
        ).any():
            raise AggregateOverflowError()
        if name == "avg":
            value = value / np.maximum(counts, 1)
    return store_numeric(out_atom, value, counts)


def grouped_aggregate(
    name: str,
    bat: BAT,
    groups: BAT,
    ngroups: int,
    candidates: Optional[np.ndarray] = None,
) -> BAT:
    """Per-group reduction, a BAT of ``ngroups`` values: the rows folded
    into fresh partials of the planes ``name`` needs, then finalized.

    ``groups`` is the aligned group-id BAT produced by
    :func:`repro.kernel.group.group` on the same candidate set.  The rows
    per group are the histogram that grouping kept on ``groups`` when
    every row counts (no candidates, no NULL in ``bat``), and are counted
    here otherwise.
    """
    aggregate_atom(name, bat.atom)
    tail = candidate_tail(bat, candidates)
    gids = groups.tail
    if len(gids) != len(tail):
        raise KernelError("groups BAT not aligned with aggregate input")
    counts = groups.histogram if candidates is None else None
    if counts is not None and len(counts) != ngroups:
        counts = None
    partials = fold(
        bat.atom, gids, tail, nil_mask(bat.atom, tail), NEEDS[name],
        ncells=ngroups, counts=counts,
    )
    return finalize(name, bat.atom, partials)


def store_numeric(
    atom: AtomType, values: np.ndarray, counts: Optional[np.ndarray]
) -> BAT:
    """Store per-group numeric results as ``atom``, NULLing the groups
    with no value (``counts`` 0; ``None`` keeps every group).  ``values``
    is a fresh array the caller hands over."""
    if counts is None:
        return BAT.adopt(atom, values.astype(numpy_dtype(atom), copy=False))
    empty = counts == 0
    if atom in (AtomType.DBL, AtomType.TIMESTAMP):
        stored = values.astype(np.float64, copy=False)
        stored[empty] = np.nan
    else:
        stored = np.where(empty, 0, values).astype(numpy_dtype(atom))
        stored[empty] = nil_value(atom)
    return BAT.adopt(atom, stored)
