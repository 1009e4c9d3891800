"""Aggregate primitives: grouped SUM/COUNT/AVG/MIN/MAX.

``aggr.subsum`` etc. reduce per group id and return a BAT of one value
per group.  An aggregate without GROUP BY is the one-group case: every
row carries group id 0 and the group count is 1.

SQL NULL semantics throughout: NULL inputs are skipped; a group with no
value yields NULL for SUM/AVG/MIN/MAX and 0 for COUNT.  ``count_star``
counts tuples regardless of NULLs.  Results are typed with
:func:`aggregate_atom` and stored by :func:`store_numeric`, the two
rules the window plan (``repro.core.windows``) follows too.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import KernelError, TypeMismatchError
from .bat import BAT
from .candidates import candidate_tail
from .group import str_codes
from .types import AtomType, nil_mask, nil_value, numpy_dtype

__all__ = [
    "aggregate_atom",
    "grouped_aggregate",
    "store_numeric",
    "AGGREGATE_NAMES",
]

AGGREGATE_NAMES = ("sum", "count", "count_star", "avg", "min", "max")


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


def _valid_tail(bat: BAT, candidates: Optional[np.ndarray]):
    tail = candidate_tail(bat, candidates)
    return tail, nil_mask(bat.atom, tail)


def grouped_aggregate(
    name: str,
    bat: BAT,
    groups: BAT,
    ngroups: int,
    candidates: Optional[np.ndarray] = None,
) -> BAT:
    """Per-group reduction; returns a BAT of ``ngroups`` values.

    ``groups`` is the aligned group-id BAT produced by
    :func:`repro.kernel.group.group` on the same candidate set.
    """
    out_atom = aggregate_atom(name, bat.atom)
    tail, nil = _valid_tail(bat, candidates)
    gids = groups.tail
    if len(gids) != len(tail):
        raise KernelError("groups BAT not aligned with aggregate input")
    if name == "count_star":
        return store_numeric(out_atom, _group_counts(gids, ngroups), None)
    if nil.any():
        valid = ~nil
        gids, tail = gids[valid], tail[valid]
    if name == "count":
        return store_numeric(out_atom, _group_counts(gids, ngroups), None)
    if bat.atom is AtomType.STR:
        return _grouped_str(name, tail, gids, ngroups)
    counts = _group_counts(gids, ngroups)
    # integral atoms reduce in int64 so SUM/AVG/MIN/MAX stay exact past
    # 2**53; avg divides the exact sum once
    exact = bat.atom.is_integral
    values = tail.astype(np.int64 if exact else np.float64, copy=False)
    if name in ("sum", "avg"):
        res = _reduce(np.add, 0, gids, values, ngroups)
        if name == "avg":
            res = res / np.maximum(counts, 1)
    elif name == "min":
        fill = np.iinfo(np.int64).max if exact else np.inf
        res = _reduce(np.minimum, fill, gids, values, ngroups)
    else:
        fill = np.iinfo(np.int64).min if exact else -np.inf
        res = _reduce(np.maximum, fill, gids, values, ngroups)
    return store_numeric(out_atom, res, counts)


def _group_counts(gids: np.ndarray, ngroups: int) -> np.ndarray:
    """Rows per group; the one group of an aggregate without GROUP BY
    holds every row."""
    if ngroups == 1:
        return np.array([len(gids)], dtype=np.int64)
    return np.bincount(gids, minlength=ngroups)


def _reduce(ufunc, fill, gids, values, ngroups) -> np.ndarray:
    """Per-group ``ufunc`` reduction of ``values`` starting from
    ``fill``.  One group (an aggregate without GROUP BY) reduces the
    column directly, which is much cheaper than scattering into one
    slot."""
    if ngroups == 1:
        return ufunc.reduce(values, initial=fill, keepdims=True)
    res = np.full(ngroups, fill, dtype=values.dtype)
    ufunc.at(res, gids, values)
    return res


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


def _grouped_str(name, tail, gids, ngroups) -> BAT:
    """Per-group MIN/MAX of non-NULL strings, reduced over value-ordered codes."""
    (codes,), strings = str_codes(tail, ordered=True)
    if name == "min":
        best = _reduce(np.minimum, len(strings), gids, codes, ngroups)
    else:
        best = _reduce(np.maximum, -1, gids, codes, ngroups)
    found = (best >= 0) & (best < len(strings))
    values = np.empty(len(strings), dtype=object)
    values[:] = strings
    res = np.full(ngroups, None, dtype=object)
    res[found] = values[best[found]]
    out = BAT(AtomType.STR, capacity=max(ngroups, 1))
    out.append_array(res)
    return out
