"""Selection primitives: the kernel's ``select`` family.

Selections take a BAT (and an optional candidate list) and return a
*candidate list* of qualifying head oids — they never materialize values.
This mirrors MonetDB's ``algebra.select`` / ``algebra.thetaselect`` and is
what lets the DataCell evaluate predicate windows lazily.

NULL semantics: NULL tail values never qualify for any comparison except the
explicit :func:`select_nil` / inverse selections.  A bound must compare with
the column (:func:`~repro.kernel.types.compare_atom`): a STR column takes STR
bounds only, a numeric column numeric ones.
"""

from __future__ import annotations

import operator
from typing import Any, Optional

import numpy as np

from ..errors import KernelError
from .bat import BAT
from .types import (
    OID_NIL,
    AtomType,
    coerce_scalar,
    compare_atom,
    literal_atom,
    nil_mask,
    nil_value,
)

__all__ = [
    "range_select",
    "theta_select",
    "select_nil",
    "select_non_nil",
    "check_bounds",
    "theta_check",
]

_THETA_OPS = {
    "==": operator.eq,
    "=": operator.eq,
    "!=": operator.ne,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def check_bounds(atom: Optional[AtomType], *bounds: Any) -> None:
    """Raise :class:`TypeMismatchError` unless every non-NULL bound
    compares with a column of ``atom``."""
    for bound in bounds:
        if bound is not None:
            compare_atom(atom, literal_atom(bound))


def theta_check(atom: Optional[AtomType], op: str, value: Any) -> None:
    """What :func:`theta_select` accepts: a known operator and a bound
    that compares with the column."""
    if op not in _THETA_OPS:
        raise KernelError(f"unknown theta operator {op!r}")
    check_bounds(atom, value)


def _masked_tail(bat: BAT, candidates: Optional[np.ndarray]):
    """``(positions, values)`` of the candidates; without a candidate
    list the positions are ``None`` and the values the whole tail (no
    identity gather).  A selection's oids are then
    ``(hits if positions is None else positions[hits]) + hseqbase``."""
    if candidates is None:
        return None, bat.tail
    positions = np.asarray(candidates, dtype=np.int64) - bat.hseqbase
    return positions, bat.tail[positions]


def _rejects_nil(atom: AtomType, low: Any, high: Any) -> bool:
    """Whether the (coerced) bounds' comparisons are already false at
    ``atom``'s NIL, so no NIL mask is needed: NaN compares false, INT/
    LNG/BOOL's NIL is the smallest value and OID's the largest."""
    if atom is AtomType.DBL or atom is AtomType.TIMESTAMP:
        return low is not None or high is not None
    if atom is AtomType.OID:
        return high is not None and high != OID_NIL
    return low is not None and low != nil_value(atom)


def range_select(
    bat: BAT,
    low: Any,
    high: Any,
    candidates: Optional[np.ndarray] = None,
    low_inclusive: bool = True,
    high_inclusive: bool = True,
    anti: bool = False,
) -> np.ndarray:
    """Oids of tuples with tail value in the range ``[low, high]``.

    ``None`` for either bound means unbounded on that side.  ``anti=True``
    inverts the range (but still never matches NULLs).
    """
    check_bounds(bat.atom, low, high)
    positions, tail = _masked_tail(bat, candidates)
    if bat.atom is AtomType.STR:
        # Object arrays: compare via python, skipping Nones.
        mask = np.ones(len(tail), dtype=bool)
        nils = np.fromiter((v is None for v in tail), bool, count=len(tail))
        if low is not None:
            cmp_lo = operator.ge if low_inclusive else operator.gt
            mask &= np.fromiter(
                (v is not None and cmp_lo(v, low) for v in tail),
                bool,
                count=len(tail),
            )
        if high is not None:
            cmp_hi = operator.le if high_inclusive else operator.lt
            mask &= np.fromiter(
                (v is not None and cmp_hi(v, high) for v in tail),
                bool,
                count=len(tail),
            )
        if anti:
            mask = ~mask
        mask &= ~nils
    else:
        atom = bat.atom
        mask = None
        if low is not None:
            low = coerce_scalar(atom, low)
            mask = (tail >= low) if low_inclusive else (tail > low)
        if high is not None:
            high = coerce_scalar(atom, high)
            upper = (tail <= high) if high_inclusive else (tail < high)
            mask = upper if mask is None else mask & upper
        if mask is None:
            mask = np.ones(len(tail), dtype=bool)
        if anti:
            mask = ~mask
        if anti or not _rejects_nil(atom, low, high):
            mask &= ~nil_mask(atom, tail)
    hits = np.flatnonzero(mask)
    return (hits if positions is None else positions[hits]) + bat.hseqbase


def theta_select(
    bat: BAT,
    op: str,
    value: Any,
    candidates: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Oids of tuples whose tail compares ``op`` against ``value``.

    ``op`` is one of ``== != < <= > >=`` (SQL spellings ``=`` and ``<>``
    accepted).  Comparing against NULL yields the empty candidate list.
    """
    theta_check(bat.atom, op, value)
    if value is None:
        return np.empty(0, dtype=np.int64)
    positions, tail = _masked_tail(bat, candidates)
    fn = _THETA_OPS[op]
    if bat.atom is AtomType.STR:
        mask = np.fromiter(
            (v is not None and fn(v, value) for v in tail),
            bool,
            count=len(tail),
        )
    else:
        value = coerce_scalar(bat.atom, value)
        mask = fn(tail, value) & ~nil_mask(bat.atom, tail)
    hits = np.flatnonzero(mask)
    return (hits if positions is None else positions[hits]) + bat.hseqbase


def select_nil(
    bat: BAT, candidates: Optional[np.ndarray] = None
) -> np.ndarray:
    """Oids of tuples whose tail is NULL (``IS NULL``)."""
    positions, tail = _masked_tail(bat, candidates)
    hits = np.flatnonzero(nil_mask(bat.atom, tail))
    return (hits if positions is None else positions[hits]) + bat.hseqbase


def select_non_nil(
    bat: BAT, candidates: Optional[np.ndarray] = None
) -> np.ndarray:
    """Oids of tuples whose tail is not NULL (``IS NOT NULL``)."""
    positions, tail = _masked_tail(bat, candidates)
    hits = np.flatnonzero(~nil_mask(bat.atom, tail))
    return (hits if positions is None else positions[hits]) + bat.hseqbase
