"""Ordering primitives: stable sort, top-N, and first-N slicing.

``order`` returns a *permutation* (candidate list of oids in sorted order),
which the plan then feeds to projections — the column-store never sorts
whole tables, only the oid order.  Multi-column ORDER BY chains calls via
``refine`` exactly like MonetDB's ``algebra.sort`` with an ordered input.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .bat import BAT
from .candidates import resolve_positions
from .types import AtomType, nil_mask

__all__ = ["order", "refine", "topn"]


def _sort_keys(bat: BAT, positions: np.ndarray, descending: bool):
    tail = bat.tail[positions]
    if bat.atom is AtomType.STR:
        # NULLs sort first ascending (SQL: NULLS FIRST default here).
        keyed = [
            ((v is not None), v if v is not None else "")
            for v in tail
        ]
        order_idx = sorted(range(len(keyed)), key=lambda i: keyed[i])
        idx = np.asarray(order_idx, dtype=np.int64)
        if descending:
            idx = idx[::-1]
        return idx
    nil = nil_mask(bat.atom, tail)
    if bat.atom.is_integral:
        # exact in int64 (float64 would merge BIGINTs above 2**53): NULLs
        # first ascending, last descending, ties in arrival order — lexsort
        # is stable and its last key is the primary one.  A NULL's key is
        # 0, so negating never meets the int64 minimum (LNG's NULL).
        values = np.where(nil, 0, tail.astype(np.int64))
        if descending:
            return np.lexsort((-values, nil))
        return np.lexsort((values, ~nil))
    values = tail.astype(np.float64)
    if descending:
        # negate instead of reversing so ties keep arrival order (stable);
        # NULLs sort last descending
        return np.argsort(np.where(nil, np.inf, -values), kind="stable")
    # Ascending: NULLs first; implement by mapping NULL to -inf.
    return np.argsort(np.where(nil, -np.inf, values), kind="stable")


def order(
    bat: BAT,
    candidates: Optional[np.ndarray] = None,
    descending: bool = False,
) -> np.ndarray:
    """Oids of the (candidate) tuples in tail-sorted order (stable)."""
    positions = resolve_positions(bat, candidates)
    idx = _sort_keys(bat, positions, descending)
    return positions[idx] + bat.hseqbase


def refine(
    bat: BAT,
    ordered_oids: np.ndarray,
    descending: bool = False,
) -> np.ndarray:
    """Refine an existing order by this BAT's tail (secondary sort key).

    Stable-sorts ``ordered_oids`` by ``bat``'s values; ties keep the
    incoming order, which is how multi-column ORDER BY composes.
    """
    positions = np.asarray(ordered_oids, dtype=np.int64) - bat.hseqbase
    idx = _sort_keys(bat, positions, descending)
    return positions[idx] + bat.hseqbase


def topn(
    bat: BAT,
    n: int,
    candidates: Optional[np.ndarray] = None,
    descending: bool = False,
) -> np.ndarray:
    """Oids of the N smallest (or largest) tail values."""
    ordered = order(bat, candidates, descending)
    return ordered[: max(n, 0)]
