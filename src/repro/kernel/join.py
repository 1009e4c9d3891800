"""Join primitives: fetch (projection) joins and value joins.

``projection`` is MonetDB's ``algebra.projection`` (a.k.a. leftfetchjoin):
given a candidate list of head oids and a tail BAT, fetch tail values in
candidate order, producing a new dense-headed BAT.  It is the workhorse of
column-at-a-time execution: selections produce oids, projections turn them
back into columns.

``hash_join`` is the value-based equi-join, returning *pairs of oid
arrays* into the left and right inputs, like MonetDB's ``algebra.join``
returning two oid BATs.  It is a bulk operator: each left (probe) row
gets a ``(start, count)`` run of matches in an index of the right (build)
side, and one expansion step turns the runs into pairs.  The index is a
direct-address table when the integer keys span at most
``group.DENSE_SPAN`` × the build rows, otherwise a stable sort searched
with ``searchsorted``.

Output contract: pairs come out in probe-side scan order; one probe row's
matches come out in build-side position order.  NULL never joins.
Mixed numeric keys compare as ``int64`` when both sides are integral and
as ``float64`` otherwise; STR keys compare as :func:`group.str_codes`.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .bat import BAT
from .candidates import resolve_positions
from .group import dense_span, str_codes
from .types import AtomType, compare_atom, nil_mask

__all__ = [
    "projection",
    "hash_join",
    "cross_positions",
]


def projection(candidates: np.ndarray, tail: BAT, hseqbase: int = 0) -> BAT:
    """Fetch ``tail`` values for each candidate oid, in candidate order."""
    return tail.take_oids(np.asarray(candidates, dtype=np.int64), hseqbase=hseqbase)


class _Sides:
    """Both join inputs as comparable keys.

    ``lkeys`` holds every probe row (``lnil`` marks the NULL ones);
    ``rkeys`` holds only the build side's non-NULL rows, and
    ``roids[i]`` is the right oid of ``rkeys[i]``.
    """

    __slots__ = ("loids", "lkeys", "lnil", "roids", "rkeys")

    def __init__(self, left, right, left_cands, right_cands):
        compare_atom(left.atom, right.atom)
        lpos = resolve_positions(left, left_cands)
        rpos = resolve_positions(right, right_cands)
        ltail, rtail = left.tail[lpos], right.tail[rpos]
        if left.atom is AtomType.STR:
            # build side first: its codes stay dense for the lookup table
            (rkeys, lkeys), _ = str_codes(rtail, ltail)
            lnil, rnil = lkeys < 0, rkeys < 0
        else:
            lnil = nil_mask(left.atom, ltail)
            rnil = nil_mask(right.atom, rtail)
            integral = ltail.dtype.kind in "iu" and rtail.dtype.kind in "iu"
            dtype = np.int64 if integral else np.float64
            lkeys, rkeys = ltail.astype(dtype), rtail.astype(dtype)
        self.loids = lpos + left.hseqbase
        self.lkeys, self.lnil = lkeys, lnil
        self.roids = rpos[~rnil] + right.hseqbase
        self.rkeys = rkeys[~rnil]


def _equi_runs(sides: _Sides) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(build order, starts, counts)``: probe row ``i`` matches the build
    rows ``order[starts[i] : starts[i] + counts[i]]``, in position order."""
    rkeys, lkeys = sides.rkeys, sides.lkeys
    dense = dense_span(rkeys, len(rkeys))
    if dense is not None:
        lo, span = dense
        hi = lo + span - 1
        slots = rkeys - lo
        order = np.argsort(slots, kind="stable")
        sizes = np.bincount(slots, minlength=span)
        firsts = np.cumsum(sizes) - sizes
        probe = np.clip(lkeys, lo, hi) - lo
        starts = firsts[probe]
        counts = np.where((lkeys >= lo) & (lkeys <= hi), sizes[probe], 0)
    else:
        order = np.argsort(rkeys, kind="stable")
        ordered = rkeys[order]
        starts = np.searchsorted(ordered, lkeys, "left")
        counts = np.searchsorted(ordered, lkeys, "right") - starts
    counts[sides.lnil] = 0
    return order, starts, counts


def _expand(starts: np.ndarray, counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Expand runs into ``(run index, build index)`` of every match."""
    if counts.max(initial=0) <= 1:  # e.g. a key join: no run to widen
        runs = np.flatnonzero(counts)
        return runs, starts[runs]
    runs = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    shift = starts - (np.cumsum(counts) - counts)
    return runs, np.arange(len(runs), dtype=np.int64) + shift[runs]


def hash_join(
    left: BAT,
    right: BAT,
    left_cands: Optional[np.ndarray] = None,
    right_cands: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Equi-join on tail values.

    Returns ``(left_oids, right_oids)``: parallel arrays such that
    ``left[left_oids[i]] == right[right_oids[i]]``.  NULLs never match.
    Pairs come out in left (probe) scan order, and one left row's matches
    in right position order.
    """
    sides = _Sides(left, right, left_cands, right_cands)
    order, starts, counts = _equi_runs(sides)
    runs, build = _expand(starts, counts)
    return sides.loids[runs], sides.roids[order[build]]


def cross_positions(left_count: int, right_count: int) -> Tuple[np.ndarray, np.ndarray]:
    """Position pairs for a cross product (used by nested-loop fallbacks)."""
    lidx = np.repeat(np.arange(left_count, dtype=np.int64), right_count)
    ridx = np.tile(np.arange(right_count, dtype=np.int64), left_count)
    return lidx, ridx
