"""Join primitives: fetch (projection) joins and value joins.

``projection`` is MonetDB's ``algebra.projection`` (a.k.a. leftfetchjoin):
given a candidate list of head oids and a tail BAT, fetch tail values in
candidate order, producing a new dense-headed BAT.  It is the workhorse of
column-at-a-time execution: selections produce oids, projections turn them
back into columns.

``hash_join`` is the value-based equi-join, returning *pairs of oid
arrays* into the left and right inputs, like MonetDB's ``algebra.join``
returning two oid BATs.  It is a bulk operator: the right (build) side's
non-NULL keys are indexed in a :class:`JoinIndex`, each left (probe) row
gets a ``(start, count)`` run of matches in it, and one expansion step
turns the runs into pairs.  The index is a direct-address table when the
integer keys span at most ``group.DENSE_SPAN`` × the build rows (a plain
``slot → oid`` table when those keys are also unique), otherwise a stable
sort searched with ``searchsorted``.

As MonetDB attaches a hash to a persistent BAT, the index of an integral
build column joined without candidates is kept in the BAT's
``join_index`` slot, keyed on the BAT's ``count``: BATs are append-only,
so an index built at the same count indexes the same values, and a BAT
that grew is indexed again.  A stream joined to a table therefore pays
only for its probe (the table-side BAT is the same object from firing to
firing, see :mod:`repro.kernel.interpreter`).  STR keys (codes shared
with the probe side), float keys and candidate-restricted build sides are
indexed per call.

Output contract: pairs come out in probe-side scan order; one probe row's
matches come out in build-side position order.  NULL never joins.  When
every probe row matched exactly once (a foreign key into its table), the
left side of the pairs *is* the probe side, in order, and the join
returns the probe's own candidates for it: the all-rows candidate
``None`` (MonetDB's dense candidate list) without probe candidates, the
given candidate list with them.  :func:`projection` through ``None``
fetches nothing; it hands out the tail as it is.
Mixed numeric keys compare as ``int64`` when both sides are integral and
as ``float64`` otherwise; STR keys compare as :func:`group.str_codes`.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .bat import BAT
from .candidates import resolve_positions
from .group import dense_span, str_codes
from .types import AtomType, compare_atom, nil_mask, nil_value

__all__ = [
    "projection",
    "hash_join",
    "JoinIndex",
    "cross_positions",
]


def projection(candidates: Optional[np.ndarray], tail: BAT) -> BAT:
    """Fetch ``tail`` values for each candidate oid, in candidate order;
    the all-rows candidate ``None`` fetches every value, as a read-only
    view of ``tail``."""
    if candidates is None:
        return tail.view(0, tail.count)
    return tail.take_oids(np.asarray(candidates, dtype=np.int64))


class JoinIndex:
    """An equi-join's build side: its non-NULL keys, indexed.

    ``lo``/``hi`` bound the keys (an empty index has ``lo > hi``).  One of
    three forms:

    * ``table`` (dense, duplicate-free integer keys): ``table[key - lo]``
      is the key's oid, ``-1`` where no key has that value;
    * ``sizes``/``firsts`` (dense keys with duplicates): the run of slot
      ``key - lo`` is ``oids[firsts[slot] : firsts[slot] + sizes[slot]]``;
    * ``ordered`` (sparse keys): the keys sorted, ``oids`` in that order.

    The dense forms end in one sentinel slot (``span``, no key: oid
    ``-1``, size 0) that every probe key outside the range looks up, so a
    probe is one range check, one gather and one compress.  ``oids``
    lists the build oids in key order (stable, so equal keys keep position
    order).  ``count`` is the build BAT's count when the index was built.
    """

    __slots__ = ("count", "lo", "hi", "span", "table", "oids", "firsts",
                 "sizes", "ordered")

    def __init__(self, keys: np.ndarray, oids: np.ndarray, count: int):
        self.count = count
        self.table = self.firsts = self.sizes = self.ordered = None
        dense = dense_span(keys, len(keys))
        if dense is not None:
            lo, span = dense
            self.lo, self.hi, self.span = lo, lo + span - 1, span
            slots = keys - lo
            sizes = np.bincount(slots, minlength=span + 1)
            if sizes.max() == 1:
                self.table = np.full(span + 1, -1, dtype=np.int64)
                self.table[slots] = oids
                return
            order = np.argsort(slots, kind="stable")
            self.sizes, self.firsts = sizes, np.cumsum(sizes) - sizes
        else:
            order = np.argsort(keys, kind="stable")
            self.ordered = keys[order]
            self.lo, self.hi = (
                (self.ordered[0], self.ordered[-1]) if len(keys) else (0, -1)
            )
        self.oids = oids[order]

    @classmethod
    def of(cls, bat: BAT, keys: np.ndarray, positions: np.ndarray,
           nil: np.ndarray) -> "JoinIndex":
        """The index of ``bat``'s rows at ``positions`` with join ``keys``
        (``nil`` marks the NULL ones, which are left out)."""
        valid = ~nil
        return cls(keys[valid], positions[valid] + bat.hseqbase, bat.count)

    def covers(self, key: object) -> bool:
        """Whether probe key ``key`` falls inside the keys' range (NaN
        never does); asked of a probe side's NIL value."""
        return bool(self.lo <= key <= self.hi)

    def probe(
        self, keys: np.ndarray, nil: Optional[np.ndarray]
    ) -> Tuple[Optional[np.ndarray], np.ndarray]:
        """``(probe positions, build oids)`` of every match of ``keys``,
        in probe order; ``nil`` marks probe keys that must not match
        (``None``: none can).  The positions are ``None`` when every key
        matched exactly once: they would be ``0 .. len(keys) - 1``."""
        if self.ordered is not None:
            starts = np.searchsorted(self.ordered, keys, "left")
            counts = np.searchsorted(self.ordered, keys, "right") - starts
            if nil is not None:
                counts[nil] = 0
            runs, build = _expand(starts, counts)
            return runs, self.oids[build]
        # the range check: ``key - lo`` wraps (as unsigned) above ``span``
        # below the range, so one minimum sends every miss to the sentinel
        slots = np.subtract(keys, self.lo, dtype=np.int64).view(np.uint64)
        slots = np.minimum(slots, self.span, out=slots).view(np.int64)
        if nil is not None:
            slots[nil] = self.span
        if self.table is None:
            runs, build = _expand(self.firsts[slots], self.sizes[slots])
            return runs, self.oids[build]
        oids = self.table[slots]
        if oids.min(initial=0) >= 0:  # e.g. a foreign key into its table
            return None, oids
        hits = np.flatnonzero(oids >= 0)
        return hits, oids[hits]


def _expand(
    starts: np.ndarray, counts: np.ndarray
) -> Tuple[Optional[np.ndarray], np.ndarray]:
    """Expand runs into ``(run index, build index)`` of every match; the
    run index is ``None`` when every run holds one match."""
    if counts.max(initial=0) <= 1:  # e.g. a key join: no run to widen
        if counts.all():
            return None, starts
        runs = np.flatnonzero(counts)
        return runs, starts[runs]
    runs = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    shift = starts - (np.cumsum(counts) - counts)
    return runs, np.arange(len(runs), dtype=np.int64) + shift[runs]


def _build_index(
    right: BAT, right_cands: Optional[np.ndarray], dtype: type
) -> JoinIndex:
    """The build index of an integral or float ``right``: kept on the BAT
    when it has integer keys and no candidates."""
    kept = dtype is np.int64 and right_cands is None
    if kept:
        index = right.join_index
        if index is not None and index.count == right.count:
            return index
    rpos = resolve_positions(right, right_cands)
    rtail = right.tail[rpos]
    index = JoinIndex.of(
        right, rtail.astype(dtype), rpos, nil_mask(right.atom, rtail)
    )
    if kept:
        right.join_index = index
    return index


def hash_join(
    left: BAT,
    right: BAT,
    left_cands: Optional[np.ndarray] = None,
    right_cands: Optional[np.ndarray] = None,
) -> Tuple[Optional[np.ndarray], np.ndarray]:
    """Equi-join on tail values.

    Returns ``(left_oids, right_oids)``: parallel candidate lists such
    that ``left[left_oids[i]] == right[right_oids[i]]``.  NULLs never
    match.  Pairs come out in left (probe) scan order, and one left row's
    matches in right position order.  When every probe row matched
    exactly once, ``left_oids`` is ``left_cands`` itself: ``None``, the
    all-rows candidate, when the probe covered all of ``left``.
    """
    compare_atom(left.atom, right.atom)
    lpos = None if left_cands is None else resolve_positions(left, left_cands)
    ltail = left.tail if lpos is None else left.tail[lpos]
    if left.atom is AtomType.STR:
        # build side first: its codes stay dense for the lookup table;
        # a NIL probe code (-1) is below every build code
        rpos = resolve_positions(right, right_cands)
        (rkeys, lkeys), _ = str_codes(right.tail[rpos], ltail)
        index = JoinIndex.of(right, rkeys, rpos, rkeys < 0)
        nil = None
    else:
        integral = ltail.dtype.kind in "iu" and right.tail.dtype.kind in "iu"
        dtype = np.int64 if integral else np.float64
        index = _build_index(right, right_cands, dtype)
        lkeys = ltail  # the index converts probe keys to its own dtype
        # the probe side's NIL is masked only when it could hit a key
        # (an INT NIL is a valid LNG key); NaN never matches
        nil = (
            nil_mask(left.atom, ltail)
            if index.covers(dtype(nil_value(left.atom))) else None
        )
    hits, right_oids = index.probe(lkeys, nil)
    if hits is None:  # every probe row matched once, in order
        return left_cands, right_oids
    if lpos is not None:
        hits = lpos[hits]
    return hits + left.hseqbase, right_oids


def cross_positions(left_count: int, right_count: int) -> Tuple[np.ndarray, np.ndarray]:
    """Position pairs for a cross product (used by nested-loop fallbacks)."""
    lidx = np.repeat(np.arange(left_count, dtype=np.int64), right_count)
    ridx = np.tile(np.arange(right_count, dtype=np.int64), left_count)
    return lidx, ridx
