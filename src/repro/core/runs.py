"""Run-end encoding of a basket's hidden per-tuple columns.

Every tuple carries two values nobody queries: the monotonic arrival
stamp that feeds the latency and queue-wait measurements, and the trace
token that carries span causality across basket hops.  Both are constant
for a whole batch — ingest stamps a batch once, and a factory credits its
whole output with the earliest stamp and the first token of its inputs —
so a basket stores them per *run*, not per row: one ``(end, stamp,
token)`` entry per ingested or appended batch, the layout Arrow calls
run-end encoding.  A basket usually holds one or two runs, so the runs
are python lists; every operation is O(runs), never O(rows), except the
re-cut after a boolean-mask removal that spans several runs.

Run *i* covers positions ``[ends[i-1], ends[i])`` (``ends[-1]`` is the
row count); ends strictly ascend, so no run is ever empty.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Iterator, List, Optional, Tuple

import numpy as np

__all__ = ["Runs"]


class Runs:
    """The ``(end, stamp, token)`` runs of one basket or snapshot."""

    __slots__ = ("ends", "stamps", "tokens")

    def __init__(
        self,
        ends: Optional[List[int]] = None,
        stamps: Optional[List[float]] = None,
        tokens: Optional[List[int]] = None,
    ):
        self.ends: List[int] = ends if ends is not None else []
        self.stamps: List[float] = stamps if stamps is not None else []
        self.tokens: List[int] = tokens if tokens is not None else []

    def append(self, end: int, stamp: float, token: int) -> None:
        """A new run covering the rows from the last end up to ``end``."""
        self.ends.append(end)
        self.stamps.append(stamp)
        self.tokens.append(token)

    # ------------------------------------------------------------------
    # readers
    # ------------------------------------------------------------------
    def counted(self) -> Iterator[Tuple[float, int]]:
        """``(stamp, rows)`` per run."""
        last = 0
        for end, stamp in zip(self.ends, self.stamps):
            yield stamp, end - last
            last = end

    def oldest(self) -> float:
        """The earliest arrival stamp (the runs must not be empty)."""
        return min(self.stamps)

    def first_token(self) -> int:
        """The first sampled trace token, ``0`` when no run is sampled."""
        tokens = self.tokens
        return next(filter(None, tokens)) if any(tokens) else 0

    def wait(self, now: float, first: int = 0) -> float:
        """Σ max(now − stamp, 0) over the rows from position ``first``."""
        ends, stamps = self.ends, self.stamps
        k = bisect_right(ends, first)
        total = 0.0
        last = first
        for i in range(k, len(ends)):
            end = ends[i]
            if stamps[i] < now:
                total += (now - stamps[i]) * (end - last)
            last = end
        return total

    # ------------------------------------------------------------------
    # cuts
    # ------------------------------------------------------------------
    def cut(self, start: int, stop: int) -> "Runs":
        """The runs of rows ``[start, stop)``, rebased to position 0."""
        if stop <= start:
            return Runs()
        ends = self.ends
        k = bisect_right(ends, start)
        j = bisect_left(ends, stop, k) + 1
        cut = ends[k:j] if not start else [end - start for end in ends[k:j]]
        cut[-1] = stop - start
        return Runs(cut, self.stamps[k:j], self.tokens[k:j])

    def keep(self, selection: Any, kept: int, start: int = 0) -> "Runs":
        """The runs of the ``kept`` rows ``selection`` picks.

        ``selection`` is a slice or a boolean mask over the rows from
        ``start`` on (the rows before it are kept) — the forms a basket
        rebuilds its columns by.
        """
        if not kept:
            return Runs()
        ends = self.ends
        if len(ends) == 1:
            return Runs([kept], self.stamps[:], self.tokens[:])
        if kept == ends[-1] or start >= ends[-2]:
            # nothing removed, or only rows of the last run (a consume of
            # the newest batch): the runs before it stand, and it shrinks
            # to end at ``kept`` — or goes, if nothing of it is kept
            return self.cut(0, kept)
        if isinstance(selection, slice):
            first, stop, _ = selection.indices(self.ends[-1])
            return self.cut(first, stop)
        # removed positions, ascending: only the runs from the first one
        # hit change, and a consume usually hits the newest runs
        gone = np.flatnonzero(~selection)
        if start:
            gone += start
        k = bisect_right(self.ends, int(gone[0]))
        tail = self.ends[k:]
        ends = [
            end - removed
            for end, removed in zip(tail, gone.searchsorted(tail).tolist())
        ]
        return self._recut(k, ends)

    def _recut(self, k: int, ends: List[int]) -> "Runs":
        """Runs ``[0, k)`` as they are, then runs ``k…`` with new
        ``ends``, dropping each one left empty."""
        out = Runs(self.ends[:k], self.stamps[:k], self.tokens[:k])
        last = out.ends[-1] if k else 0
        for end, stamp, token in zip(ends, self.stamps[k:], self.tokens[k:]):
            if end > last:
                out.append(end, stamp, token)
                last = end
        return out
