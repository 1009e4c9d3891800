"""Run-end encoding of a basket's hidden per-tuple columns.

Every tuple carries two values nobody queries: the monotonic arrival
stamp that feeds the latency and queue-wait measurements, and the trace
token that carries span causality across basket hops.  Both are constant
for a whole batch — ingest stamps a batch once, and a factory credits its
whole output with the earliest stamp and the first token of its inputs —
so a basket stores them per *run*, not per row: one ``(end, stamp,
token)`` entry per ingested or appended batch, the layout Arrow calls
run-end encoding.  A basket usually holds one or two runs, so the runs
are python lists; every operation is O(runs), never O(rows) — a
:meth:`Runs.pick` searches the picked positions once per run.

Run *i* covers positions ``[ends[i-1], ends[i])`` (``ends[-1]`` is the
row count); ends strictly ascend, so no run is ever empty.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import List, Optional

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

    def pick(self, positions: np.ndarray) -> "Runs":
        """The runs of the rows at ascending ``positions``, rebased so
        that row *i* is the row at ``positions[i]`` — a gathered
        snapshot's runs, or a compacted basket's.  Each run ends where
        the picked rows before its old end do; a run none of whose rows
        is picked goes."""
        ends = positions.searchsorted(self.ends).tolist()
        kept = [i for i, end in enumerate(ends) if end > (ends[i - 1] if i else 0)]
        if len(kept) == len(ends):
            return Runs(ends, self.stamps[:], self.tokens[:])
        stamps, tokens = self.stamps, self.tokens
        return Runs(
            [ends[i] for i in kept],
            [stamps[i] for i in kept],
            [tokens[i] for i in kept],
        )
