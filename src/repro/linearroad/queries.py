"""The Linear Road continuous-query network, expressed as DataCell plans.

Topology (a showcase of the paper's architecture: one shared input basket
with multiple reader factories, chained through intermediate baskets)::

    lr_position ──(shared)──> SegmentStatisticsPlan ──> lr_stats
                ──(shared)──> AccidentDetectionPlan ──> lr_accidents
                ──(shared)──> TollNotificationPlan  ──> lr_tolls, lr_alerts
    lr_stats / lr_accidents ──(side inputs, consumed)──> TollNotificationPlan
    lr_balance_req ──> AccountBalancePlan ──> lr_balance_out

Determinism rule (shared with the validator): all effects are defined on
*event time*, never on batch boundaries —

* segment statistics for minute ``m`` are computed from minutes ``< m``
  (LAV over the last 5 complete minutes, car count from minute ``m-1``);
* an accident detected by a report at time ``td`` affects reports with
  ``t > td`` and stops affecting them after the clearing report time
  ``tc`` (active for ``td < t <= tc``);
* a balance request at time ``t`` reflects tolls from reports at time
  ``< t``.

Under these rules the outputs are identical for *any* batching of the
input — the property test in ``tests/test_linearroad.py`` replays the same
log at several batch sizes and asserts byte-equality, which is exactly the
out-of-order/batch flexibility argument of paper §2.2.

The plans are columnar: they read a snapshot's tails as numpy arrays and
emit adopted arrays.  A segment ``(xway, dir, seg)`` is the composite code
``(xway*2 + dir)*NUM_SEGMENTS + seg``, and per-vehicle state is indexed
by vid (vids are non-negative).  Only
accident detection keeps a python loop, because its four-report streak
is sequential per vehicle; the loop runs only over the reports that can
change that state.

State is bounded by event time: reports arrive in time order, so the
statistics plan keeps the last ``LAV_WINDOW_MINUTES`` folded minutes and
the toll plan drops statistics of past minutes and cleared accident spans
no later report can see.  A report older than what a plan retains raises
``ValueError`` rather than reading state that has been dropped.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.basket import BasketSnapshot
from ..core.factory import ContinuousPlan, PlanOutput
from ..kernel.bat import BAT
from ..kernel.mal import ResultSet
from ..kernel.types import AtomType, numpy_dtype
from .model import (
    ACCIDENT_UPSTREAM_SEGMENTS,
    LAV_WINDOW_MINUTES,
    NUM_SEGMENTS,
    SEGMENT_STATS_COLUMNS,
    STOPPED_REPORTS_FOR_ACCIDENT,
    TOLL_SPEED_THRESHOLD,
    TOLL_VEHICLE_THRESHOLD,
)

__all__ = [
    "SegmentStatisticsPlan",
    "AccidentDetectionPlan",
    "TollNotificationPlan",
    "AccountBalancePlan",
    "TollState",
]

Columns = Sequence[Tuple[str, AtomType]]
Place = Tuple[int, int, int, int]  # (xway, dir, seg, pos)
SegKey = Tuple[int, int, int]  # (xway, dir, seg)

#: clearing time of an accident span that is still open
_OPEN = np.iinfo(np.int64).max
#: (lav, cars) of a minute without stats rows
_NO_STATS = (np.zeros(0, dtype=np.float64), np.zeros(0, dtype=np.int64))


def _segment_codes(xway: np.ndarray, direction: np.ndarray,
                   seg: np.ndarray) -> np.ndarray:
    """``(xway*2 + dir)*NUM_SEGMENTS + seg`` as int64, from INT tails.

    Codes sort like the ``(xway, dir, seg)`` tuples they stand for, and
    ``code // NUM_SEGMENTS`` is the ``(xway, dir)`` road.  A segment out
    of range would alias another one's code, so it raises ``ValueError``.
    """
    # viewed unsigned, a negative int32 is larger than any bound
    if (seg.view(np.uint32).max() >= NUM_SEGMENTS
            or direction.view(np.uint32).max() > 1 or xway.min() < 0):
        raise ValueError(
            f"segments need 0 <= seg < {NUM_SEGMENTS}, dir in (0, 1) "
            f"and xway >= 0")
    return (xway.astype(np.int64) * 2 + direction) * NUM_SEGMENTS + seg


def _segments(codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(xway, dir, seg)`` columns of segment codes."""
    road, seg = np.divmod(codes, NUM_SEGMENTS)
    xway, direction = np.divmod(road, 2)
    return xway, direction, seg


def _tails(snapshot: BasketSnapshot, names: Sequence[str]) -> List[np.ndarray]:
    return [snapshot.column(name).tail for name in names]


def _result(columns: Columns, arrays: Sequence[np.ndarray]) -> ResultSet:
    """A result set adopting each array, cast to its atom's storage dtype.

    The plans pass arrays nothing else writes to: fresh ones or the tails
    of a snapshot they were handed.
    """
    return ResultSet(
        [name for name, _ in columns],
        [
            BAT.adopt(atom, np.ascontiguousarray(
                values, dtype=numpy_dtype(atom)))
            for (_, atom), values in zip(columns, arrays)
        ],
    )


def _distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values (``np.unique`` without its fixed cost)."""
    values = np.sort(values)
    return values[np.append(True, values[1:] != values[:-1])]


def _minutes(minutes: np.ndarray) -> Iterator[Tuple[int, Any]]:
    """Yield ``(minute, rows)`` per minute present, ``rows`` a mask or
    ``slice(None)`` when the batch holds one minute."""
    first, last = int(minutes.min()), int(minutes.max())
    if first == last:
        yield first, slice(None)
        return
    for minute in range(first, last + 1):
        rows = minutes == minute
        if rows.any():
            yield minute, rows


def _grown(array: np.ndarray, size: int, fill: Any) -> np.ndarray:
    """``array`` extended with ``fill`` to at least ``size`` entries."""
    if size <= len(array):
        return array
    out = np.full(max(size, 2 * len(array)), fill, dtype=array.dtype)
    out[: len(array)] = array
    return out


def _by_vid(array: np.ndarray, vid: np.ndarray, fill: Any) -> np.ndarray:
    """``array`` grown so every vid in ``vid`` indexes it."""
    _check_vids(vid)
    return _grown(array, int(vid.max()) + 1, fill)


def _check_vids(vid: np.ndarray) -> None:
    # vids index arrays and pack into the low 32 bits of (code, vid) pairs
    if int(vid.min()) < 0:
        raise ValueError(
            f"vehicle ids must be non-negative, got {int(vid.min())}")


def _older_than(plan: str, t: int, horizon: str) -> ValueError:
    return ValueError(
        f"{plan}: report at t={t} is older than the retained horizon "
        f"({horizon}); reports must arrive in event-time order"
    )


class SegmentStatisticsPlan(ContinuousPlan):
    """Maintains per-minute segment statistics; emits completed minutes.

    For every (xway, dir, seg) and minute ``m`` it accumulates speed sums
    and distinct vehicles.  Once the watermark (max report time seen)
    enters minute ``m+1``, minute ``m`` is complete and a stats row for
    minute ``m+1`` is emitted: LAV = mean speed over minutes
    ``[m+1-5, m]``, cars = distinct vehicles in minute ``m``.

    Reports of an open minute are kept as column chunks; completing the
    minute folds them into sorted segment codes with integer speed sums,
    report counts and distinct-vehicle counts.  Only the folds the next
    LAV window reads are kept.
    """

    def __init__(self, input_basket: str = "lr_position",
                 output_basket: str = "lr_stats"):
        self.input_basket = input_basket.lower()
        self.output_basket = output_basket.lower()
        self._columns = SEGMENT_STATS_COLUMNS
        # open minute -> (codes, vids, speeds) chunks not folded yet
        self._open: Dict[int, List[Tuple[np.ndarray, ...]]] = {}
        # folded minute -> (codes, speed sums, reports, distinct cars)
        self._folded: Dict[int, Tuple[np.ndarray, ...]] = {}
        self._emitted_minute = -1
        self.rows_emitted = 0

    @property
    def retained_minutes(self) -> int:
        """Minutes of state held: open chunks plus folds."""
        return len(self._open) + len(self._folded)

    def run(self, snapshots: Dict[str, BasketSnapshot]) -> PlanOutput:
        snap = snapshots.get(self.input_basket)
        if snap is None or not snap.count:
            return PlanOutput()
        t, vid, speed, xway, direction, seg = _tails(
            snap, ("t", "vid", "speed", "xway", "dir", "seg"))
        _check_vids(vid)
        minutes = t // 60
        if int(minutes.min()) <= self._emitted_minute:
            raise _older_than(
                "segment statistics", int(t.min()),
                f"minute {self._emitted_minute} is already emitted")
        codes = _segment_codes(xway, direction, seg)
        for minute, rows in _minutes(minutes):
            self._open.setdefault(minute, []).append(
                (codes[rows], vid[rows], speed[rows]))
        parts = []
        while self._emitted_minute < int(minutes.max()) - 1:
            self._emitted_minute += 1
            parts.append(self._emit_minute(self._emitted_minute))
        columns = [np.concatenate(c) for c in zip(*parts)]
        if not columns or not len(columns[0]):
            return PlanOutput()
        self.rows_emitted += len(columns[0])
        return PlanOutput(
            results={self.output_basket: _result(self._columns, columns)})

    def _fold(self, minute: int) -> None:
        chunks = self._open.pop(minute, None)
        if not chunks:
            return
        codes, vids, speeds = (np.concatenate(c) for c in zip(*chunks))
        reports = np.bincount(codes)
        keys = np.flatnonzero(reports)
        # integer speeds: the float sums are exact, so LAV is bit-identical
        # to summing python ints
        sums = np.bincount(codes, weights=speeds)[keys].astype(np.int64)
        cars = np.bincount(_distinct((codes << 32) | vids) >> 32)[keys]
        self._folded[minute] = (keys, sums, reports[keys], cars)

    def _emit_minute(self, m: int) -> Tuple[np.ndarray, ...]:
        """Stats valid *during* minute m+1, from data of minutes <= m."""
        self._fold(m)
        for old in [k for k in self._folded if k <= m - LAV_WINDOW_MINUTES]:
            del self._folded[old]
        if not self._folded:
            return tuple(np.empty(0, np.int64) for _ in self._columns)
        codes, sums, reports = (
            np.concatenate([fold[i] for fold in self._folded.values()])
            for i in range(3))
        count = np.bincount(codes, weights=reports)
        keys = np.flatnonzero(count)
        total = np.bincount(codes, weights=sums)[keys]
        cars = np.zeros(len(count), dtype=np.int64)
        latest = self._folded.get(m)
        if latest is not None:
            cars[latest[0]] = latest[3]
        xway, direction, seg = _segments(keys)
        minute = np.full(len(keys), m + 1, dtype=np.int64)
        return minute, xway, direction, seg, total / count[keys], cars[keys]

    def describe(self) -> str:
        return "linear-road segment statistics"


class AccidentDetectionPlan(ContinuousPlan):
    """Detects accidents: >=2 cars stopped at the same position.

    A car is *stopped* after ``STOPPED_REPORTS_FOR_ACCIDENT`` consecutive
    reports with speed 0 at the same position.  Emits status rows
    ``(t, xway, dir, seg, status)`` — 1 on detection, 0 on clear.

    The streak is sequential per vehicle, so a python loop walks it, but
    only over the reports that can change state: speed 0, or a vehicle
    with a live streak (a vid-indexed flag).  Every other report is a
    no-op and stays in numpy.
    """

    COLUMNS = [
        ("t", AtomType.INT),
        ("xway", AtomType.INT),
        ("dir", AtomType.INT),
        ("seg", AtomType.INT),
        ("status", AtomType.INT),
    ]

    def __init__(self, input_basket: str = "lr_position",
                 output_basket: str = "lr_accidents"):
        self.input_basket = input_basket.lower()
        self.output_basket = output_basket.lower()
        # vid -> (position key, consecutive stopped count)
        self._stopped_streak: Dict[int, Tuple[Place, int]] = {}
        # vid -> has an entry in _stopped_streak
        self._streaking = np.zeros(0, dtype=bool)
        # position key -> stopped vids (no empty sets)
        self._stopped_at: Dict[Place, Set[int]] = {}
        # active accident: (xway, dir, seg) -> position key
        self._active: Dict[SegKey, Place] = {}
        self.accidents_detected = 0

    def run(self, snapshots: Dict[str, BasketSnapshot]) -> PlanOutput:
        snap = snapshots.get(self.input_basket)
        if snap is None or not snap.count:
            return PlanOutput()
        columns = _tails(
            snap, ("t", "vid", "speed", "xway", "dir", "seg", "pos"))
        vid, speed = columns[1], columns[2]
        self._streaking = _by_vid(self._streaking, vid, False)
        # a vid stopping in this batch may move later in it
        self._streaking[vid[speed == 0]] = True
        touched = np.flatnonzero(self._streaking[vid])
        if not len(touched):
            return PlanOutput()
        events: List[Tuple[int, ...]] = []
        for report in zip(*(c[touched].tolist() for c in columns)):
            self._process(events, *report)
        if not events:
            return PlanOutput()
        result = _result(self.COLUMNS, list(np.array(events).T))
        return PlanOutput(results={self.output_basket: result})

    def _process(self, events: List[Tuple[int, ...]], t: int, vid: int,
                 speed: int, xway: int, direction: int, seg: int,
                 pos: int) -> None:
        place = (xway, direction, seg, pos)
        seg_key = (xway, direction, seg)
        if speed == 0:
            prev_place, streak = self._stopped_streak.get(vid, (None, 0))
            streak = streak + 1 if prev_place == place else 1
            self._stopped_streak[vid] = (place, streak)
            self._streaking[vid] = True
            if streak >= STOPPED_REPORTS_FOR_ACCIDENT:
                stopped = self._stopped_at.setdefault(place, set())
                stopped.add(vid)
                if len(stopped) >= 2 and seg_key not in self._active:
                    self._active[seg_key] = place
                    self.accidents_detected += 1
                    events.append((t, xway, direction, seg, 1))
            return
        # car moved: clear its stopped state, maybe clear the accident
        self._streaking[vid] = False
        popped = self._stopped_streak.pop(vid, None)
        if popped is None:
            return
        prev_place = popped[0]
        stopped = self._stopped_at.get(prev_place)
        if not stopped or vid not in stopped:
            return
        stopped.discard(vid)
        if not stopped:
            del self._stopped_at[prev_place]
        seg_prev = prev_place[:3]
        if self._active.get(seg_prev) == prev_place and len(stopped) < 2:
            del self._active[seg_prev]
            events.append((t, seg_prev[0], seg_prev[1], seg_prev[2], 0))

    def describe(self) -> str:
        return "linear-road accident detection"


@dataclass
class TollState:
    """Balances shared between toll assessment and balance queries.

    Per vehicle, the times of its assessments (non-decreasing) and the
    running total after each, so a balance is one binary search.
    """

    balances: Dict[int, int] = field(default_factory=dict)
    # vid -> (assessment times, running totals)
    _history: Dict[int, Tuple[List[int], List[int]]] = field(
        default_factory=dict)

    def assess(self, vid: int, toll: int, t: int) -> None:
        if toll <= 0:
            return
        times, totals = self._history.setdefault(vid, ([], []))
        if times and t < times[-1]:
            raise ValueError(
                f"toll at t={t} for vid {vid} is older than its last "
                f"assessment at t={times[-1]}")
        total = (totals[-1] if totals else 0) + toll
        times.append(t)
        totals.append(total)
        self.balances[vid] = total

    def balance_before(self, vid: int, t: int) -> int:
        """Balance from tolls assessed at report times strictly < t."""
        history = self._history.get(vid)
        if history is None:
            return 0
        times, totals = history
        before = bisect.bisect_left(times, t)
        return totals[before - 1] if before else 0


class TollNotificationPlan(ContinuousPlan):
    """Issues toll notifications and accident alerts on segment crossings.

    Side inputs: the stats and accident baskets (consumed into local
    lookup state).  Main input: position reports.  On a report where the
    vehicle enters a new segment (and is not on the exit lane):

    * if an accident is active (by event-time rule) within 5 downstream
      segments → accident alert, toll 0;
    * else if LAV < 40 and cars > 50 → toll ``2*(cars-50)^2``;
    * else toll 0.

    Every crossing produces a toll notification row; non-zero tolls are
    assessed to the vehicle's balance.

    State: a vid-indexed last-segment array, each retained minute's LAV
    and cars indexed by segment code, and a table of accident spans
    ``(code, detect_t, clear_t)``.  After each batch the stats of minutes
    before the watermark's and spans cleared before it are dropped.
    """

    TOLL_COLUMNS = [
        ("vid", AtomType.INT),
        ("t", AtomType.INT),
        ("lav", AtomType.DBL),
        ("toll", AtomType.INT),
    ]
    ALERT_COLUMNS = [
        ("vid", AtomType.INT),
        ("t", AtomType.INT),
        ("xway", AtomType.INT),
        ("seg", AtomType.INT),
    ]

    def __init__(
        self,
        state: Optional[TollState] = None,
        position_basket: str = "lr_position",
        stats_basket: str = "lr_stats",
        accidents_basket: str = "lr_accidents",
        toll_output: str = "lr_tolls",
        alert_output: str = "lr_alerts",
    ):
        self.state = state or TollState()
        self.position_basket = position_basket.lower()
        self.stats_basket = stats_basket.lower()
        self.accidents_basket = accidents_basket.lower()
        self.toll_output = toll_output.lower()
        self.alert_output = alert_output.lower()
        # minute -> (lav, cars), each indexed by segment code; a segment
        # without a stats row reads (0.0, 0)
        self._stats: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        # rows (code, detect_t, clear_t or _OPEN), in detection order
        self._spans = np.empty((0, 3), dtype=np.int64)
        # vid -> segment code of its last report, -1 before the first
        self._last_seg = np.full(0, -1, dtype=np.int64)
        self._watermark = -1
        self.notifications = 0
        self.alerts = 0

    @property
    def retained_minutes(self) -> int:
        return len(self._stats)

    @property
    def retained_spans(self) -> int:
        return len(self._spans)

    # ------------------------------------------------------------------
    def run(self, snapshots: Dict[str, BasketSnapshot]) -> PlanOutput:
        self._ingest_stats(snapshots.get(self.stats_basket))
        self._ingest_accidents(snapshots.get(self.accidents_basket))
        snap = snapshots.get(self.position_basket)
        if snap is None or not snap.count:
            return PlanOutput()
        t, vid, xway, lane, direction, seg = _tails(
            snap, ("t", "vid", "xway", "lane", "dir", "seg"))
        if int(t.min()) < self._watermark:
            raise _older_than(
                "toll notification", int(t.min()),
                f"reports up to t={self._watermark} are processed")
        codes = _segment_codes(xway, direction, seg)
        notify = np.flatnonzero(
            self._crossings(vid, codes) & (lane != 4))  # 4: exit ramp
        results = self._notify(vid[notify], t[notify], xway[notify],
                               codes[notify])
        self._watermark = int(t.max())
        self._forget()
        return PlanOutput(results=results)

    def _notify(self, vid: np.ndarray, t: np.ndarray, xway: np.ndarray,
                codes: np.ndarray) -> Dict[str, ResultSet]:
        """Toll and alert rows for the reports that entered a segment."""
        if not len(vid):
            return {}
        accident_seg = self._accident_segments(t, codes)
        alert = accident_seg >= 0
        lav, cars = self._lookup_stats(t // 60, codes)
        lav[alert] = 0.0
        overflow = cars - TOLL_VEHICLE_THRESHOLD
        charge = (lav < TOLL_SPEED_THRESHOLD) & (overflow > 0) & ~alert
        toll = np.where(charge, 2 * overflow * overflow, 0)
        if charge.any():
            for args in zip(*(c[charge].tolist() for c in (vid, toll, t))):
                self.state.assess(*args)
        results = {self.toll_output: _result(
            self.TOLL_COLUMNS, [vid, t, lav, toll])}
        self.notifications += len(vid)
        if alert.any():
            self.alerts += int(alert.sum())
            results[self.alert_output] = _result(self.ALERT_COLUMNS, [
                vid[alert], t[alert], xway[alert], accident_seg[alert]])
        return results

    def _crossings(self, vid: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """Which reports enter a segment other than the vehicle's last.

        Ascending vids (one report per vehicle) index the last-segment
        array directly.  Otherwise a stable sort by vid keeps a vehicle's
        reports in arrival order, so a vehicle reporting twice in one
        batch compares its second report with its first.
        """
        self._last_seg = _by_vid(self._last_seg, vid, -1)
        if (vid[1:] > vid[:-1]).all():  # one report per vehicle
            previous = self._last_seg[vid]
            self._last_seg[vid] = codes
            return previous != codes
        order = np.argsort(vid, kind="stable")
        vids, seen = vid[order], codes[order]
        first = np.ones(len(vids), dtype=bool)
        first[1:] = vids[1:] != vids[:-1]
        last = np.ones(len(vids), dtype=bool)
        last[:-1] = first[1:]
        previous = np.empty_like(seen)
        previous[1:] = seen[:-1]
        previous[first] = self._last_seg[vids[first]]
        self._last_seg[vids[last]] = seen[last]
        crossing = np.empty(len(vids), dtype=bool)
        crossing[order] = previous != seen
        return crossing

    def _ingest_stats(self, snap: Optional[BasketSnapshot]) -> None:
        if snap is None or snap.count == 0:
            return
        minute, xway, direction, seg, lav, cars = _tails(
            snap, ("minute", "xway", "dir", "seg", "lav", "cars"))
        codes = _segment_codes(xway, direction, seg)
        size = int(codes.max()) + 1
        for m, rows in _minutes(minute):
            lavs, counts = self._stats.get(m, _NO_STATS)
            lavs = _grown(lavs, size, 0.0)
            counts = _grown(counts, size, 0)
            # a later row for a segment replaces an earlier one
            lavs[codes[rows]] = lav[rows]
            counts[codes[rows]] = cars[rows]
            self._stats[m] = (lavs, counts)

    def _ingest_accidents(self, snap: Optional[BasketSnapshot]) -> None:
        if snap is None or snap.count == 0:
            return
        t, xway, direction, seg, status = _tails(
            snap, ("t", "xway", "dir", "seg", "status"))
        spans = self._spans.tolist()
        codes = _segment_codes(xway, direction, seg).tolist()
        for at, code, detected in zip(t.tolist(), codes, status.tolist()):
            if detected == 1:
                spans.append([code, at, _OPEN])
                continue
            for span in reversed(spans):
                if span[0] == code and span[2] == _OPEN:
                    span[2] = at
                    break
        self._spans = np.array(spans, dtype=np.int64).reshape(-1, 3)

    def _forget(self) -> None:
        """Drop what no report at or after the watermark can read."""
        minute = self._watermark // 60
        for old in [m for m in self._stats if m < minute]:
            del self._stats[old]
        if len(self._spans):
            self._spans = self._spans[self._spans[:, 2] >= self._watermark]

    def _accident_segments(self, t: np.ndarray,
                           codes: np.ndarray) -> np.ndarray:
        """Per report, the segment of an accident live at ``t`` within
        ``ACCIDENT_UPSTREAM_SEGMENTS`` downstream of it (the nearest);
        -1 where there is none."""
        found = np.full(len(t), -1, dtype=np.int64)
        spans = self._spans
        if len(spans):
            spans = spans[(spans[:, 1] < t.max()) & (spans[:, 2] >= t.min())]
        if not len(spans):
            return found
        road, seg = np.divmod(codes, NUM_SEGMENTS)
        span_road, span_seg = np.divmod(spans[:, 0], NUM_SEGMENTS)
        step = 1 - 2 * (road % 2)  # east (dir 0) counts up, west down
        offset = (span_seg[None, :] - seg[:, None]) * step[:, None]
        live = (
            (road[:, None] == span_road[None, :])
            & (offset >= 0) & (offset <= ACCIDENT_UPSTREAM_SEGMENTS)
            & (spans[None, :, 1] < t[:, None])
            & (t[:, None] <= spans[None, :, 2])
        )
        nearest = np.where(live, offset, ACCIDENT_UPSTREAM_SEGMENTS + 1)
        nearest = nearest.min(axis=1)
        hit = nearest <= ACCIDENT_UPSTREAM_SEGMENTS
        found[hit] = (seg + step * nearest)[hit]
        return found

    def _lookup_stats(self, minutes: np.ndarray,
                      codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(LAV, cars) per report; (0.0, 0) where no stats row exists."""
        lav = np.zeros(len(codes), dtype=np.float64)
        cars = np.zeros(len(codes), dtype=np.int64)
        for m, _ in _minutes(minutes):
            lavs, counts = self._stats.get(m, _NO_STATS)
            hit = np.flatnonzero((codes < len(lavs)) & (minutes == m))
            lav[hit] = lavs[codes[hit]]
            cars[hit] = counts[codes[hit]]
        return lav, cars

    def describe(self) -> str:
        return "linear-road toll notification"


class AccountBalancePlan(ContinuousPlan):
    """Type-2 queries: report a vehicle's accumulated tolls."""

    COLUMNS = [
        ("qid", AtomType.INT),
        ("t", AtomType.INT),
        ("balance", AtomType.INT),
    ]

    def __init__(
        self,
        state: TollState,
        input_basket: str = "lr_balance_req",
        output_basket: str = "lr_balance_out",
    ):
        self.state = state
        self.input_basket = input_basket.lower()
        self.output_basket = output_basket.lower()

    def run(self, snapshots: Dict[str, BasketSnapshot]) -> PlanOutput:
        snap = snapshots.get(self.input_basket)
        if snap is None or not snap.count:
            return PlanOutput()
        t, vid, qid = _tails(snap, ("t", "vid", "qid"))
        balance = np.fromiter(
            (self.state.balance_before(v, at)
             for v, at in zip(vid.tolist(), t.tolist())),
            dtype=np.int64, count=len(t))
        result = _result(self.COLUMNS, [qid, t, balance])
        return PlanOutput(results={self.output_basket: result})

    def describe(self) -> str:
        return "linear-road account balance"
