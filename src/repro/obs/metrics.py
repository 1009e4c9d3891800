"""A dependency-free metrics registry (counters, gauges, histograms).

Design constraints, in order:

1. **Hot-path cheapness** — instruments are resolved once (at component
   construction; a label-less family caches its one child) and each
   observation is a single short critical section, entered with a bare
   ``acquire``/``release`` rather than a ``with`` block; a weighted
   :meth:`Histogram.observe` records ``count`` equal values at once.
   Totals an engine component keeps anyway are not pushed at all: the
   component counts into a single-writer :class:`Tally` and the registry
   reads it when the series is exposed (:meth:`_Family.read_from`).
2. **Thread safety** — every instrument may be hammered from the paper's
   one-thread-per-transition architecture; totals must be exact.
3. **Zero-cost no-op mode** — a registry built with ``enabled=False``
   hands out a shared :data:`NULL_INSTRUMENT` whose methods do nothing,
   so instrumented code needs no ``if`` guards.

Metric names follow Prometheus conventions (``*_total`` counters,
``*_seconds`` histograms); :meth:`MetricsRegistry.to_prometheus_text`
produces the standard text exposition format for scraping.
"""

from __future__ import annotations

import threading
import warnings
from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..errors import ObservabilityError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "NULL_INSTRUMENT",
    "Tally",
    "default_registry",
    "set_default_registry",
]

#: Default buckets (seconds) for latency/duration histograms: roughly
#: geometric from 10µs to 10s, fine enough for sub-percent percentile
#: resolution over the range a python stream engine can exhibit.
LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0,
)

LabelValues = Tuple[str, ...]


class _NullInstrument:
    """Absorbs every metric operation; handed out by disabled registries."""

    __slots__ = ()

    def labels(self, *values: Any) -> "_NullInstrument":
        return self

    def inc(self, amount: float = 1) -> None:
        pass

    def dec(self, amount: float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def set_max(self, value: float) -> None:
        pass

    def observe(self, value: float, count: int = 1) -> None:
        pass

    def read_from(self, tally: "Tally", *values: Any) -> None:
        pass

    @property
    def value(self) -> float:
        return 0.0

    def percentile(self, q: float) -> float:
        return 0.0

    def snapshot(self) -> Dict[str, float]:
        return {}


NULL_INSTRUMENT = _NullInstrument()


class Counter:
    """A monotonically increasing, thread-safe counter."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1) -> None:
        if amount <= 0:
            if amount < 0:
                raise ObservabilityError("counters only go up")
            return
        lock = self._lock
        lock.acquire()
        try:
            self._value += amount
        finally:
            lock.release()

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> Dict[str, float]:
        return {"value": self._value}


class Gauge:
    """A thread-safe instantaneous value (basket depth, engaged flag...)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        # a plain float store is atomic under the GIL; no lock needed
        # (inc/dec/set_max are read-modify-write and do lock)
        self._value = float(value)

    def set_max(self, value: float) -> None:
        """Ratchet upward: keep the maximum ever seen (high-water marks)."""
        if value <= self._value:  # the common case: no new maximum
            return
        with self._lock:
            if value > self._value:
                self._value = float(value)

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> Dict[str, float]:
        return {"value": self._value}


class Tally:
    """A running total one owner keeps and the registry reads.

    An engine component counts into its tallies with plain ``+=`` (each
    tally has one writer: the component's own firing thread, or its
    basket lock's holder) and binds them to a series once
    (:meth:`_Family.read_from`); nothing is pushed per observation.
    The series holds only the tally, so a dropped component is freed
    while its series keeps the last value.
    """

    __slots__ = ("value",)

    def __init__(self, value: float = 0) -> None:
        self.value = value


class _Reading:
    """A counter or gauge series whose value is read from tallies.

    A counter sums every tally bound under its labels, so an owner
    re-created under the same name continues the series; a gauge reads
    the newest one.
    """

    __slots__ = ("_summed", "tallies")

    def __init__(self, summed: bool) -> None:
        self._summed = summed
        self.tallies: Tuple[Tally, ...] = ()

    @property
    def value(self) -> float:
        tallies = self.tallies
        if self._summed:
            return float(sum(t.value for t in tallies))
        return float(tallies[-1].value) if tallies else 0.0

    def snapshot(self) -> Dict[str, float]:
        return {"value": self.value}


class Histogram:
    """A fixed-bucket histogram with percentile estimation.

    Buckets are cumulative-upper-bound (``le``) style as in Prometheus;
    an implicit ``+Inf`` bucket catches overflow.  Percentiles are
    estimated by linear interpolation inside the containing bucket,
    clamped to the exact observed ``min``/``max``.
    """

    __slots__ = (
        "_lock", "_bounds", "_counts", "_count", "_sum", "_min", "_max",
    )

    def __init__(self, buckets: Optional[Sequence[float]] = None):
        bounds = tuple(sorted(buckets if buckets is not None else LATENCY_BUCKETS))
        if not bounds:
            raise ObservabilityError("a histogram needs at least one bucket")
        self._lock = threading.Lock()
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # last = +Inf
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")

    def observe(self, value: float, count: int = 1) -> None:
        """Record ``count`` observations of ``value`` (one lock).

        Leaves the same buckets, count, min and max as ``count`` calls
        with one observation each; the sum grows by ``value * count``
        (within rounding of ``count`` separate additions).
        """
        if count < 1:
            return
        value = float(value)
        idx = bisect_left(self._bounds, value)
        lock = self._lock
        lock.acquire()
        try:
            self._counts[idx] += count
            self._count += count
            self._sum += value * count
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
        finally:
            lock.release()

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def value(self) -> float:
        """Alias so generic readers can treat any instrument uniformly."""
        return float(self._count)

    def percentile(self, q: float) -> float:
        """Estimate the q-th percentile (0..100) from the buckets.

        Accuracy contract (bucket-upper-bound bias): the estimate is
        linear interpolation between the containing bucket's bounds,
        clamped to the observed ``min``/``max``.  The true quantile lies
        somewhere in the same bucket, so the absolute error is bounded by
        that bucket's width — tight for dense buckets, coarse in the
        sparse tail.  Because interpolation assumes observations are
        uniform *within* the bucket, a mass concentrated at the bucket's
        lower edge biases the estimate *upward* (toward the upper bound),
        and vice versa; the error never leaves the bucket.  The ``+Inf``
        bucket has no upper bound to interpolate toward, so the observed
        ``max`` stands in for it: quantiles landing there interpolate
        between the largest finite bound (or the observed ``min``, if
        larger) and ``max``, and the error bound widens to that whole
        open tail.  ``tests/test_obs_metrics.py`` pins these bounds.
        """
        if not 0 <= q <= 100:
            raise ObservabilityError("percentile must be in [0, 100]")
        with self._lock:
            if self._count == 0:
                return 0.0
            target = (q / 100.0) * self._count
            cumulative = 0
            for i, bucket_count in enumerate(self._counts):
                if bucket_count == 0:
                    continue
                if cumulative + bucket_count >= target:
                    lo = self._bounds[i - 1] if i > 0 else self._min
                    hi = (
                        self._bounds[i]
                        if i < len(self._bounds)
                        else self._max
                    )
                    lo = max(lo, self._min)
                    hi = min(hi, self._max)
                    if hi <= lo:
                        return float(lo)
                    frac = (target - cumulative) / bucket_count
                    return float(lo + frac * (hi - lo))
                cumulative += bucket_count
            return float(self._max)

    def snapshot(self) -> Dict[str, float]:
        with self._lock:
            count = self._count
        if count == 0:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                    "p50": 0.0, "p95": 0.0, "p99": 0.0}
        return {
            "count": count,
            "sum": self._sum,
            "min": self._min,
            "max": self._max,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    def bucket_counts(self) -> List[Tuple[float, int]]:
        """Cumulative (le, count) pairs, Prometheus-style, ending at +Inf."""
        with self._lock:
            out: List[Tuple[float, int]] = []
            cumulative = 0
            for bound, n in zip(self._bounds, self._counts):
                cumulative += n
                out.append((bound, cumulative))
            cumulative += self._counts[-1]
            out.append((float("inf"), cumulative))
            return out


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class _Family:
    """A named metric with a fixed label set; children are per label value.

    Label-less families delegate ``inc``/``set``/``observe`` straight to
    their single child (resolved once, then cached) so call sites read
    naturally either way.
    """

    def __init__(
        self,
        name: str,
        kind: str,
        help: str,
        label_names: Tuple[str, ...],
        buckets: Optional[Sequence[float]] = None,
        max_label_sets: int = 1024,
    ):
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = label_names
        self._buckets = buckets
        self._max_label_sets = max_label_sets
        self._overflow_warned = False
        self._lock = threading.Lock()
        self._children: Dict[LabelValues, Any] = {}
        self._solo: Any = None  # a label-less family's one child

    def _make(self) -> Any:
        if self.kind == "histogram":
            return Histogram(self._buckets)
        return _KINDS[self.kind]()

    def labels(self, *values: Any) -> Any:
        return self._child(values, self._make)

    def read_from(self, tally: Tally, *values: Any) -> None:
        """Serve the series at ``values`` from ``tally`` at exposition.

        Counter and gauge families only.  The series keeps a reference
        to the tally alone, never to its owner.
        """
        if self.kind == "histogram":
            raise ObservabilityError(
                f"histogram {self.name!r} cannot be read from a tally"
            )
        child = self._child(
            values, lambda: _Reading(summed=self.kind == "counter")
        )
        if child is NULL_INSTRUMENT:
            return
        if not isinstance(child, _Reading):
            raise ObservabilityError(
                f"metric {self.name!r}{values} is updated directly, it "
                "cannot also be read from a tally"
            )
        with self._lock:
            if child._summed:
                child.tallies = child.tallies + (tally,)
            else:
                child.tallies = (tally,)

    def _child(self, values: Sequence[Any], make: Any) -> Any:
        key = tuple(str(v) for v in values)
        if len(key) != len(self.label_names):
            raise ObservabilityError(
                f"metric {self.name!r} takes labels {self.label_names}, "
                f"got {key}"
            )
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    # Cardinality guard: unbounded label values (e.g. a
                    # per-request id leaking into a label) would grow the
                    # registry without limit.  Past the cap, new label
                    # sets are absorbed by the no-op instrument; existing
                    # series keep updating.
                    if len(self._children) >= self._max_label_sets:
                        if not self._overflow_warned:
                            self._overflow_warned = True
                            warnings.warn(
                                f"metric {self.name!r}: label cardinality "
                                f"cap ({self._max_label_sets}) reached; "
                                "dropping new label sets",
                                RuntimeWarning,
                                stacklevel=3,
                            )
                        return NULL_INSTRUMENT
                    child = make()
                    self._children[key] = child
        return child

    def children(self) -> Dict[LabelValues, Any]:
        with self._lock:
            return dict(self._children)

    # convenience delegation for label-less metrics -----------------------
    def _only(self) -> Any:
        child = self._solo
        if child is None:
            child = self._solo = self.labels()
        return child

    def inc(self, amount: float = 1) -> None:
        self._only().inc(amount)

    def dec(self, amount: float = 1) -> None:
        self._only().dec(amount)

    def set(self, value: float) -> None:
        self._only().set(value)

    def set_max(self, value: float) -> None:
        self._only().set_max(value)

    def observe(self, value: float, count: int = 1) -> None:
        self._only().observe(value, count)

    @property
    def value(self) -> float:
        return self._only().value


class MetricsRegistry:
    """Registers and serves metric families; the engine's measurement hub.

    A registry built with ``enabled=False`` is a black hole: every
    ``counter``/``gauge``/``histogram`` call returns the shared no-op
    instrument and exposition renders empty — instrumented code pays one
    attribute call per observation and nothing else.
    """

    def __init__(self, enabled: bool = True, max_label_sets: int = 1024):
        self.enabled = enabled
        self.max_label_sets = max_label_sets
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def _register(
        self,
        name: str,
        kind: str,
        help: str,
        labels: Sequence[str],
        buckets: Optional[Sequence[float]] = None,
    ) -> Any:
        if not self.enabled:
            return NULL_INSTRUMENT
        label_names = tuple(labels)
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind or family.label_names != label_names:
                    raise ObservabilityError(
                        f"metric {name!r} already registered as "
                        f"{family.kind} with labels {family.label_names}"
                    )
                return family
            family = _Family(
                name, kind, help, label_names, buckets,
                max_label_sets=self.max_label_sets,
            )
            self._families[name] = family
            return family

    def counter(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> Any:
        return self._register(name, "counter", help, labels)

    def gauge(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> Any:
        return self._register(name, "gauge", help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> Any:
        return self._register(name, "histogram", help, labels, buckets)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def _child(
        self, name: str, labels: Union[None, str, Sequence[str]]
    ) -> Optional[Any]:
        family = self._families.get(name)
        if family is None:
            return None
        if labels is None:
            key: LabelValues = ()
        elif isinstance(labels, str):
            key = (labels,)
        else:
            key = tuple(str(v) for v in labels)
        return family.children().get(key)

    def value(
        self, name: str, labels: Union[None, str, Sequence[str]] = None
    ) -> Optional[float]:
        """Current scalar value of a counter/gauge child, or ``None``."""
        child = self._child(name, labels)
        return None if child is None else child.value

    def histogram_snapshot(
        self, name: str, labels: Union[None, str, Sequence[str]] = None
    ) -> Optional[Dict[str, float]]:
        child = self._child(name, labels)
        if child is None or not isinstance(child, Histogram):
            return None
        return child.snapshot()

    def families(self) -> List[_Family]:
        with self._lock:
            return list(self._families.values())

    def collect(self) -> Dict[str, Dict[str, Any]]:
        """Structured snapshot of every family and child."""
        out: Dict[str, Dict[str, Any]] = {}
        for family in self.families():
            samples = {
                key: child.snapshot()
                for key, child in sorted(family.children().items())
            }
            out[family.name] = {
                "kind": family.kind,
                "help": family.help,
                "labels": list(family.label_names),
                "samples": samples,
            }
        return out

    # ------------------------------------------------------------------
    # exposition
    # ------------------------------------------------------------------
    def to_prometheus_text(self) -> str:
        """Render the Prometheus text exposition format (for scraping)."""
        lines: List[str] = []
        for family in sorted(self.families(), key=lambda f: f.name):
            children = family.children()
            if not children:
                continue
            if family.help:
                lines.append(
                    f"# HELP {family.name} {_escape_help(family.help)}"
                )
            lines.append(f"# TYPE {family.name} {family.kind}")
            for key, child in sorted(children.items()):
                if family.kind == "histogram":
                    for bound, cumulative in child.bucket_counts():
                        le = "+Inf" if bound == float("inf") else _fmt(bound)
                        label_text = _labels_text(
                            family.label_names + ("le",), key + (le,)
                        )
                        lines.append(
                            f"{family.name}_bucket{label_text} {cumulative}"
                        )
                    base = _labels_text(family.label_names, key)
                    lines.append(f"{family.name}_sum{base} {_fmt(child.sum)}")
                    lines.append(f"{family.name}_count{base} {child.count}")
                else:
                    label_text = _labels_text(family.label_names, key)
                    lines.append(
                        f"{family.name}{label_text} {_fmt(child.value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")


def _labels_text(names: Iterable[str], values: Iterable[str]) -> str:
    pairs = [
        f'{n}="{_escape(v)}"' for n, v in zip(names, values)
    ]
    return "{" + ",".join(pairs) + "}" if pairs else ""


def _escape(value: str) -> str:
    """Escape a label value per the Prometheus text format: backslash,
    double-quote, and line feed (in that order — backslash first so the
    escapes themselves survive)."""
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _escape_help(value: str) -> str:
    """Escape HELP text per the Prometheus text format: only backslash
    and line feed (double quotes are legal verbatim outside label values)."""
    return value.replace("\\", r"\\").replace("\n", r"\n")


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


# ----------------------------------------------------------------------
# process-wide default registry
# ----------------------------------------------------------------------
_default_registry = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The registry components fall back to when none is passed in."""
    return _default_registry


def set_default_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide default registry; returns the previous one.

    Mainly for benchmarks that want a pristine or disabled default.
    """
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous
