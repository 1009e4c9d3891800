"""Shared measurement machinery of the DataCell benchmark suite.

Nothing here knows a workload: this module times slices, reads process
counters, folds samples into medians and spreads, and names the files a
run leaves behind.  See README.md for the method.
"""

from __future__ import annotations

import gc
import json
import math
import os
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

SUITE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SUITE_DIR.parent.parent
SRC_DIR = REPO_ROOT / "src"
OUT_DIR = SUITE_DIR / "out"
BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"

#: every timed run is one discarded warm-up slice plus this many timed ones
TIMED_SLICES = 3
#: a run of ``--seconds S`` sizes each of its 1 + TIMED_SLICES slices to
#: S / 4 seconds of work on the seed commit
SLICES_PER_RUN = TIMED_SLICES + 1
#: ``--quick`` runs this share of the rows, in one slice
QUICK_SHARE = 1 / 20
#: a batch (or Linear Road tick) answered later than this counts as failed
LATE_CAP_S = 5.0
CHECKSUM_WEIGHTS = (1_000_003, 7_919, 1)
#: set-up is repeated so that ``setup_s`` is a median, not one cold sample
EXTRA_SETUPS = 6
#: the machine-speed reference runs between batches about this often
CAL_PERIOD_S = 0.05
#: what ``speed_reference`` takes on the seed commit's box when nothing
#: disturbs it (the 5th percentile of ~3,000 samples).  It only fixes the
#: scale of the normalised metrics; every commit is measured against it.
NOMINAL_REFERENCE_S = 0.00064
#: a batch's speed factor is the median of this many references around it
REFERENCE_SMOOTHING = 5
#: what one ``DiskReference.take`` (600 bytes written and fsynced) takes
#: on the seed commit's box in its faster hours; scale only, as above
NOMINAL_FSYNC_S = 0.0001


def require_engine() -> None:
    """Make ``repro`` importable from the checkout this file sits in.

    The suite is useless without the engine's sources, so a tree that
    holds only the benchmark ends here with a non-zero exit.
    """
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"benchmarks/suite: no engine sources under {SRC_DIR} — "
            "run from a full checkout"
        )
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))


def load_declaration() -> Dict[str, Any]:
    """The committed BENCHMARK.json: metric names, units, bounds."""
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# process counters
# ----------------------------------------------------------------------
def _status_kb(pid: Any, key: str) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(key + ":"):
                return float(line.split()[1])
    raise RuntimeError(f"/proc/{pid}/status has no {key}")


def peak_rss_mb(pid: Any = "self") -> float:
    """``VmHWM`` of a process, in MB."""
    return _status_kb(pid, "VmHWM") / 1024.0


def process_cpu_s(pid: int) -> float:
    """utime + stime of another process, in seconds."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        # the command name may hold spaces; fields restart after ")"
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


def load_average() -> float:
    return os.getloadavg()[0]


# ----------------------------------------------------------------------
# samples → numbers
# ----------------------------------------------------------------------
def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; ``q`` in [0, 100]."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def row_checksum(*columns: np.ndarray) -> Tuple[int, int]:
    """Row count plus an order-independent checksum of integer rows."""
    mixed = np.ones(len(columns[0]), dtype=np.int64)
    for weight, column in zip(CHECKSUM_WEIGHTS, columns):
        mixed += weight * column.astype(np.int64)
    return len(mixed), int(mixed.sum())


def count_late(latencies: Sequence[float]) -> int:
    return sum(1 for latency in latencies if latency > LATE_CAP_S)


def median_and_spread(values: Sequence[float]) -> Tuple[float, float]:
    """Median of per-slice values and ``(max − min) / median``."""
    mid = statistics.median(values)
    spread = (max(values) - min(values)) / mid if mid else 0.0
    return mid, spread


# ----------------------------------------------------------------------
# the machine-speed reference
# ----------------------------------------------------------------------
class _Counter:
    def __init__(self) -> None:
        self.total = 0
        self.seen: Dict[int, int] = {}

    def step(self, i: int) -> int:
        self.total += i
        self.seen[i & 63] = self.total
        return self.seen.get((i * 7) & 63, 0)


_REFERENCE_ARRAY = np.arange(16384, dtype=np.int64)


def speed_reference() -> float:
    """Run a fixed piece of interpreter and numpy work; return its seconds.

    The sandbox shares its host, and the host's other tenants slow the
    whole machine by up to 1.7x for minutes at a time.  This kernel
    touches no engine code, so the time it takes measures the machine
    and nothing else.  The closed loops run it between batches; the
    ratio to ``NOMINAL_REFERENCE_S`` is the *speed factor* by which the
    neighbouring batches' times are divided (see ``speed_factors``).
    The mix — method calls and dict traffic, a boolean-mask copy, a
    list of tuples built from an array — is the engine's own mix of
    per-firing bookkeeping, column copies and row materialisation.
    """
    started = time.perf_counter()
    counter = _Counter()
    total = 0
    for i in range(3000):
        total += counter.step(i)
    picked = _REFERENCE_ARRAY[_REFERENCE_ARRAY % 7 == 1].copy()
    values = picked[:1024].tolist()
    list(zip(values, values))
    return time.perf_counter() - started


class DiskReference:
    """The disk's counterpart of ``speed_reference``: one small fsync.

    ``wal_ingest`` waits for the disk a third of the time, and how long
    an fsync takes on the sandbox's virtual disk moves by 2x from one
    half hour to the next.  The loop times a bare write-and-fsync of its
    own, on the same filesystem, next to every speed reference; the time
    a batch spent *off* the CPU is divided by the factor this gives.
    """

    def __init__(self, directory: str) -> None:
        self.path = os.path.join(directory, "disk-reference.tmp")
        self.fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
        self._block = b"r" * 600

    def take(self) -> float:
        started = time.perf_counter()
        os.write(self.fd, self._block)
        os.fsync(self.fd)
        return time.perf_counter() - started

    def close(self) -> None:
        os.close(self.fd)
        os.unlink(self.path)


def speed_factors(references: Sequence[Tuple[int, float]], count: int,
                  nominal: float = NOMINAL_REFERENCE_S) -> np.ndarray:
    """One speed factor per batch, from the references taken around it.

    ``references`` holds (index of the batch that followed, seconds).
    Each reference is replaced by the median of its neighbourhood, so
    that a burst which hit one reference but not the batches beside it
    does not over-correct them; batches between two references get the
    interpolated value.
    """
    index = np.array([at for at, _ in references], dtype=float)
    seconds = np.array([took for _, took in references])
    half = REFERENCE_SMOOTHING // 2
    smooth = np.array([
        np.median(seconds[max(0, i - half) : i + half + 1])
        for i in range(len(seconds))
    ])
    return np.interp(np.arange(count), index, smooth) / nominal


@dataclass
class SliceStats:
    """What one timed slice measured.

    ``cycles`` holds one wall-clock entry per batch (a chunk of ticks
    for Linear Road): from the start of that batch until the loop is
    ready for the next.  ``cycle_cpu`` is the same in process CPU time.
    ``references`` are the speed references taken between batches.
    """

    rows: int
    wall_s: float
    cpu_s: float
    cycles: np.ndarray
    cycle_cpu: np.ndarray
    references: List[Tuple[int, float]]
    #: ``DiskReference`` samples, for a workload that waits for the disk
    disk_references: Optional[List[Tuple[int, float]]] = None
    #: per-batch (or per-tick) latency samples, seconds
    latencies: List[float] = field(default_factory=list)
    #: the cycle each latency sample belongs to (None: one per cycle)
    latency_cycle: Optional[np.ndarray] = None
    #: what ``p50_ms`` multiplies each latency by (Linear Road only)
    latency_scale: Optional[np.ndarray] = None
    #: batches (or ticks) attempted, and how many of them failed a check
    attempted: int = 0
    failed: int = 0


@dataclass
class Metric:
    value: float
    unit: str
    samples: int = 1
    spread: Optional[float] = None

    def as_json(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"value": self.value, "unit": self.unit}
        if self.samples != 1:
            out["samples"] = self.samples
        if self.spread is not None:
            out["spread"] = self.spread
        return out


def typical(per_slice: Sequence[np.ndarray]) -> np.ndarray:
    """Entry by entry, the median of the slices' measurements.

    Every slice replays the same input, so entry *i* of each slice timed
    the same work.  What the speed factor leaves of outside interference
    is a burst here and there, which rarely hits the same batch in two
    of three slices, and a factor that is a little off either way: the
    median of the repeats drops the first and is not biased by the
    second.  Costs the workload really pays at fixed positions (a
    residue drain every few batches, a filling window) are in every
    repeat and stay.
    """
    return np.median(np.stack(per_slice), axis=0)


def end_to_end_metrics(
    slices: Sequence[SliceStats], setup_samples: Sequence[float], rss_mb: float
) -> Dict[str, Metric]:
    """The five end-to-end metrics every closed-loop workload reports."""
    rows = slices[0].rows
    _, wall_spread = median_and_spread([s.wall_s for s in slices])
    _, cpu_spread = median_and_spread([s.cpu_s for s in slices])
    cpu_cycles, wall_cycles, latencies = [], [], []
    for s in slices:
        factor = speed_factors(s.references, len(s.cycles))
        cpu_n = s.cycle_cpu / factor
        if s.disk_references is None:
            wall_n = s.cycles / factor
        else:
            # CPU time scales with the machine, the wait with the disk
            wait = np.maximum(s.cycles - s.cycle_cpu, 0.0)
            wall_n = cpu_n + wait / speed_factors(
                s.disk_references, len(s.cycles), NOMINAL_FSYNC_S)
        ratio = wall_n / s.cycles
        if s.latency_cycle is not None:
            ratio = ratio[s.latency_cycle]
        scale = 1.0 if s.latency_scale is None else s.latency_scale
        cpu_cycles.append(cpu_n)
        wall_cycles.append(wall_n)
        latencies.append(np.asarray(s.latencies) * scale * ratio)
    wall = typical(wall_cycles).sum()
    cpu = typical(cpu_cycles).sum()
    latency = typical(latencies)
    setup, setup_spread = median_and_spread(list(setup_samples))
    return {
        "rows_per_s": Metric(rows / wall, "rows/s", len(slices), wall_spread),
        "p50_ms": Metric(float(np.median(latency)) * 1e3, "ms", len(latency)),
        "cpu_us_per_row": Metric(cpu / rows * 1e6, "us", len(slices), cpu_spread),
        "peak_rss_mb": Metric(rss_mb, "MB"),
        "setup_s": Metric(setup, "s", len(setup_samples), setup_spread),
    }


def tail_metric(slices: Sequence[SliceStats]) -> Metric:
    """``p99_ms`` over the pooled samples; see README for when it counts."""
    pooled = [lat for s in slices for lat in s.latencies]
    return Metric(percentile(pooled, 99) * 1e3, "ms", len(pooled))


# ----------------------------------------------------------------------
# run hygiene
# ----------------------------------------------------------------------
def settle_after_warmup() -> None:
    """Collect the warm-up's garbage and park what survives.

    Frozen objects are skipped by later collections, so the timed slices
    do not pay to re-scan the engine's long-lived module state.
    """
    gc.collect()
    gc.freeze()


def speed_factor_now(samples: int = 1) -> float:
    """The machine's current speed factor, from ``samples`` references."""
    took = [speed_reference() for _ in range(samples)]
    return statistics.median(took) / NOMINAL_REFERENCE_S


def timed(fn, *args) -> Tuple[Any, float]:
    """``fn(*args)`` and its seconds at nominal machine speed."""
    before = speed_factor_now(3)
    started = time.perf_counter()
    out = fn(*args)
    elapsed = time.perf_counter() - started
    return out, elapsed / ((before + speed_factor_now(3)) / 2)


def slice_rows(rate_rows_per_s: float, seconds: float, batch: int,
               quick: bool) -> int:
    """Rows in one slice: a fixed count, a whole number of batches."""
    rows = rate_rows_per_s * seconds / SLICES_PER_RUN
    if quick:
        rows *= QUICK_SHARE
    return max(batch, int(rows // batch) * batch)
