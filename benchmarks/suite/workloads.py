"""The six in-process workloads (the seventh, ``srv_open``, is srv.py).

Every workload is a closed loop on one thread: insert one batch, drive
the scheduler to quiescence, take the next batch.  A slice replays a
fixed, pre-generated input through a freshly built engine, so each slice
is the same work and each run yields several ``setup_s`` samples.

Row rates below were measured once on the seed commit (2 cores); they
size a slice to a quarter of ``--seconds``.  They are workload
definitions, not tuning knobs: changing one changes the benchmark.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import tempfile
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from harness import (
    CAL_PERIOD_S,
    OUT_DIR,
    DiskReference,
    QUICK_SHARE,
    SliceStats,
    count_late,
    row_checksum,
    slice_rows,
    speed_reference,
)
from repro import AtomType, DataCell, MetricsRegistry
from repro.durability import DurabilityConfig
from repro.linearroad import (
    LinearRoadConfig,
    LinearRoadGenerator,
    LinearRoadHarness,
    LinearRoadReference,
    validate_outputs,
)
from repro.linearroad.model import POSITION_REPORT_COLUMNS

#: Predicate-window queries consume only qualifying tuples, and nothing
#: in the engine reclaims the rest (README, "Known gaps").  The harness
#: drains the input basket once this many rows are left behind, so a
#: slice measures the pipeline and not an ever-growing snapshot copy.
RESIDUE_CAP = 1024
#: batches logged after the checkpoint that ``wal_ingest`` recovers from
RECOVERY_TAIL_BATCHES = 256

FIG1_SQL = (
    "select t.k, t.v from "
    "[select * from s where s.v >= 100 and s.v < 200] as t"
)
JOIN_SQL = (
    "select d.region, sum(t.v), count(t.v), max(t.v) from "
    "[select * from s where s.v >= 100] as t "
    "join dim d on t.k = d.k group by d.region"
)
WIN_SQL = (
    "select x.k, sum(x.v), count(x.v) from [select * from s] as x "
    "group by x.k window 20000 slide 200"
)
KEY_SPACE = 10_000
VALUE_SPACE = 1_000
REGIONS = 200
WINDOW_ROWS = 20_000
WINDOW_SLIDE = 200
WINDOW_KEYS = 50
WINDOW_CHECK_EVERY = 50
#: Linear Road ticks replayed between two speed references
LR_CHUNK_TICKS = 4
LR_NOMINAL_TICK_REPORTS = 500


class DeliverySink:
    """The subscriber: stamps each delivery and keeps the rows."""

    def __init__(self) -> None:
        self.last = 0.0
        self.parts: List[List[Tuple[Any, ...]]] = []

    def __call__(self, rows: List[Tuple[Any, ...]]) -> None:
        self.last = time.perf_counter()
        self.parts.append(rows)

    def take(self) -> List[List[Tuple[Any, ...]]]:
        parts, self.parts = self.parts, []
        return parts


class Pipeline:
    """One built engine: what ``setup`` returns and a slice drives."""

    def __init__(self, cell: DataCell, query: Any, workdir: Optional[str]):
        self.cell = cell
        self.basket = cell.basket("s")
        self.query = query
        self.sink = DeliverySink()
        query.subscribe(self.sink)
        self.workdir = workdir
        self.disk = DiskReference(workdir) if workdir is not None else None
        #: rows delivered per batch, filled by run_slice
        self.delivered: List[List[List[Tuple[Any, ...]]]] = []


def _flatten(parts: Sequence[List[Tuple[Any, ...]]]) -> List[Tuple[Any, ...]]:
    return [row for part in parts for row in part]


class SqlWorkload:
    """Shared shape of the five SQL workloads."""

    name = ""
    batch_rows = 0
    #: input rows per second the seed commit sustains (sizes the slices)
    seed_rate = 0.0
    ddl: Sequence[str] = ("create basket s (k int, v int)",)
    sql = ""
    durable = False
    #: output rows per input row, which sizes the emitter probe
    out_share = 0.1
    key_atom = AtomType.INT
    input_baskets = ("s",)
    has_dark_mode = True
    #: the layer the traced pass books ``plan.run`` under
    plan_layer = "core.factory"

    # -- inputs --------------------------------------------------------
    def generate(self, seed: int, seconds: float, quick: bool) -> Dict[str, Any]:
        rows = self.rows_per_slice(seconds, quick)
        rng = np.random.default_rng(seed)
        columns = self.columns(rng, rows)
        batches = [
            {name: array[i : i + self.batch_rows]
             for name, array in columns.items()}
            for i in range(0, rows, self.batch_rows)
        ]
        inputs = {"rows": rows, "columns": columns, "batches": batches}
        self.extend_inputs(rng, inputs)
        return inputs

    def rows_per_slice(self, seconds: float, quick: bool) -> int:
        return slice_rows(self.seed_rate, seconds, self.batch_rows, quick)

    def columns(self, rng: np.random.Generator, rows: int) -> Dict[str, np.ndarray]:
        return {
            "k": rng.integers(0, KEY_SPACE, rows, dtype=np.int32),
            "v": rng.integers(0, VALUE_SPACE, rows, dtype=np.int32),
        }

    def extend_inputs(self, rng: np.random.Generator, inputs: Dict[str, Any]) -> None:
        """Add workload-specific inputs and the reference answer."""

    def input_digest(self, inputs: Dict[str, Any]) -> str:
        digest = hashlib.sha256()
        for name in sorted(inputs["columns"]):
            array = inputs["columns"][name]
            if array.dtype == object:
                digest.update("\x00".join(array.tolist()).encode())
            else:
                digest.update(array.tobytes())
        return digest.hexdigest()

    # -- set-up / tear-down --------------------------------------------
    def setup(self, inputs: Dict[str, Any], dark: bool = False) -> Pipeline:
        workdir = None
        durability = None
        if self.durable:
            OUT_DIR.mkdir(parents=True, exist_ok=True)
            workdir = tempfile.mkdtemp(prefix="wal-", dir=OUT_DIR)
            durability = DurabilityConfig(directory=workdir, fsync="always")
        try:
            cell = self.build_cell(inputs, dark, durability)
            query = cell.submit_continuous(self.sql, name="q")
        except BaseException:
            if workdir is not None:
                shutil.rmtree(workdir, ignore_errors=True)
            raise
        return Pipeline(cell, query, workdir)

    def build_cell(self, inputs: Dict[str, Any], dark: bool,
                   durability: Optional[DurabilityConfig]) -> DataCell:
        cell = DataCell(
            metrics=MetricsRegistry(enabled=False) if dark else None,
            durability=durability,
        )
        for statement in self.ddl:
            cell.execute(statement)
        return cell

    def teardown(self, pipe: Pipeline) -> None:
        if pipe.cell.durability is not None:
            pipe.cell.durability.close()
        if pipe.disk is not None:
            pipe.disk.close()
        if pipe.workdir is not None:
            shutil.rmtree(pipe.workdir, ignore_errors=True)

    # -- the timed loop ------------------------------------------------
    def run_slice(self, pipe: Pipeline, inputs: Dict[str, Any]) -> SliceStats:
        insert = pipe.basket.insert_columns
        quiesce = pipe.cell.run_until_quiescent
        truncate = pipe.basket.truncate
        basket, sink, fetch = pipe.basket, pipe.sink, pipe.query.fetch
        clock, cpu_clock = time.perf_counter, time.process_time
        wall: List[float] = []
        cpu: List[float] = []
        latencies: List[float] = []
        references: List[Tuple[int, float]] = []
        disk_references: List[Tuple[int, float]] = []
        delivered = pipe.delivered
        next_reference = 0.0
        for columns in inputs["batches"]:
            t0 = clock()
            if t0 >= next_reference:
                references.append((len(wall), speed_reference()))
                if pipe.disk is not None:
                    disk_references.append((len(wall), pipe.disk.take()))
                t0 = clock()
                next_reference = t0 + CAL_PERIOD_S
            cpu0 = cpu_clock()
            insert(columns)
            quiesce()
            done = sink.last
            latencies.append((done if done > t0 else clock()) - t0)
            delivered.append(sink.take())
            fetch()  # drop the engine's own collecting client's copy
            if basket.count >= RESIDUE_CAP:
                truncate()
            cpu.append(cpu_clock() - cpu0)
            wall.append(clock() - t0)
        references.append((len(wall), speed_reference()))
        if pipe.disk is not None:
            disk_references.append((len(wall), pipe.disk.take()))
        return SliceStats(
            rows=inputs["rows"], wall_s=sum(wall), cpu_s=sum(cpu),
            cycles=np.asarray(wall), cycle_cpu=np.asarray(cpu),
            references=references, disk_references=disk_references or None,
            latencies=latencies, attempted=len(latencies),
        )

    # -- correctness ---------------------------------------------------
    def check_slice(self, pipe: Pipeline, inputs: Dict[str, Any],
                    stats: SliceStats) -> None:
        wrong = self.count_wrong(pipe, inputs)
        stats.failed = min(stats.attempted, count_late(stats.latencies) + wrong)
        pipe.delivered = []

    def count_wrong(self, pipe: Pipeline, inputs: Dict[str, Any]) -> int:
        raise NotImplementedError

    def finish(self, pipe: Pipeline, inputs: Dict[str, Any]) -> Tuple[Dict[str, float], int]:
        """After the last timed slice, before teardown: extra checks.

        Returns (extra measurements, failed checks)."""
        return {}, 0

    # -- what the probes and the traced pass need ----------------------
    def probe_sample(self, inputs: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "schema": [("k", self.key_atom), ("v", AtomType.INT)],
            "columns": inputs["columns"], "batch_rows": self.batch_rows,
            "key": "k", "value": "v", "selectivity": self.out_share,
            "ddl": self.ddl, "sql": self.sql,
        }


class Fig1Workload(SqlWorkload):
    """The Figure-1 chain with a 10 % range filter."""

    sql = FIG1_SQL

    def __init__(self, name: str, batch_rows: int, seed_rate: float,
                 durable: bool = False):
        self.name = name
        self.batch_rows = batch_rows
        self.seed_rate = seed_rate
        self.durable = durable

    def extend_inputs(self, rng, inputs) -> None:
        k, v = inputs["columns"]["k"], inputs["columns"]["v"]
        mask = (v >= 100) & (v < 200)
        inputs["reference"] = row_checksum(k[mask], v[mask])

    def count_wrong(self, pipe, inputs) -> int:
        rows = [row for parts in pipe.delivered for row in _flatten(parts)]
        got = np.asarray(rows, dtype=np.int64).reshape(-1, 2)
        if row_checksum(got[:, 0], got[:, 1]) == inputs["reference"]:
            return 0
        # the checksum covers the whole slice: every batch is suspect
        return len(inputs["batches"])

    def finish(self, pipe, inputs):
        if not self.durable:
            return {}, 0
        return _recover_and_compare(self, pipe, inputs)


def _recover_and_compare(workload: SqlWorkload, pipe: Pipeline,
                         inputs: Dict[str, Any]) -> Tuple[Dict[str, float], int]:
    """Checkpoint, log a fixed tail, then recover a fresh engine from disk.

    Replay re-runs every logged firing over a basket the harness never
    drained (its truncations are not ingest events, so they are not
    logged), which makes replaying a whole slice quadratic in its
    length.  A checkpoint followed by ``RECOVERY_TAIL_BATCHES`` more
    batches keeps ``recover_s`` the cost of a fixed amount of work: load
    one checkpoint, replay one tail.

    The uninterrupted engine delivered everything, so the recovered one
    must reach the same basket state and deliver nothing twice.  Both
    input baskets are drained of residue before their digests are taken.
    """
    live = pipe.cell
    live.checkpoint()
    tail = inputs["batches"][:RECOVERY_TAIL_BATCHES]
    workload.run_slice(pipe, {**inputs, "batches": tail})
    pipe.delivered = []
    live.basket("s").truncate()
    expected = {
        name: live.basket(name).state_digest() for name in ("s", "q_out")
    }
    expected_mark = pipe.query.emitter.high_water_seq
    live.durability.close()

    durability = DurabilityConfig(directory=pipe.workdir, fsync="always")
    cell = workload.build_cell(inputs, False, durability)
    try:
        query = cell.submit_continuous(workload.sql, name="q")
        sink = DeliverySink()
        query.subscribe(sink)
        report = cell.recover()
        cell.run_until_quiescent()
        cell.basket("s").truncate()
        got = {
            name: cell.basket(name).state_digest() for name in ("s", "q_out")
        }
        failed = int(got != expected)
        failed += int(query.emitter.high_water_seq != expected_mark)
        failed += int(bool(_flatten(sink.take())))  # delivered twice
        failed += int(report.rows_replayed != sum(len(b["k"]) for b in tail))
    finally:
        cell.durability.close()
    extra = {
        "recover_s": report.seconds,
        "durability.replay_rows_per_s": report.rows_replayed / report.seconds,
    }
    return extra, failed


class JoinAggWorkload(SqlWorkload):
    name = "join_agg"
    batch_rows = 50_000
    seed_rate = 1_250_000.0
    out_share = REGIONS / 50_000
    ddl = (
        "create basket s (k int, v int)",
        "create table dim (k int, region int)",
    )
    sql = JOIN_SQL

    def extend_inputs(self, rng, inputs) -> None:
        region = rng.integers(0, REGIONS, KEY_SPACE, dtype=np.int32)
        inputs["region"] = region
        reference = []
        for batch in inputs["batches"]:
            mask = batch["v"] >= 100
            r = region[batch["k"][mask]]
            v = batch["v"][mask].astype(np.int64)
            sums = np.bincount(r, weights=v, minlength=REGIONS)
            counts = np.bincount(r, minlength=REGIONS)
            maxima = np.zeros(REGIONS, dtype=np.int64)
            np.maximum.at(maxima, r, v)
            reference.append({
                int(g): (int(sums[g]), int(counts[g]), int(maxima[g]))
                for g in np.flatnonzero(counts)
            })
        inputs["reference"] = reference

    def build_cell(self, inputs, dark, durability) -> DataCell:
        cell = super().build_cell(inputs, dark, durability)
        cell.insert("dim", list(enumerate(inputs["region"].tolist())))
        return cell

    def count_wrong(self, pipe, inputs) -> int:
        wrong = 0
        for parts, expected in zip(pipe.delivered, inputs["reference"]):
            got = {
                int(region): (int(total), int(count), int(top))
                for region, total, count, top in _flatten(parts)
            }
            wrong += int(got != expected)
        return wrong


class WinSlideWorkload(SqlWorkload):
    name = "win_slide"
    batch_rows = WINDOW_SLIDE
    seed_rate = 26_000.0
    out_share = WINDOW_KEYS / WINDOW_SLIDE
    key_atom = AtomType.STR
    plan_layer = "windows"
    # a varchar key: window GROUP BY on an int key raises (README, gaps)
    ddl = ("create basket s (k varchar, v int)",)
    sql = WIN_SQL

    def rows_per_slice(self, seconds, quick) -> int:
        # a slice must at least fill one window, also under --quick
        return max(
            super().rows_per_slice(seconds, quick),
            WINDOW_ROWS + 10 * WINDOW_SLIDE,
        )

    def columns(self, rng, rows):
        keys = np.array([f"k{i:02d}" for i in range(WINDOW_KEYS)], dtype=object)
        return {
            "k": keys[rng.integers(0, WINDOW_KEYS, rows)],
            "v": rng.integers(0, VALUE_SPACE, rows, dtype=np.int32),
        }

    def extend_inputs(self, rng, inputs) -> None:
        k, v = inputs["columns"]["k"], inputs["columns"]["v"]
        windows = (inputs["rows"] - WINDOW_ROWS) // WINDOW_SLIDE + 1
        reference = {}
        for w in range(0, windows, WINDOW_CHECK_EVERY):
            lo = w * WINDOW_SLIDE
            keys, inverse = np.unique(
                k[lo : lo + WINDOW_ROWS].astype(str), return_inverse=True
            )
            sums = np.bincount(inverse, weights=v[lo : lo + WINDOW_ROWS])
            counts = np.bincount(inverse)
            reference[w] = {
                str(key): (float(sums[i]), int(counts[i]))
                for i, key in enumerate(keys)
            }
        inputs["windows"] = windows
        inputs["reference"] = reference

    def count_wrong(self, pipe, inputs) -> int:
        got: Dict[int, Dict[str, Tuple[float, int]]] = {}
        emitted = set()
        for parts in pipe.delivered:
            for window, key, total, count in _flatten(parts):
                emitted.add(window)
                if window in inputs["reference"]:
                    got.setdefault(window, {})[key] = (float(total), int(count))
        wrong = abs(len(emitted) - inputs["windows"])
        wrong += sum(
            1 for w, expected in inputs["reference"].items()
            if got.get(w) != expected
        )
        return wrong


def _tick_scale(reports: Sequence[Any], requests: Sequence[Any]) -> np.ndarray:
    """Per tick, ``LR_NOMINAL_TICK_REPORTS`` ÷ the reports it carries.

    How many cars are on the road at tick *n* depends on the seed, and a
    tick's response time follows its size.  ``p50_ms`` therefore scales
    every tick to a nominal size first, so that it compares the engine
    and not the traffic two seeds happened to draw.  (``p99_ms`` and the
    5 s deadline use the raw times.)
    """
    sizes: Dict[int, int] = {}
    for report in reports:
        sizes[report.t // 30] = sizes.get(report.t // 30, 0) + 1
    for request in requests:
        sizes.setdefault(request[0] // 30, 0)
    return np.array([
        LR_NOMINAL_TICK_REPORTS / max(1, sizes[tick]) for tick in sorted(sizes)
    ])


class LinearRoadWorkload:
    """``LinearRoadHarness`` at L = 1.0 replaying a pre-generated log."""

    name = "lr_replay"
    #: simulated seconds one slice replays when ``--seconds`` is 10
    seed_duration = 2_400
    input_baskets = ("lr_position",)
    # the harness builds its own DataCell: no way to run it dark
    has_dark_mode = False
    plan_layer = "linearroad"

    def generate(self, seed: int, seconds: float, quick: bool) -> Dict[str, Any]:
        # the car population grows with simulated time, so reports grow
        # roughly with its square: scale the duration by the root
        share = seconds / 10.0 * (QUICK_SHARE if quick else 1.0)
        ticks = max(8, round(self.seed_duration / 30 * math.sqrt(share)))
        config = LinearRoadConfig(scale=1.0, duration=30 * ticks, seed=seed)
        started = time.perf_counter()
        generator = LinearRoadGenerator(config)
        reports = generator.generate()
        requests = generator.balance_requests(reports)
        generate_s = time.perf_counter() - started
        reference = LinearRoadReference(reports).compute()
        span = 30 * LR_CHUNK_TICKS
        chunks: Dict[int, Tuple[List[Any], List[Any]]] = {}
        for report in reports:
            chunks.setdefault(report.t // span, ([], []))[0].append(report)
        for request in requests:
            chunks.setdefault(request[0] // span, ([], []))[1].append(request)
        return {
            "config": config, "reports": reports, "requests": requests,
            "chunks": [chunks[index] for index in sorted(chunks)],
            "tick_scale": _tick_scale(reports, requests),
            "rows": len(reports), "generate_s": generate_s,
            "reference": reference,
            "expected_balances": reference.expected_balances(requests),
        }

    def input_digest(self, inputs: Dict[str, Any]) -> str:
        digest = hashlib.sha256()
        for report in inputs["reports"]:
            digest.update(repr(report.as_row()).encode())
        digest.update(repr(inputs["requests"]).encode())
        return digest.hexdigest()

    def setup(self, inputs: Dict[str, Any], dark: bool = False) -> LinearRoadHarness:
        return LinearRoadHarness(inputs["config"])

    def teardown(self, harness: LinearRoadHarness) -> None:
        pass

    def run_slice(self, harness: LinearRoadHarness, inputs: Dict[str, Any]) -> SliceStats:
        """Replay the log a few ticks at a time.

        ``LinearRoadHarness.run`` replays whatever log it is given tick
        by tick and keeps its state between calls, so chunks change
        nothing but give the loop a place to take the speed reference.
        """
        wall: List[float] = []
        cpu: List[float] = []
        ticks: List[float] = []
        tick_chunk: List[int] = []
        references: List[Tuple[int, float]] = []
        for reports, requests in inputs["chunks"]:
            references.append((len(wall), speed_reference()))
            cpu0 = time.process_time()
            result = harness.run(
                reports=reports, balance_requests=requests, validate=False)
            cpu.append(time.process_time() - cpu0)
            wall.append(sum(result.tick_latencies))
            tick_chunk.extend([len(wall) - 1] * len(result.tick_latencies))
            ticks.extend(result.tick_latencies)
        references.append((len(wall), speed_reference()))
        return SliceStats(
            rows=inputs["rows"], wall_s=sum(wall), cpu_s=sum(cpu),
            cycles=np.asarray(wall), cycle_cpu=np.asarray(cpu),
            references=references, latencies=ticks,
            latency_cycle=np.asarray(tick_chunk),
            latency_scale=inputs["tick_scale"], attempted=len(ticks),
        )

    def check_slice(self, harness, inputs, stats: SliceStats) -> None:
        problems = validate_outputs(
            inputs["reference"],
            harness.toll_client.rows,
            harness.alert_client.rows,
            harness.balance_client.rows,
            inputs["expected_balances"],
        )
        stats.failed = min(
            stats.attempted, count_late(stats.latencies) + len(problems))

    def finish(self, harness, inputs):
        return {}, 0

    def probe_sample(self, inputs: Dict[str, Any]) -> Dict[str, Any]:
        """The busiest tick's reports, as the columns the basket stores."""
        reports = inputs["reports"]
        last = reports[-1].t
        tick = [r.as_row() for r in reports if r.t == last]
        columns = {
            name: np.asarray(values, dtype=np.int32)
            for (name, _), values in zip(POSITION_REPORT_COLUMNS, zip(*tick))
        }
        return {
            "schema": list(POSITION_REPORT_COLUMNS), "columns": columns,
            "batch_rows": len(tick), "key": "seg", "value": "speed",
            "selectivity": 0.5,
        }


WORKLOADS: Dict[str, Callable[[], Any]] = {
    "fig1_bulk": lambda: Fig1Workload("fig1_bulk", 10_000, 2_400_000.0),
    "fig1_trickle": lambda: Fig1Workload("fig1_trickle", 8, 26_000.0),
    "join_agg": JoinAggWorkload,
    "win_slide": WinSlideWorkload,
    "wal_ingest": lambda: Fig1Workload("wal_ingest", 64, 45_000.0, durable=True),
    "lr_replay": LinearRoadWorkload,
}
