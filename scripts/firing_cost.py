"""Calls and microseconds per firing, by layer, for fixed firing shapes.

A firing's python calls into ``src/repro`` frames are counted with
``sys.setprofile``: a number that does not depend on the host, so a
change that moves a layer's per-firing cost shows here without a
profiler.  Comprehension frames are left out (Python 3.12 inlines them),
so the counts agree across the Python versions CI runs.  The time per
firing is the median over ``--firings`` firings, metrics lit or dark.

    PYTHONPATH=src python scripts/firing_cost.py [--firings N] [--markdown]
    PYTHONPATH=src python scripts/firing_cost.py --functions "fig1 8 rows"

The shapes (one firing each: ``insert`` → ``run_until_quiescent`` →
``fetch``, except the server pump, which is one ``activate``, the
table load, which is one ``insert`` into an emptied table, and the
``/metrics`` scrape, which is one ``telemetry_response``) are the ones
``tests/test_firing_budget.py`` holds to a budget.  ``--functions SHAPE``
prints that shape's calls per function instead, lit and dark, one
``module:function`` a line, most called first within each module.
"""

from __future__ import annotations

import argparse
import gc
import os
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from typing import Callable, Dict, Iterator, List, Tuple

import numpy as np

from repro import AtomType, DataCell, MetricsRegistry
from repro.core.clock import LogicalClock
from repro.durability import DurabilityConfig
from repro.server.ingest import IngestBatch, IngestQueue, ServerIngestPump
from repro.server.server import telemetry_response

SRC = os.path.dirname(sys.modules["repro"].__file__) + os.sep
COMPREHENSIONS = frozenset(("<listcomp>", "<dictcomp>", "<setcomp>"))

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
VIEW_SQL = (
    "create view q as select x.k, sum(x.v), count(x.v), min(x.v), "
    "max(x.v), avg(x.v) from [select * from s] as x group by x.k"
)
SCRAPE_SQL = (
    "select x.k, sum(x.v), count(x.v) from [select * from s{}] as x "
    "group by x.k"
)
#: one 8-row fig1 batch: three rows qualify
FIG1_V = np.array([150, 5, 150, 5, 5, 5, 150, 5], dtype=np.int32)


class Shape:
    """A built engine and one firing of it: ``fire()`` runs the firing;
    ``query`` is the continuous query it drives, if any."""

    def __init__(self, fire: Callable[[], object],
                 close: Callable[[], None] = lambda: None,
                 query: object = None):
        self.fire = fire
        self.close = close
        self.query = query


def _cell(dark: bool, **kwargs) -> DataCell:
    return DataCell(
        metrics=MetricsRegistry(enabled=False) if dark else None, **kwargs
    )


def _chain(cell: DataCell, sql: str, batches: Iterator[Dict[str, np.ndarray]],
           warm: int, close: Callable[[], None] = lambda: None) -> Shape:
    """insert → quiesce → fetch over ``batches``, warmed ``warm`` times."""
    query = cell.submit_continuous(sql, name="q")
    basket = cell.basket("s")

    def fire() -> object:
        basket.insert_columns(next(batches))
        cell.run_until_quiescent()
        return query.fetch()

    for _ in range(warm):
        fire()
    return Shape(fire, close, query)


def fig1(dark: bool, residue: int = 0) -> Shape:
    """fig1_trickle: one 8-row batch through the Figure-1 filter chain;
    ``residue`` rows the filter rejects are left in the basket first."""
    cell = _cell(dark)
    cell.execute("create basket s (k int, v int)")
    batch = {"k": np.arange(8, dtype=np.int32), "v": FIG1_V}
    shape = _chain(cell, FIG1_SQL, iter(lambda: batch, None), 0)
    if residue:
        cell.basket("s").insert_columns({
            "k": np.arange(residue, dtype=np.int32),
            "v": np.zeros(residue, dtype=np.int32),
        })
        cell.run_until_quiescent()
    for _ in range(50):
        shape.fire()
    return shape


def win_slide(dark: bool) -> Shape:
    """win_slide: one 200-row batch closing one window of 20,000 rows
    over 50 varchar keys (the window is full before the count)."""
    cell = _cell(dark)
    cell.execute("create basket s (k varchar(8), v int)")
    rng = np.random.default_rng(42)
    names = np.array([f"k{i:02d}" for i in range(50)], dtype=object)

    def batches() -> Iterator[Dict[str, np.ndarray]]:
        while True:
            yield {"k": names[rng.integers(0, 50, 200)],
                   "v": rng.integers(0, 1000, 200, dtype=np.int32)}

    return _chain(cell, WIN_SQL, batches(), 105)


def join(dark: bool) -> Shape:
    """join_agg: one 64-row batch joined to a 10,000-row table on its key
    and grouped into 200 regions."""
    cell = _cell(dark)
    cell.execute("create basket s (k int, v int)")
    cell.execute("create table dim (k int, region int)")
    rng = np.random.default_rng(42)
    cell.insert("dim", list(enumerate(rng.integers(0, 200, 10_000).tolist())))
    batch = {"k": rng.integers(0, 10_000, 64, dtype=np.int32),
             "v": rng.integers(0, 1_000, 64, dtype=np.int32)}
    return _chain(cell, JOIN_SQL, iter(lambda: batch, None), 5)


def view(dark: bool, rows: int = 64) -> Shape:
    """A view: one ``rows``-row batch over 16 INT keys folded into its
    five aggregates, the changed groups' rows retracted and inserted."""
    cell = _cell(dark)
    cell.execute("create basket s (k int, v int)")
    rng = np.random.default_rng(42)

    def batches() -> Iterator[Dict[str, np.ndarray]]:
        while True:
            yield {"k": rng.integers(0, 16, rows, dtype=np.int32),
                   "v": rng.integers(0, 1_000, rows, dtype=np.int32)}

    return _chain(cell, VIEW_SQL, batches(), 5)


def wal_ingest(dark: bool) -> Shape:
    """wal_ingest: one 64-row fig1 batch under an fsync-always WAL."""
    directory = tempfile.mkdtemp(prefix="firing-cost-")
    cell = _cell(dark, durability=DurabilityConfig(
        directory=directory, fsync="always"))
    cell.execute("create basket s (k int, v int)")
    batch = {"k": np.arange(64, dtype=np.int32),
             "v": np.tile(FIG1_V, 8)}

    def close() -> None:
        cell.durability.close()
        shutil.rmtree(directory, ignore_errors=True)

    return _chain(cell, FIG1_SQL, iter(lambda: batch, None), 20, close)


def server_pump(dark: bool) -> Shape:
    """srv_open's ingest: one ServerIngestPump activation applying one
    queued 16-row INSERT."""
    cell = _cell(dark)
    cell.execute("create basket s (k int, v int)")
    queue = IngestQueue()
    pump = ServerIngestPump(cell, queue)
    columns = [("k", AtomType.INT), ("v", AtomType.INT)]
    arrays = [np.arange(16, dtype=np.int32), np.tile(FIG1_V, 2)]

    def fire() -> object:
        queue.put(IngestBatch("s", columns, arrays, 16))
        return pump.activate()

    for _ in range(5):
        fire()
    return Shape(fire)


def table_load(dark: bool) -> Shape:
    """join_agg's setup: one 10,000-row load of its ``dim`` table through
    ``DataCell.insert`` (the table is emptied before each load)."""
    cell = _cell(dark)
    cell.execute("create table dim (k int, region int)")
    rng = np.random.default_rng(42)
    rows = list(enumerate(rng.integers(0, 200, 10_000).tolist()))
    table = cell.catalog.get("dim")

    def fire() -> object:
        table.truncate()
        return cell.insert("dim", rows)

    return Shape(fire)


def scrape(dark: bool) -> Shape:
    """One ``/metrics`` scrape of a cell with system streams on and 20
    grouped continuous aggregates, each fired five times (a logical
    clock keeps the sampler from firing)."""
    cell = _cell(dark, clock=LogicalClock(), system_streams=True)
    batch = {"k": np.arange(8, dtype=np.int32) % 3, "v": FIG1_V}
    for i in range(20):
        cell.execute(f"create basket s{i} (k int, v int)")
        cell.submit_continuous(SCRAPE_SQL.format(i), name=f"q{i}")
    for _ in range(5):
        for i in range(20):
            cell.basket(f"s{i}").insert_columns(batch)
        cell.run_until_quiescent()
    return Shape(lambda: telemetry_response(cell, "/metrics"))


SHAPES: Dict[str, Callable[[bool], Shape]] = {
    "fig1 8 rows": fig1,
    "win_slide 200 rows": win_slide,
    "wal_ingest 64 rows": wal_ingest,
    "join 64 rows": join,
    "view 64 rows": view,
    "server pump 16 rows": server_pump,
    "table load 10000 rows": table_load,
    "/metrics scrape, 20 queries": scrape,
}


def count_functions(fire: Callable[[], object]) -> Counter:
    """Calls into ``src/repro`` frames during ``fire()``, per
    ``(module path under repro, function name)``."""
    functions: Counter = Counter()

    def profile(frame, event, arg) -> None:
        if event != "call":
            return
        code = frame.f_code
        path = code.co_filename
        if path.startswith(SRC) and code.co_name not in COMPREHENSIONS:
            functions[path[len(SRC):], code.co_name] += 1

    # garbage from earlier engines (a factory's co-routine, closed when
    # collected) must not be collected, and counted, inside the firing
    gc.collect()
    sys.setprofile(profile)
    try:
        fire()
    finally:
        sys.setprofile(None)
    return functions


def count_calls(fire: Callable[[], object]) -> Counter:
    """Calls into ``src/repro`` frames during ``fire()``, per layer (the
    package under ``repro``: ``core``, ``kernel``, ``obs``, ``sql``...)."""
    layers: Counter = Counter()
    for (path, _), calls in count_functions(fire).items():
        layers[path.split(os.sep, 1)[0].removesuffix(".py")] += calls
    return layers


def microseconds(fire: Callable[[], object], firings: int) -> float:
    times = []
    clock = time.perf_counter
    for _ in range(firings):
        started = clock()
        fire()
        times.append(clock() - started)
    return statistics.median(times) * 1e6


def measure(firings: int) -> List[Tuple[str, str, Counter, float]]:
    rows = []
    for name, build in SHAPES.items():
        for dark in (False, True):
            shape = build(dark)
            try:
                calls = count_calls(shape.fire)
                micros = microseconds(shape.fire, firings)
            finally:
                shape.close()
            rows.append((name, "dark" if dark else "lit", calls, micros))
    return rows


def render(rows: List[Tuple[str, str, Counter, float]], markdown: bool) -> str:
    layers = sorted({layer for _, _, calls, _ in rows for layer in calls})
    head = ["shape", "metrics", "calls", *layers, "us/firing"]
    body = [
        [name, mode, str(sum(calls.values())),
         *(str(calls.get(layer, 0)) for layer in layers), f"{micros:.0f}"]
        for name, mode, calls, micros in rows
    ]
    if markdown:
        lines = ["| " + " | ".join(head) + " |",
                 "|" + "---|" * len(head)]
        lines += ["| " + " | ".join(row) + " |" for row in body]
        return "\n".join(lines)
    widths = [max(len(r[i]) for r in [head, *body]) for i in range(len(head))]
    return "\n".join(
        "  ".join(cell.ljust(w) if i < 2 else cell.rjust(w)
                  for i, (cell, w) in enumerate(zip(row, widths)))
        for row in [head, *body]
    )


def render_functions(shape: str, markdown: bool) -> str:
    """One firing of ``shape``, lit and dark, counted per function:
    modules by their calls, functions by theirs within a module."""
    counts = {}
    for dark in (False, True):
        built = SHAPES[shape](dark)
        try:
            counts["dark" if dark else "lit"] = count_functions(built.fire)
        finally:
            built.close()
    keys = set(counts["lit"]) | set(counts["dark"])
    per_module: Counter = Counter()
    for path, name in keys:
        per_module[path] += counts["lit"][path, name]
    ordered = sorted(keys, key=lambda k: (
        -per_module[k[0]], k[0], -counts["lit"][k], -counts["dark"][k], k[1]))
    head = ["function", "lit", "dark"]
    body = [[f"{path.removesuffix('.py')}:{name}", str(counts["lit"][path, name]),
             str(counts["dark"][path, name])] for path, name in ordered]
    body.append(["total", str(sum(counts["lit"].values())),
                 str(sum(counts["dark"].values()))])
    if markdown:
        lines = [f"Calls per function, one `{shape}` firing", "",
                 "| " + " | ".join(head) + " |", "|---|---|---|"]
        lines += ["| " + " | ".join(row) + " |" for row in body]
        return "\n".join(lines)
    width = max(len(row[0]) for row in [head, *body])
    return "\n".join(f"{row[0].ljust(width)}  {row[1]:>5}  {row[2]:>5}"
                     for row in [head, *body])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--firings", type=int, default=200,
                        help="timed firings per shape and mode")
    parser.add_argument("--markdown", action="store_true",
                        help="print a markdown table")
    parser.add_argument("--functions", metavar="SHAPE", choices=sorted(SHAPES),
                        help="print one firing's calls per function instead")
    args = parser.parse_args(argv)
    if args.functions:
        print(render_functions(args.functions, args.markdown))
    else:
        print(render(measure(args.firings), args.markdown))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
