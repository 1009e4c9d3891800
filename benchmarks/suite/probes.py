"""Per-layer probes: one layer's public functions, driven in isolation.

Each probe replays a fixed sample of the workload's own inputs — the
first batch, capped at ``SAMPLE_CAP`` rows — through the layer, at least
``REPEATS`` times, and reports the median.  State a call would mutate is
rebuilt outside the timed region before every repeat.
"""

from __future__ import annotations

import shutil
import statistics
import tempfile
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from harness import OUT_DIR
from repro import BAT, AtomType, Basket, DataCell
from repro.analysis import verify_continuous
from repro.core import CollectingClient, Emitter
from repro.durability import FsyncPolicy, WalWriter
from repro.durability.serde import decode_column, encode_column
from repro.errors import ReproError
from repro.kernel.aggregate import grouped_aggregate
from repro.kernel.group import group
from repro.kernel.join import hash_join, projection
from repro.kernel.select import range_select, theta_select
from repro.server.protocol import (
    FrameDecoder,
    Message,
    Command,
    arrays_from_rows,
    encode_message,
)
from repro.sql.compiler import compile_continuous
from repro.sql.optimizer import optimize
from repro.sql.parser import parse_statement

REPEATS = 50
SAMPLE_CAP = 10_000
GROUP_AGG_ROWS = 20_000
FRAME_ROWS = 16

Schema = List[Tuple[str, AtomType]]


def median_seconds(fn: Callable[[Any], Any],
                   prepare: Optional[Callable[[], Any]] = None,
                   repeats: int = REPEATS) -> float:
    samples = []
    for _ in range(repeats):
        state = prepare() if prepare is not None else None
        started = time.perf_counter()
        fn(state)
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def _bat(atom: AtomType, values: np.ndarray) -> BAT:
    bat = BAT(atom)
    bat.append_array(values)
    return bat


def sql_probes(ddl: Sequence[str], sql: str) -> Dict[str, float]:
    """``sql.compile_ms`` and ``sql.verify_ms`` for one query text."""
    cell = DataCell()
    for statement in ddl:
        cell.execute(statement)

    def compile_once(_: Any = None) -> Any:
        compiled = compile_continuous(cell.catalog, parse_statement(sql))
        compiled.program, _report = optimize(
            compiled.program,
            protected=[b.consumed_var for b in compiled.basket_inputs],
        )
        return compiled

    try:
        compiled = compile_once()
    except ReproError:
        return {"sql.compile_ms": 0.0, "sql.verify_ms": 0.0}
    return {
        "sql.compile_ms": median_seconds(compile_once) * 1e3,
        "sql.verify_ms": median_seconds(
            lambda _: verify_continuous(compiled, cell.catalog)
        ) * 1e3,
    }


def kernel_probes(key: np.ndarray, key_atom: AtomType, value: np.ndarray,
                  window_key: np.ndarray, window_value: np.ndarray) -> Dict[str, float]:
    """Operator cost per thousand input rows on the workload's columns."""
    n = len(key)
    per_krow = 1e6 / (n / 1000.0)
    key_bat, value_bat = _bat(key_atom, key), _bat(AtomType.INT, value)
    distinct = np.unique(key.astype(str) if key_atom is AtomType.STR else key)
    build_bat = _bat(
        key_atom,
        distinct.astype(object) if key_atom is AtomType.STR else distinct,
    )
    candidates = range_select(value_bat, 100, 200, high_inclusive=False)
    out = {
        "kernel.select_us_per_krow": per_krow * min(
            median_seconds(lambda _: range_select(
                value_bat, 100, 200, high_inclusive=False)),
            median_seconds(lambda _: theta_select(value_bat, ">=", 100)),
        ),
        "kernel.project_us_per_krow": per_krow * median_seconds(
            lambda _: projection(candidates, key_bat)),
        "kernel.join_us_per_krow": per_krow * median_seconds(
            lambda _: hash_join(key_bat, build_bat)),
        "kernel.group_us_per_krow": per_krow * median_seconds(
            lambda _: group(key_bat)),
    }
    wkey = _bat(key_atom, window_key)
    wvalue = _bat(AtomType.INT, window_value)

    def group_and_sum(_: Any) -> None:
        groups, _extents, ngroups = group(wkey)
        grouped_aggregate("sum", wvalue, groups, ngroups)

    out["kernel.group_agg_us_per_krow"] = (
        1e6 / (len(window_key) / 1000.0) * median_seconds(group_and_sum)
    )
    return out


def basket_probes(schema: Schema, columns: Dict[str, np.ndarray]) -> Dict[str, float]:
    """insert / snapshot / consume of one batch on a stand-alone basket."""
    n = len(next(iter(columns.values())))

    def empty() -> Basket:
        return Basket("probe", schema)

    def filled() -> Basket:
        basket = empty()
        basket.insert_columns(columns)
        return basket

    tenth = np.arange(0, max(1, n // 10), dtype=np.int64)
    return {
        "core.basket.insert_us": 1e6 * median_seconds(
            lambda basket: basket.insert_columns(columns), empty),
        "core.basket.snapshot_us": 1e6 * median_seconds(
            lambda basket: basket.snapshot(), filled),
        # the predicate-window shape: a tenth consumed, the rest rebuilt
        "core.basket.consume_us": 1e6 * median_seconds(
            lambda basket: basket.consume_seqs(tenth), filled),
    }


def emitter_probe(schema: Schema, columns: Dict[str, np.ndarray],
                  rows_out: int) -> Dict[str, float]:
    """One emitter activation delivering a typical output batch."""
    rows_out = max(1, rows_out)
    head = {name: array[:rows_out] for name, array in columns.items()}

    def loaded() -> Emitter:
        basket = Basket("probe_out", schema)
        basket.insert_columns(head)
        emitter = Emitter("probe_emitter", basket)
        emitter.subscribe(CollectingClient())
        return emitter

    seconds = median_seconds(lambda emitter: emitter.activate(), loaded)
    return {"core.emitter.activate_us": seconds * 1e6}


def durability_probes(schema: Schema, columns: Dict[str, np.ndarray]) -> Dict[str, float]:
    """WAL append and fsync cost, and serde cost, for one batch."""
    n = len(next(iter(columns.values())))
    arrays = [columns[name] for name, _ in schema]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="probe-wal-", dir=OUT_DIR)
    try:
        writer = WalWriter(workdir, fsync=FsyncPolicy.OFF)
        try:
            append = median_seconds(
                lambda _: writer.append_insert("probe", 0.0, schema, arrays))
            fsync = median_seconds(lambda _: writer.sync())
        finally:
            writer.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    per_krow = 1e6 / (n / 1000.0)
    encoded = [encode_column(atom, array) for (_, atom), array in zip(schema, arrays)]
    return {
        "durability.append_us": append * 1e6,
        "durability.fsync_ms": fsync * 1e3,
        "durability.serde_encode_us_per_krow": per_krow * median_seconds(
            lambda _: [encode_column(atom, array)
                       for (_, atom), array in zip(schema, arrays)]),
        "durability.serde_decode_us_per_krow": per_krow * median_seconds(
            lambda _: [decode_column(atom, blob)
                       for (_, atom), blob in zip(schema, encoded)]),
    }


def frame_probes(schema: Schema, columns: Dict[str, np.ndarray]) -> Dict[str, float]:
    """Encode/decode of the 16-row frames the server workload sends."""
    arrays = [columns[name][:FRAME_ROWS] for name, _ in schema]
    rows = list(zip(*(array.tolist() for array in arrays)))
    insert = Message(Command.INSERT, {"basket": "s", "seq": 1}, list(schema),
                     arrays_from_rows(schema, rows))
    data = Message(Command.DATA, {"query": "q"}, list(schema),
                   arrays_from_rows(schema, rows))
    frame = encode_message(data)
    return {
        "server.encode_insert_us": 1e6 * median_seconds(
            lambda _: encode_message(insert)),
        "server.encode_data_us": 1e6 * median_seconds(
            lambda _: encode_message(data)),
        "server.decode_us": 1e6 * median_seconds(
            lambda _: FrameDecoder().feed(frame)),
    }


def run_probes(schema: Schema, columns: Dict[str, np.ndarray], batch_rows: int,
               key: str, value: str, selectivity: float,
               ddl: Sequence[str] = (), sql: str = "") -> Dict[str, float]:
    """Every probe, on the first batch of ``columns`` (capped)."""
    n = min(batch_rows, SAMPLE_CAP)
    sample = {name: array[:n] for name, array in columns.items()}
    window = min(GROUP_AGG_ROWS, len(columns[key]))
    key_atom = dict(schema)[key]
    out: Dict[str, float] = {}
    out.update(
        sql_probes(ddl, sql) if sql
        else {"sql.compile_ms": 0.0, "sql.verify_ms": 0.0}
    )
    out.update(kernel_probes(
        sample[key], key_atom, sample[value],
        columns[key][:window], columns[value][:window],
    ))
    out.update(basket_probes(schema, sample))
    out.update(emitter_probe(schema, sample, int(n * selectivity)))
    out.update(durability_probes(schema, sample))
    out.update(frame_probes(schema, sample))
    return out
