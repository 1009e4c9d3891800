"""System streams: the sampler, meta-queries, alerts, and exemptions.

The self-monitoring contract under test:

* ``sys.*`` baskets exist once streams are enabled, are query-able like
  user baskets (meta-queries), and are read-only/reserved for users;
* the sampler is deterministic under a :class:`LogicalClock` — one
  sample per elapsed interval, absorbed into one activation, and
  ``run_until_quiescent`` still quiesces (no self-measurement feedback);
* system baskets are ring-buffers (retention) and second-class citizens
  of durability and shedding: no WAL capture, no checkpoint rows, no
  shed accounting;
* :class:`AlertRule` fires exactly once per breach window.
"""

import pytest

from repro.core.clock import LogicalClock
from repro.core.engine import DataCell
from repro.core.shedding import apply_shedding_policy
from repro.durability import DurabilityConfig
from repro.errors import DataCellError, SqlError
from repro.obs.metrics import MetricsRegistry
from repro.obs.sysstreams import (
    SYS_BASKETS,
    SYS_EVENTS,
    SYS_METRICS,
    SYS_QUERIES,
    SYS_STREAM_SCHEMAS,
    SystemStreamsConfig,
    is_system_name,
    tail_rows,
)

CQ = (
    "select s.sensor, s.temp from "
    "[select * from sensors where sensors.temp > 30.0] as s"
)


def build_cell(interval=1.0, retention=512, **kwargs):
    clock = LogicalClock()
    cell = DataCell(
        clock=clock,
        metrics=MetricsRegistry(),
        system_streams=SystemStreamsConfig(
            interval=interval, retention=retention
        ),
        **kwargs,
    )
    cell.execute("create basket sensors (sensor int, temp double)")
    return cell, clock


def tick(cell, clock, n=1):
    for _ in range(n):
        clock.advance(1.0)
        cell.run_until_quiescent()


class TestRegistration:
    def test_streams_preregistered(self):
        cell, _ = build_cell()
        for name in (SYS_METRICS, SYS_QUERIES, SYS_BASKETS, SYS_EVENTS):
            assert cell.catalog.has(name)
            basket = cell.basket(name)
            assert basket.is_system
            assert basket.retention == 512
            assert basket.wal_sink is None

    def test_schemas_match_declaration(self):
        cell, _ = build_cell()
        for name, columns in SYS_STREAM_SCHEMAS.items():
            basket = cell.basket(name)
            assert [
                (c.name, c.atom) for c in basket.user_columns
            ] == [(n.lower(), a) for n, a in columns]

    def test_enable_twice_rejected(self):
        cell, _ = build_cell()
        with pytest.raises(DataCellError):
            cell.enable_system_streams()

    def test_disable_then_reenable(self):
        cell, clock = build_cell()
        cell.disable_system_streams()
        assert not cell.catalog.has(SYS_METRICS)
        assert cell.sys is None
        cell.disable_system_streams()  # idempotent
        cell.enable_system_streams(SystemStreamsConfig(interval=1.0))
        tick(cell, clock)
        assert cell.sys.samples_taken == 1

    def test_off_by_default(self):
        cell = DataCell(metrics=MetricsRegistry())
        assert cell.sys is None
        assert not cell.catalog.has(SYS_METRICS)

    def test_is_system_name(self):
        assert is_system_name("sys.metrics")
        assert is_system_name("SYS.anything")
        assert not is_system_name("sensors")
        assert not is_system_name("system")  # no dot: not reserved

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DataCell(system_streams=SystemStreamsConfig(interval=0))
        with pytest.raises(ValueError):
            DataCell(system_streams=SystemStreamsConfig(retention=0))


class TestReservedNames:
    def test_user_cannot_create_sys_basket(self):
        cell, _ = build_cell()
        with pytest.raises(SqlError):
            cell.execute("create basket sys.mine (v int)")
        with pytest.raises(SqlError):
            cell.execute("create table sys.mine (v int)")

    def test_user_cannot_drop_sys_stream(self):
        cell, _ = build_cell()
        with pytest.raises(SqlError):
            cell.execute("drop basket sys.metrics")
        assert cell.catalog.has(SYS_METRICS)

    def test_sys_streams_are_read_only(self):
        cell, _ = build_cell()
        with pytest.raises(SqlError):
            cell.execute(
                "insert into sys.events values ('k', 'c', 'd')"
            )
        with pytest.raises(SqlError):
            cell.insert(SYS_EVENTS, [("k", "c", "d")])

    def test_guard_holds_without_streams_enabled(self):
        cell = DataCell(metrics=MetricsRegistry())
        with pytest.raises(SqlError):
            cell.create_basket("sys.mine", [("v", "int")])


class TestSamplerDeterminism:
    def test_no_sample_before_interval(self):
        cell, clock = build_cell()
        cell.run_until_quiescent()
        assert cell.sys.samples_taken == 0
        assert cell.basket(SYS_METRICS).count == 0

    def test_one_sample_per_tick(self):
        cell, clock = build_cell()
        tick(cell, clock, 3)
        assert cell.sys.samples_taken == 3

    def test_one_activation_absorbs_many_intervals(self):
        cell, clock = build_cell()
        clock.advance(10.0)
        cell.run_until_quiescent()
        assert cell.sys.samples_taken == 1

    def test_steady_state_is_bounded(self):
        # sampling must not feed itself: with no user activity the only
        # per-tick changes are the scheduler's own iteration counters, so
        # the rows added per tick settle to a small constant (and
        # run_until_quiescent keeps terminating — no livelock)
        cell, clock = build_cell()
        tick(cell, clock, 2)
        basket = cell.basket(SYS_METRICS)
        before = basket.count
        tick(cell, clock)
        steady = basket.count - before
        assert steady <= 4
        tick(cell, clock)
        assert basket.count - before == 2 * steady
        metrics = {r[0] for r in cell.query("select metric from sys.metrics")}
        assert not any(m.startswith("datacell_sys_") for m in metrics)

    def test_metric_rows_are_deltas(self):
        cell, clock = build_cell()
        cell.insert("sensors", [(1, 10.0)])
        cell.run_until_quiescent()
        tick(cell, clock)
        rows = cell.query(
            "select value, delta from sys.metrics "
            "where metric = 'datacell_basket_inserted_total'"
        )
        assert rows == [(1.0, 1.0)]
        cell.insert("sensors", [(2, 11.0), (3, 12.0)])
        cell.run_until_quiescent()
        tick(cell, clock)
        rows = cell.query(
            "select value, delta from sys.metrics "
            "where metric = 'datacell_basket_inserted_total'"
        )
        assert rows == [(1.0, 1.0), (3.0, 2.0)]

    def test_histograms_expand_to_suffixed_rows(self):
        cell, clock = build_cell()
        q = cell.submit_continuous(CQ, name="hot")
        cell.insert("sensors", [(1, 45.0)])
        cell.run_until_quiescent()
        assert q.fetch()
        tick(cell, clock)
        metrics = {
            r[0] for r in cell.query("select metric from sys.metrics")
        }
        for suffix in ("_count", "_sum", "_p50", "_p99"):
            assert f"datacell_query_latency_seconds{suffix}" in metrics
        assert "datacell_query_latency_seconds" not in metrics

    def test_sys_queries_stream(self):
        cell, clock = build_cell()
        cell.submit_continuous(CQ, name="hot")
        cell.insert("sensors", [(1, 45.0), (2, 50.0)])
        cell.run_until_quiescent()
        tick(cell, clock)
        rows = cell.query(
            "select query, delivered, delivered_delta from sys.queries"
        )
        assert rows == [("hot", 2, 2)]
        tick(cell, clock)
        rows = cell.query(
            "select delivered, delivered_delta from sys.queries "
            "where query = 'hot'"
        )
        assert rows[-1] == (2, 0)

    def test_sys_baskets_excludes_system_baskets(self):
        cell, clock = build_cell()
        tick(cell, clock, 2)
        names = {r[0] for r in cell.query("select basket from sys.baskets")}
        assert names == {"sensors"}

    def test_trace_events_drained_by_kind(self):
        # every kind but ``fire`` reaches sys.events
        cell, clock = build_cell()
        cell.trace.record("checkpoint", "durability", id=1)
        cell.trace.record("fire", "noise", tuples_in=1)
        cell.trace.record("firing", "app")  # any other kind is included
        tick(cell, clock)
        events = cell.query("select kind, component from sys.events")
        assert ("checkpoint", "durability") in events
        assert ("firing", "app") in events
        assert all(k != "fire" for k, _ in events)

    def test_recorded_event_lands_at_next_tick(self):
        cell, clock = build_cell()
        cell.trace.record("error", "test", detail="boom")
        assert cell.query("select kind from sys.events") == []
        tick(cell, clock)
        assert cell.query(
            "select kind, component, detail from sys.events"
        ) == [("error", "test", '{"detail": "boom"}')]

    def test_registrations_drained_but_not_the_samplers_own(self):
        # sys.events fills only when the tick drains the log
        cell, clock = build_cell()
        cell.submit_continuous(CQ, name="hot")
        assert cell.basket(SYS_EVENTS).total_in == 0
        tick(cell, clock)
        events = cell.query("select kind, component from sys.events")
        assert ("register", "hot") in events
        assert all(c != cell.sys.name for _, c in events)

    def test_kept_events_survive_a_burst_of_firings(self):
        # a checkpoint followed by more firings than the ring holds still
        # reaches sys.events: non-fire events have their own retention
        cell, clock = build_cell()
        cell.trace.record("checkpoint", "durability", id=7)
        for _ in range(cell.trace.capacity + 100):
            cell.trace.record("fire", "q", tuples_in=1, tuples_out=1)
        assert "checkpoint" not in {e.kind for e in cell.trace.events()}
        tick(cell, clock)
        assert cell.query(
            "select kind, component from sys.events "
            "where kind = 'checkpoint'"
        ) == [("checkpoint", "durability")]


class TestRingRetention:
    def test_depth_bounded_without_shedding(self):
        cell, clock = build_cell(retention=8)
        for i in range(30):
            cell.insert("sensors", [(i, float(i))])
            tick(cell, clock)
        for name in (SYS_METRICS, SYS_BASKETS):
            basket = cell.basket(name)
            assert basket.count <= 8
            assert basket.total_trimmed > 0
            assert basket.total_shed == 0, (
                "ring trimming must not count as shedding"
            )

    def test_oldest_rows_trimmed(self):
        cell, clock = build_cell(retention=4)
        for i in range(12):
            cell.insert("sensors", [(i, float(i))])
            tick(cell, clock)
        depths = [
            r[0] for r in cell.query("select depth_delta from sys.baskets")
        ]
        assert len(depths) == 4  # only the newest 4 samples survive

    def test_shedding_controller_exempts_system_baskets(self):
        cell, clock = build_cell(retention=64)
        tick(cell, clock, 3)
        basket = cell.basket(SYS_METRICS)
        assert basket.count > 0
        assert apply_shedding_policy(basket, 0, "oldest") == 0
        assert basket.count > 0

    def test_user_basket_retention_is_off(self):
        cell, _ = build_cell()
        assert cell.basket("sensors").retention is None


class TestMetaQueries:
    def test_backlog_detection_end_to_end(self):
        # the flight recorder's stall predicate as one SQL statement: a
        # basket whose depth rises while nothing consumes it
        cell, clock = build_cell()
        mq = cell.submit_continuous(
            "select b.basket, b.depth from "
            "[select * from sys.baskets where depth_delta > 0 "
            "and consumed_delta = 0] as b",
            name="stalls",
        )
        tick(cell, clock)
        assert mq.fetch() == []  # healthy: no backlog
        cell.insert("sensors", [(i, 1.0) for i in range(5)])  # no consumer
        tick(cell, clock)
        assert mq.fetch() == [("sensors", 5)]

    def test_one_time_select_over_sys(self):
        cell, clock = build_cell()
        tick(cell, clock)
        (count,) = cell.query("select count(*) from sys.metrics")[0]
        assert count == cell.basket(SYS_METRICS).count

    def test_latency_slo_meta_query(self):
        cell, clock = build_cell()
        cell.submit_continuous(CQ, name="hot")
        cell.insert("sensors", [(1, 45.0)])
        cell.run_until_quiescent()
        tick(cell, clock)
        rows = cell.query(
            "select query from sys.queries where p99_latency > 10.0"
        )
        assert rows == []  # logical-clock latencies are tiny


class TestAlertRules:
    def breach(self, cell, clock, rounds=3):
        for _ in range(rounds):
            tick(cell, clock)

    def test_fires_once_per_breach_window(self):
        cell, clock = build_cell()
        fired = []
        rule = cell.add_alert(
            "backlog",
            "select b.basket, b.depth from "
            "[select * from sys.baskets where depth > 3] as b",
            callback=lambda r, rows: fired.append(rows),
        )
        # window 1: sustained breach alerts exactly once
        cell.insert("sensors", [(i, 1.0) for i in range(5)])
        self.breach(cell, clock)
        assert rule.firings == 1
        # condition clears
        cell.basket("sensors").consume_all()
        self.breach(cell, clock)
        assert rule.firings == 1
        # window 2: a fresh breach alerts again
        cell.insert("sensors", [(i, 1.0) for i in range(5)])
        self.breach(cell, clock)
        assert rule.firings == 2
        assert len(fired) == 2
        assert rule.last_rows[0][0] == "sensors"

    def test_firings_recorded_in_sys_events_and_metrics(self):
        cell, clock = build_cell()
        cell.add_alert(
            "backlog",
            "select b.basket from "
            "[select * from sys.baskets where depth > 3] as b",
        )
        cell.insert("sensors", [(i, 1.0) for i in range(5)])
        self.breach(cell, clock)
        events = cell.query(
            "select kind, component from sys.events where kind = 'alert'"
        )
        assert events == [("alert", "backlog")]
        assert cell.metrics.value(
            "datacell_alerts_fired_total", ("backlog",)
        ) == 1

    def test_requires_system_streams(self):
        cell = DataCell(metrics=MetricsRegistry())
        with pytest.raises(DataCellError):
            cell.add_alert("x", "select 1")

    def test_duplicate_name_rejected(self):
        cell, _ = build_cell()
        sql = (
            "select b.basket from "
            "[select * from sys.baskets where depth > 3] as b"
        )
        cell.add_alert("dup", sql)
        with pytest.raises(DataCellError):
            cell.add_alert("dup", sql)

    def test_cancel_stops_firing(self):
        cell, clock = build_cell()
        rule = cell.add_alert(
            "backlog",
            "select b.basket from "
            "[select * from sys.baskets where depth > 3] as b",
        )
        rule.cancel()
        assert "backlog" not in cell.sys.alerts
        cell.insert("sensors", [(i, 1.0) for i in range(5)])
        self.breach(cell, clock)
        assert rule.firings == 0

    def test_stats_and_dashboard_sections(self):
        cell, clock = build_cell()
        cell.add_alert(
            "backlog",
            "select b.basket from "
            "[select * from sys.baskets where depth > 3] as b",
        )
        tick(cell, clock)
        stats = cell.stats()
        assert stats["sys"]["samples"] == 1
        assert stats["sys"]["streams"][SYS_METRICS] > 0
        assert stats["sys"]["alerts"] == {"backlog": 0}
        text = cell.render_dashboard()
        assert "System streams" in text
        assert "Alert rules" in text


class TestDurabilityExemption:
    def test_sys_rows_never_enter_the_wal(self, tmp_path):
        clock = LogicalClock()
        cell = DataCell(
            clock=clock,
            metrics=MetricsRegistry(),
            durability=DurabilityConfig(directory=tmp_path / "d"),
            system_streams=SystemStreamsConfig(interval=1.0),
        )
        cell.execute("create basket sensors (sensor int, temp double)")
        cell.insert("sensors", [(1, 45.0)])
        before = cell.durability.wal.records_written
        assert before > 0  # the user insert was logged
        for _ in range(5):
            clock.advance(1.0)
            cell.run_until_quiescent()
        assert cell.sys.samples_taken == 5
        assert cell.basket(SYS_METRICS).count > 0
        assert cell.durability.wal.records_written == before, (
            "sampling must not generate WAL records"
        )
        cell.durability.close()

    def test_checkpoint_excludes_system_baskets(self, tmp_path):
        from repro.durability.checkpoint import load_latest_checkpoint

        clock = LogicalClock()
        cell = DataCell(
            clock=clock,
            metrics=MetricsRegistry(),
            durability=DurabilityConfig(directory=tmp_path / "d"),
            system_streams=SystemStreamsConfig(interval=1.0),
        )
        cell.execute("create basket sensors (sensor int, temp double)")
        cell.insert("sensors", [(1, 45.0)])
        clock.advance(1.0)
        cell.run_until_quiescent()
        cell.checkpoint()
        snapshot = load_latest_checkpoint(cell.durability.checkpoint_dir)
        assert "sensors" in snapshot.baskets
        assert not any(is_system_name(n) for n in snapshot.baskets)
        cell.durability.close()


class TestTailRows:
    def test_shape_and_limit(self):
        cell, clock = build_cell()
        tick(cell, clock)
        basket = cell.basket(SYS_METRICS)
        columns, rows = tail_rows(basket, 3)
        assert columns[:5] == ["metric", "labels", "kind", "value", "delta"]
        assert "dc_time" in columns
        assert len(rows) == 3
        assert all(len(r) == len(columns) for r in rows)

    def test_limit_beyond_depth(self):
        cell, clock = build_cell()
        tick(cell, clock)
        basket = cell.basket(SYS_EVENTS)
        columns, rows = tail_rows(basket, 100)
        assert rows == []

    def test_json_matches_a_per_cell_reference(self):
        """The columnar tail renders exactly what a per-cell walk over a
        full snapshot did (``/sys/<basket>?n=`` is byte-stable)."""
        import json

        from repro.kernel.types import python_value

        cell, clock = build_cell()
        for _ in range(3):
            tick(cell, clock)
        basket = cell.basket(SYS_METRICS)
        for limit in (0, 1, 5, basket.count, basket.count + 7):
            snapshot = basket.snapshot()
            start = max(0, snapshot.count - limit)
            expected = (
                list(snapshot.names),
                [
                    [python_value(b.atom, b.tail[i]) for b in snapshot.bats]
                    for i in range(start, snapshot.count)
                ],
            )
            assert json.dumps(tail_rows(basket, limit)) == json.dumps(expected)


def test_system_basket_constructor_rejects_duplicates():
    from repro.kernel.types import AtomType

    cell, _ = build_cell()
    with pytest.raises(DataCellError):
        cell._create_system_basket(SYS_METRICS, [("v", AtomType.INT)], 4)
