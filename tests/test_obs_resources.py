"""Per-query resource accounting: CPU, memory, queue-wait, budgets.

The attribution contract under test:

* **CPU nesting** — thread-CPU is captured at three boundaries that
  bracket each other (``opcode <= plan <= firing``), and the per-opcode
  fold recovers >= 90% of the plan-boundary CPU on a realistic
  batch-heavy pipeline (the accuracy contract from the module docs);
* **memory** — ``nbytes()`` is exact for fixed-width columns
  (``count * itemsize``), baskets include their hidden sequence
  column (not the per-run stamps and tokens), and a
  query's footprint splits shared input baskets fairly across readers;
* **queue-wait** — charged per tuple exactly once, at first observation
  by the consuming factory;
* **sys.resources** — one row per query per sample while active,
  silent when quiescent, and meta-queryable with ordinary SQL;
* **budgets** — validated at construction, evaluated per sampler tick,
  firing exactly once per breach window into ``sys.events``.
"""

import sys
import threading
import time

import pytest

from repro.core.clock import LogicalClock
from repro.core.engine import DataCell
from repro.core.factory import ActivationResult
from repro.errors import DataCellError, ObservabilityError
from repro.kernel.bat import BAT
from repro.kernel.types import AtomType
from repro.obs.metrics import MetricsRegistry
from repro.obs.resources import (
    OBJECT_ELEMENT_BYTES,
    ResourceBudget,
    estimate_nbytes,
)
from repro.obs.sysstreams import (
    SYS_RESOURCES,
    SystemStreamsConfig,
    tail_rows,
)

CQ = (
    "select s.sensor, s.temp from "
    "[select * from sensors where sensors.temp > 30.0] as s"
)


def build_cell(**kwargs):
    cell = DataCell(metrics=MetricsRegistry(), **kwargs)
    cell.execute("create basket sensors (sensor int, temp double)")
    return cell


def build_monitored(interval=1.0, retention=512, **kwargs):
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


class TestNbytesContract:
    def test_fixed_width_bat_is_exact(self):
        bat = BAT(AtomType.LNG)
        bat.append_many([1, 2, 3])
        assert bat.nbytes() == 3 * 8
        bat = BAT(AtomType.INT)
        bat.append_many([1, 2, 3, 4])
        assert bat.nbytes() == 4 * 4

    def test_object_dtype_uses_flat_estimate(self):
        bat = BAT(AtomType.STR)
        bat.append_many(["a", "bb"])
        assert bat.nbytes() == 2 * OBJECT_ELEMENT_BYTES

    def test_spare_capacity_not_charged(self):
        bat = BAT(AtomType.LNG, capacity=1024)
        bat.append_many([1])
        assert bat.nbytes() == 8

    def test_basket_counts_hidden_columns(self):
        cell = build_cell()
        basket = cell.basket("sensors")
        cell.insert("sensors", [(1, 1.0), (2, 2.0)])
        # sensor int32 (4) + temp float64 (8) + implicit dc_time (8) +
        # _seq int64 (8); arrival stamps and trace tokens are stored per
        # run, not per row, and are not charged
        assert basket.row_nbytes() == 4 + 8 + 8 + 8
        assert basket.nbytes() == 2 * basket.row_nbytes()

    def test_estimate_nbytes_walks_plain_state(self):
        assert estimate_nbytes(None) == 0
        assert estimate_nbytes(3) == 8
        assert estimate_nbytes("abcd") == 4
        assert estimate_nbytes({1: [1.0, 2.0]}) == 8 + 16
        assert estimate_nbytes((1, 2, 3)) == 24


class TestAccounts:
    def test_bound_on_submit_unbound_on_remove(self):
        cell = build_cell()
        query = cell.submit_continuous(CQ, tenant="team-a")
        account = cell.resources.account(query.name)
        assert account is not None
        assert account.tenant == "team-a"
        assert account.output_basket is query.output_basket
        cell.remove_continuous(query)
        assert cell.resources.account(query.name) is None

    def test_flow_counters_charge_fresh_tuples_once(self):
        cell = build_cell()
        query = cell.submit_continuous(CQ)
        cell.insert("sensors", [(i, 45.0) for i in range(10)])
        cell.run_until_quiescent()
        cell.insert("sensors", [(i, 1.0) for i in range(5)])
        cell.run_until_quiescent()
        account = cell.resources.account(query.name)
        assert account.rows_in == 15
        assert account.rows_out == 10  # only the hot tuples pass
        assert account.bytes_in == 15 * cell.basket("sensors").row_nbytes()
        assert account.bytes_out > 0
        assert account.queue_wait_seconds > 0
        assert query.results_delivered == 10

    def test_cpu_boundaries_nest(self):
        cell = build_cell()
        query = cell.submit_continuous(CQ)
        for _ in range(5):
            cell.insert("sensors", [(i, 45.0) for i in range(100)])
            cell.run_until_quiescent()
        account = cell.resources.account(query.name)
        assert account.firings > 0
        assert account.activations == 5
        assert 0 < account.opcode_cpu_seconds
        assert account.plan_cpu_seconds <= account.cpu_seconds
        assert account.opcode_cpu # at least one opcode attributed

    def test_attribution_recovers_90_percent_of_firing_cpu(self):
        # The accuracy contract: on a Figure-1-style pipeline, the
        # per-bucket CPU breakdown (real MAL opcodes plus the synthetic
        # engine.factory / engine.emitter residual buckets) sums to at
        # least 90% of the scheduler-measured thread CPU, and never
        # exceeds it by more than clock noise.
        cell = build_cell()
        query = cell.submit_continuous(CQ)
        for _ in range(10):
            cell.insert(
                "sensors", [(i, float(i % 90)) for i in range(2000)]
            )
            cell.run_until_quiescent()
        account = cell.resources.account(query.name)
        assert account.rows_in == 20_000
        assert account.plan_cpu_seconds > 0
        attributed = sum(account.opcode_cpu.values())
        ratio = attributed / account.cpu_seconds
        assert ratio >= 0.9, (
            f"breakdown recovered only {ratio:.1%} of firing-boundary CPU"
        )
        assert attributed <= account.cpu_seconds * 1.05
        # real MAL opcodes are measured strictly, inside the plan boundary
        assert "algebra.thetaselect" in account.opcode_cpu
        assert account.opcode_cpu_seconds <= account.plan_cpu_seconds * 1.05
        assert account.plan_cpu_seconds <= account.cpu_seconds * 1.05
        # the synthetic buckets make the breakdown exhaustive
        assert "engine.factory" in account.opcode_cpu
        assert "engine.emitter" in account.opcode_cpu

    def test_plan_cpu_after_the_last_opcode_chain_is_the_plans(self):
        # an aggregate view runs python after its MAL stage (the
        # circuit's step): that CPU is inside the plan boundary, and no
        # opcode is charged for it
        burn = 0.02
        cell = build_cell()
        query = cell.submit_continuous(
            "create view v as select s.sensor, count(*) as n from "
            "[select * from sensors where sensors.temp > 30.0] as s "
            "group by s.sensor"
        )
        agg = query.factory.plan.agg
        step = agg.step

        def burning_step(keys, values):
            started = time.thread_time()
            while time.thread_time() - started < burn:
                pass
            return step(keys, values)

        agg.step = burning_step
        firings = 3
        for _ in range(firings):
            cell.insert("sensors", [(i, 45.0) for i in range(10)])
            cell.run_until_quiescent()
        account = cell.resources.account(query.name)
        assert account.activations == firings
        burned = burn * firings
        assert account.plan_cpu_seconds >= burned
        assert account.opcode_cpu_seconds < burned / 2
        real = sum(
            cpu for op, cpu in account.opcode_cpu.items()
            if not op.startswith("engine.")
        )
        assert real < burned / 2

    def test_one_shot_queries_are_not_attributed(self):
        cell = build_cell()
        query = cell.submit_continuous(CQ)
        cell.insert("sensors", [(1, 45.0)])
        cell.run_until_quiescent()
        before = cell.resources.account(query.name).opcode_cpu_seconds
        cell.query("select sensors.sensor from sensors")
        assert cell.resources.account(query.name).opcode_cpu_seconds \
            == before

    def test_input_basket_shared_fairly(self):
        cell = build_cell()
        q1 = cell.submit_continuous(CQ)
        q2 = cell.submit_continuous(
            "select s.sensor from "
            "[select * from sensors where sensors.temp < 10.0] as s"
        )
        assert cell.resources.input_shares() == {"sensors": 2}
        cell.insert("sensors", [(i, 15.0) for i in range(8)])
        stats = cell.resources.stats()
        sensors = cell.basket("sensors")
        share = int(sensors.nbytes()) // 2
        for name in (q1.name, q2.name):
            assert stats["queries"][name]["memory_bytes"] >= share
        assert stats["engine"]["memory_bytes"] >= int(sensors.nbytes())
        assert stats["engine"]["accounts"] == 2

    def test_threaded_firings_are_exact(self):
        # the factory's and the emitter's threads both fire into one
        # account, which reads the scheduler's firing tally of each: one
        # writer per tally, so no firing is lost
        cell = build_cell()
        query = cell.submit_continuous(CQ)
        n = 20_000

        class Stand:  # fires under the transition's name, doing nothing
            priority = 0

            def __init__(self, name):
                self.name = name

            def activate(self):
                return ActivationResult(fired=True)

        def fire(transition_name):
            stand = Stand(transition_name)
            for _ in range(n):
                cell.scheduler._fire(stand)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=fire, args=(t.name,))
                for t in (query.factory, query.emitter)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert cell.resources.account(query.name).firings == 2 * n

    def test_disabled_accounting_is_dark(self):
        cell = DataCell(metrics=MetricsRegistry(enabled=False))
        cell.execute("create basket sensors (sensor int, temp double)")
        query = cell.submit_continuous(CQ)
        cell.insert("sensors", [(1, 45.0)])
        cell.run_until_quiescent()
        assert not cell.resources.enabled
        assert cell.resources.account(query.name) is None
        assert "resources" not in cell.stats()
        assert "disabled" in cell.top()
        assert query.results_delivered == 1  # accounting never gates flow
        with pytest.raises(DataCellError):
            cell.set_budget("cap", query=query.name, cpu_delta=1.0)


class TestTop:
    def test_ranked_table(self):
        cell = build_cell()
        query = cell.submit_continuous(CQ)
        idle = cell.submit_continuous(
            "select s.sensor from "
            "[select * from sensors where sensors.temp > 1e9] as s",
            name="idle",
        )
        cell.insert("sensors", [(i, 45.0) for i in range(50)])
        cell.run_until_quiescent()
        table = cell.top()
        assert "Top queries by CPU" in table
        assert query.name in table
        assert idle.name in table  # zero-emission queries still listed
        assert len(cell.resources.top_rows(1)) == 1
        # the busy query ranks first
        assert cell.resources.top_rows(2)[0][0] == query.name


class TestSysResourcesStream:
    def test_sampled_rows_and_deltas(self):
        cell, clock = build_monitored()
        query = cell.submit_continuous(CQ)
        cell.insert("sensors", [(i, 45.0) for i in range(4)])
        tick(cell, clock)
        names, rows = tail_rows(cell.basket(SYS_RESOURCES))
        mine = [r for r in rows if r[names.index("query")] == query.name]
        assert len(mine) == 1
        row = dict(zip(names, mine[0]))
        assert row["tenant"] == "default"
        assert row["rows_in"] == 4
        assert row["rows_in_delta"] == 4  # first sample: delta == total
        assert row["rows_out"] == 4
        assert row["cpu_seconds"] > 0
        assert row["cpu_delta"] > 0
        assert row["memory_bytes"] >= 0
        assert row["queue_wait_seconds"] > 0

    def test_quiescent_queries_sampled_once(self):
        cell, clock = build_monitored()
        query = cell.submit_continuous(CQ)
        cell.insert("sensors", [(1, 45.0)])
        tick(cell, clock)
        names, rows = tail_rows(cell.basket(SYS_RESOURCES))
        count = lambda: sum(  # noqa: E731
            1 for r in tail_rows(cell.basket(SYS_RESOURCES))[1]
            if r[0] == query.name
        )
        first = count()
        tick(cell, clock, 3)  # nothing moves: no new rows for the query
        assert count() == first

    def test_meta_queryable_with_continuous_sql(self):
        cell, clock = build_monitored()
        cell.submit_continuous(CQ)
        meta = cell.submit_continuous(
            "select r.query, r.rows_in_delta from "
            "[select * from sys.resources where rows_in_delta > 0] as r",
            name="meta",
        )
        cell.insert("sensors", [(i, 45.0) for i in range(3)])
        tick(cell, clock, 2)
        assert meta.results_delivered >= 1

    def test_meta_queryable_one_shot(self):
        # separate cell: a continuous meta-query would consume the
        # sys.resources rows before the one-shot select could see them
        cell, clock = build_monitored()
        query = cell.submit_continuous(CQ)
        cell.insert("sensors", [(i, 45.0) for i in range(3)])
        tick(cell, clock)
        rows = cell.query(
            "select query from sys.resources where rows_in_delta > 0"
        )
        assert (query.name,) in rows


class TestBudgets:
    def test_scope_and_cap_validation(self):
        with pytest.raises(ObservabilityError):
            ResourceBudget("b", query="q", tenant="t", cpu_delta=1.0)
        with pytest.raises(ObservabilityError):
            ResourceBudget("b", cpu_delta=1.0)
        with pytest.raises(ObservabilityError):
            ResourceBudget("b", query="q")

    def test_duplicate_budget_rejected(self):
        cell = build_cell()
        cell.set_budget("cap", query="q1", cpu_delta=1.0)
        with pytest.raises(ObservabilityError):
            cell.set_budget("cap", query="q1", cpu_delta=1.0)
        cell.remove_budget("cap")
        cell.set_budget("cap", query="q1", cpu_delta=1.0)

    def test_fires_once_per_breach_window(self):
        cell, clock = build_monitored()
        query = cell.submit_continuous(CQ)
        fired = []
        budget = cell.set_budget(
            "cpu-cap",
            query=query.name,
            cpu_delta=0.0,  # any CPU spent within a sample breaches
            callback=lambda b, record: fired.append(record),
        )
        # window 1: sustained breach alerts exactly once
        cell.insert("sensors", [(1, 45.0)])
        tick(cell, clock)
        assert budget.breaches == 1
        cell.insert("sensors", [(2, 45.0)])
        tick(cell, clock)
        assert budget.breaches == 1  # consecutive breached tick: silent
        # a clean tick closes the window
        tick(cell, clock)
        # window 2: a fresh breach alerts again
        cell.insert("sensors", [(3, 45.0)])
        tick(cell, clock)
        assert budget.breaches == 2
        assert len(fired) == 2
        assert fired[0]["exceeded"][0]["dimension"] == "cpu_delta"
        assert cell.metrics.value(
            "datacell_budget_breaches_total", ("cpu-cap",)
        ) == 2

    def test_breach_lands_in_sys_events(self):
        cell, clock = build_monitored()
        query = cell.submit_continuous(CQ)
        cell.set_budget("cpu-cap", query=query.name, cpu_delta=0.0)
        cell.insert("sensors", [(1, 45.0)])
        tick(cell, clock)
        events = cell.query(
            "select kind, component from sys.events "
            "where kind = 'budget_breach'"
        )
        assert ("budget_breach", "cpu-cap") in events

    def test_alert_rule_fires_on_breach_event(self):
        cell, clock = build_monitored()
        query = cell.submit_continuous(CQ)
        cell.set_budget("cpu-cap", query=query.name, cpu_delta=0.0)
        rule = cell.add_alert(
            "quota",
            "select e.component from "
            "[select * from sys.events where kind = 'budget_breach'] as e",
        )
        cell.insert("sensors", [(1, 45.0)])
        tick(cell, clock, 2)
        assert rule.firings == 1
        assert rule.last_rows[0][0] == "cpu-cap"

    def test_tenant_scope_aggregates_queries(self):
        cell, clock = build_monitored()
        cell.submit_continuous(CQ, tenant="team-a")
        cell.submit_continuous(
            "select s.sensor from "
            "[select * from sensors where sensors.temp > 0.0] as s",
            tenant="team-a",
        )
        budget = cell.set_budget(
            "team-cpu", tenant="team-a", cpu_delta=0.0
        )
        cell.insert("sensors", [(i, 45.0) for i in range(100)])
        tick(cell, clock)
        assert budget.breaches == 1
        assert budget.last_breach["scope"] == "tenant:team-a"

    def test_within_budget_never_fires(self):
        cell, clock = build_monitored()
        query = cell.submit_continuous(CQ)
        budget = cell.set_budget(
            "roomy", query=query.name, cpu_delta=1e9
        )
        cell.insert("sensors", [(1, 45.0)])
        tick(cell, clock, 3)
        assert budget.breaches == 0


class TestFlightRecorderSnapshot:
    def test_snapshot_carries_resource_accounts(self):
        cell = build_cell()
        query = cell.submit_continuous(CQ)
        cell.insert("sensors", [(1, 45.0)])
        cell.run_until_quiescent()
        from repro.obs.flightrec import FlightRecorder

        recorder = FlightRecorder(cell, window=3)
        doc = recorder.snapshot()
        assert query.name in doc["resources"]["queries"]
        assert doc["resources"]["engine"]["accounts"] == 1
