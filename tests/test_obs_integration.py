"""End-to-end observability: stats(), dashboard, latency."""

import time

from repro import DataCell, MetricsRegistry
from repro.core.basket import Basket
from repro.kernel.types import AtomType

CQ = (
    "select s.sensor, s.temp from "
    "[select * from sensors where sensors.temp > 30.0] as s"
)


def build_cell():
    cell = DataCell()
    cell.execute("create basket sensors (sensor int, temp double)")
    query = cell.submit_continuous(CQ)
    return cell, query


class TestStatsShape:
    def test_top_level_sections(self):
        cell, _ = build_cell()
        stats = cell.stats()
        assert set(stats) == {
            "scheduler", "baskets", "queries", "mal", "spans", "resources",
        }
        assert set(stats["spans"]) == {
            "batches_seen", "sampled_batches", "finished",
        }

    def test_scheduler_section(self):
        cell, _ = build_cell()
        cell.insert("sensors", [(1, 45.0)])
        cell.run_until_quiescent()
        sched = cell.stats()["scheduler"]
        assert sched["firings"] >= 2  # factory + emitter
        assert sched["iterations"] >= 1
        q1 = sched["transitions"]["q1"]
        assert q1["firings"] == 1
        assert q1["activation_seconds"]["count"] == 1
        assert q1["activation_seconds"]["sum"] > 0

    def test_activation_seconds_are_the_fire_events(self):
        # the scheduler times a firing once: its seconds tally and the
        # firing's trace event carry the same wall time, lit or dark
        for metrics in (None, MetricsRegistry(enabled=False)):
            cell = DataCell(metrics=metrics)
            cell.execute("create basket sensors (sensor int, temp double)")
            cell.submit_continuous(CQ)
            for temp in (45.0, 50.0, 55.0):
                cell.insert("sensors", [(1, temp)])
                cell.run_until_quiescent()
            transitions = cell.stats()["scheduler"]["transitions"]
            for name in ("q1", "q1_emitter"):
                fired = [e.detail["elapsed"]
                         for e in cell.trace.events(kind="fire")
                         if e.component == name]
                timed = transitions[name]["activation_seconds"]
                assert timed == {"count": 3, "sum": sum(fired)}
                assert timed["sum"] > 0

    def test_idle_polls_counted(self):
        cell, _ = build_cell()
        cell.step()  # nothing enabled: every transition idles
        transitions = cell.stats()["scheduler"]["transitions"]
        assert all(t["idle_polls"] >= 1 for t in transitions.values())

    def test_basket_section(self):
        cell, _ = build_cell()
        cell.insert("sensors", [(1, 45.0), (2, 20.0)])
        cell.run_until_quiescent()
        baskets = cell.stats()["baskets"]
        assert baskets["sensors"]["inserted"] == 2
        # the compiled plan consumes qualifying tuples only: one matched,
        # the other stays buffered
        assert baskets["sensors"]["consumed"] == 1
        assert baskets["sensors"]["high_water"] == 2
        assert baskets["sensors"]["depth"] == 1
        assert baskets["q1_out"]["inserted"] == 1  # only temp > 30 passed

    def test_mal_section(self):
        cell, _ = build_cell()
        cell.insert("sensors", [(1, 45.0)])
        cell.run_until_quiescent()
        mal = cell.stats()["mal"]
        assert "algebra.thetaselect" in mal
        assert mal["algebra.thetaselect"]["calls"] >= 1
        assert mal["algebra.thetaselect"]["seconds"] > 0

    def test_disabled_metrics_stats_still_works(self):
        cell = DataCell(metrics=MetricsRegistry(enabled=False))
        cell.execute("create basket sensors (sensor int, temp double)")
        query = cell.submit_continuous(CQ)
        cell.insert("sensors", [(1, 45.0)])
        cell.run_until_quiescent()
        stats = cell.stats()
        # registry is a black hole but plain attributes keep counting
        assert stats["scheduler"]["firings"] >= 2
        # per-transition counts come from the scheduler's own tallies
        transitions = stats["scheduler"]["transitions"]
        assert transitions["q1"]["firings"] == 1
        assert sum(t["firings"] for t in transitions.values()) \
            == stats["scheduler"]["firings"]
        assert stats["baskets"]["sensors"]["inserted"] == 1
        assert stats["queries"]["q1"]["delivered"] == 1
        assert stats["mal"] == {}
        assert query.fetch() == [(1, 45.0)]


class TestEndToEndLatency:
    def test_latency_nonzero_sync(self):
        cell, query = build_cell()
        cell.insert("sensors", [(1, 45.0), (2, 99.0)])
        cell.run_until_quiescent()
        latency = cell.stats()["queries"]["q1"]["latency"]
        assert latency["count"] == 2
        assert latency["min"] > 0
        assert latency["p50"] > 0
        assert query.results_delivered == 2

    def test_latency_nonzero_threaded(self):
        cell, query = build_cell()
        cell.start()
        try:
            cell.insert("sensors", [(1, 45.0)])
            deadline = time.monotonic() + 5.0
            while (
                query.results_delivered < 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.005)
        finally:
            cell.stop()
        assert query.results_delivered == 1
        latency = cell.stats()["queries"]["q1"]["latency"]
        assert latency["count"] == 1
        assert latency["min"] > 0

    def test_latency_survives_replication(self):
        # separate-baskets strategy: stream -> replicator -> private ->
        # factory -> out -> emitter; the origin stamp must survive the
        # replication hop or latency collapses to the last-hop time only.
        from repro.core.emitter import CollectingClient, Emitter
        from repro.core.scheduler import Scheduler
        from repro.core.strategies import RangeQuery, build_separate_pipeline

        metrics = MetricsRegistry()
        stream = Basket("s", [("v", AtomType.INT)], metrics=metrics)
        net = build_separate_pipeline(stream, [RangeQuery("q", "v", 0, 100)])
        out = net.output_baskets["q"]
        emitter = Emitter("e", out, metrics=metrics)
        emitter.subscribe(CollectingClient())
        scheduler = Scheduler(metrics=metrics)
        for t in net.all_transitions() + [emitter]:
            scheduler.register(t)
        stream.insert_rows([(5,)])
        time.sleep(0.02)  # tuple ages in the stream basket pre-replication
        scheduler.run_until_quiescent()
        snap = metrics.histogram_snapshot(
            "datacell_query_latency_seconds", (out.name,)
        )
        assert snap["count"] == 1
        assert snap["min"] >= 0.02  # includes time before the replicator


class TestDashboardAndExposition:
    def test_render_dashboard(self):
        cell, _ = build_cell()
        cell.insert("sensors", [(1, 45.0)])
        cell.run_until_quiescent()
        text = cell.render_dashboard()
        assert "Transitions" in text
        assert "Baskets" in text
        assert "insert → emit latency" in text
        assert "MAL opcodes" in text
        assert "q1" in text and "sensors" in text

    def test_render_dashboard_on_fresh_cell(self):
        cell = DataCell()
        text = cell.render_dashboard()  # no queries, no data: still renders
        assert "scheduler:" in text

    def test_prometheus_text(self):
        cell, _ = build_cell()
        cell.insert("sensors", [(1, 45.0)])
        cell.run_until_quiescent()
        text = cell.prometheus_text()
        assert 'datacell_transition_firings_total{transition="q1"} 1' in text
        assert 'datacell_basket_inserted_total{basket="sensors"} 1' in text
        assert 'datacell_query_latency_seconds_bucket' in text
        assert 'le="+Inf"' in text

    def test_cells_have_private_registries(self):
        a, _ = build_cell()
        b, _ = build_cell()
        a.insert("sensors", [(1, 45.0)])
        a.run_until_quiescent()
        assert a.stats()["scheduler"]["firings"] >= 2
        assert b.stats()["scheduler"]["firings"] == 0


class TestSeriesReadFromTallies:
    def test_dropped_query_is_freed_and_keeps_its_series(self):
        import gc
        import weakref

        cell, query = build_cell()
        cell.insert("sensors", [(i, 45.0) for i in range(3)])
        cell.run_until_quiescent()

        def q1_series():
            return [line for line in cell.prometheus_text().splitlines()
                    if '"q1' in line]

        before = q1_series()
        assert 'datacell_factory_tuples_in_total{factory="q1"} 3' in before
        assert 'datacell_basket_inserted_total{basket="q1_out"} 3' in before
        assert 'datacell_query_rows_in_total{query="q1"} 3' in before
        owners = [
            query.factory, query.emitter, query.output_basket,
            cell.resources.account(query.name),
        ]
        refs = [weakref.ref(owner) for owner in owners]
        cell.remove_continuous(query)
        del query, owners
        gc.collect()
        assert [ref() for ref in refs] == [None] * len(refs)
        assert q1_series() == before

    def test_queries_that_come_and_go_add_no_opcode_tally(self):
        # the opcode profile is bounded by the opcodes, not by the
        # queries a session ever ran
        cell, query = build_cell()
        cell.insert("sensors", [(1, 45.0)])
        cell.run_until_quiescent()
        family = cell.metrics.counter(
            "datacell_mal_opcode_invocations_total", "", ("opcode",))

        def tallies():
            return {k: len(c.tallies) for k, c in family.children().items()}

        before = tallies()
        for i in range(5):
            # its own basket: a query over sensors would race q1
            cell.execute(f"create basket b{i} (sensor int, temp double)")
            other = cell.submit_continuous(
                f"select s.sensor from [select * from b{i} "
                f"where b{i}.temp > 30.0] as s",
                name=f"again{i}",
            )
            cell.insert(f"b{i}", [(i, 45.0)])
            cell.run_until_quiescent()
            assert other.fetch() == [(i,)]
            cell.remove_continuous(other)
        assert tallies() == before


    def test_threaded_tallies_stay_exact(self):
        # the dispatcher and an inserting thread, switching as often as
        # the interpreter allows: every series read from a tally must
        # still equal what was inserted and delivered, which a lost
        # update to a shared tally would break
        import sys

        cell = DataCell()
        queries = []
        for i in range(4):
            cell.execute(f"create basket s{i} (sensor int, temp double)")
            queries.append(cell.submit_continuous(
                f"select x.sensor from [select * from s{i} "
                f"where s{i}.temp > 30.0] as x", name=f"t{i}"))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            cell.start()
            for batch in range(50):
                for i in range(4):
                    cell.insert(f"s{i}", [(batch, 45.0), (batch, 20.0)])
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline and any(
                q.results_delivered < 50 for q in queries
            ):
                time.sleep(0.01)
        finally:
            leaked = cell.stop()
            sys.setswitchinterval(interval)
        assert leaked == []
        metrics = cell.metrics
        for i, query in enumerate(queries):
            assert query.results_delivered == 50
            assert metrics.value(
                "datacell_basket_inserted_total", (f"s{i}",)) == 100
            assert metrics.value(
                "datacell_basket_consumed_total", (f"s{i}",)) == 50
            assert metrics.value(
                "datacell_factory_tuples_out_total", (f"t{i}",)) == 50
            assert metrics.value(
                "datacell_emitter_delivered_total",
                (query.emitter.name,)) == 50
            assert metrics.value(
                "datacell_query_rows_out_total", (f"t{i}",)) == 50
        firings = metrics.collect()["datacell_transition_firings_total"]
        assert sum(s["value"] for s in firings["samples"].values()) \
            == cell.scheduler.total_firings

    def test_one_time_queries_beside_firings_lose_no_opcode_count(self):
        # continuous programs profile on the dispatcher thread, one-time
        # queries on the caller's thread: every opcode count survives
        import sys
        from collections import Counter

        def build():
            cell = DataCell()
            cell.execute("create table t (x int)")
            cell.execute("insert into t values (1), (2), (3)")
            cell.execute("create basket s (sensor int, temp double)")
            return cell

        one_time = "select x from t where x > 1"
        probe = build()
        probe.query(one_time)
        per_query = {k: v["calls"] for k, v in probe.interpreter.profile().items()}

        cell = build()
        query = cell.submit_continuous(
            "select x.sensor from [select * from s where s.temp > 30.0] as x",
            name="c",
        )
        per_firing = Counter(
            f"{ins.module}.{ins.fn}"
            for ins in query.factory.plan.compiled.program.instructions
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        runs = 60
        try:
            cell.start()
            for batch in range(runs):
                cell.insert("s", [(batch, 45.0), (batch, 20.0)])
                assert cell.query(one_time) == [(2,), (3,)]
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline and query.results_delivered < runs:
                time.sleep(0.01)
        finally:
            leaked = cell.stop()
            sys.setswitchinterval(interval)
        assert leaked == [] and query.results_delivered == runs
        firings = query.factory.activations
        expected = Counter()
        for key, calls in per_firing.items():
            expected[key] += calls * firings
        for key, calls in per_query.items():
            expected[key] += calls * runs
        profile = cell.interpreter.profile()
        assert {k: v["calls"] for k, v in profile.items()} == dict(expected)
        for key, calls in expected.items():
            assert cell.metrics.value(
                "datacell_mal_opcode_invocations_total", (key,)) == calls

    def test_one_time_execution_adds_no_tally(self):
        cell = DataCell()
        cell.execute("create table t (x int)")
        cell.execute("insert into t values (1), (2)")
        cell.query("select x from t where x > 1")
        family = cell.metrics.counter(
            "datacell_mal_opcode_invocations_total", "", ("opcode",))
        before = {k: len(c.tallies) for k, c in family.children().items()}
        for _ in range(5):
            cell.query("select x from t where x > 1")
        after = {k: len(c.tallies) for k, c in family.children().items()}
        assert after == before
        assert cell.interpreter.profile()["algebra.thetaselect"]["calls"] == 6
