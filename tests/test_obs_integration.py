"""End-to-end observability: stats(), dashboard, latency, shed controller."""

import time

from repro import DataCell, MetricsRegistry
from repro.core.basket import Basket
from repro.core.shedding import LoadShedController
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
        assert q1["activation_seconds"]["p95"] > 0

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
        cell.run_until_quiescent()  # a sweep forgets removed transitions
        gc.collect()
        assert [ref() for ref in refs] == [None] * len(refs)
        assert q1_series() == before


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


class TestShedControllerReadsRegistry:
    def test_depth_read_from_gauges(self):
        metrics = MetricsRegistry()
        b = Basket("b", [("v", AtomType.INT)], metrics=metrics)
        b.insert_rows([(i,) for i in range(50)])
        controller = LoadShedController([b], budget=10, metrics=metrics)
        assert controller.buffered() == 50
        dropped = controller.tick()
        assert dropped == 40
        assert controller.engaged
        # control signals published back into the registry
        assert metrics.value("datacell_shed_dropped_total", ("shed",)) == 40
        assert metrics.value("datacell_shed_engaged", ("shed",)) == 1
        assert metrics.value("datacell_basket_depth", ("b",)) == 10

    def test_disabled_registry_falls_back_to_live_count(self):
        metrics = MetricsRegistry(enabled=False)
        b = Basket("b", [("v", AtomType.INT)], metrics=metrics)
        b.insert_rows([(i,) for i in range(30)])
        controller = LoadShedController([b], budget=10, metrics=metrics)
        assert controller.buffered() == 30  # gauge absent; uses basket.count
        assert controller.tick() == 20
