"""Tests for topology introspection: the Petri net a cell registers."""

from repro import DataCell, LogicalClock
from repro.core.basket import Basket
from repro.core.clock import LogicalClock as LC
from repro.core.topology import build_topology
from repro.kernel.types import AtomType


class TestTopology:
    def build_cell(self):
        cell = DataCell(clock=LogicalClock())
        cell.execute("create basket s (v int)")
        cell.add_receptor("rx", ["s"])
        q = cell.submit_continuous(
            "select * from [select * from s] as x where x.v > 0",
            name="filter",
        )
        return cell, q

    def test_places_and_transitions_recovered(self):
        cell, _ = self.build_cell()
        topo = build_topology(cell.scheduler)
        kinds = dict(topo.transitions)
        assert kinds["rx"] == "receptor"
        assert kinds["filter"] == "factory"
        assert kinds["filter_emitter"] == "emitter"
        assert "s" in topo.places
        assert "filter_out" in topo.places

    def test_arcs_form_figure1_chain(self):
        cell, _ = self.build_cell()
        topo = build_topology(cell.scheduler)
        # channel -> rx -> s -> filter -> filter_out -> emitter -> clients
        downstream = topo.downstream_of("channel:rx_channel")
        assert {"rx", "s", "filter", "filter_out", "filter_emitter"} <= (
            downstream
        )

    def test_predecessors_successors(self):
        cell, _ = self.build_cell()
        topo = build_topology(cell.scheduler)
        assert topo.successors("s") == ["filter"]
        assert "rx" in topo.predecessors("s")

    def test_dot_rendering(self):
        cell, _ = self.build_cell()
        dot = build_topology(cell.scheduler).to_dot()
        assert dot.startswith("digraph datacell {")
        assert '"s" -> "filter";' in dot
        assert "shape=box" in dot and "shape=ellipse" in dot

    def test_replicator_recognized(self):
        from repro.core.scheduler import Scheduler
        from repro.core.strategies import (
            RangeQuery,
            build_separate_pipeline,
        )

        clock = LC()
        stream = Basket("raw", [("v", AtomType.INT)], clock)
        net = build_separate_pipeline(
            stream, [RangeQuery("q1", "v", 0, 5)], clock
        )
        scheduler = Scheduler()
        for t in net.all_transitions():
            scheduler.register(t)
        topo = build_topology(scheduler)
        kinds = dict(topo.transitions)
        assert kinds["raw_replicator"] == "replicator"
        assert "raw" in topo.places
