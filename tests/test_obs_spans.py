"""Causal spans: a sampled batch's firings are its spans.

A receptor samples one batch in ``SAMPLE_EVERY``; every firing that
works on it records the batch's token in its ``fire`` event, and the
Chrome trace export draws one root per token with the receptor → factory
→ opcode → emitter nesting beneath it.
"""

import json
import threading
import time

import pytest

from repro import (
    DataCell, LogicalClock, MetricsRegistry, WindowMode, WindowSpec,
)
from repro.adapters.channels import format_tuple
from repro.adapters.generators import network_packets
from repro.core import receptor as receptor_mod
from repro.obs.tracing import TraceLog, chrome_trace, traced_firing

CQ = (
    "select s.sensor, s.temp from "
    "[select * from sensors where sensors.temp > 30.0] as s"
)


@pytest.fixture
def sample_every(monkeypatch):
    """Set the receptors' sampling constant for one test."""
    def set_rate(rate):
        monkeypatch.setattr(receptor_mod, "SAMPLE_EVERY", rate)
    return set_rate


def build_cell(metrics=None):
    cell = DataCell(metrics=metrics)
    cell.execute("create basket sensors (sensor int, temp double)")
    query = cell.submit_continuous(CQ, name="hot")
    receptor = cell.add_receptor("rx", ["sensors"])
    return cell, query, receptor


def push_batches(cell, receptor, n, rows_per_batch=3):
    """Drive n receptor activations, each appending one batch."""
    for batch in range(n):
        for row in range(rows_per_batch):
            receptor.channel.push(f"{batch * 10 + row}, {40.0 + row}")
        cell.run_until_quiescent()


def export(cell, tmp_path):
    path = str(tmp_path / "trace.json")
    cell.export_chrome_trace(path)
    with open(path) as handle:
        return json.load(handle)


def traced_records(cell):
    return [e for e in cell.trace.events(kind="fire") if "trace" in e.detail]


def trees(events):
    """Each root's span tree as indented ``name cat`` lines, children in
    start order: names, categories and parentage — no ids, no timings."""
    children = {}
    for event in events:
        children.setdefault(event["args"].get("parent_id"), []).append(event)

    def lines(event, depth):
        out = [f"{'  ' * depth}{event['name']} {event['cat']}"]
        for child in sorted(
            children.get(event["args"]["span_id"], []), key=lambda e: e["ts"]
        ):
            out += lines(child, depth + 1)
        return out

    roots = sorted(children.get(None, []), key=lambda e: e["ts"])
    return ["\n".join(lines(root, 0)) for root in roots]


class TestSampling:
    def test_every_batch_sampled_at_rate_one(self, sample_every):
        sample_every(1)
        cell, _, receptor = build_cell()
        push_batches(cell, receptor, 5)
        assert receptor.batches_seen == 5
        assert receptor.sampled_batches == 5
        spans = cell.stats()["spans"]
        assert spans["batches_seen"] == spans["sampled_batches"] == 5

    def test_deterministic_one_in_n(self, sample_every):
        sample_every(4)
        cell, _, receptor = build_cell()
        push_batches(cell, receptor, 8)
        assert receptor.batches_seen == 8
        assert receptor.sampled_batches == 2  # batches 0 and 4

    def test_unsampled_batches_produce_no_spans(self, sample_every, tmp_path):
        sample_every(100)
        cell, query, receptor = build_cell()
        push_batches(cell, receptor, 3)
        assert receptor.sampled_batches == 1  # batch 0 only
        roots = [
            e for e in export(cell, tmp_path)["traceEvents"]
            if e["cat"] == "batch"
        ]
        assert len(roots) == 1
        # the data still flows: tracing never gates delivery
        assert query.results_delivered == 9

    def test_disabled_recorder_records_nothing(self, sample_every, tmp_path):
        sample_every(1)
        cell, query, receptor = build_cell(MetricsRegistry(enabled=False))
        push_batches(cell, receptor, 2)
        assert receptor.batches_seen == 0
        assert traced_records(cell) == []
        assert export(cell, tmp_path)["traceEvents"] == []
        assert query.results_delivered == 6


class TestCausalNesting:
    """One root per sampled batch, with the full causal chain beneath."""

    def test_root_spans_match_sampled_batches(self, sample_every, tmp_path):
        sample_every(1)
        cell, _, receptor = build_cell()
        push_batches(cell, receptor, 4)
        events = export(cell, tmp_path)["traceEvents"]
        roots = [e for e in events if e["cat"] == "batch"]
        assert len(roots) == receptor.sampled_batches == 4
        assert cell.stats()["spans"]["finished"] == len(traced_records(cell))
        for root in roots:  # every batch reached its emitter
            assert any(
                e["cat"] == "emitter"
                and e["args"]["token"] == root["args"]["token"]
                for e in events
            )

    def test_chrome_trace_nesting(self, sample_every, tmp_path):
        sample_every(1)
        cell, _, receptor = build_cell()
        push_batches(cell, receptor, 2)
        events = export(cell, tmp_path)["traceEvents"]
        assert all(e["ph"] == "X" for e in events)

        by_id = {e["args"]["span_id"]: e for e in events}
        roots = [e for e in events if e["cat"] == "batch"]
        assert len(roots) == 2
        for root in roots:
            token = root["args"]["token"]
            children = [
                e for e in events
                if e["args"].get("token") == token and e is not root
            ]
            kinds = {e["cat"] for e in children}
            assert kinds == {"receptor", "factory", "opcode", "emitter"}
            receptor_s = next(e for e in children if e["cat"] == "receptor")
            factory_s = next(e for e in children if e["cat"] == "factory")
            emitter_s = next(e for e in children if e["cat"] == "emitter")
            opcodes = [e for e in children if e["cat"] == "opcode"]
            # receptor continues the root; the factory continues the
            # receptor's hand-off; opcodes nest inside the factory span;
            # the emitter continues the factory's hand-off
            assert receptor_s["args"]["parent_id"] == root["args"]["span_id"]
            assert (
                factory_s["args"]["parent_id"]
                == receptor_s["args"]["span_id"]
            )
            assert opcodes, "interpreter emitted no per-opcode spans"
            for op in opcodes:
                assert (
                    op["args"]["parent_id"] == factory_s["args"]["span_id"]
                )
            assert (
                emitter_s["args"]["parent_id"]
                == factory_s["args"]["span_id"]
            )
            # every parent is itself a recorded span
            for e in children:
                assert e["args"]["parent_id"] in by_id

    def test_span_timings_nest_within_parents(self, sample_every, tmp_path):
        sample_every(1)
        cell, _, receptor = build_cell()
        push_batches(cell, receptor, 1)
        events = export(cell, tmp_path)["traceEvents"]
        by_id = {e["args"]["span_id"]: e for e in events}
        root = next(e for e in events if e["cat"] == "batch")
        for child in events:
            if child is root:
                continue
            outer = root if child["cat"] != "opcode" else (
                by_id[child["args"]["parent_id"]]
            )
            assert child["ts"] >= outer["ts"]
            assert child["ts"] + child["dur"] <= outer["ts"] + outer["dur"] + 1

    def test_opcode_spans_carry_plan_node(self, sample_every, tmp_path):
        sample_every(1)
        cell, _, receptor = build_cell()
        push_batches(cell, receptor, 1)
        opcodes = [
            e for e in export(cell, tmp_path)["traceEvents"]
            if e["cat"] == "opcode"
        ]
        assert opcodes
        assert any(op["args"].get("node") is not None for op in opcodes)


def hand_recorded(log, token, *stages):
    for name, stage in stages:
        log.record("fire", name, tuples_in=1, tuples_out=1, elapsed=0.001,
                   trace=token, stage=stage)


class TestRecorderUnit:
    """The export's rules, on hand-recorded logs."""

    def test_handoff_chain(self):
        log = TraceLog()
        hand_recorded(log, 7, ("a", "receptor"), ("b", "factory"),
                      ("c", "factory"))
        hand_recorded(log, 8, ("x", "receptor"), ("y", "emitter"),
                      ("z", "factory"))
        events = chrome_trace(log.events())["traceEvents"]
        by_name = {e["name"]: e["args"] for e in events if e["cat"] != "batch"}
        roots = {
            e["args"]["token"]: e["args"]["span_id"]
            for e in events if e["cat"] == "batch"
        }
        assert by_name["a"]["parent_id"] == roots[7]
        assert by_name["b"]["parent_id"] == by_name["a"]["span_id"]
        assert by_name["c"]["parent_id"] == by_name["b"]["span_id"]
        # an emitter does not hand off: the batch left the engine, and
        # what still fires on it hangs off the root
        assert by_name["y"]["parent_id"] == by_name["x"]["span_id"]
        assert by_name["z"]["parent_id"] == roots[8]

    def test_zero_token_stage_is_free(self):
        """An unsampled firing's ``fire`` record has exactly the keys it
        had before spans were fire records."""
        cell, _, receptor = build_cell()
        push_batches(cell, receptor, 2)  # batch 1 is not sampled
        fires = cell.trace.events(kind="fire")
        plain = [e for e in fires if "trace" not in e.detail]
        assert {e.component for e in plain} == {"rx", "hot", "hot_emitter"}
        for event in plain:
            assert set(event.detail) == {"tuples_in", "tuples_out", "elapsed"}

    def test_root_extends_across_emitters(self, sample_every, tmp_path):
        """Several emitters deliver one replicated batch: one root, which
        extends to the last delivery."""
        sample_every(1)
        cell = DataCell()
        for name in ("a", "b"):
            cell.execute(f"create basket {name} (sensor int, temp double)")
            cell.submit_continuous(
                f"select s.sensor from [select * from {name}] as s",
                name=f"q{name}",
            )
        receptor = cell.add_receptor("rx", ["a", "b"])
        receptor.channel.push("1, 45.0")
        cell.run_until_quiescent()
        events = export(cell, tmp_path)["traceEvents"]
        roots = [e for e in events if e["cat"] == "batch"]
        assert len(roots) == 1
        emitters = [e for e in events if e["cat"] == "emitter"]
        assert {e["name"] for e in emitters} == {"qa_emitter", "qb_emitter"}
        root_end = roots[0]["ts"] + roots[0]["dur"]
        assert all(e["ts"] + e["dur"] <= root_end + 1 for e in emitters)

    def test_capacity_bounds_memory(self):
        log = TraceLog(capacity=8)
        for token in range(1, 21):
            hand_recorded(log, token, ("rx", "receptor"))
        events = chrome_trace(log.events())["traceEvents"]
        assert len([e for e in events if e["cat"] == "batch"]) == 8

    def test_current_stage_thread_local_context(self, sample_every):
        """The interpreter collects opcode timings only inside a traced
        factory firing, on the firing's thread."""
        sample_every(2)
        cell, _, receptor = build_cell()
        seen = []
        execute = cell.interpreter.execute

        def spy(program, env=None):
            seen.append(getattr(traced_firing, "opcodes", None))
            return execute(program, env)

        cell.interpreter.execute = spy
        push_batches(cell, receptor, 2)  # batch 0 traced, batch 1 not
        # the list the interpreter filled is the one the fire record got
        traced = [e for e in traced_records(cell) if e.component == "hot"]
        assert len(seen[0]) == len(traced[0].detail["opcodes"]) > 0
        assert seen[1] is None
        assert getattr(traced_firing, "opcodes", None) is None

    def test_export_is_valid_json_with_open_roots(self, tmp_path):
        """A batch that has not reached an emitter still exports."""
        cell = DataCell()
        cell.execute("create basket sensors (sensor int, temp double)")
        receptor = cell.add_receptor("rx", ["sensors"])
        receptor.channel.push("1, 45.0")
        cell.run_until_quiescent()
        trace = export(cell, tmp_path)
        assert trace["displayTimeUnit"] == "ms"
        assert [e["cat"] for e in trace["traceEvents"]] == [
            "batch", "receptor",
        ]


FIG1_TREE = """\
batch batch
  rx receptor
    hot factory
      algebra.thetaselect opcode
      algebra.projection opcode
      algebra.projection opcode
      sql.resultset opcode
      hotter factory
        algebra.thetaselect opcode
        algebra.projection opcode
        algebra.projection opcode
        sql.resultset opcode
        hotter_emitter emitter"""

NETMON_TREE = """\
batch batch
  tap receptor
    intrusion factory
      algebra.thetaselect opcode
      algebra.projection opcode
      algebra.projection opcode
      algebra.projection opcode
      sql.resultset opcode
      volume factory
        blocked factory
          algebra.densecands opcode
          sql.bind opcode
          algebra.densecands opcode
          algebra.projection opcode
          algebra.join opcode
          algebra.projection opcode
          algebra.projection opcode
          sql.resultset opcode
          intrusion_emitter emitter
  volume_emitter emitter
  blocked_emitter emitter
  intrusion factory
    algebra.thetaselect opcode
    algebra.projection opcode
    algebra.projection opcode
    algebra.projection opcode
    sql.resultset opcode
  intrusion_emitter emitter
  intrusion factory
    algebra.thetaselect opcode
    algebra.projection opcode
    algebra.projection opcode
    algebra.projection opcode
    sql.resultset opcode
  intrusion_emitter emitter"""


class TestSpanTreeGoldens:
    """Span trees as the separate span recorder drew them (names,
    categories, parentage and opcode names; no ids or timings)."""

    def test_fig1_factory_chain(self, tmp_path):
        cell = DataCell(clock=LogicalClock())
        cell.execute("create basket sensors (sensor int, temp double)")
        cell.submit_continuous(CQ, name="hot")
        cell.submit_continuous(
            "select h.sensor, h.temp from "
            "[select * from hot_out where hot_out.temp > 35.0] as h",
            name="hotter",
        )
        receptor = cell.add_receptor("rx", ["sensors"])
        push_batches(cell, receptor, 65)  # batches 0 and 64 are sampled
        assert trees(export(cell, tmp_path)["traceEvents"]) == [
            FIG1_TREE, FIG1_TREE,
        ]

    def test_replicating_receptor(self, tmp_path):
        # the separate-baskets network of examples/network_monitoring.py
        schema = "(src varchar(15), dst varchar(15), port int, size int)"
        cell = DataCell(clock=LogicalClock())
        for name in ("pkts_ids", "pkts_vol", "pkts_blk"):
            cell.execute(f"create basket {name} {schema}")
        cell.execute("create table blocklist (host varchar(15))")
        cell.execute(
            "insert into blocklist values ('10.0.0.7'), ('10.0.0.13')"
        )
        cell.submit_continuous(
            "select p.src, p.dst, p.size "
            "from [select * from pkts_ids where pkts_ids.port = 31337] as p",
            name="intrusion",
        )
        cell.submit_window_aggregate(
            "pkts_vol", "size", ["sum", "count_star"],
            WindowSpec(WindowMode.COUNT, 500, 250),
            group_by="dst", name="volume",
        )
        cell.submit_continuous(
            "select p.src, p.port from [select * from pkts_blk] as p "
            "join blocklist b on p.src = b.host",
            name="blocked",
        )
        receptor = cell.add_receptor(
            "tap", ["pkts_ids", "pkts_vol", "pkts_blk"]
        )
        for row in network_packets(3_000, attack_rate=0.01, seed=8):
            receptor.channel.push(format_tuple(row))
        cell.run_until_quiescent()
        assert trees(export(cell, tmp_path)["traceEvents"]) == [NETMON_TREE]


class TestThreaded:
    def test_export_while_firing(self, sample_every, tmp_path):
        sample_every(4)
        cell, query, receptor = build_cell()
        errors, exports = [], []
        done = threading.Event()

        def exporter():
            path = str(tmp_path / "live.json")
            while not done.is_set():
                try:
                    cell.export_chrome_trace(path)
                    with open(path) as handle:
                        exports.append(json.load(handle)["traceEvents"])
                except Exception as exc:  # pragma: no cover - the failure
                    errors.append(exc)

        thread = threading.Thread(target=exporter)
        cell.start()
        thread.start()
        try:
            for batch in range(40):
                receptor.channel.push(f"{batch}, 45.0")
                deadline = time.monotonic() + 10.0
                while query.results_delivered <= batch:
                    assert time.monotonic() < deadline, "delivery stalled"
                    time.sleep(0.001)
        finally:
            done.set()
            thread.join(timeout=10)
            cell.stop()
        assert not thread.is_alive()
        assert errors == []
        assert exports
        for events in exports:  # a live export shows chain prefixes
            for tree in trees(events):
                assert tree.split("\n")[1] == "  rx receptor"
        final = trees(export(cell, tmp_path)["traceEvents"])
        assert len(final) == receptor.sampled_batches == 10
        for tree in final:
            assert tree.split("\n")[:3] == [
                "batch batch", "  rx receptor", "    hot factory",
            ]
            assert "      hot_emitter emitter" in tree.split("\n")
            assert "opcode" in tree


class TestRetention:
    def test_traced_burst_keeps_the_kept_events(self, sample_every):
        """1,000 traced batches are ring-only: since() and sys.events see
        the same events as a run that samples one batch."""
        def run(rate):
            sample_every(rate)
            clock = LogicalClock()
            cell = DataCell(clock=clock, system_streams=True)
            cell.execute("create basket sensors (sensor int, temp double)")
            cell.submit_continuous(CQ, name="hot")
            receptor = cell.add_receptor("rx", ["sensors"], batch_size=1)
            for row in range(1_000):
                receptor.channel.push(f"{row}, 45.0")
            cell.run_until_quiescent()
            clock.advance(1.0)
            cell.run_until_quiescent()  # one sampler tick drains the log
            assert receptor.sampled_batches == (1_000 if rate == 1 else 1)
            kept = [(e.kind, e.component) for e in cell.trace.since(0)[0]]
            rows = cell.query("select kind, component from sys.events")
            return kept, sorted(rows)

        traced_kept, traced_rows = run(1)
        plain_kept, plain_rows = run(10_000)
        assert traced_kept == plain_kept
        assert "fire" not in {kind for kind, _ in traced_kept}
        assert traced_rows == plain_rows
