"""The scheduler's ready set (paper §2.4: enabling is local to a
transition's input places); its Petri-net properties are in
``test_core_petrinet.py``.

* the missed-wakeup oracle: after every candidate-driven quiescence a
  full sweep of *every* transition finds none enabled, over the
  verifier corpus, 200 simulated episodes and the Linear Road net; and
  threaded driving delivers what synchronous driving does;
* one declaration of a transition's inputs: the topology and the flight
  recorder read ``input_places()``, with unchanged output.
"""

import random
import time

import pytest

from repro import DataCell, LogicalClock
from repro.adapters.channels import InMemoryChannel
from repro.analysis.corpus import GOOD_QUERIES, _make_cell
from repro.core.scheduler import Scheduler
from repro.core.topology import build_topology
from repro.kernel.types import AtomType
from repro.linearroad.harness import LinearRoadHarness
from repro.obs.flightrec import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.simtest import SimScheduler
from repro.simtest.server_episode import attach_server_ingress


def quiet():
    return MetricsRegistry(enabled=False)


# ----------------------------------------------------------------------
# the missed-wakeup oracle
# ----------------------------------------------------------------------
def assert_nothing_enabled(scheduler):
    enabled = [t.name for t in scheduler.transitions() if t.enabled()]
    assert enabled == [], f"quiescent, yet a full sweep finds {enabled}"


@pytest.fixture
def sweeps(monkeypatch):
    """Check a full sweep after every candidate-driven quiescence (a
    synchronous run, a simulated episode); yields the check count."""
    count = []
    run_until_quiescent = Scheduler.run_until_quiescent
    run_episode = SimScheduler.run_episode

    def checked_run(self, *args, **kwargs):
        out = run_until_quiescent(self, *args, **kwargs)
        assert_nothing_enabled(self)
        count.append(1)
        return out

    def checked_episode(self, *args, **kwargs):
        out = run_episode(self, *args, **kwargs)
        assert_nothing_enabled(self)
        count.append(1)
        return out

    monkeypatch.setattr(Scheduler, "run_until_quiescent", checked_run)
    monkeypatch.setattr(SimScheduler, "run_episode", checked_episode)
    return count


def test_corpus_queries_quiesce_with_nothing_enabled(sweeps):
    rng = random.Random(7)
    syms = ["A", "B", "C"]
    for _, sql in GOOD_QUERIES:
        cell = _make_cell()
        cell.submit_continuous(sql)
        for _ in range(4):
            cell.insert("refs", [(s, f"sector{s}") for s in syms])
            cell.insert("trades", [
                (rng.uniform(0, 200), rng.randint(0, 50), rng.choice(syms))
                for _ in range(rng.randint(1, 9))
            ])
            cell.run_until_quiescent()
    assert len(sweeps) == 4 * len(GOOD_QUERIES)


def test_simtest_episodes_quiesce_with_nothing_enabled(sweeps, capsys):
    from repro.simtest.run import main

    assert main(["--episodes", "200", "--seed", "0"]) == 0
    assert len(sweeps) >= 200


def test_linear_road_quiesces_with_nothing_enabled(sweeps):
    LinearRoadHarness().run()
    assert len(sweeps) > 1  # one quiescence per tick


FIG1_SQL = (
    "select t.k, t.v from [select * from s where s.v >= 100 and s.v < 200]"
    " as t"
)


def _fig1_batches(n_batches=60, rows=8, seed=3):
    rng = random.Random(seed)
    return [
        [(rng.randint(0, 9), rng.randint(0, 300)) for _ in range(rows)]
        for _ in range(n_batches)
    ]


def _fig1_cell():
    cell = DataCell(clock=LogicalClock(), metrics=quiet())
    cell.execute("create basket s (k int, v int)")
    return cell, cell.submit_continuous(FIG1_SQL)


def _await(condition, seconds=10.0):
    deadline = time.monotonic() + seconds
    while not condition():
        if time.monotonic() > deadline:
            pytest.fail("threaded run did not deliver in time")
        time.sleep(0.002)


def test_threaded_fig1_delivers_what_synchronous_does():
    batches = _fig1_batches()
    cell, q = _fig1_cell()
    for batch in batches:
        cell.insert("s", batch)
        cell.run_until_quiescent()
    expected = q.fetch()
    assert expected

    cell, q = _fig1_cell()
    cell.start()
    try:
        for batch in batches:
            cell.insert("s", batch)
        _await(lambda: q.results_delivered >= len(expected))
    finally:
        assert cell.stop() == []
    assert q.fetch() == expected


def test_threaded_server_delivers_what_synchronous_does():
    from repro.server.client import DataCellClient

    columns = [("k", AtomType.INT), ("v", AtomType.INT)]
    batches = _fig1_batches(n_batches=30)
    cell, q = _fig1_cell()
    channel = InMemoryChannel("wire")
    attach_server_ingress(cell, channel, "s", columns, batch_size=8)
    for batch in batches:
        channel.push_many(batch)
        cell.run_until_quiescent()
    expected = q.fetch()
    assert expected

    cell = DataCell(clock=LogicalClock(), metrics=quiet())
    cell.execute("create basket s (k int, v int)")
    cell.start()
    server = cell.serve()
    received = []
    try:
        with DataCellClient(*server.address) as db:
            name = db.subscribe(FIG1_SQL, name="fig1")
            for batch in batches:
                db.insert("s", columns, batch)
            deadline = time.monotonic() + 10.0
            while len(received) < len(expected):
                assert time.monotonic() < deadline, "rows never arrived"
                received.extend(
                    db.poll(name, timeout=deadline - time.monotonic())
                )
    finally:
        assert cell.stop() == []
    assert received == expected


# ----------------------------------------------------------------------
# one declaration of a transition's inputs
# ----------------------------------------------------------------------
FIG1_DOT = r"""digraph datacell {
  rankdir=LR;
  "channel:rx_channel" [shape=ellipse];
  "s" [shape=ellipse];
  "filter_out" [shape=ellipse];
  "clients:filter_emitter" [shape=ellipse];
  "rx" [shape=box, label="rx\n(receptor)"];
  "filter" [shape=box, label="filter\n(factory)"];
  "filter_emitter" [shape=box, label="filter_emitter\n(emitter)"];
  "channel:rx_channel" -> "rx";
  "rx" -> "s";
  "s" -> "filter";
  "filter" -> "filter_out";
  "filter_out" -> "filter_emitter";
  "filter_emitter" -> "clients:filter_emitter";
}"""

LR_DOT = r"""digraph datacell {
  rankdir=LR;
  "lr_position" [shape=ellipse];
  "lr_stats" [shape=ellipse];
  "lr_accidents" [shape=ellipse];
  "lr_tolls" [shape=ellipse];
  "lr_alerts" [shape=ellipse];
  "lr_balance_req" [shape=ellipse];
  "lr_balance_out" [shape=ellipse];
  "clients:lr_toll_e" [shape=ellipse];
  "clients:lr_alert_e" [shape=ellipse];
  "clients:lr_balance_e" [shape=ellipse];
  "lr_stats_f" [shape=box, label="lr_stats_f\n(factory)"];
  "lr_accidents_f" [shape=box, label="lr_accidents_f\n(factory)"];
  "lr_tolls_f" [shape=box, label="lr_tolls_f\n(factory)"];
  "lr_balance_f" [shape=box, label="lr_balance_f\n(factory)"];
  "lr_toll_e" [shape=box, label="lr_toll_e\n(emitter)"];
  "lr_alert_e" [shape=box, label="lr_alert_e\n(emitter)"];
  "lr_balance_e" [shape=box, label="lr_balance_e\n(emitter)"];
  "lr_position" -> "lr_stats_f";
  "lr_stats_f" -> "lr_stats";
  "lr_position" -> "lr_accidents_f";
  "lr_accidents_f" -> "lr_accidents";
  "lr_position" -> "lr_tolls_f";
  "lr_stats" -> "lr_tolls_f";
  "lr_accidents" -> "lr_tolls_f";
  "lr_tolls_f" -> "lr_tolls";
  "lr_tolls_f" -> "lr_alerts";
  "lr_balance_req" -> "lr_balance_f";
  "lr_balance_f" -> "lr_balance_out";
  "lr_tolls" -> "lr_toll_e";
  "lr_toll_e" -> "clients:lr_toll_e";
  "lr_alerts" -> "lr_alert_e";
  "lr_alert_e" -> "clients:lr_alert_e";
  "lr_balance_out" -> "lr_balance_e";
  "lr_balance_e" -> "clients:lr_balance_e";
}"""


def _fig1_receptor_cell():
    cell = DataCell(clock=LogicalClock())
    cell.execute("create basket s (v int)")
    cell.add_receptor("rx", ["s"])
    cell.submit_continuous(
        "select * from [select * from s] as x where x.v > 0", name="filter"
    )
    return cell


def _readers(cell):
    recorder = FlightRecorder(cell)
    return {
        basket.name: recorder._transitions_reading([basket.name])
        for basket in cell.catalog.baskets()
    }


def test_fig1_topology_and_readers_unchanged():
    cell = _fig1_receptor_cell()
    assert build_topology(cell.scheduler).to_dot() == FIG1_DOT
    assert _readers(cell) == {"s": ["filter"], "filter_out": ["filter_emitter"]}


def test_linear_road_topology_and_readers_unchanged():
    cell = LinearRoadHarness().cell
    assert build_topology(cell.scheduler).to_dot() == LR_DOT
    assert _readers(cell) == {
        "lr_position": ["lr_stats_f", "lr_accidents_f", "lr_tolls_f"],
        "lr_stats": ["lr_tolls_f"],
        "lr_accidents": ["lr_tolls_f"],
        "lr_tolls": ["lr_toll_e"],
        "lr_alerts": ["lr_alert_e"],
        "lr_balance_req": ["lr_balance_f"],
        "lr_balance_out": ["lr_balance_e"],
    }
