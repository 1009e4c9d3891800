"""Petri-net properties of the scheduler (paper §2.4).

Places are baskets, channels and queues; transitions fire when their
input places hold enough.  The scheduler's ready set *is* the enabling
rule's index: a place change marks its readers, and only candidates are
checked.  These tests run a pure token net — integer markings whose
places notify like baskets do — on the real :class:`Scheduler`.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DataCell, LogicalClock
from repro.core.factory import ActivationResult
from repro.core.places import Place
from repro.core.scheduler import Scheduler
from repro.errors import SchedulerError
from repro.obs.metrics import MetricsRegistry


class Tokens(Place):
    """A place with an integer marking; adding tokens wakes readers."""

    def __init__(self, marking=0):
        self.marking = marking

    def add(self, n=1):
        self.marking += n
        self.changed()


class Move:
    """Fires when each input holds ``threshold`` tokens; takes them and
    puts one token on each output (the default firing of a token net)."""

    def __init__(self, name, inputs, outputs=(), threshold=1, priority=0,
                 log=None):
        self.name = name
        self.inputs = list(inputs)
        self.outputs = list(outputs)
        self.threshold = threshold
        self.priority = priority
        self.log = log
        self.checks = 0

    def input_places(self):
        return self.inputs

    def enabled(self):
        self.checks += 1
        return all(p.marking >= self.threshold for p in self.inputs)

    def activate(self):
        for place in self.inputs:
            place.marking -= self.threshold
        for place in self.outputs:
            place.add()
        if self.log is not None:
            self.log.append(self.name)
        return ActivationResult(fired=True, tuples_in=self.threshold)


def quiet():
    return MetricsRegistry(enabled=False)


def simple_chain(initial=3):
    """stream -> R -> B1 -> Q -> B2 -> E -> delivered (Figure 1)."""
    places = {n: Tokens() for n in ("stream", "B1", "B2", "delivered")}
    places["stream"].marking = initial
    sched = Scheduler(metrics=quiet())
    sched.register(Move("R", [places["stream"]], [places["B1"]]))
    sched.register(Move("Q", [places["B1"]], [places["B2"]]))
    sched.register(Move("E", [places["B2"]], [places["delivered"]]))
    return sched, places


def marking(places):
    return {name: place.marking for name, place in places.items()}


class TestTransition:
    def test_enabled_requires_all_inputs(self):
        """Paper: when a transition has multiple inputs, all must have tuples."""
        a, b, out = Tokens(1), Tokens(0), Tokens()
        sched = Scheduler(metrics=quiet())
        sched.register(Move("t", [a, b], [out]))
        assert sched.run_until_quiescent() == 0
        b.add()  # the second input's change wakes the transition
        assert sched.run_until_quiescent() == 1

    def test_threshold_gating(self):
        """Paper: a basket may need a minimum of n tuples before firing."""
        p, out = Tokens(2), Tokens()
        sched = Scheduler(metrics=quiet())
        sched.register(Move("t", [p], [out], threshold=3))
        assert sched.run_until_quiescent() == 0
        p.add()
        assert sched.run_until_quiescent() == 1
        assert (p.marking, out.marking) == (0, 1)

    def test_fire_moves_tokens(self):
        a, out = Tokens(2), Tokens()
        sched = Scheduler(metrics=quiet())
        sched.register(Move("t", [a], [out], threshold=2))
        sched.step()
        assert a.marking == 0 and out.marking == 1

    def test_firing_counter(self):
        p = Tokens(2)
        sched = Scheduler(metrics=quiet())
        sched.register(Move("t", [p]))
        sched.run_until_quiescent()
        assert sched.counts("t")[0] == 2


class TestNet:
    def test_duplicate_transition(self):
        sched, places = simple_chain()
        with pytest.raises(SchedulerError):
            sched.register(Move("R", [places["stream"]]))

    def test_chain_flows_to_completion(self):
        sched, places = simple_chain(initial=3)
        sched.run_until_quiescent()
        assert marking(places) == {
            "stream": 0, "B1": 0, "B2": 0, "delivered": 3,
        }

    def test_step_fires_each_enabled_once(self):
        log = []
        sched, places = simple_chain(initial=2)
        for t in sched.transitions():
            t.log = log
        # R's output marks Q, whose turn is still to come, and so on:
        # one step moves a token down the chain, each transition once
        assert sched.step() == 3
        assert log == ["R", "Q", "E"]
        assert marking(places)["delivered"] == 1

    def test_priority_ordering(self):
        log = []
        src, sink = Tokens(), Tokens()
        sched = Scheduler(metrics=quiet())
        sched.register(Move("low", [src], [sink], priority=0, log=log))
        sched.register(Move("first", [src], [sink], priority=5, log=log))
        sched.register(Move("second", [src], [sink], priority=5, log=log))
        src.add(2)
        sched.step()
        # priority first, registration order among equals; "low" found
        # nothing left
        assert log == ["first", "second"]

    def test_livelock_detection(self):
        a, b = Tokens(1), Tokens()
        sched = Scheduler(metrics=quiet())
        sched.register(Move("ab", [a], [b]))
        sched.register(Move("ba", [b], [a]))
        with pytest.raises(SchedulerError):
            sched.run_until_quiescent(max_steps=100)

    def test_remove_transition(self):
        sched, places = simple_chain()
        sched.unregister("Q")
        sched.run_until_quiescent()
        assert marking(places)["B1"] == 3  # Q gone, tokens stuck in B1
        assert places["B1"]._wakers == ()  # and no longer woken


class TestReadySet:
    def test_disabled_transitions_are_not_rechecked(self):
        sched, places = simple_chain(initial=1)
        sched.run_until_quiescent()
        checks = {t.name: t.checks for t in sched.transitions()}
        idle = {t.name: sched.counts(t.name)[1] for t in sched.transitions()}
        for _ in range(5):
            assert sched.step() == 0
        assert {t.name: t.checks for t in sched.transitions()} == checks
        assert {
            t.name: sched.counts(t.name)[1] for t in sched.transitions()
        } == idle
        places["stream"].add()  # one place changes: R is a candidate
        assert sched.run_until_quiescent() == 3

    def test_placeless_transition_is_checked_every_pass(self):
        checks = []

        class Placeless:
            name, priority = "p", 0

            def enabled(self):
                checks.append(1)
                return False

        sched = Scheduler(metrics=quiet())
        sched.register(Placeless())
        for _ in range(3):
            sched.step()
        assert len(checks) == 3

    def _filter_cell(self):
        cell = DataCell(clock=LogicalClock(), metrics=quiet())
        cell.execute("create basket s (v int)")
        q = cell.submit_continuous("select * from [select * from s] as x")
        cell.insert("s", [(1,), (2,)])
        return cell, q

    def test_lowered_min_count_wakes_the_factory(self):
        cell, q = self._filter_cell()
        cell.basket("s").min_count = 3
        cell.run_until_quiescent()
        assert q.fetch() == []
        cell.basket("s").min_count = 2
        cell.run_until_quiescent()
        assert q.fetch() == [(1,), (2,)]

    def test_lowered_min_tuples_wakes_the_factory(self):
        cell, q = self._filter_cell()
        q.factory.inputs[0].min_tuples = 3
        cell.run_until_quiescent()
        assert q.fetch() == []
        q.factory.inputs[0].min_tuples = 1
        cell.run_until_quiescent()
        assert q.fetch() == [(1,), (2,)]


class TestTokenConservation:
    @settings(deadline=None)
    @given(st.integers(0, 30))
    def test_chain_conserves_tokens(self, n):
        """Total tokens in a 1-in/1-out chain is invariant under firing."""
        sched, places = simple_chain(initial=n)
        sched.run_until_quiescent()
        assert sum(marking(places).values()) == n
        assert marking(places)["delivered"] == n

    @settings(deadline=None)
    @given(st.integers(1, 5), st.integers(0, 20))
    def test_threshold_leaves_remainder(self, threshold, tokens):
        """A threshold-n transition leaves tokens % n in its input place."""
        src, sink = Tokens(tokens), Tokens()
        sched = Scheduler(metrics=quiet())
        sched.register(Move("t", [src], [sink], threshold=threshold))
        sched.run_until_quiescent()
        assert src.marking == tokens % threshold
        assert sink.marking == tokens // threshold
