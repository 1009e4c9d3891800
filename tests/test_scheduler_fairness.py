"""The firing-order contract: priority desc, then registration order.

``run_until_quiescent``'s fairness under equal priorities used to be an
accident of python's sort stability; it is now an explicit, documented
tie-break in :class:`~repro.core.scheduler.PriorityPolicy` — shared by
the synchronous scheduler, the Petri-net engine and the simulator, so
all three agree on the firing sequence.  These tests pin the contract.
"""

from dataclasses import dataclass, field
from typing import List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.factory import ActivationResult
from repro.core.scheduler import FiringPolicy, PriorityPolicy, Scheduler
from repro.obs.metrics import MetricsRegistry
from repro.simtest import SimScheduler


@dataclass
class Stub:
    """A transition that records its firings and disables itself."""

    name: str
    priority: int
    log: List[str]
    shots: int = 1
    fired: int = field(default=0)

    def enabled(self):
        return self.fired < self.shots

    def activate(self):
        self.fired += 1
        self.log.append(self.name)
        return ActivationResult(fired=True, tuples_in=1, tuples_out=1)


def quiet():
    return MetricsRegistry(enabled=False)


class TestPriorityPolicyContract:
    def test_priority_descending(self):
        log: List[str] = []
        sched = Scheduler(metrics=quiet())
        sched.register(Stub("low", -5, log))
        sched.register(Stub("high", 5, log))
        sched.register(Stub("mid", 0, log))
        sched.run_until_quiescent()
        assert log == ["high", "mid", "low"]

    def test_equal_priorities_fire_in_registration_order(self):
        log: List[str] = []
        sched = Scheduler(metrics=quiet())
        for name in ("first", "second", "third"):
            sched.register(Stub(name, 7, log))
        sched.run_until_quiescent()
        assert log == ["first", "second", "third"]

    def test_every_sweep_visits_all_equal_transitions(self):
        # fairness: nobody starves — each step fires every enabled
        # transition once, in the same documented order
        log: List[str] = []
        sched = Scheduler(metrics=quiet())
        sched.register(Stub("a", 1, log, shots=2))
        sched.register(Stub("b", 1, log, shots=2))
        sched.run_until_quiescent()
        assert log == ["a", "b", "a", "b"]

    def test_sweep_order_is_pure_and_explicit(self):
        log: List[str] = []
        transitions = [Stub("x", 1, log), Stub("y", 2, log), Stub("z", 1, log)]
        ordered = PriorityPolicy().sweep_order(transitions)
        assert [t.name for t in ordered] == ["y", "x", "z"]
        # input order untouched (policies must not mutate their argument)
        assert [t.name for t in transitions] == ["x", "y", "z"]


class TestSimulatorAgreesWithSynchronous:
    def build(self, scheduler):
        log: List[str] = []
        scheduler.register(Stub("r", 10, log))
        scheduler.register(Stub("f1", 0, log))
        scheduler.register(Stub("f2", 0, log))
        scheduler.register(Stub("e", -10, log))
        return log

    def test_same_firing_sequence_under_default_policy(self):
        # single-shot transitions isolate the tie-break itself: within
        # one sweep the two driving modes must produce the identical
        # sequence.  (With re-enabling transitions the modes legitimately
        # differ in shape — sweep-per-step vs one-firing-at-a-time — but
        # both orders still derive from the same documented policy.)
        sync_log = self.build(sync := Scheduler(metrics=quiet()))
        sync.run_until_quiescent()
        sim = SimScheduler(seed=0, policy="priority", metrics=quiet())
        sim_log = self.build(sim)
        sim.run_episode([])
        assert sim_log == sync_log
        assert [n for n, _, _ in sim.result.firings] == sync_log

    def test_custom_policy_honoured_by_synchronous_step(self):
        # the FiringPolicy seam: the synchronous scheduler takes any
        # policy, not just the default — here, reverse registration order
        class Reverse(FiringPolicy):
            def sweep_order(self, transitions):
                return list(reversed(transitions))

        sched = Scheduler(metrics=quiet(), policy=Reverse())
        log: List[str] = []
        for name in ("one", "two", "three"):
            sched.register(Stub(name, 0, log))
        sched.step()
        assert log == ["three", "two", "one"]


def fresh_sort(transitions):
    """The documented order, computed from scratch (no memo)."""
    indexed = sorted(
        enumerate(transitions), key=lambda pair: (-pair[1].priority, pair[0])
    )
    return [t for _, t in indexed]


def same_objects(left, right):
    return len(left) == len(right) and all(
        a is b for a, b in zip(left, right)
    )


class TestMemoisedOrder:
    """PriorityPolicy memoises its sweep order; the memo must always equal
    a fresh sort of the scheduler's current transitions."""

    def assert_memo_fresh(self, sched):
        transitions = sched.transitions()
        assert same_objects(
            sched.policy.sweep_order(transitions), fresh_sort(transitions)
        )

    def test_register_unregister_and_priority_change(self):
        log: List[str] = []
        sched = Scheduler(metrics=quiet())
        stubs = [Stub("a", 0, log), Stub("b", 3, log), Stub("c", 0, log)]
        for stub in stubs:
            sched.register(stub)
            self.assert_memo_fresh(sched)
        self.assert_memo_fresh(sched)  # a memo hit
        sched.unregister("b")
        self.assert_memo_fresh(sched)
        stubs[2].priority = 9  # a priority change on a registered transition
        self.assert_memo_fresh(sched)
        assert [t.name for t in sched.policy.sweep_order(sched.transitions())] \
            == ["c", "a"]
        stubs[2].priority = 0
        self.assert_memo_fresh(sched)
        sched.register(Stub("b", 3, log))  # value-equal to the old "b"
        self.assert_memo_fresh(sched)

    def test_memo_keys_on_identity_not_equality(self):
        # Stub is a dataclass: two distinct stubs with equal fields compare
        # equal, yet the sweep must hand back the objects it was given
        log: List[str] = []
        policy = PriorityPolicy()
        first = [Stub("x", 1, log), Stub("y", 2, log)]
        second = [Stub("x", 1, log), Stub("y", 2, log)]
        assert first == second
        assert same_objects(policy.sweep_order(first), fresh_sort(first))
        assert same_objects(policy.sweep_order(second), fresh_sort(second))

    def test_returned_order_is_a_copy(self):
        log: List[str] = []
        policy = PriorityPolicy()
        transitions = [Stub("x", 1, log), Stub("y", 2, log)]
        policy.sweep_order(transitions).clear()
        assert same_objects(
            policy.sweep_order(transitions), fresh_sort(transitions)
        )

    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.tuples(st.sampled_from(("register", "unregister", "priority")),
                  st.integers(0, 4), st.integers(-3, 3)),
        max_size=40,
    ))
    def test_random_churn_matches_fresh_sort(self, ops):
        log: List[str] = []
        sched = Scheduler(metrics=quiet())
        registered = {}
        for op, slot, priority in ops:
            name = f"t{slot}"
            if op == "register" and name not in registered:
                registered[name] = Stub(name, priority, log)
                sched.register(registered[name])
            elif op == "unregister" and name in registered:
                sched.unregister(name)
                del registered[name]
            elif op == "priority" and name in registered:
                registered[name].priority = priority
            self.assert_memo_fresh(sched)


def test_simtest_episodes_clean_under_lock_order_recorder(capsys):
    # the CI static-analysis gate, in tier-1: 30 seeded episodes (every
    # firing policy, faults, the server wire seam) with the acquisition
    # recorder installed; main() returns the number of failed episodes,
    # lock-order violations included
    from repro.simtest.run import main

    assert main(["--episodes", "30", "--lock-order", "--seed", "0"]) == 0
    assert "0 violation(s)" in capsys.readouterr().out
