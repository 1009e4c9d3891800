"""The DataCell scheduler (paper §2.4).

The scheduler runs an infinite loop; every iteration it checks which
transitions (receptors, factories, emitters) can be processed by analyzing
their inputs, and fires the enabled ones.  Firing order respects
per-transition priorities — the hook for query priorities and low-latency
requirements.  The system may require a basket to hold at least *n* tuples
before the relevant factory runs (``Basket.min_count`` / binding
``min_tuples``); that check lives in each transition's ``enabled()``.

Two driving modes:

* **synchronous** — :meth:`Scheduler.step` / :meth:`run_until_quiescent`;
  deterministic, used by tests and benchmarks;
* **threaded** — :meth:`Scheduler.start`; every single component is an
  independent thread and data streams through the threads connected by
  baskets, exactly the paper's multi-threaded architecture.

Observability: every firing bumps a per-transition firing tally and
observes an activation wall-time histogram, every failed enablement check
bumps an idle-poll tally, and each firing is appended to a bounded
:class:`~repro.obs.tracing.TraceLog` for post-mortems.  A transition's
tallies are written only by the thread driving it; the metrics registry
reads them when it exposes the series, and ``total_firings`` sums them.
"""

from __future__ import annotations

import threading
import time
import traceback
from typing import (
    Any,
    Dict,
    List,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

from ..errors import SchedulerError
from ..obs.metrics import MetricsRegistry, Tally, default_registry
from ..obs.tracing import TraceLog
from .factory import ActivationResult

__all__ = [
    "SchedulableTransition",
    "FiringPolicy",
    "PriorityPolicy",
    "Scheduler",
]


@runtime_checkable
class SchedulableTransition(Protocol):
    """Anything the scheduler can drive: receptors, factories, emitters."""

    name: str
    priority: int

    def enabled(self) -> bool: ...

    def activate(self) -> ActivationResult: ...


class FiringPolicy:
    """Decides firing order among transitions — the seam shared by the
    synchronous scheduler and the simulated scheduler (``repro.simtest``).

    Callers always pass transitions in **registration order**; a policy
    must be a pure function of that sequence plus its own (explicitly
    seeded) state, so a run is reproducible from ``(seed, policy)``.

    ``sweep_order`` shapes one full :meth:`Scheduler.step` sweep;
    ``choose`` picks a single transition to fire next (the simulator's
    one-firing-at-a-time driving).  The default ``choose`` takes the head
    of ``sweep_order``, so a policy only needs to define the sweep.
    """

    def sweep_order(
        self, transitions: List[SchedulableTransition]
    ) -> List[SchedulableTransition]:
        raise NotImplementedError  # pragma: no cover - interface

    def choose(
        self, enabled: List[SchedulableTransition]
    ) -> SchedulableTransition:
        return self.sweep_order(list(enabled))[0]

    def describe(self) -> str:
        return type(self).__name__


class PriorityPolicy(FiringPolicy):
    """The engine's default order: priority descending, then registration
    order ascending.

    The tie-break among equal priorities is part of the scheduler
    contract (documented here and asserted by
    ``tests/test_scheduler_fairness.py``): the sort is guaranteed stable
    over the registration-ordered input, so synchronous stepping, the
    Petri-net engine, and the simulator all agree on the firing sequence
    and ``run_until_quiescent`` treats equally-prioritized transitions
    fairly — every sweep visits all of them, in one fixed, documented
    order.

    The order is memoised: a sweep over the same transitions (by
    identity, in registration order) with the same priorities as the
    previous sweep reuses its order instead of sorting again.
    """

    def __init__(self) -> None:
        # (key, order): the memoised order holds every keyed transition,
        # so no id in the key can be reused while the memo lives
        self._memo: Tuple[List[Tuple[int, int]], List[SchedulableTransition]]
        self._memo = ([], [])

    def sweep_order(
        self, transitions: List[SchedulableTransition]
    ) -> List[SchedulableTransition]:
        key = [(id(t), t.priority) for t in transitions]
        memo_key, order = self._memo
        if key != memo_key:
            # enumerate() makes the registration-order tie-break explicit
            # rather than an accident of sort stability
            indexed = list(enumerate(transitions))
            indexed.sort(key=lambda pair: (-pair[1].priority, pair[0]))
            order = [t for _, t in indexed]
            self._memo = (key, order)
        return list(order)


class Scheduler:
    """Organizes the execution of the DataCell's transitions."""

    def __init__(
        self,
        poll_interval: float = 0.001,
        metrics: Optional[MetricsRegistry] = None,
        trace: Optional[TraceLog] = None,
        policy: Optional[FiringPolicy] = None,
    ):
        self.policy = policy if policy is not None else PriorityPolicy()
        self._transitions: Dict[str, SchedulableTransition] = {}
        self._lock = threading.RLock()
        self._threads: List[threading.Thread] = []
        self._running = threading.Event()
        self.poll_interval = poll_interval
        self.metrics = metrics if metrics is not None else default_registry()
        self.trace = trace if trace is not None else TraceLog()
        # resource-accounting hook (ResourceAccountant); when set, _fire
        # brackets each bound transition's activation with thread-CPU
        # measurement and publishes the firing's account thread-locally
        self.accountant = None
        self._iterations = Tally()  # synchronous mode only; step() is serial
        self._m_firings = self.metrics.counter(
            "datacell_transition_firings_total",
            "Transition activations, per transition",
            ("transition",),
        )
        self._m_idle = self.metrics.counter(
            "datacell_transition_idle_polls_total",
            "Enablement checks that found the transition not ready",
            ("transition",),
        )
        self._m_activation = self.metrics.histogram(
            "datacell_transition_activation_seconds",
            "Wall time of one transition activation",
            ("transition",),
        )
        # exposed from the first step() on: simulated and threaded
        # driving never step
        self._m_iterations = self.metrics.counter(
            "datacell_scheduler_iterations_total",
            "Synchronous scheduler iterations",
        )
        # per transition name: (firings tally, idle-poll tally, activation
        # histogram), opened once per registration and kept after
        # unregister, so a thread still finishing a firing counts it and
        # the tallies keep counting with the registry disabled
        self._instruments: Dict[str, Tuple[Tally, Tally, Any]] = {}
        self._all_firings: List[Tally] = []  # every registration's

    @property
    def total_firings(self) -> int:
        """Lifetime transition firings (both driving modes)."""
        return int(sum(t.value for t in self._all_firings))

    @property
    def total_iterations(self) -> int:
        """Synchronous :meth:`step` iterations so far."""
        return self._iterations.value

    def counts(self, name: str) -> Tuple[int, int]:
        """``(firings, idle polls)`` of the transition registered as
        ``name``, read from its tallies."""
        firings, idle, _ = self._instruments[name]
        return int(firings.value), int(idle.value)

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(self, transition: SchedulableTransition) -> None:
        with self._lock:
            if transition.name in self._transitions:
                raise SchedulerError(
                    f"transition {transition.name!r} already registered"
                )
            self._transitions[transition.name] = transition
            firings, idle = Tally(), Tally()
            self._m_firings.read_from(firings, transition.name)
            self._m_idle.read_from(idle, transition.name)
            self._all_firings.append(firings)
            self._instruments[transition.name] = (
                firings, idle, self._m_activation.labels(transition.name),
            )
            self.trace.record("register", transition.name)
            if self._running.is_set():
                self._spawn(transition)

    def unregister(self, name: str) -> None:
        with self._lock:
            if self._transitions.pop(name, None) is not None:
                self.trace.record("unregister", name)

    def transitions(self) -> List[SchedulableTransition]:
        with self._lock:
            return list(self._transitions.values())

    def get(self, name: str) -> SchedulableTransition:
        with self._lock:
            try:
                return self._transitions[name]
            except KeyError:
                raise SchedulerError(f"unknown transition {name!r}") from None

    # ------------------------------------------------------------------
    # firing (shared by both driving modes)
    # ------------------------------------------------------------------
    def _fire(self, transition: SchedulableTransition) -> ActivationResult:
        firings, _, activation_hist = self._instruments[transition.name]
        token = (
            self.accountant.begin_firing(transition.name)
            if self.accountant is not None
            else None
        )
        started = time.perf_counter()
        try:
            result = transition.activate()
        except BaseException as exc:
            # the exception still propagates; the event is what the
            # flight recorder and sys.events see of it
            self.trace.record(
                "error",
                transition.name,
                type=type(exc).__name__,
                message=str(exc),
                traceback=traceback.format_exception(
                    type(exc), exc, exc.__traceback__
                ),
            )
            raise
        finally:
            if token is not None:
                self.accountant.end_firing(token)
        elapsed = time.perf_counter() - started
        firings.value += 1
        activation_hist.observe(elapsed)
        self.trace.record(
            "fire",
            transition.name,
            tuples_in=result.tuples_in,
            tuples_out=result.tuples_out,
            elapsed=elapsed,
        )
        return result

    # ------------------------------------------------------------------
    # synchronous driving
    # ------------------------------------------------------------------
    def step(self) -> int:
        """One scheduler iteration: fire every enabled transition once.

        Transitions are visited in the order the firing policy dictates
        (default :class:`PriorityPolicy`: priority descending, ties broken
        by registration order); enablement is re-checked immediately
        before each firing because earlier firings may have consumed the
        inputs (or produced new ones).
        """
        if self._running.is_set():
            raise SchedulerError("cannot step() while threads are running")
        if not self._iterations.value:
            self._m_iterations.read_from(self._iterations)
        self._iterations.value += 1
        ordered = self.policy.sweep_order(self.transitions())
        fired = 0
        for transition in ordered:
            if transition.enabled():
                self._fire(transition)
                fired += 1
            else:
                self._instruments[transition.name][1].value += 1
        return fired

    def run_until_quiescent(self, max_steps: int = 100_000) -> int:
        """Step until no transition is enabled; returns total firings.

        A continuous query network quiesces when all channels are drained,
        all baskets are below their thresholds, and all results delivered.

        Fairness under equal priorities: each step sweeps *every*
        transition (no transition is skipped because an earlier one
        fired), and the in-sweep tie-break is the policy's documented
        registration order — so equally-prioritized transitions cannot
        starve each other and the simulated and synchronous modes agree
        on the firing sequence (see :class:`PriorityPolicy`).
        """
        total = 0
        for _ in range(max_steps):
            fired = self.step()
            if fired == 0:
                return total
            total += fired
        raise SchedulerError(
            f"network did not quiesce within {max_steps} scheduler steps"
        )

    # ------------------------------------------------------------------
    # threaded driving
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn one thread per transition (the paper's architecture)."""
        with self._lock:
            if self._running.is_set():
                raise SchedulerError("scheduler already running")
            self._running.set()
            for transition in self._transitions.values():
                self._spawn(transition)

    def _spawn(self, transition: SchedulableTransition) -> None:
        thread = threading.Thread(
            target=self._drive,
            args=(transition,),
            name=f"datacell-{transition.name}",
            daemon=True,
        )
        self._threads.append(thread)
        thread.start()

    def _drive(self, transition: SchedulableTransition) -> None:
        idle = self._instruments[transition.name][1]
        while self._running.is_set():
            with self._lock:
                alive = self._transitions.get(transition.name) is transition
            if not alive:
                return
            if transition.enabled():
                self._fire(transition)
            else:
                idle.value += 1
                time.sleep(self.poll_interval)

    def stop(self, timeout: float = 5.0) -> List[str]:
        """Stop all transition threads; join each with a bounded timeout.

        Returns the names of threads still alive after their join window
        (empty on a clean shutdown) so callers — the hermetic-test
        fixture in particular — can turn a wedged transition thread into
        a hard failure instead of an indefinite hang.
        """
        self._running.clear()
        leaked: List[str] = []
        for thread in self._threads:
            thread.join(timeout)
            if thread.is_alive():
                leaked.append(thread.name)
        self._threads = []
        return leaked

    @property
    def running(self) -> bool:
        return self._running.is_set()
