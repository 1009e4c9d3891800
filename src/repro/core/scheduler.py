"""The DataCell scheduler (paper §2.4).

Transitions (receptors, factories, emitters) fire when enabled, in the
firing policy's order — priorities are the hook for query priorities and
low-latency requirements.  ``enabled()`` is the only firing rule; it
holds the minimum-*n*-tuples threshold (``Basket.min_count`` / binding
``min_tuples``).

Enabling is local to a transition's input places, so the scheduler keeps
a **ready set**: a transition names its places once (``input_places()``:
a factory its bindings' baskets, an emitter its source, a receptor its
channel), and a place change (:class:`~repro.core.places.Place`) makes
its readers candidates.  A pass checks the candidates in the policy's
order, re-checking before each firing; one found disabled waits for a
place change, one that fired stays a candidate unless its activation
reports it ``drained``, and one that declares no places is a candidate
on every pass.  The set only skips checks that cannot pass, so firing
sequences are those of checking everything.  One core, three drivers:

* **synchronous** — :meth:`Scheduler.step` / :meth:`run_until_quiescent`;
* **threaded** — :meth:`Scheduler.start`: one dispatcher thread runs the
  same pass and sleeps on a condition variable while nothing is marked
  (or until a time-driven transition's ``due_in()``).  The paper makes
  each component a thread; under one interpreter lock that buys only
  polling and lock hand-overs;
* **simulated** — :class:`repro.simtest.SimScheduler` fires one candidate
  at a time against a virtual clock.

Every firing bumps a per-transition firing tally and observes an
activation wall-time histogram, every failed check of a candidate bumps
an idle-poll tally, and each firing is appended to the cell's
:class:`~repro.obs.tracing.TraceLog`.  A transition's tallies are written
only by the thread driving it; the metrics registry reads them when it
exposes the series.
"""

from __future__ import annotations

import functools
import os
import threading
import time
import traceback
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
    runtime_checkable,
)

from ..errors import SchedulerError
from ..obs.metrics import MetricsRegistry, Tally, default_registry
from ..obs.tracing import TraceLog
from .factory import ActivationResult
from .places import Place

__all__ = [
    "SchedulableTransition",
    "FiringPolicy",
    "PriorityPolicy",
    "Scheduler",
    "input_places",
]

# how long an idle dispatcher sleeps before re-checking a transition
# that declares no places: nothing can wake it, so it is polled
PLACELESS_POLL = 0.001


def input_places(transition: Any) -> Optional[Sequence[Place]]:
    """The places ``transition`` declares, or ``None`` if it declares
    none (then it is a candidate on every pass)."""
    declare = getattr(transition, "input_places", None)
    return None if declare is None else declare()


@runtime_checkable
class SchedulableTransition(Protocol):
    """Anything the scheduler can drive: receptors, factories, emitters."""

    name: str
    priority: int

    def enabled(self) -> bool: ...

    def activate(self) -> ActivationResult: ...

    # optional: ``input_places() -> Sequence[Place]`` (see the module
    # docstring) and, for a time-driven transition, ``due_in() -> float``
    # (seconds until it may be enabled; an idle dispatcher wakes then)


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
    over the registration-ordered input, so synchronous stepping,
    threaded dispatching and the simulator all agree on the firing
    sequence and ``run_until_quiescent`` treats equally-prioritized
    transitions fairly — every sweep visits all of its candidates, in
    one fixed, documented order.

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
        metrics: Optional[MetricsRegistry] = None,
        trace: Optional[TraceLog] = None,
        policy: Optional[FiringPolicy] = None,
    ):
        self.policy = policy if policy is not None else PriorityPolicy()
        self._transitions: Dict[str, SchedulableTransition] = {}
        self._lock = threading.RLock()
        # the ready set (module docstring), by name: a set add is atomic,
        # so a place marks a reader from any thread without a lock
        self._ready: Set[str] = set()
        self._placeless: Set[str] = set()  # candidates on every pass
        self._wakes: Dict[str, Tuple[Callable[[], None], Sequence[Place]]]
        self._wakes = {}
        self._failed: Set[str] = set()  # raised under the dispatcher
        # the dispatcher sleeps on this; _sleeping says a mark must notify
        self._wakeup = threading.Condition(threading.Lock())
        self._sleeping = False
        self._thread: Optional[threading.Thread] = None
        self._running = threading.Event()
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
            "Enablement checks of a candidate that found it not ready",
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
        # unregister, so a firing still in flight counts and the tallies
        # keep counting with the registry disabled
        self._instruments: Dict[str, Tuple[Tally, Tally, Any]] = {}
        self._all_firings: List[Tally] = []  # every registration's

    @property
    def total_firings(self) -> int:
        """Lifetime transition firings (every driving mode)."""
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
        name = transition.name
        with self._lock:
            if name in self._transitions:
                raise SchedulerError(
                    f"transition {name!r} already registered"
                )
            self._transitions[name] = transition
            firings, idle = Tally(), Tally()
            self._m_firings.read_from(firings, name)
            self._m_idle.read_from(idle, name)
            self._all_firings.append(firings)
            self._instruments[name] = (
                firings, idle, self._m_activation.labels(name),
            )
            places = input_places(transition)
            if places is None:
                self._placeless.add(name)
            else:
                wake = functools.partial(self._mark, name)
                for place in places:
                    place.watch(wake)
                self._wakes[name] = (wake, places)
            self._failed.discard(name)
            self.trace.record("register", name)
            self._mark(name)

    def unregister(self, name: str) -> None:
        with self._lock:
            if self._transitions.pop(name, None) is None:
                return
            wake, places = self._wakes.pop(name, (None, ()))
            for place in places:
                place.unwatch(wake)
            self._placeless.discard(name)
            self._ready.discard(name)
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
    # the ready set
    # ------------------------------------------------------------------
    def _mark(self, name: str) -> None:
        """A place of ``name`` changed: make it a candidate, and wake an
        idle dispatcher.  The dispatcher sets ``_sleeping`` before it
        looks at the set, so a mark it did not see always notifies."""
        self._ready.add(name)
        if self._sleeping:
            with self._wakeup:
                self._wakeup.notify()

    # ------------------------------------------------------------------
    # firing (shared by every driving mode)
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
            self._record_error(transition.name, exc)
            raise
        finally:
            if token is not None:
                self.accountant.end_firing(token)
        elapsed = time.perf_counter() - started
        firings.value += 1
        activation_hist.observe(elapsed)
        if result.trace:
            self._record_span(transition, result, started, elapsed)
        else:
            self.trace.record(
                "fire",
                transition.name,
                tuples_in=result.tuples_in,
                tuples_out=result.tuples_out,
                elapsed=elapsed,
            )
        return result

    def _record_span(
        self,
        transition: SchedulableTransition,
        result: ActivationResult,
        started: float,
        elapsed: float,
    ) -> None:
        """The ``fire`` record of a firing that worked on a sampled batch
        is one of its spans (``obs.tracing.chrome_trace``): it also
        carries the batch's token, the transition's stage, and a
        factory's opcode timings, their starts made relative to the
        firing's."""
        detail: Dict[str, Any] = {
            "tuples_in": result.tuples_in,
            "tuples_out": result.tuples_out,
            "elapsed": elapsed,
            "trace": result.trace,
            "stage": type(transition).__name__.lower(),
        }
        if result.opcodes:
            detail["opcodes"] = [
                (opcode, start - started, seconds, node)
                for opcode, start, seconds, node in result.opcodes
            ]
        self.trace.record("fire", transition.name, **detail)

    def _record_error(self, name: str, exc: BaseException) -> None:
        # the exception still propagates (or, under the dispatcher,
        # retires the transition); the event is what the flight recorder
        # and sys.events see of it
        self.trace.record(
            "error",
            name,
            type=type(exc).__name__,
            message=str(exc),
            traceback=traceback.format_exception(
                type(exc), exc, exc.__traceback__
            ),
        )

    def _pass(self, contain: bool = False) -> int:
        """Visit the candidates in the policy's order and fire each one
        that is enabled when its turn comes; returns the firings.

        Enablement is re-checked immediately before each firing, because
        earlier firings may have consumed the inputs (or produced new
        ones: a reader marked by an earlier firing of this pass is
        visited in it if its turn is still to come).  With ``contain``
        (the dispatcher) a transition that raises stops being driven and
        the rest keep running; otherwise the exception propagates.
        """
        ready, registered = self._ready, self._transitions
        fired = 0
        for transition in self.policy.sweep_order(self.transitions()):
            name = transition.name
            if name in ready:
                # out before the check: a place change during it marks
                # the transition again
                ready.discard(name)
            elif name not in self._placeless:
                continue
            if name in self._failed or registered.get(name) is not transition:
                continue  # retired, or unregistered by an earlier firing
            try:
                enabled = transition.enabled()
            except Exception as exc:
                if not contain:
                    ready.add(name)  # still a candidate next pass
                    raise
                self._record_error(name, exc)
                self._failed.add(name)
                continue
            if not enabled:
                self._instruments[name][1].value += 1
                continue
            try:
                result = self._fire(transition)
            except Exception:
                if not contain:
                    ready.add(name)  # still a candidate next pass
                    raise
                self._failed.add(name)  # _fire recorded the error event
                continue
            if contain:
                # hand the core to any thread the firing woke: the server
                # loop sends an ACK now, not after the rest of the pass
                os.sched_yield()
            if not getattr(result, "drained", False):
                # a fired transition stays a candidate: PLAN refire and
                # batch limits can leave it enabled
                ready.add(name)
            fired += 1
        return fired

    # ------------------------------------------------------------------
    # synchronous driving
    # ------------------------------------------------------------------
    def step(self) -> int:
        """One scheduler iteration: fire every enabled transition once.

        Candidates are visited in the order the firing policy dictates
        (default :class:`PriorityPolicy`: priority descending, ties broken
        by registration order); see :meth:`_pass`.
        """
        if self._running.is_set():
            raise SchedulerError("cannot step() while the dispatcher runs")
        if not self._iterations.value:
            self._m_iterations.read_from(self._iterations)
        self._iterations.value += 1
        return self._pass()

    def run_until_quiescent(self, max_steps: int = 100_000) -> int:
        """Step until no transition is enabled; returns total firings.

        A continuous query network quiesces when all channels are drained,
        all baskets are below their thresholds, and all results delivered.

        Fairness under equal priorities: each step visits *every*
        candidate (no transition is skipped because an earlier one
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
        """Start the dispatcher thread (``datacell-scheduler``)."""
        with self._lock:
            if self._running.is_set():
                raise SchedulerError("scheduler already running")
            self._running.set()
            self._ready.update(self._transitions)
            self._thread = threading.Thread(
                target=self._dispatch, name="datacell-scheduler", daemon=True
            )
            self._thread.start()

    def _dispatch(self) -> None:
        while self._running.is_set():
            if not self._pass(contain=True):
                self._idle()

    def _idle(self) -> None:
        """Sleep until a place changes, a placeless transition is due
        for a re-check, or :meth:`stop`."""
        timeout = None
        for name in list(self._placeless):
            transition = self._transitions.get(name)
            if transition is None or name in self._failed:
                continue
            due_in = getattr(transition, "due_in", None)
            wait = PLACELESS_POLL if due_in is None else max(0.0, due_in())
            timeout = wait if timeout is None else min(timeout, wait)
        with self._wakeup:
            self._sleeping = True
            if not self._ready and self._running.is_set():
                self._wakeup.wait(timeout)
            self._sleeping = False

    def stop(self, timeout: float = 5.0) -> List[str]:
        """Stop the dispatcher; join it with a bounded timeout.

        Returns the thread's name if it is still alive after its join
        window (empty on a clean shutdown) so callers — the
        hermetic-test fixture in particular — can turn a wedged firing
        into a hard failure instead of an indefinite hang.
        """
        self._running.clear()
        with self._wakeup:
            self._wakeup.notify()
        thread, self._thread = self._thread, None
        if thread is None:
            return []
        thread.join(timeout)
        self._failed.clear()  # only the dispatcher stops driving them
        return [thread.name] if thread.is_alive() else []

    @property
    def running(self) -> bool:
        return self._running.is_set()
