"""The seed-controlled virtual scheduler.

:class:`SimScheduler` is a :class:`~repro.core.scheduler.Scheduler` whose
driving mode is *simulation*: it fires the exact transition objects of
the threaded mode (receptors, factories, emitters — unmodified) from the
same ready set, but one activation at a time, in an order chosen by a pluggable firing policy,
against a :class:`~repro.core.clock.VirtualClock`.  Scripted input
arrives at scheduled virtual instants and is itself a schedulable choice,
so the policy explores interleavings of ingest and processing, not just
processing order.  The whole run — firing sequence, fault decisions,
timestamps — is a pure function of ``(seed, policy, fault plan, input
script)``, which is what makes an episode bit-reproducible and
shrinkable.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, List, Optional, Sequence, Tuple, Union,
)

from ..adapters.channels import Channel
from ..core.clock import VirtualClock
from ..core.scheduler import FiringPolicy, Scheduler
from ..errors import SchedulerError
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import TraceLog
from .faults import FaultableChannel, FaultPlan, InjectedFault
from .policies import make_policy

__all__ = ["InputEvent", "EpisodeResult", "SimScheduler", "INGEST"]

INGEST = "__ingest__"


@dataclass(frozen=True)
class InputEvent:
    """A scripted batch of events arriving at a virtual instant."""

    at: float
    channel: str
    events: Tuple[Any, ...]

    @staticmethod
    def make(at: float, channel: str, events: Sequence[Any]) -> "InputEvent":
        return InputEvent(float(at), channel, tuple(events))


@dataclass
class EpisodeResult:
    """What one simulated episode did, in a reproducibility-checkable form.

    ``firings`` records ``(transition, tuples_in, tuples_out)`` per
    activation, in order; injected exceptions appear as
    ``(name, -1, -1)`` and scripted ingest as ``(__ingest__, n, 0)``.
    ``signature()`` hashes the sequence (plus any basket digests attached
    by the harness) so two runs can be compared in one assertion.
    """

    firings: List[Tuple[str, int, int]] = field(default_factory=list)
    injected_exceptions: int = 0
    clock_end: float = 0.0
    basket_digests: Dict[str, str] = field(default_factory=dict)

    @property
    def total_firings(self) -> int:
        return len(self.firings)

    def firing_names(self) -> List[str]:
        return [name for name, _, _ in self.firings]

    def signature(self) -> str:
        parts = [repr(self.firings), repr(sorted(self.basket_digests.items()))]
        return hashlib.sha256("|".join(parts).encode()).hexdigest()


class _Raiser:
    """Stands in for a transition when the fault plan orders a crash.

    Carries the victim's name and priority so metrics and the ``error``
    event attribute the failure to the real transition;
    the victim's own state is untouched (the crash happens "before" its
    activation), so it stays enabled and retries on a later firing.
    """

    def __init__(self, victim) -> None:
        self.name = victim.name
        self.priority = victim.priority

    def enabled(self) -> bool:
        return True

    def activate(self):
        raise InjectedFault(f"injected fault in {self.name!r}")


class _IngestSource:
    """The scripted input presented as a schedulable transition.

    Giving ingest a seat at the policy's table is what lets episodes
    explore "input arrives mid-processing" interleavings.  Priority 0
    places it between receptors (10) and emitters (-10) by default, but
    any policy may of course ignore priorities entirely.
    """

    def __init__(self, sim: "SimScheduler") -> None:
        self.name = INGEST
        self.priority = 0
        self.sim = sim

    def enabled(self) -> bool:
        return self.sim._next_due_input() is not None

    def activate(self) -> int:
        return self.sim._deliver_next_input()


class SimScheduler(Scheduler):
    """Simulated driving mode: deterministic, one firing at a time.

    Accepts a policy name (``"random"``, ``"round-robin"``,
    ``"inverted"``, ``"priority"``, ``"starve:<name>"``) or a
    :class:`~repro.core.scheduler.FiringPolicy` instance.  Named random
    policies are seeded from ``seed``; the fault plan keeps its own
    stream.  ``start()`` is refused — a simulator that spawns threads
    would be a contradiction.
    """

    def __init__(
        self,
        seed: int = 0,
        policy: Union[str, FiringPolicy] = "random",
        clock: Optional[VirtualClock] = None,
        faults: Optional[FaultPlan] = None,
        metrics: Optional[MetricsRegistry] = None,
        trace: Optional[TraceLog] = None,
    ):
        if isinstance(policy, str):
            policy_obj = make_policy(
                policy, random.Random(f"datacell-policy:{seed}")
            )
        else:
            policy_obj = policy
        super().__init__(metrics=metrics, trace=trace, policy=policy_obj)
        self.seed = seed
        self.clock = clock if clock is not None else VirtualClock()
        self.faults = faults
        self._ingest = _IngestSource(self)
        self._pending_inputs: List[InputEvent] = []
        self._channels: Dict[str, Channel] = {}
        self._marked_at: Optional[float] = None  # clock at the last mark-all
        self.result = EpisodeResult()

    # ------------------------------------------------------------------
    def start(self) -> None:
        raise SchedulerError(
            "SimScheduler drives transitions deterministically; "
            "threaded start() is not available in simulation"
        )

    def bind_channel(self, name: str, channel: Channel) -> None:
        """Register a channel scripted :class:`InputEvent`\\ s push into."""
        self._channels[name] = channel

    # ------------------------------------------------------------------
    # scripted input
    # ------------------------------------------------------------------
    def _next_due_input(self) -> Optional[InputEvent]:
        if not self._pending_inputs:
            return None
        head = self._pending_inputs[0]
        return head if head.at <= self.clock.now() else None

    def _deliver_next_input(self) -> int:
        event = self._pending_inputs.pop(0)
        try:
            channel = self._channels[event.channel]
        except KeyError:
            raise SchedulerError(
                f"episode input targets unbound channel {event.channel!r}"
            ) from None
        for item in event.events:
            channel.push(item)
        return len(event.events)

    # ------------------------------------------------------------------
    # one simulated firing
    # ------------------------------------------------------------------
    def sim_fire(self) -> Optional[str]:
        """Fire exactly one enabled transition (or deliver due input),
        chosen by the policy among the ready set's enabled candidates.

        Returns the fired transition's name, or ``None`` when nothing is
        enabled at the current virtual time.
        """
        now = self.clock.now()
        if now != self._marked_at:
            # time moved: a delayed batch may have fallen due anywhere
            self._ready.update(self._transitions)
            self._marked_at = now
        candidates: List = []
        for transition in self.transitions():  # registration order
            name = transition.name
            if name not in self._ready and name not in self._placeless:
                continue
            if transition.enabled():
                candidates.append(transition)
            else:
                self._ready.discard(name)
        if self._ingest.enabled():
            candidates.append(self._ingest)
        if not candidates:
            return None
        choice = self.policy.choose(candidates)
        if choice is self._ingest:
            delivered = self._deliver_next_input()
            self.result.firings.append((INGEST, delivered, 0))
            # a pseudo-firing, so a ``fire``: kept out of sys.events
            self.trace.record("fire", INGEST, events=delivered)
            return INGEST
        if self.faults is not None and self.faults.should_raise(choice.name):
            try:
                self._fire(_Raiser(choice))
            except InjectedFault:
                pass
            self.result.firings.append((choice.name, -1, -1))
            self.result.injected_exceptions += 1
            return choice.name
        self._ready.discard(choice.name)  # a mark while it fires re-adds it
        result = self._fire(choice)
        if not getattr(result, "drained", False):
            self._ready.add(choice.name)
        self.result.firings.append(
            (choice.name, result.tuples_in, result.tuples_out)
        )
        return choice.name

    # ------------------------------------------------------------------
    # episode driving
    # ------------------------------------------------------------------
    def run_episode(
        self,
        inputs: Sequence[InputEvent] = (),
        max_firings: int = 200_000,
        on_firing: Optional[Callable[[int], None]] = None,
        on_quiescent: Optional[Callable[[], None]] = None,
    ) -> EpisodeResult:
        """Drive the network through a scripted episode to quiescence.

        Fires until no transition is enabled, no scripted input remains,
        and no fault-delayed batch is still in flight; between bursts the
        virtual clock jumps to the next instant something becomes due.
        Raises on livelock (``max_firings`` exceeded).

        ``on_firing`` (if given) is called with the running firing count
        after every successful firing; crash-injection harnesses raise
        from it to kill the episode at a chosen transition boundary.
        ``on_quiescent`` (if given) is called each time nothing is
        enabled at the current virtual time, before time moves on, and
        so once more when the episode ends; the differential oracle
        compares its two sides there.
        """
        self._pending_inputs = sorted(inputs, key=lambda e: e.at)
        fired = 0
        last_idle_state = None
        while True:
            if self.sim_fire() is not None:
                fired += 1
                last_idle_state = None
                if on_firing is not None:
                    on_firing(fired)
                if fired > max_firings:
                    raise SchedulerError(
                        f"episode did not quiesce within {max_firings} "
                        "firings (livelock?)"
                    )
                continue
            if on_quiescent is not None:
                on_quiescent()
            # nothing enabled now: advance virtual time to the next
            # scripted arrival, delayed-batch release, or timer
            horizons = [
                e.at for e in self._pending_inputs[:1]
            ]
            delayed = 0
            for channel in self._channels.values():
                if isinstance(channel, FaultableChannel):
                    horizons.append(channel.next_release())
                    delayed += channel.delayed_batches()
            horizons.append(self.clock.next_timer())
            horizon = min(
                (h for h in horizons if h != float("inf")), default=None
            )
            if horizon is None:
                break
            # guard against a horizon that cannot unblock anything (a
            # delayed batch with no receptor left, say): if a full idle
            # pass changed no observable state, the episode is done
            idle_state = (
                self.clock.now(),
                self.clock.pending_timers(),
                len(self._pending_inputs),
                delayed,
            )
            if idle_state == last_idle_state:
                break
            last_idle_state = idle_state
            # a due-now horizon means enablement was blocked on a timer
            # callback, not on time itself; set() fires those callbacks
            self.clock.set(max(horizon, self.clock.now()))
            # timer callbacks report to no place: everything is a candidate
            self._ready.update(self._transitions)
        self.result.clock_end = self.clock.now()
        return self.result

    def attach_digests(self, baskets) -> None:
        """Record basket end-state digests into the episode result."""
        for basket in baskets:
            self.result.basket_digests[basket.name] = basket.state_digest()
