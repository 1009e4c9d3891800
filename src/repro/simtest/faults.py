"""Fault injection at basket boundaries and inside transitions.

The fault matrix (see ``docs/testing.md``):

=========  ==================================================================
``drop``       a polled batch vanishes before reaching the basket
``duplicate``  a polled batch is delivered twice back to back
``reorder``    the tuples of a polled batch arrive shuffled
``delay``      a polled batch is held back for a stretch of *virtual* time
``raise``      a transition activation raises :class:`InjectedFault` instead
               of running (exercising the scheduler's ``error`` event and
               the flight recorder, which reads it)
=========  ==================================================================

All decisions come from a :class:`FaultPlan` seeded independently of the
firing policy, so ``(seed, policy, fault plan)`` fully determines an
episode.  The plan also keeps the authoritative ``delivered`` log — what
actually crossed the boundary after faults — which is what the
differential oracle accumulates for its one-shot replay: a dropped batch
must be missing from *both* sides, a duplicated one present twice on
both.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from ..adapters.channels import Channel
from ..core.clock import Clock
from ..errors import DataCellError

__all__ = ["InjectedFault", "FaultRecord", "FaultPlan", "FaultableChannel"]

BATCH_FAULT_KINDS = ("drop", "duplicate", "reorder", "delay")


class InjectedFault(DataCellError):
    """Raised by the simulator inside a transition on the plan's orders."""


@dataclass(frozen=True)
class FaultRecord:
    """One fault that actually happened, for post-mortems and shrinking."""

    kind: str
    where: str  # channel or transition name
    detail: str = ""


class FaultPlan:
    """Seeded fault decisions.

    ``batch_fault_rate`` is the probability a polled batch suffers one of
    the four batch faults; ``exception_rate`` the probability a chosen
    transition raises instead of activating.  The plan's generator is
    seeded from a string (stable across processes, unlike ``hash``), and
    consumed in simulation order, so identical episodes replay identical
    faults.
    """

    def __init__(
        self,
        seed: int = 0,
        batch_fault_rate: float = 0.0,
        exception_rate: float = 0.0,
        delay_seconds: float = 1.0,
        kinds: Sequence[str] = BATCH_FAULT_KINDS,
    ):
        for kind in kinds:
            if kind not in BATCH_FAULT_KINDS:
                raise DataCellError(f"unknown batch fault kind {kind!r}")
        self.seed = seed
        self.batch_fault_rate = batch_fault_rate
        self.exception_rate = exception_rate
        self.delay_seconds = delay_seconds
        self.kinds = tuple(kinds)
        self._rng = random.Random(f"datacell-faultplan:{seed}")
        self.log: List[FaultRecord] = []

    # ------------------------------------------------------------------
    def batch_action(self, channel: str, size: int) -> Optional[str]:
        """Decide the fate of one polled batch; records what it chose."""
        if not self.kinds or self._rng.random() >= self.batch_fault_rate:
            return None
        kind = self._rng.choice(self.kinds)
        self.log.append(FaultRecord(kind, channel, f"batch of {size}"))
        return kind

    def should_raise(self, transition: str) -> bool:
        """Decide whether this activation raises :class:`InjectedFault`."""
        if self._rng.random() >= self.exception_rate:
            return False
        self.log.append(FaultRecord("raise", transition))
        return True

    def shuffle(self, items: List[Any]) -> None:
        self._rng.shuffle(items)

    def describe(self) -> str:
        return (
            f"FaultPlan(seed={self.seed}, "
            f"batch_fault_rate={self.batch_fault_rate}, "
            f"exception_rate={self.exception_rate}, "
            f"delay_seconds={self.delay_seconds}, kinds={self.kinds})"
        )


class FaultableChannel(Channel):
    """A channel proxy applying the plan's batch faults at poll time.

    Poll time is the basket boundary: whatever this returns is what the
    receptor validates and appends, so faults here model the network or
    the ingest queue misbehaving.  Delayed batches are released against
    the *virtual* clock; :meth:`next_release` lets the simulator advance
    time to the earliest release when the network is otherwise quiescent.
    """

    def __init__(self, inner: Channel, plan: FaultPlan, clock: Clock):
        self.inner = inner
        self.plan = plan
        self.clock = clock
        self.name = getattr(inner, "name", "channel")
        # (release_at, events) in release order; list stays tiny in sims
        self._delayed: List[Tuple[float, List[Any]]] = []
        # post-fault ground truth: every event actually handed to poll()
        self.delivered: List[Any] = []

    # ------------------------------------------------------------------
    # the proxy's place is the inner channel, which every push reaches;
    # a delayed batch falls due with time, which wakes every simulated
    # transition (SimScheduler)
    def watch(self, wake) -> None:
        self.inner.watch(wake)

    def unwatch(self, wake) -> None:
        self.inner.unwatch(wake)

    def push(self, event: Any) -> None:
        self.inner.push(event)

    def push_many(self, events: Sequence[Any]) -> None:
        for event in events:
            self.push(event)

    def pending(self) -> int:
        now = self.clock.now()
        due = sum(len(ev) for at, ev in self._delayed if at <= now)
        return self.inner.pending() + due

    def next_release(self) -> float:
        """Earliest virtual time a delayed batch becomes due (+inf if none)."""
        return min((at for at, _ in self._delayed), default=float("inf"))

    def delayed_batches(self) -> int:
        """Batches currently held back by a delay fault."""
        return len(self._delayed)

    def close(self) -> None:
        self.inner.close()

    @property
    def closed(self) -> bool:
        return self.inner.closed

    # ------------------------------------------------------------------
    def poll(self, max_items: int = 1024) -> List[Any]:
        now = self.clock.now()
        for i, (at, events) in enumerate(self._delayed):
            if at <= now:
                # released batches bypass further faulting: one fault per
                # batch keeps the plan's log readable and shrinkable
                del self._delayed[i]
                self.delivered.extend(events)
                return events
        events = self.inner.poll(max_items)
        if not events:
            return events
        action = self.plan.batch_action(self.name, len(events))
        if action == "drop":
            return []
        if action == "duplicate":
            events = events + events
        elif action == "reorder":
            self.plan.shuffle(events)
        elif action == "delay":
            self._delayed.append(
                (now + self.plan.delay_seconds, events)
            )
            return []
        self.delivered.extend(events)
        return events

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FaultableChannel({self.name!r}, pending={self.pending()}, "
            f"delayed_batches={len(self._delayed)})"
        )
