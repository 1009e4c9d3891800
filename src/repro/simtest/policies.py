"""Firing policies for the simulated scheduler.

Each policy is one way of resolving the scheduler's nondeterminism: which
enabled transition fires next.  The default engine order
(:class:`~repro.core.scheduler.PriorityPolicy`) lives next to the
scheduler; the policies here deliberately deviate from it — shuffling,
rotating, inverting priorities, starving a victim — so simulation
episodes explore interleavings a well-behaved thread scheduler would
rarely produce.  Every policy draws randomness only from the explicitly
seeded ``random.Random`` it is constructed with, keeping episodes
reproducible from ``(seed, policy)``.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from ..core.scheduler import FiringPolicy, PriorityPolicy, SchedulableTransition
from ..errors import SchedulerError

__all__ = [
    "RoundRobinPolicy",
    "RandomPolicy",
    "PriorityInvertingPolicy",
    "StarvePolicy",
    "make_policy",
    "policy_names",
]


class RoundRobinPolicy(FiringPolicy):
    """Ignore priorities; rotate the starting transition every decision.

    Fair in the strongest sense — every transition gets the head slot in
    turn — which makes it the policy of choice for checking that query
    semantics do not silently depend on the default priority order.
    """

    def __init__(self) -> None:
        self._cursor = 0

    def sweep_order(
        self, transitions: List[SchedulableTransition]
    ) -> List[SchedulableTransition]:
        if not transitions:
            return []
        k = self._cursor % len(transitions)
        self._cursor += 1
        return list(transitions[k:]) + list(transitions[:k])

    def describe(self) -> str:
        return "round-robin"


class RandomPolicy(FiringPolicy):
    """Uniformly random order, from an explicitly seeded generator."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def sweep_order(
        self, transitions: List[SchedulableTransition]
    ) -> List[SchedulableTransition]:
        out = list(transitions)
        self.rng.shuffle(out)
        return out

    def describe(self) -> str:
        return "random"


class PriorityInvertingPolicy(FiringPolicy):
    """Lowest priority first (registration order breaks ties).

    Adversarial: emitters run before the factories that feed them,
    factories before the receptors — the exact inversion of the engine's
    default.  Correct pipelines must still converge to the same results,
    only later; anything that *requires* the default order to be correct
    is a bug this policy flushes out.
    """

    def sweep_order(
        self, transitions: List[SchedulableTransition]
    ) -> List[SchedulableTransition]:
        indexed = list(enumerate(transitions))
        indexed.sort(key=lambda pair: (pair[1].priority, pair[0]))
        return [t for _, t in indexed]

    def describe(self) -> str:
        return "inverted"


class StarvePolicy(FiringPolicy):
    """Never fire the victim while anything else is enabled.

    Models a maximally unfair thread scheduler that starves one
    transition: in one-firing-at-a-time simulation the victim only runs
    when it is the *only* enabled transition.  Liveness check: results
    must still be complete at quiescence — the victim's work is delayed,
    never lost.
    """

    def __init__(self, victim: str, base: Optional[FiringPolicy] = None):
        self.victim = victim
        self.base = base if base is not None else PriorityPolicy()

    def sweep_order(
        self, transitions: List[SchedulableTransition]
    ) -> List[SchedulableTransition]:
        ordered = self.base.sweep_order(transitions)
        starved = [t for t in ordered if t.name != self.victim]
        victims = [t for t in ordered if t.name == self.victim]
        return starved + victims

    def forget(self, transition: SchedulableTransition) -> None:
        self.base.forget(transition)

    def describe(self) -> str:
        return f"starve:{self.victim}"


def policy_names() -> Tuple[str, ...]:
    """The policy vocabulary accepted by :func:`make_policy`."""
    return ("priority", "round-robin", "random", "inverted")


def make_policy(
    name: str, rng: Optional[random.Random] = None
) -> FiringPolicy:
    """Construct a policy from its textual name (the repro-line format).

    ``starve:<transition>`` starves the named transition; the other
    names are listed by :func:`policy_names`.  ``rng`` is required for
    the ``random`` policy and ignored elsewhere.
    """
    if name == "priority":
        return PriorityPolicy()
    if name == "round-robin":
        return RoundRobinPolicy()
    if name == "inverted":
        return PriorityInvertingPolicy()
    if name == "random":
        if rng is None:
            raise SchedulerError("the random policy needs a seeded rng")
        return RandomPolicy(rng)
    if name.startswith("starve:"):
        return StarvePolicy(name.split(":", 1)[1])
    raise SchedulerError(f"unknown firing policy {name!r}")
