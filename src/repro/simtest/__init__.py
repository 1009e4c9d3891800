"""Deterministic simulation + differential testing for the DataCell.

The paper's headline architecture (§2.4) is the multi-threaded scheduler,
data streaming through baskets between transitions.  Here threaded mode
is one dispatcher thread woken by basket, channel and queue changes (the
scheduler's ready set); real thread schedules are still not
reproducible, so interleaving bugs (lost wakeups, basket races, double
consumption under the §2.5 strategies) surface only as flakes.  This
package provides the correctness substrate instead:

* :class:`~repro.simtest.sim.SimScheduler` drives the *exact same*
  transition objects from the same ready set under a seed-controlled
  virtual scheduler — one firing at a time, ordering chosen by a pluggable
  :class:`~repro.core.scheduler.FiringPolicy`, time supplied by a
  :class:`~repro.core.clock.VirtualClock`.  A whole episode is
  reproducible from ``(seed, policy, fault plan)``.
* :mod:`~repro.simtest.faults` injects drop/duplicate/reorder/delay
  faults at basket boundaries and raises exceptions inside transitions
  (exercising the scheduler's ``error`` event and the flight recorder,
  which reads it).
* :mod:`~repro.simtest.oracle` replays every simulated input stream
  through both the continuous-query pipeline and a one-shot execution of
  the same SQL over the accumulated stream tables, at every quiescent
  point, asserting equivalence up to permutation — the "streaming must
  equal re-running the SQL" property DataCell inherits from the
  relational kernel.  A continuous SELECT's rows are summed, a view's
  weighted deltas integrated; window queries are checked against the
  ``baselines`` engines instead.  A shrinker minimizes ``(stream,
  schedule)`` on failure, and ``python -m repro.simtest.run`` is the
  seeded gate over all of these.
* :mod:`~repro.simtest.crash` kills seeded episodes at firing
  boundaries and requires recovery (checkpoint + WAL replay) to deliver
  byte-identically what the uninterrupted run delivers — the
  durability subsystem's exactly-once differential gate.

See ``docs/testing.md`` for the fault matrix, the oracle equivalence
rules, and how to reproduce a failure from a printed repro line.
"""

# NOTE: .crash is intentionally not imported here — it is a CLI entry
# point (``python -m repro.simtest.crash``) and importing it from the
# package __init__ would trigger the runpy double-import warning.
from .faults import FaultableChannel, FaultPlan, InjectedFault
from .oracle import (
    ORACLE_CASES,
    VIEW_CASES,
    DifferentialResult,
    EpisodeSpec,
    OracleCase,
    check_episode,
    render_repro,
    run_time_window_differential,
    run_window_differential,
    shrink_episode,
)
from .policies import (
    PriorityInvertingPolicy,
    RandomPolicy,
    RoundRobinPolicy,
    StarvePolicy,
    make_policy,
    policy_names,
)
from .sim import EpisodeResult, InputEvent, SimScheduler

__all__ = [
    "FaultPlan",
    "FaultableChannel",
    "InjectedFault",
    "OracleCase",
    "ORACLE_CASES",
    "VIEW_CASES",
    "EpisodeSpec",
    "DifferentialResult",
    "check_episode",
    "shrink_episode",
    "render_repro",
    "run_window_differential",
    "run_time_window_differential",
    "RandomPolicy",
    "RoundRobinPolicy",
    "PriorityInvertingPolicy",
    "StarvePolicy",
    "make_policy",
    "policy_names",
    "SimScheduler",
    "InputEvent",
    "EpisodeResult",
]
