"""Load shedding (paper §1/§2.4: "possible load shedding requirements").

When a stream outruns the queries, something must give.  The DataCell
sheds at the basket: a basket with a ``capacity`` watermark drops tuples
on overflow according to a policy:

``oldest``
    keep the freshest data (default; right for monitoring queries where
    stale tuples lose value);
``newest``
    protect the backlog (right when per-tuple answers must not be
    reordered, e.g. billing);
``sample``
    drop uniformly at random so aggregates stay approximately unbiased.

:class:`LoadShedController` is the adaptive piece: it watches basket
depths each scheduler iteration and engages/releases capacity limits so
the network's total buffered volume stays under a budget — the
"dynamic environment changes" adaptation hook of §2.4.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import BasketError
from ..obs.metrics import MetricsRegistry
from .basket import Basket

__all__ = ["SHEDDING_POLICIES", "apply_shedding_policy", "LoadShedController"]

SHEDDING_POLICIES = ("oldest", "newest", "sample")


def apply_shedding_policy(
    basket: Basket,
    capacity: int,
    policy: str = "oldest",
    rng: Optional[random.Random] = None,
) -> int:
    """Shed ``basket`` down to ``capacity`` tuples using ``policy``.

    Returns the number of tuples dropped.  Unlike the basket's built-in
    watermark (which is oldest-only and runs on ingest), this helper is
    called by a controller between scheduler iterations.
    """
    if policy not in SHEDDING_POLICIES:
        raise BasketError(f"unknown shedding policy {policy!r}")
    if capacity < 0:
        raise BasketError("capacity cannot be negative")
    if basket.is_system:
        # sys.* streams are exempt from shedding by construction: they
        # are bounded by ring-buffer retention instead (sysstreams.py)
        return 0
    with basket.lock:
        overflow = basket.count - capacity
        if overflow <= 0:
            return 0
        count = basket.count
        if policy == "oldest":
            keep = np.arange(overflow, count, dtype=np.int64)
        elif policy == "newest":
            keep = np.arange(0, capacity, dtype=np.int64)
        else:  # sample
            rng = rng or random.Random(0)
            kept = sorted(rng.sample(range(count), capacity))
            keep = np.asarray(kept, dtype=np.int64)
        basket._shed_keeping(keep, capacity)
        basket._record_depth()
        return overflow


class LoadShedController:
    """Adaptive shedding: keep total buffered tuples under a budget.

    Each :meth:`tick` (call it once per scheduler iteration, or from a
    monitoring thread) measures the monitored baskets; when the total
    exceeds ``budget``, every basket over its fair share is shed with the
    configured policy.  Hysteresis (``release_ratio``) avoids flapping.
    """

    def __init__(
        self,
        baskets: Sequence[Basket],
        budget: int,
        policy: str = "oldest",
        release_ratio: float = 0.8,
        seed: int = 0,
        metrics: Optional[MetricsRegistry] = None,
        name: str = "shed",
    ):
        if policy not in SHEDDING_POLICIES:
            raise BasketError(f"unknown shedding policy {policy!r}")
        if budget <= 0:
            raise BasketError("budget must be positive")
        if not baskets:
            raise BasketError("controller needs at least one basket")
        self.baskets: List[Basket] = list(baskets)
        self.budget = budget
        self.policy = policy
        self.release_ratio = release_ratio
        self._rng = random.Random(seed)
        self.engaged = False
        self.total_dropped = 0
        self.ticks = 0
        self.name = name
        # the controller is a metrics *consumer*: it reads basket depth
        # gauges from the registry the baskets publish into, rather than
        # polling private state — and publishes its own control signals
        self.metrics = (
            metrics if metrics is not None else self.baskets[0].metrics
        )
        self._m_dropped = self.metrics.counter(
            "datacell_shed_dropped_total",
            "Tuples dropped by the adaptive controller",
            ("controller",),
        ).labels(name)
        self._m_engaged = self.metrics.gauge(
            "datacell_shed_engaged",
            "1 while the controller is actively shedding",
            ("controller",),
        ).labels(name)
        self._m_ticks = self.metrics.counter(
            "datacell_shed_ticks_total",
            "Control loop iterations",
            ("controller",),
        ).labels(name)

    def _depth(self, basket: Basket) -> int:
        """Basket depth as published in the metrics registry.

        Falls back to the live count when the registry is disabled (the
        gauge then reads 0 regardless of reality).
        """
        value = self.metrics.value(
            "datacell_basket_depth", (basket.name,)
        )
        return basket.count if value is None else int(value)

    def buffered(self) -> int:
        return sum(self._depth(b) for b in self.baskets)

    def tick(self) -> int:
        """One control step; returns tuples dropped this step."""
        self.ticks += 1
        self._m_ticks.inc()
        total = self.buffered()
        if not self.engaged:
            if total <= self.budget:
                return 0
            self.engaged = True
            self._m_engaged.set(1)
        elif total <= self.budget * self.release_ratio:
            self.engaged = False
            self._m_engaged.set(0)
            return 0
        fair_share = max(1, self.budget // len(self.baskets))
        dropped = 0
        for basket in self.baskets:
            if self._depth(basket) > fair_share:
                dropped += apply_shedding_policy(
                    basket, fair_share, self.policy, self._rng
                )
        self.total_dropped += dropped
        self._m_dropped.inc(dropped)
        return dropped

    def stats(self) -> Dict[str, int]:
        return {
            "buffered": self.buffered(),
            "budget": self.budget,
            "dropped": self.total_dropped,
            "ticks": self.ticks,
            "engaged": int(self.engaged),
        }
