"""Linear Road driver: wires the query network into a DataCell and runs it.

The harness demonstrates the architecture exactly as the paper sketches
it: position reports flow into **one shared basket** read by three
factories (the shared-baskets strategy), intermediate results flow through
auxiliary baskets, and emitters deliver notifications to collecting
clients.  Response time is measured as the wall-clock cost of bringing the
network to quiescence after each 30-second tick's batch of reports — the
benchmark's requirement is that notifications leave within 5 seconds of
the triggering report, so the per-tick drain time must stay under that
bound for the run to be *sustainable* at the given scale.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.clock import LogicalClock
from ..core.emitter import CollectingClient, Emitter
from ..core.engine import DataCell
from ..core.factory import ConsumeMode, Factory, InputBinding
from .generator import LinearRoadConfig, LinearRoadGenerator
from .model import (
    BALANCE_REQUEST_COLUMNS,
    BALANCE_RESPONSE_COLUMNS,
    POSITION_REPORT_COLUMNS,
    REPORT_INTERVAL,
    SEGMENT_STATS_COLUMNS,
    TOLL_NOTIFICATION_COLUMNS,
    ACCIDENT_ALERT_COLUMNS,
    PositionReport,
)
from .queries import (
    AccidentDetectionPlan,
    AccountBalancePlan,
    SegmentStatisticsPlan,
    TollNotificationPlan,
    TollState,
)
from .validator import LinearRoadReference, validate_outputs

__all__ = ["LinearRoadResult", "LinearRoadHarness"]


@dataclass
class LinearRoadResult:
    """Outcome of one Linear Road run."""

    scale: float
    reports: int
    tolls: List[Tuple[int, int, float, int]]
    alerts: List[Tuple[int, int, int, int]]
    balances: List[Tuple[int, int, int]]
    tick_latencies: List[float]  # wall seconds to drain each tick
    wall_time: float
    validation_problems: List[str] = field(default_factory=list)

    @property
    def max_response_time(self) -> float:
        return max(self.tick_latencies, default=0.0)

    @property
    def avg_response_time(self) -> float:
        if not self.tick_latencies:
            return 0.0
        return sum(self.tick_latencies) / len(self.tick_latencies)

    @property
    def throughput(self) -> float:
        """Position reports processed per wall second."""
        return self.reports / self.wall_time if self.wall_time else 0.0

    @property
    def meets_deadline(self) -> bool:
        """LR requirement: every notification within 5 (wall) seconds."""
        return self.max_response_time <= 5.0

    @property
    def valid(self) -> bool:
        return not self.validation_problems


class LinearRoadHarness:
    """Builds the network, replays traffic, validates the outputs."""

    def __init__(self, config: Optional[LinearRoadConfig] = None):
        self.config = config or LinearRoadConfig()
        self.clock = LogicalClock()
        self.cell = DataCell(clock=self.clock)
        self.toll_state = TollState()
        self._build_network()

    def _build_network(self) -> None:
        cell = self.cell
        self.positions = cell.create_basket(
            "lr_position", POSITION_REPORT_COLUMNS
        )
        self.stats_basket = cell.create_basket(
            "lr_stats", SEGMENT_STATS_COLUMNS
        )
        self.accidents_basket = cell.create_basket(
            "lr_accidents", AccidentDetectionPlan.COLUMNS
        )
        self.tolls_basket = cell.create_basket(
            "lr_tolls", TOLL_NOTIFICATION_COLUMNS
        )
        self.alerts_basket = cell.create_basket(
            "lr_alerts", ACCIDENT_ALERT_COLUMNS
        )
        self.balance_req = cell.create_basket(
            "lr_balance_req", BALANCE_REQUEST_COLUMNS
        )
        self.balance_out = cell.create_basket(
            "lr_balance_out", BALANCE_RESPONSE_COLUMNS
        )

        self.stats_plan = SegmentStatisticsPlan()
        self.accident_plan = AccidentDetectionPlan()
        self.toll_plan = TollNotificationPlan(self.toll_state)
        self.balance_plan = AccountBalancePlan(self.toll_state)

        scheduler = cell.scheduler
        # the cell's own registry and span recorder, so the network's
        # series show in cell.prometheus_text() and two harnesses in one
        # process never share them
        telemetry = {"metrics": cell.metrics, "tracer": cell.spans}
        scheduler.register(
            Factory(
                "lr_stats_f",
                self.stats_plan,
                [InputBinding(self.positions, ConsumeMode.SHARED)],
                [self.stats_basket],
                priority=3,
                **telemetry,
            )
        )
        scheduler.register(
            Factory(
                "lr_accidents_f",
                self.accident_plan,
                [InputBinding(self.positions, ConsumeMode.SHARED)],
                [self.accidents_basket],
                priority=2,
                **telemetry,
            )
        )
        scheduler.register(
            Factory(
                "lr_tolls_f",
                self.toll_plan,
                [
                    InputBinding(self.positions, ConsumeMode.SHARED),
                    InputBinding(
                        self.stats_basket, ConsumeMode.ALL, optional=True
                    ),
                    InputBinding(
                        self.accidents_basket, ConsumeMode.ALL, optional=True
                    ),
                ],
                [self.tolls_basket, self.alerts_basket],
                priority=1,
                **telemetry,
            )
        )
        scheduler.register(
            Factory(
                "lr_balance_f",
                self.balance_plan,
                [InputBinding(self.balance_req, ConsumeMode.ALL)],
                [self.balance_out],
                priority=0,
                **telemetry,
            )
        )
        self.toll_client = CollectingClient()
        self.alert_client = CollectingClient()
        self.balance_client = CollectingClient()
        for name, basket, client in (
            ("lr_toll_e", self.tolls_basket, self.toll_client),
            ("lr_alert_e", self.alerts_basket, self.alert_client),
            ("lr_balance_e", self.balance_out, self.balance_client),
        ):
            emitter = Emitter(name, basket, **telemetry)
            emitter.subscribe(client)
            scheduler.register(emitter)

    # ------------------------------------------------------------------
    def run(
        self,
        reports: Optional[Sequence[PositionReport]] = None,
        balance_requests: Optional[Sequence[Tuple[int, int, int]]] = None,
        ticks_per_batch: int = 1,
        validate: bool = True,
    ) -> LinearRoadResult:
        """Replay a report log through the network tick by tick."""
        generator = LinearRoadGenerator(self.config)
        if reports is None:
            reports = generator.generate()
        if balance_requests is None:
            balance_requests = generator.balance_requests(list(reports))
        by_tick: Dict[int, List[PositionReport]] = {}
        for report in reports:
            by_tick.setdefault(report.t // REPORT_INTERVAL, []).append(report)
        req_by_tick: Dict[int, List[Tuple[int, int, int]]] = {}
        for req in balance_requests:
            req_by_tick.setdefault(req[0] // REPORT_INTERVAL, []).append(req)

        latencies: List[float] = []
        started = time.perf_counter()
        ticks = sorted(set(by_tick) | set(req_by_tick))
        for i in range(0, len(ticks), max(1, ticks_per_batch)):
            batch_ticks = ticks[i : i + max(1, ticks_per_batch)]
            tick_started = time.perf_counter()
            for tick in batch_ticks:
                stamp = float(tick * REPORT_INTERVAL)
                if stamp > self.clock.now():
                    self.clock.set(stamp)
                rows = [r.as_row() for r in by_tick.get(tick, [])]
                if rows:
                    self.positions.insert_rows(rows, timestamp=stamp)
                reqs = req_by_tick.get(tick, [])
                if reqs:
                    self.balance_req.insert_rows(reqs, timestamp=stamp)
            self.cell.run_until_quiescent()
            latencies.append(time.perf_counter() - tick_started)
        wall = time.perf_counter() - started

        problems: List[str] = []
        if validate:
            reference = LinearRoadReference(list(reports)).compute()
            problems = validate_outputs(
                reference,
                self.toll_client.rows,
                self.alert_client.rows,
                self.balance_client.rows,
                reference.expected_balances(list(balance_requests)),
            )
        return LinearRoadResult(
            scale=self.config.scale,
            reports=len(list(reports)),
            tolls=list(self.toll_client.rows),
            alerts=list(self.alert_client.rows),
            balances=list(self.balance_client.rows),
            tick_latencies=latencies,
            wall_time=wall,
            validation_problems=problems,
        )
