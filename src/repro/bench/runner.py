"""Shared machinery for the benchmark suite (see DESIGN.md experiment index).

Each ``benchmarks/bench_*.py`` regenerates one of the paper's measurable
claims.  The helpers here build the standard pipelines, drive workloads,
and collect both wall-clock and *work* metrics (tuples scanned, copies
made, summaries merged) so benches report the mechanism, not just the
symptom.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from ..adapters.channels import InMemoryChannel
from ..core.basket import Basket
from ..core.clock import LogicalClock
from ..core.emitter import CollectingClient, Emitter
from ..core.factory import ConsumeMode, Factory, InputBinding
from ..core.receptor import Receptor
from ..core.scheduler import Scheduler
from ..core.strategies import RangeQuery, SelectPlan
from ..kernel.types import AtomType
from ..obs.metrics import MetricsRegistry
from ..obs.spans import SpanRecorder

__all__ = [
    "PipelineFixture",
    "build_figure1_pipeline",
    "run_stream_through",
    "Measurement",
]


@dataclass
class Measurement:
    """One benchmark data point."""

    label: str
    wall_seconds: float
    tuples: int
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        return self.tuples / self.wall_seconds if self.wall_seconds else 0.0


@dataclass
class PipelineFixture:
    """The Figure 1 chain, ready to drive."""

    clock: LogicalClock
    channel: InMemoryChannel
    receptor: Receptor
    factory: Factory
    emitter: Emitter
    client: CollectingClient
    scheduler: Scheduler
    input_basket: Basket
    output_basket: Basket
    metrics: MetricsRegistry


def build_figure1_pipeline(
    low: float = 100.0,
    high: float = 200.0,
    batch_size: int = 1024,
    metrics: Optional[MetricsRegistry] = None,
    spans: Optional[SpanRecorder] = None,
) -> PipelineFixture:
    """Receptor -> B1 -> select factory -> B2 -> emitter.

    Every component shares one private registry so a bench can read the
    pipeline's true counters instead of re-deriving them; pass
    ``MetricsRegistry(enabled=False)`` to measure the no-op overhead.
    Pass a :class:`SpanRecorder` to measure causal-tracing overhead at a
    given sampling rate.
    """
    clock = LogicalClock()
    metrics = metrics if metrics is not None else MetricsRegistry()
    b1 = Basket("b1", [("v", AtomType.INT)], clock, metrics=metrics)
    b2 = Basket("b2", [("v", AtomType.INT)], clock, metrics=metrics)
    channel = InMemoryChannel("stream")
    receptor = Receptor(
        "r", channel, [b1], batch_size=batch_size, metrics=metrics,
        tracer=spans,
    )
    plan = SelectPlan(RangeQuery("q", "v", low, high), "b1", "b2")
    factory = Factory(
        "q", plan, [InputBinding(b1, ConsumeMode.ALL)], [b2],
        metrics=metrics, tracer=spans,
    )
    client = CollectingClient()
    emitter = Emitter("e", b2, metrics=metrics, tracer=spans)
    emitter.subscribe(client)
    scheduler = Scheduler(metrics=metrics)
    for transition in (receptor, factory, emitter):
        scheduler.register(transition)
    return PipelineFixture(
        clock, channel, receptor, factory, emitter, client, scheduler,
        b1, b2, metrics,
    )


def run_stream_through(
    fixture: PipelineFixture,
    rows: Sequence[Tuple],
    batch_size: int,
) -> Measurement:
    """Push rows through the pipeline in batches; drain after each batch."""
    started = time.perf_counter()
    for i in range(0, len(rows), batch_size):
        for row in rows[i : i + batch_size]:
            fixture.channel.push(row)
        fixture.scheduler.run_until_quiescent()
    elapsed = time.perf_counter() - started
    delivered = fixture.metrics.value(
        "datacell_emitter_delivered_total", ("e",)
    )
    if delivered is None:  # registry disabled: fall back to the client
        delivered = float(len(fixture.client.rows))
    return Measurement(
        label=f"batch={batch_size}",
        wall_seconds=elapsed,
        tuples=len(rows),
        extra={"delivered": delivered},
    )
