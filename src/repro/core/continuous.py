"""Continuous-query handles: what ``submit_continuous`` returns.

A handle owns the factory, the output basket and the emitter wired for one
standing query, and gives clients a synchronous way to collect delivered
results (plus subscription hooks for push delivery).
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from ..adapters.channels import Channel
from ..errors import DataCellError
from .basket import Basket
from .emitter import CollectingClient, Emitter
from .factory import Factory

__all__ = ["ContinuousQuery"]

Row = Tuple[Any, ...]


class ContinuousQuery:
    """A standing query registered with the DataCell.

    ``weighted`` is True for a view: its output rows carry a trailing
    ``dc_weight`` column (+1 insert / −1 retract), and
    :meth:`fetch_integrated` folds such a delta stream back into the
    current multiset.
    """

    weighted = False

    def __init__(
        self,
        name: str,
        sql: Optional[str],
        factory: Factory,
        output_basket: Basket,
        emitter: Emitter,
        collector: CollectingClient,
        engine: "Any",
    ):
        self.name = name
        self.sql = sql
        self.factory = factory
        self.output_basket = output_basket
        self.emitter = emitter
        self._collector = collector
        self._engine = engine
        self.cancelled = False

    # ------------------------------------------------------------------
    def fetch(self) -> List[Row]:
        """Drain and return the rows delivered since the last fetch."""
        return self._collector.take()

    def peek(self) -> List[Row]:
        """Delivered-but-unfetched rows, without draining."""
        return self._collector.rows

    def fetch_integrated(self) -> List[Row]:
        """The integrated (current) result of a weighted delta stream.

        Drains newly delivered weighted rows into a persistent Z-set and
        returns the accumulated multiset — i.e. what a one-shot query
        over everything consumed so far would answer.  For unweighted
        queries this raises: plain streams have no retraction column to
        integrate.
        """
        if not self.weighted:
            raise DataCellError(
                f"query {self.name!r} does not emit weighted deltas"
            )
        from ..incremental.zset import ZSet

        if not hasattr(self, "_integrated"):
            self._integrated = ZSet()
        for row in self.fetch():
            self._integrated.add(tuple(row[:-1]), int(row[-1]))
        return self._integrated.to_rows()

    def subscribe(self, client: Callable[[List[Row]], None]) -> None:
        """Register a push subscriber (called with each delivery batch)."""
        self.emitter.subscribe(client)

    def subscribe_channel(self, channel: Channel) -> None:
        """Deliver results into a channel in the textual wire format."""
        self.emitter.subscribe_channel(channel)

    def cancel(self) -> None:
        """Unregister the query from the engine's scheduler."""
        if self.cancelled:
            return
        self._engine.remove_continuous(self)
        self.cancelled = True

    # ------------------------------------------------------------------
    @property
    def results_delivered(self) -> int:
        return self.emitter.total_delivered

    @property
    def activations(self) -> int:
        return self.factory.activations

    def explain(self) -> str:
        """Human-readable plan (MAL text for compiled queries)."""
        return self.factory.plan.describe()

    def program(self) -> Optional[Any]:
        """The compiled MAL program, if this query runs one.

        Hand-built plans (window aggregates, callables) have no program
        and return ``None``.
        """
        compiled = getattr(self.factory.plan, "compiled", None)
        return None if compiled is None else compiled.program

    def explain_analyze(self) -> str:
        """The annotated plan tree: cumulative time/calls/rows per
        operator, aggregated from the interpreter's opcode timings over
        every activation so far."""
        render = getattr(self.factory.plan, "render_analyze", None)
        if render is not None:
            # incremental circuit plans render their own analysis
            # (per-stage MAL timings + circuit state footprint)
            return render()
        program = self.program()
        if program is None:
            return (
                f"continuous query {self.name}\n"
                f"  (hand-built plan, no MAL program: "
                f"{self.factory.plan.describe()})"
            )
        return program.render_analyze()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ContinuousQuery({self.name!r}, delivered={self.results_delivered})"
