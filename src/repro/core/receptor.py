"""Receptors — the ingest edge of the DataCell (paper §2.1).

A receptor continuously picks up incoming events from a communication
channel, validates their structure against the target basket's schema, and
forwards the content into one or more baskets.  The scheduler activates
it like any other Petri-net transition in every driving mode: its input
place is the channel, and a push wakes it.
"""

from __future__ import annotations

import itertools
import time
from typing import Any, List, Optional, Sequence, Tuple

from ..adapters.channels import Channel, parse_tuple_text
from ..errors import AdapterError
from ..kernel.types import parse_atom
from ..obs.metrics import MetricsRegistry, default_registry
from .basket import Basket
from .factory import ActivationResult

__all__ = ["Receptor"]

#: A receptor samples its batches 0, SAMPLE_EVERY, 2 * SAMPLE_EVERY, ...
#: for causal tracing: a sampled batch carries a trace token through
#: every basket hop, and each firing that touches it records the token
#: in its ``fire`` event (see ``docs/observability.md``).
SAMPLE_EVERY = 64

#: trace tokens, unique in the process; 0 means "not sampled"
_TOKENS = itertools.count(1)


class Receptor:
    """Moves events from a channel into target baskets.

    ``targets`` may name several baskets: that is the *separate baskets*
    strategy's replication point — every incoming tuple is copied into the
    private basket of each interested query.  All targets must share the
    same user schema.

    Invalid events (wrong arity, unparsable fields) are counted and
    skipped rather than stopping the stream; a stream engine must outlive
    malformed input.
    """

    def __init__(
        self,
        name: str,
        channel: Channel,
        targets: Sequence[Basket],
        batch_size: int = 1024,
        metrics: Optional[MetricsRegistry] = None,
        priority: int = 10,
    ):
        if not targets:
            raise AdapterError(f"receptor {name!r} needs at least one target")
        first = [
            (c.name.lower(), c.atom) for c in targets[0].user_columns
        ]
        for basket in targets[1:]:
            other = [(c.name.lower(), c.atom) for c in basket.user_columns]
            if other != first:
                raise AdapterError(
                    f"receptor {name!r}: target baskets have differing "
                    "schemas"
                )
        self.name = name
        self.channel = channel
        self.targets: List[Basket] = list(targets)
        self.batch_size = batch_size
        self.priority = priority  # receptors drain ahead of queries by default
        self.total_events = 0
        self.total_invalid = 0
        self.activations = 0
        # non-empty batches seen and sampled (a dark registry samples none)
        self.batches_seen = 0
        self.sampled_batches = 0
        self.metrics = metrics if metrics is not None else default_registry()
        self._m_events = self.metrics.counter(
            "datacell_receptor_events_total",
            "Valid events ingested from the channel",
            ("receptor",),
        ).labels(name)
        self._m_invalid = self.metrics.counter(
            "datacell_receptor_invalid_total",
            "Malformed events counted and skipped",
            ("receptor",),
        ).labels(name)

    # ------------------------------------------------------------------
    def input_places(self) -> Tuple[Channel]:
        return (self.channel,)

    def enabled(self) -> bool:
        """Fires when the channel has events waiting (its input place)."""
        return self.channel.pending() > 0

    def activate(self) -> ActivationResult:
        """Drain up to ``batch_size`` events into the target baskets."""
        started = time.perf_counter()
        events = self.channel.poll(self.batch_size)
        rows = []
        for event in events:
            row = self._validate(event)
            if row is not None:
                rows.append(row)
        token = 0
        if rows:
            if self.metrics.enabled:
                if not self.batches_seen % SAMPLE_EVERY:
                    token = next(_TOKENS)
                    self.sampled_batches += 1
                self.batches_seen += 1
            for basket in self.targets:
                basket.insert_rows(rows, trace_token=token)
        self.activations += 1
        self.total_events += len(rows)
        self._m_events.inc(len(rows))
        return ActivationResult(
            fired=True,
            tuples_in=len(events),
            tuples_out=len(rows) * len(self.targets),
            elapsed=time.perf_counter() - started,
            trace=token,
        )

    # ------------------------------------------------------------------
    def _validate(self, event: Any) -> Optional[List[Any]]:
        """Parse/validate one event; None (and a counter bump) if bad."""
        columns = self.targets[0].user_columns
        try:
            if isinstance(event, str):
                fields = parse_tuple_text(event)
                if len(fields) != len(columns):
                    raise AdapterError(
                        f"arity {len(fields)} != {len(columns)}"
                    )
                return [
                    parse_atom(col.atom, field)
                    for col, field in zip(columns, fields)
                ]
            fields = list(event)
            if len(fields) != len(columns):
                raise AdapterError(f"arity {len(fields)} != {len(columns)}")
            return fields
        except Exception:
            self.total_invalid += 1
            self._m_invalid.inc()
            return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        outs = ", ".join(b.name for b in self.targets)
        return f"Receptor({self.name!r} -> [{outs}])"
