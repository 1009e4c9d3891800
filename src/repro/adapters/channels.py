"""Communication channels at the DataCell periphery.

The paper's interchange format is purposely simple: textual flat relational
tuples.  A :class:`Channel` is anything events can be pushed into and
polled from; receptors poll channels, emitters push into them.  The
in-memory implementation keeps tests and simulations deterministic;
the network door is :mod:`repro.server`.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Deque, List, Optional, Sequence, Union

from ..errors import AdapterError

__all__ = ["Channel", "InMemoryChannel", "format_tuple", "parse_tuple_text"]

Event = Union[str, Sequence[Any]]

FIELD_SEPARATOR = ","
_ESCAPED = {"\\,": ",", "\\\\": "\\", "\\n": "\n"}


def format_tuple(values: Sequence[Any]) -> str:
    """Serialize one flat relational tuple to the textual wire format.

    ``None`` becomes the empty field; separators inside strings are
    backslash-escaped.
    """
    fields = []
    for value in values:
        if value is None:
            fields.append("")
            continue
        text = str(value)
        text = text.replace("\\", "\\\\").replace(",", "\\,")
        text = text.replace("\n", "\\n")
        fields.append(text)
    return FIELD_SEPARATOR.join(fields)


def parse_tuple_text(line: str) -> List[str]:
    """Split one textual tuple into raw fields (inverse of format_tuple)."""
    fields: List[str] = []
    current: List[str] = []
    i = 0
    while i < len(line):
        ch = line[i]
        if ch == "\\" and i + 1 < len(line):
            pair = line[i : i + 2]
            current.append(_ESCAPED.get(pair, pair[1]))
            i += 2
            continue
        if ch == FIELD_SEPARATOR:
            fields.append("".join(current))
            current = []
        else:
            current.append(ch)
        i += 1
    fields.append("".join(current))
    return fields


class Channel:
    """Interface: a stream of events between the engine and the world."""

    def push(self, event: Event) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def poll(self, max_items: int = 1024) -> List[Event]:  # pragma: no cover
        raise NotImplementedError

    def pending(self) -> int:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    @property
    def closed(self) -> bool:  # pragma: no cover - interface
        raise NotImplementedError


class InMemoryChannel(Channel):
    """A thread-safe FIFO of events.

    Events may be textual tuples (the wire format) or already-structured
    python sequences — receptors accept both, so in-process producers can
    skip serialization.
    """

    def __init__(self, name: str = "channel", capacity: Optional[int] = None):
        self.name = name
        self.capacity = capacity
        self._queue: Deque[Event] = deque()
        self._lock = threading.Lock()
        self._closed = False
        self.total_pushed = 0
        self.total_dropped = 0

    def push(self, event: Event) -> None:
        with self._lock:
            if self._closed:
                raise AdapterError(f"channel {self.name!r} is closed")
            if self.capacity is not None and len(self._queue) >= self.capacity:
                # drop-oldest policy: a full channel sheds load at the edge
                self._queue.popleft()
                self.total_dropped += 1
            self._queue.append(event)
            self.total_pushed += 1

    def push_many(self, events: Sequence[Event]) -> None:
        for event in events:
            self.push(event)

    def poll(self, max_items: int = 1024) -> List[Event]:
        with self._lock:
            out: List[Event] = []
            while self._queue and len(out) < max_items:
                out.append(self._queue.popleft())
            return out

    def pending(self) -> int:
        with self._lock:
            return len(self._queue)

    def close(self) -> None:
        with self._lock:
            self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"InMemoryChannel({self.name!r}, pending={self.pending()}, "
            f"pushed={self.total_pushed})"
        )
