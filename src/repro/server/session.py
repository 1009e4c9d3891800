"""Per-client session state: bounded output queues and subscriptions.

Everything here is transport-agnostic and thread-safe: the emitter fires
on a scheduler thread (or inline under the simulated scheduler) and
pushes encoded ``DATA`` frames into the session's :class:`OutputQueue`;
the asyncio writer (or a fake transport in tests) drains it.  The queue
is where the backpressure policy dial lives:

``block``
    A full queue holds back the emitters of the session's queries until
    the client drains below the bound — lossless.  The queue is a
    *gate* of those emitters (part of their enablement, a place whose
    change is freed room), so no thread waits: a slow client slows its
    own queries, not the whole engine (unless they share a factory).
    A queue that stays full for ``block_timeout`` escalates to
    disconnect (:meth:`ClientSession.check_block_timeout`, timed by the
    transport), so one dead client cannot hold a query forever.
``drop-oldest``
    The oldest queued ``DATA`` frame is shed to make room — bounded
    memory, freshest results win, drops are counted on the session,
    the emitter (:meth:`~repro.core.emitter.Emitter.note_dropped`), and
    the cell's log (a ``queue_full`` event).
``disconnect``
    The session is closed with an ``ERROR`` frame — strict clients that
    would rather re-subscribe than miss rows.

Control frames (``ACK``/``ERROR``/``PONG``/``BYE``) bypass the bound:
they are small, finite, and dropping them would deadlock the protocol.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Any, Callable, Deque, Dict, List, Optional, Tuple,
)

from ..core.places import Place
from ..errors import ServerError
from ..obs.metrics import Tally
from .protocol import (
    MAX_FRAME_BYTES,
    ColumnSpec,
    Message,
    data_message,
    encode_message,
    error_message,
)

if TYPE_CHECKING:
    from ..core.emitter import DeliveryBatch

__all__ = [
    "BACKPRESSURE_POLICIES",
    "BackpressurePolicy",
    "ServerConfig",
    "OutputQueue",
    "ClientSession",
    "SubscriptionBinding",
]

#: The three positions of the backpressure dial.
BACKPRESSURE_POLICIES = ("block", "drop-oldest", "disconnect")

BackpressurePolicy = str  # one of BACKPRESSURE_POLICIES


@dataclass
class ServerConfig:
    """Tunable server behavior (transport + admission + backpressure)."""

    #: policy applied when a client's output queue is full
    backpressure: BackpressurePolicy = "block"
    #: bound on queued DATA frames per client
    queue_frames: int = 1024
    #: how long ``block`` may stall a delivery before escalating to
    #: disconnect (seconds)
    block_timeout: float = 30.0
    #: total session cap; HELLO beyond it is refused
    max_sessions: int = 1024
    #: per-tenant session cap (None = unlimited)
    max_sessions_per_tenant: Optional[int] = None
    #: per-tenant ingest watermark: past this many queued-but-unapplied
    #: rows the reader stops reading the socket (TCP backpressure)
    max_pending_rows_per_tenant: int = 200_000
    #: how long a budget breach throttles a tenant's ingest (seconds)
    admission_cooldown: float = 0.5
    #: decoder limit per frame
    max_frame_bytes: int = MAX_FRAME_BYTES
    #: stop()/close() budget for flushing client output queues
    shutdown_drain_timeout: float = 5.0

    def validate(self) -> None:
        if self.backpressure not in BACKPRESSURE_POLICIES:
            raise ServerError(
                f"backpressure must be one of {BACKPRESSURE_POLICIES}, "
                f"got {self.backpressure!r}"
            )
        if self.queue_frames < 1:
            raise ServerError("queue_frames must be >= 1")


class OutputQueue(Place):
    """A bounded, policy-governed FIFO of encoded frames.

    Producers are emitters firing under the scheduler; the consumer is
    the transport's writer.  ``offer_data`` returns what happened —
    ``"queued"``, ``"dropped"`` (drop-oldest shed a frame),
    ``"disconnect"`` (the policy demands closing), or ``"closed"`` (the
    session is already gone).  Under ``block`` the queue never refuses
    a frame: :meth:`has_room` gates the emitters, and a drain that frees
    room (or a close) is a change of this place that wakes them.
    """

    def __init__(
        self,
        policy: BackpressurePolicy,
        capacity: int,
        block_timeout: float,
    ):
        self.policy = policy
        self.capacity = capacity
        self.block_timeout = block_timeout
        # (is_data, frame bytes, row count)
        self._frames: Deque[Tuple[bool, bytes, int]] = deque()
        self._data_depth = 0
        self._lock = threading.Lock()
        self._closed = False
        self._full_since: Optional[float] = None  # block: when it filled
        self.dropped_frames = 0
        self.dropped_rows = 0
        # times a block queue filled; the server's
        # datacell_server_backpressure_blocks_total reads this tally
        self.block_tally = Tally()

    # -- producers -----------------------------------------------------
    def offer_control(self, frame: bytes) -> str:
        with self._lock:
            if self._closed:
                return "closed"
            self._frames.append((False, frame, 0))
            return "queued"

    def offer_data(self, frame: bytes, rows: int) -> str:
        with self._lock:
            if self._closed:
                return "closed"
            shed = False
            if self._data_depth >= self.capacity:
                if self.policy == "drop-oldest":
                    self._shed_oldest_locked()
                    shed = True
                elif self.policy == "disconnect":
                    return "disconnect"
            self._frames.append((True, frame, rows))
            self._data_depth += 1
            if (
                self.policy == "block"
                and self._data_depth >= self.capacity
                and self._full_since is None
            ):
                self._full_since = time.monotonic()
                self.block_tally.value += 1
            return "dropped" if shed else "queued"

    @property
    def blocks(self) -> int:
        """Times this ``block`` queue filled up."""
        return int(self.block_tally.value)

    def _shed_oldest_locked(self) -> None:
        for i, (is_data, _, rows) in enumerate(self._frames):
            if is_data:
                del self._frames[i]
                self._data_depth -= 1
                self.dropped_frames += 1
                self.dropped_rows += rows
                return

    def has_room(self) -> bool:
        """Whether a gated emitter may deliver: below the bound, or
        closed (deliveries to a closed session are discarded)."""
        return self._closed or self._data_depth < self.capacity

    def full_for(self) -> Optional[float]:
        """Seconds a ``block`` queue has been full, None when it is not."""
        since = self._full_since
        return None if since is None else time.monotonic() - since

    # -- the consumer --------------------------------------------------
    def drain(self, limit: int = 256) -> List[bytes]:
        """Pop up to ``limit`` frames (transport writer only)."""
        with self._lock:
            out: List[bytes] = []
            while self._frames and len(out) < limit:
                is_data, frame, _ = self._frames.popleft()
                if is_data:
                    self._data_depth -= 1
                out.append(frame)
            freed = (
                self._full_since is not None
                and self._data_depth < self.capacity
            )
            if freed:
                self._full_since = None
        if freed:
            self.changed()
        return out

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._full_since = None
        self.changed()

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def depth(self) -> int:
        with self._lock:
            return len(self._frames)

    @property
    def data_depth(self) -> int:
        return self._data_depth


class ClientSession:
    """One connected client: identity, output queue, subscriptions.

    The transport layer (asyncio server, or a fake in tests) installs
    three callbacks: ``wake`` (new frames are queued — schedule a writer
    drain), ``request_close`` (policy demands disconnecting) and
    ``on_full`` (a ``block`` queue filled — call
    :meth:`check_block_timeout` after ``block_timeout``).  All must be
    safe to call from any thread.
    """

    def __init__(
        self,
        session_id: int,
        config: ServerConfig,
        tenant: str = "default",
        client: str = "?",
        remote: str = "?",
        wake: Optional[Callable[[], None]] = None,
        request_close: Optional[Callable[[str], None]] = None,
        on_full: Optional[Callable[[], None]] = None,
    ):
        self.id = session_id
        self.config = config
        self.tenant = tenant
        self.client = client
        self.remote = remote
        self.queue = OutputQueue(
            config.backpressure, config.queue_frames, config.block_timeout
        )
        self.wake = wake or (lambda: None)
        self.request_close = request_close or (lambda reason: None)
        self.on_full = on_full or (lambda: None)
        self.hello_done = False
        self.closed = False
        # name -> (handle or None, binding, owned-by-this-session)
        self.subscriptions: Dict[str, Tuple[Any, "SubscriptionBinding", bool]] = {}
        self._lock = threading.Lock()
        # counters (read by stats()/sys.events; single-writer per field)
        self.frames_in = 0
        self.frames_out = 0
        self.rows_in = 0
        self.rows_out = 0

    # -- outgoing ------------------------------------------------------
    def send(self, message: Message) -> str:
        """Queue a control frame and wake the writer."""
        outcome = self.queue.offer_control(encode_message(message))
        if outcome == "queued":
            self.wake()
        return outcome

    def send_error(
        self, code: str, text: str, seq: Optional[int] = None
    ) -> str:
        return self.send(error_message(code, text, seq))

    def deliver_data(self, frame: bytes, rows: int) -> str:
        """Queue a DATA frame under the backpressure policy."""
        outcome = self.queue.offer_data(frame, rows)
        if outcome in ("queued", "dropped"):
            self.rows_out += rows
            self.wake()
            if not self.queue.has_room() and self.queue.policy == "block":
                self.on_full()
        elif outcome == "disconnect":
            self._overflowed()
        return outcome

    def check_block_timeout(self) -> Optional[float]:
        """Disconnect a ``block`` session whose queue has stayed full for
        ``block_timeout`` and return 0; otherwise return the seconds left
        before it would (None when the queue is not full)."""
        full_for = self.queue.full_for()
        if full_for is None:
            return None
        left = self.queue.block_timeout - full_for
        if left <= 0:
            self._overflowed()
        return max(left, 0.0)

    def _overflowed(self) -> None:
        self.send_error(
            "backpressure",
            f"output queue overflowed under policy {self.queue.policy!r}",
        )
        self.request_close("backpressure")

    # -- subscriptions -------------------------------------------------
    def add_subscription(
        self, name: str, handle: Any, binding: "SubscriptionBinding",
        owned: bool,
    ) -> None:
        with self._lock:
            self.subscriptions[name] = (handle, binding, owned)

    def remove_subscription(
        self, name: str
    ) -> Optional[Tuple[Any, "SubscriptionBinding", bool]]:
        with self._lock:
            return self.subscriptions.pop(name, None)

    def drain_subscriptions(
        self,
    ) -> List[Tuple[str, Any, "SubscriptionBinding", bool]]:
        with self._lock:
            out = [
                (name, handle, binding, owned)
                for name, (handle, binding, owned) in
                self.subscriptions.items()
            ]
            self.subscriptions = {}
            return out

    def close(self) -> None:
        self.closed = True
        self.queue.close()

    def stats(self) -> Dict[str, Any]:
        return {
            "tenant": self.tenant,
            "client": self.client,
            "remote": self.remote,
            "subscriptions": len(self.subscriptions),
            "frames_in": self.frames_in,
            "frames_out": self.frames_out,
            "rows_in": self.rows_in,
            "rows_out": self.rows_out,
            "dropped_frames": self.dropped_frames,
            "dropped_rows": self.queue.dropped_rows,
            "queue_depth": self.queue.depth,
            "blocks": self.queue.blocks,
        }

    @property
    def dropped_frames(self) -> int:
        return self.queue.dropped_frames

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ClientSession(id={self.id}, tenant={self.tenant!r}, "
            f"subs={len(self.subscriptions)})"
        )


class SubscriptionBinding:
    """The emitter-side batch consumer attaching a session to a query.

    Subscribed via :meth:`Emitter.subscribe`; each delivered batch is
    encoded from its tails as one ``DATA`` frame — once per batch, the
    same bytes for every session bound to the query — and offered to
    the session queue.  Never raises into the emitter — queue overflow
    is resolved by the session's policy, and drops are folded back into
    the emitter's ``deliveries_dropped`` accounting.  Under ``block``
    the session queue is the emitter's :attr:`gate`.
    """

    def __init__(
        self,
        session: ClientSession,
        query: str,
        columns: List[ColumnSpec],
        emitter: Any = None,
        on_drop: Optional[Callable[[str, int, str], None]] = None,
    ):
        self.session = session
        self.query = query
        self.columns = columns
        self.emitter = emitter
        self.on_drop = on_drop
        self.deliveries = 0
        self.rows_delivered = 0

    @property
    def gate(self) -> Optional[OutputQueue]:
        queue = self.session.queue
        return queue if queue.policy == "block" else None

    def deliver_batch(self, batch: DeliveryBatch) -> None:
        rows = len(batch)
        if not rows or self.session.closed:
            return
        frame = batch.memo(
            ("DATA", self.query),
            lambda: encode_message(
                data_message(self.query, self.columns, batch.tails)
            ),
        )
        outcome = self.session.deliver_data(frame, rows)
        if outcome in ("queued", "dropped"):
            self.deliveries += 1
            self.rows_delivered += rows
        if outcome in ("dropped", "disconnect") and self.on_drop is not None:
            self.on_drop(self.query, rows, outcome)
        if outcome in ("dropped", "disconnect") and self.emitter is not None:
            self.emitter.note_dropped(rows)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SubscriptionBinding({self.query!r} -> "
            f"session {self.session.id})"
        )
