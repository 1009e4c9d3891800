"""The server workload ``srv_open``: an open-loop load over real sockets.

The system under test is ``python -m repro.server.cli`` in its own
process.  This process is the load generator: two TCP connections served
by one thread.  Connection *i* sends pre-encoded 16-row ``INSERT`` frames
into basket *i* at fixed due times, whatever the server does, and is
subscribed to both queries.  A batch's latency runs from its **due**
time to the decode of its last own row, so time a stalled generator or
server imposes on later batches is counted.

The three offered rates are frozen constants (README, "Calibration").
"""

from __future__ import annotations

import hashlib
import os
import select
import socket
import statistics
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from harness import (
    LATE_CAP_S,
    OUT_DIR,
    QUICK_SHARE,
    SRC_DIR,
    Metric,
    peak_rss_mb,
    percentile,
    process_cpu_s,
    row_checksum,
    timed,
)
from repro.kernel.types import AtomType
from repro.server.protocol import (
    PROTOCOL_VERSION,
    Command,
    FrameDecoder,
    Message,
    encode_message,
)
from tracing import Tracer

CONNECTIONS = 2
FRAME_ROWS = 16
COLUMNS = [("c", AtomType.INT), ("b", AtomType.INT), ("v", AtomType.INT)]
#: Offered load per connection, in 16-row batches per second: about 25 %,
#: 50 % and 85 % of the saturation measured on the seed commit, which is
#: 70-140 % of what the server manages from hour to hour (README).
RATES = {"low": 575.0, "mid": 1150.0, "high": 2000.0}
STEPS = ("low", "mid", "high")
#: The step ``p50_ms`` is read at, and that the traced pass repeats.  At
#: ``mid`` a host that runs 1.5x slower doubles the latency (utilisation
#: goes from 50 % to 75 %); at ``low`` it adds a fifth.  ``mid`` and
#: ``high`` latencies are in the result file and the per-layer metrics.
LATENCY_STEP = "low"
#: share of ``--seconds`` spent warming up; the rest is the three steps
WARMUP_SHARE = 0.1
SUSTAINABLE_P99_MS = 100.0
INSERT_SEQ_BASE = 1_000_000
HELLO_REPLY = 0  # HELLO_OK carries no seq; control seqs start at 1
PING_SEQ_BASE = 500_000_000
PING_EVERY = 8
BOOT_TIMEOUT_S = 30.0
QUIET_WINDOW_S = 0.25
#: A window of the latency step counts as quiet when the PINGs sent in it
#: came back this fast (median).  On the seed commit an undisturbed
#: server answers in 0.8-1.1 ms, one the host is starving in 1.5-6 ms.
PING_QUIET_MS = 1.25
#: the latency step is repeated, after a pause, until this many of its
#: windows were quiet, at most MAX_LOOKS times in all
MIN_QUIET_WINDOWS = 4
MAX_LOOKS = 5
LOOK_PAUSE_S = 2.0
#: a server boot costs ~0.25 s, so set-up is repeated less often than in-process
EXTRA_BOOTS = 4


def query_sql(index: int) -> str:
    # every row qualifies: a filter that left rows behind would grow the
    # server's basket for the whole run (README, "Known gaps")
    return (
        f"select t.c, t.b, t.v from "
        f"[select * from s{index} where s{index}.v >= 0] as t"
    )


# ----------------------------------------------------------------------
# the server process
# ----------------------------------------------------------------------
def cpu_split() -> Optional[Tuple[int, int]]:
    """(server CPU, generator CPU) when the process may use two.

    All of the server's threads share one interpreter lock, so one core
    is all it can use; giving the generator the other keeps the two from
    migrating over each other, which on 2 cores halves the capacity the
    server shows and makes it wander from run to run.
    """
    cpus = sorted(os.sched_getaffinity(0))
    return (cpus[0], cpus[1]) if len(cpus) >= 2 else None


class ServerProcess:
    """``repro.server.cli`` as a child; always reaped on exit."""

    def __init__(self, cpu: Optional[int] = None) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR)
        env["PYTHONHASHSEED"] = "0"
        env["PYTHONUNBUFFERED"] = "1"
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.server.cli",
             "--port", "0", "--http", "0"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        try:
            if cpu is not None:
                # before the child starts a thread, so that all inherit it
                os.sched_setaffinity(self.proc.pid, {cpu})
            self.host, self.port = self._await_line(
                self.proc.stdout, "datacell listening on "
            ).rsplit(":", 1)
            self.port = int(self.port)
            self.http = self._await_line(self.proc.stderr, "telemetry at ")
        except BaseException:
            self.close()
            raise

    @property
    def pid(self) -> int:
        return self.proc.pid

    def _await_line(self, stream: Any, prefix: str) -> str:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stream], [], [], 0.5)
            if not ready:
                if self.proc.poll() is not None:
                    break
                continue
            line = stream.readline()
            if not line:
                break
            if line.startswith(prefix):
                return line[len(prefix):].strip()
        raise RuntimeError(f"server did not print {prefix!r}")

    def scrape(self) -> Dict[str, float]:
        """``/metrics`` as {"name{labels}": value}."""
        with urllib.request.urlopen(self.http + "/metrics", timeout=10) as reply:
            text = reply.read().decode("utf-8")
        out = {}
        for line in text.splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.rpartition(" ")
                out[name] = float(value)
        return out

    def close(self) -> None:
        # the server holds no durable state, and its orderly shutdown
        # waits out a 5 s drain budget: end it at once, then reap it
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for stream in (self.proc.stdout, self.proc.stderr):
            if stream is not None:
                stream.close()


# ----------------------------------------------------------------------
# one connection of the load generator
# ----------------------------------------------------------------------
class Connection:
    """A socket, a frame decoder, and the books of what came back."""

    def __init__(self, host: str, port: int, index: int, batches: int):
        self.index = index
        self.sock = socket.create_connection((host, port), timeout=10.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.decoder = FrameDecoder()
        self._seq = 0
        self._replies: Dict[int, Message] = {}
        self.own_query = f"q{index}"
        # per-batch books, indexed by this connection's batch number
        self.remaining = np.full(batches, FRAME_ROWS, dtype=np.int64)
        self.due = np.zeros(batches)
        self.sent_at = np.zeros(batches)
        self.ack_at = np.zeros(batches)
        self.done_at = np.zeros(batches)
        self.ping_sent: Dict[int, float] = {}
        #: (time sent, round trip) of every PING answered
        self.pings: List[Tuple[float, float]] = []
        # per-query (rows, checksum) of everything received
        self.received: Dict[str, List[int]] = {}
        self.errors: List[str] = []
        self.tracer: Optional[Tracer] = None

    # -- control phase (blocking request/reply) ------------------------
    def encode(self, message: Message) -> bytes:
        # a method so that the traced step can wrap it on this instance
        return encode_message(message)

    def request(self, command: Command, meta: Dict[str, Any]) -> Message:
        self._seq += 1
        seq = self._seq
        self.sock.sendall(self.encode(Message(command, {**meta, "seq": seq})))
        reply = self._await(seq, command.name)
        if reply.command is Command.ERROR:
            raise RuntimeError(f"{command.name} refused: {reply.meta}")
        return reply

    def hello(self) -> None:
        self.sock.sendall(self.encode(Message(Command.HELLO, {
            "version": PROTOCOL_VERSION, "tenant": "bench",
            "client": f"suite-{self.index}",
        })))
        self._await(HELLO_REPLY, "HELLO")

    def _await(self, key: int, what: str) -> Message:
        deadline = time.monotonic() + 10.0
        while key not in self._replies:
            if time.monotonic() > deadline:
                raise RuntimeError(f"no reply to {what}")
            self.pump(1.0)
        return self._replies.pop(key)

    # -- data phase ----------------------------------------------------
    def pump(self, timeout: float) -> None:
        """Wait up to ``timeout`` for bytes; decode and book them."""
        ready, _, _ = select.select([self.sock], [], [], max(0.0, timeout))
        if ready:
            self.read()

    def read(self) -> None:
        """Take what the socket holds; decode and book it."""
        data = self.sock.recv(262144)
        if not data:
            raise RuntimeError("server closed the connection")
        messages = self.decoder.feed(data)
        now = time.perf_counter()
        for message in messages:
            self._book(message, now)

    def _book(self, message: Message, now: float) -> None:
        command = message.command
        if command is Command.DATA:
            query = str(message.meta.get("query"))
            b = message.arrays[1]
            rows, checksum = row_checksum(*message.arrays)
            books = self.received.setdefault(query, [0, 0])
            books[0] += rows
            books[1] += checksum
            if query == self.own_query:
                batches, counts = np.unique(b, return_counts=True)
                self.remaining[batches] -= counts
                self.done_at[batches[self.remaining[batches] == 0]] = now
            return
        seq = message.meta.get("seq")
        if command is Command.ACK and seq is not None and seq >= INSERT_SEQ_BASE:
            self.ack_at[seq - INSERT_SEQ_BASE] = now
        elif command is Command.PONG:
            sent = self.ping_sent.pop(seq, None)
            if sent is not None:
                self.pings.append((sent, now - sent))
        elif command is Command.HELLO_OK:
            self._replies[HELLO_REPLY] = message
        elif command is Command.ERROR and (seq is None or seq >= INSERT_SEQ_BASE):
            self.errors.append(str(message.meta))
        elif seq is not None:
            self._replies[seq] = message

    def send_batch(self, frame: bytes, number: int, ping: bool) -> None:
        self.sock.sendall(frame)
        self.sent_at[number] = time.perf_counter()
        if ping:
            seq = PING_SEQ_BASE + number
            self.ping_sent[seq] = time.perf_counter()
            self.sock.sendall(self.encode(Message(Command.PING, {"seq": seq})))

    def close(self) -> None:
        try:
            self.sock.sendall(encode_message(Message(Command.BYE, {})))
        except OSError:
            pass
        self.sock.close()


# ----------------------------------------------------------------------
# inputs and steps
# ----------------------------------------------------------------------
@dataclass
class StepPlan:
    name: str
    rate: float  # batches per second per connection
    first: int  # first batch number of the step
    count: int  # batches per connection
    pings: bool = False
    traced: bool = False
    #: a repeat of the latency step, run only while quiet windows are short
    optional: bool = False


def plan_steps(seconds: float, quick: bool, trace: bool) -> List[StepPlan]:
    scale = QUICK_SHARE if quick else 1.0
    warm_s = max(0.2, seconds * WARMUP_SHARE * scale)
    step_s = max(0.3, seconds * (1 - WARMUP_SHARE) / len(STEPS) * scale)
    steps = [("warmup", RATES["mid"], warm_s, False)]
    for name in STEPS:
        steps.append((name, RATES[name], step_s, False))
        if trace and name == LATENCY_STEP:
            steps.append(("traced", RATES[name], step_s, True))
    steps += [
        (f"{LATENCY_STEP}_again{look}", RATES[LATENCY_STEP], step_s, False)
        for look in range(1, MAX_LOOKS)
    ]
    plans, first = [], 0
    for name, rate, duration, traced in steps:
        count = max(2, int(rate * duration))
        plans.append(StepPlan(
            name, rate, first, count,
            pings=traced or name.startswith(LATENCY_STEP), traced=traced,
            optional="_again" in name,
        ))
        first += count
    return plans


def generate(seed: int, seconds: float, quick: bool, trace: bool) -> Dict[str, Any]:
    """Values for every batch of every connection, from the seed."""
    plans = plan_steps(seconds, quick, trace)
    batches = plans[-1].first + plans[-1].count
    rng = np.random.default_rng(seed)
    values = rng.integers(
        0, 1000, (CONNECTIONS, batches * FRAME_ROWS), dtype=np.int32
    )
    return {"plans": plans, "batches": batches, "values": values,
            "rows": batches * FRAME_ROWS}


def input_digest(inputs: Dict[str, Any]) -> str:
    return hashlib.sha256(inputs["values"].tobytes()).hexdigest()


def encode_frames(conn: Connection, values: np.ndarray, plan: StepPlan) -> List[bytes]:
    """The step's INSERT frames, encoded before its clock starts."""
    frames = []
    c = np.full(FRAME_ROWS, conn.index, dtype=np.int32)
    for number in range(plan.first, plan.first + plan.count):
        rows = slice(number * FRAME_ROWS, (number + 1) * FRAME_ROWS)
        frames.append(conn.encode(Message(
            Command.INSERT,
            {"basket": f"s{conn.index}", "seq": INSERT_SEQ_BASE + number},
            COLUMNS,
            [c, np.full(FRAME_ROWS, number, dtype=np.int32), values[rows]],
        )))
    return frames


def reference(inputs: Dict[str, Any], index: int, batches: int) -> Tuple[int, int]:
    """(rows, checksum) connection ``index`` inserted in ``batches`` batches."""
    v = inputs["values"][index][: batches * FRAME_ROWS]
    b = np.repeat(np.arange(batches), FRAME_ROWS)
    return row_checksum(np.full(len(v), index), b, v)


# ----------------------------------------------------------------------
# set-up (timed) and the run
# ----------------------------------------------------------------------
def connect_all(server: ServerProcess, batches: int) -> List[Connection]:
    """Connect, create the baskets, register and cross-subscribe."""
    conns: List[Connection] = []
    try:
        for index in range(CONNECTIONS):
            conn = Connection(server.host, server.port, index, batches)
            conns.append(conn)
            conn.hello()
            conn.request(Command.CREATE, {
                "sql": f"create basket s{index} (c int, b int, v int)"})
            conn.request(Command.SUBSCRIBE, {
                "sql": query_sql(index), "name": f"q{index}"})
        for conn in conns:
            for other in range(CONNECTIONS):
                if other != conn.index:
                    conn.request(Command.SUBSCRIBE, {"query": f"q{other}"})
    except BaseException:
        for conn in conns:
            conn.close()
        raise
    return conns


def boot(batches: int, cpu: Optional[int] = None) -> Tuple[ServerProcess, List[Connection]]:
    server = ServerProcess(cpu)
    try:
        conns = connect_all(server, batches)
    except BaseException:
        server.close()
        raise
    return server, conns


@dataclass
class StepResult:
    plan: StepPlan
    start: float
    end: float  # end of the offered-load window (last due + interval)
    latencies: List[float] = field(default_factory=list)
    failed: int = 0
    late: List[float] = field(default_factory=list)
    backlog_mid: int = 0
    backlog_end: int = 0
    delivered_in_window: int = 0
    #: when the last of those rows arrived
    last_delivery: float = 0.0
    #: (due time, latency) of every batch answered in time
    timeline: List[Tuple[float, float]] = field(default_factory=list)
    #: (time sent, round trip) of the step's PINGs
    pings: List[Tuple[float, float]] = field(default_factory=list)

    @property
    def offered_rows_per_s(self) -> float:
        return self.plan.rate * FRAME_ROWS * CONNECTIONS

    def windows(self) -> List[Tuple[float, float]]:
        """Per ``QUIET_WINDOW_S`` window: (median PING, median latency).

        A window without PINGs has a median PING of 0.
        """
        count = max(1, round((self.end - self.start) / QUIET_WINDOW_S))
        width = (self.end - self.start) / count
        out = []
        for index in range(count):
            lo = self.start + index * width
            latencies = [v for at, v in self.timeline if lo <= at < lo + width]
            if latencies:
                pings = [v for at, v in self.pings if lo <= at < lo + width]
                out.append((percentile(pings, 50), percentile(latencies, 50)))
        return out


def quiet_p50(looks: Sequence[StepResult]) -> Tuple[float, int]:
    """Median latency of the quietest window, and how many were quiet.

    The host's other tenants only ever add latency: in bursts of a
    second, which the window they spared escapes, and in stretches of
    ten to forty seconds in which the server is starved of its core.
    The PINGs riding along tell the two apart without touching the
    engine: only windows whose PINGs came back promptly are candidates.
    If no window was quiet the least bad one is reported all the same.
    """
    windows = [window for look in looks for window in look.windows()]
    quiet = [w for w in windows if w[0] * 1e3 <= PING_QUIET_MS]
    return min((w[1] for w in quiet or windows), default=0.0), len(quiet)


def drive_step(conns: Sequence[Connection], frames: Sequence[Sequence[bytes]],
               plan: StepPlan, start: float, interval: float) -> None:
    """Send every connection's frames on schedule; then drain.

    Batch ``plan.first + i`` of each connection is due at ``start + i *
    interval``.  One thread serves both sockets: two threads would hand
    the interpreter lock back and forth, and each hand-over can take as
    long (5 ms) as the latency being measured.  After the last send the
    loop keeps reading until every batch of the step came back, or the
    late cap passed.
    """
    clock = time.perf_counter
    sockets = {conn.sock: conn for conn in conns}
    first, count = plan.first, plan.count
    for conn in conns:
        conn.due[first : first + count] = start + interval * np.arange(count)
    give_up = start + interval * count + LATE_CAP_S
    sent = 0
    while True:
        now = clock()
        while sent < count and start + interval * sent <= now:
            for conn in conns:
                conn.send_batch(frames[conn.index][sent], first + sent,
                                plan.pings and sent % PING_EVERY == 0)
            sent += 1
        if sent == count:
            if now > give_up or all(
                (conn.remaining[first : first + count] == 0).all()
                for conn in conns
            ):
                return
            timeout = 0.05
        else:
            timeout = max(0.0, start + interval * sent - clock())
        ready, _, _ = select.select(list(sockets), [], [], timeout)
        for sock in ready:
            sockets[sock].read()


def run_step(conns: Sequence[Connection], inputs: Dict[str, Any],
             plan: StepPlan) -> StepResult:
    frames = []
    for conn in conns:
        if plan.traced:
            conn.tracer = Tracer()
            conn.tracer.wrap(conn, "encode", "gen", label="encode_message")
            conn.tracer.wrap(conn.decoder, "feed", "gen",
                             label="FrameDecoder.feed")
        frames.append(encode_frames(conn, inputs["values"][conn.index], plan))
    interval = 1.0 / plan.rate
    start = time.perf_counter() + 0.05
    drive_step(conns, frames, plan, start, interval)
    for conn in conns:
        if conn.tracer is not None:
            conn.tracer.unwrap_all()
    result = StepResult(plan, start, start + plan.count * interval)
    result.pings = [p for conn in conns for p in conn.pings if p[0] >= start]
    middle = (result.start + result.end) / 2
    window = slice(plan.first, plan.first + plan.count)
    for conn in conns:
        due, sent = conn.due[window], conn.sent_at[window]
        done = conn.done_at[window]
        complete = conn.remaining[window] == 0
        latency = done - due
        on_time = complete & (latency <= LATE_CAP_S)
        result.failed += int((~on_time).sum())
        result.latencies.extend(latency[on_time].tolist())
        result.timeline.extend(zip(due[on_time].tolist(), latency[on_time].tolist()))
        result.late.extend((sent - due).tolist())
        for at, name in ((middle, "backlog_mid"), (result.end, "backlog_end")):
            backlog = int((sent <= at).sum() - (complete & (done <= at)).sum())
            setattr(result, name, getattr(result, name) + backlog * FRAME_ROWS)
        in_window = complete & (done <= result.end)
        result.delivered_in_window += FRAME_ROWS * int(in_window.sum())
        result.last_delivery = max(
            result.last_delivery, float(done[in_window].max(initial=start)))
    return result


def sustainable(results: Dict[str, StepResult]) -> float:
    """Highest offered rate that met the latency limit with a flat backlog."""
    best = 0.0
    for name in STEPS:
        step = results[name]
        flat = step.backlog_end <= step.backlog_mid + 2 * FRAME_ROWS * CONNECTIONS
        if (
            not step.failed and flat
            and percentile(step.latencies, 99) * 1e3 <= SUSTAINABLE_P99_MS
        ):
            best = max(best, step.offered_rows_per_s)
    return best


def check_exactly_once(conns: Sequence[Connection], inputs: Dict[str, Any],
                       batches: int) -> int:
    """Each subscriber got each query's rows once: count and checksum."""
    wrong = 0
    for conn in conns:
        # a step ends when a connection's *own* rows are back; the other
        # query's last rows may still be in flight
        give_up = time.perf_counter() + LATE_CAP_S
        while (
            any(conn.received.get(f"q{index}", [0])[0] < batches * FRAME_ROWS
                for index in range(CONNECTIONS))
            and time.perf_counter() < give_up
        ):
            conn.pump(0.05)
        wrong += len(conn.errors)
        for index in range(CONNECTIONS):
            got = tuple(conn.received.get(f"q{index}", [0, 0]))
            wrong += int(got != reference(inputs, index, batches))
    return wrong


def write_trace(conns: Sequence[Connection], step: StepResult, path: Any) -> None:
    """The traced step as Chrome trace events, one track per connection.

    Per batch: ``gen.wait`` (due -> sent), ``server.ack`` (sent -> ACK)
    and ``server.ack_to_data`` (ACK -> last own row), parented on a
    ``batch`` span; plus the client's encode and decode spans.
    """
    import json

    events = []
    origin = step.start
    window = range(step.plan.first, step.plan.first + step.plan.count)

    def event(name: str, layer: str, tid: int, start: float, end: float,
              **args: Any) -> None:
        events.append({
            "name": name, "cat": layer, "ph": "X", "pid": 1, "tid": tid,
            "ts": round((start - origin) * 1e6, 3),
            "dur": round(max(0.0, end - start) * 1e6, 3), "args": args,
        })

    for conn in conns:
        for number in window:
            if conn.remaining[number] != 0:
                continue
            due, sent = conn.due[number], conn.sent_at[number]
            ack, done = conn.ack_at[number], conn.done_at[number]
            root = f"{conn.index}:{number}"
            event("batch", "srv_open", conn.index, due, done, id=root,
                  batch=number)
            event("gen.wait", "gen", conn.index, due, sent, parent=root,
                  batch=number)
            event("server.ack", "server", conn.index, sent, ack, parent=root,
                  batch=number)
            event("server.ack_to_data", "server", conn.index, ack, done,
                  parent=root, batch=number)
        if conn.tracer is not None:
            for name, layer, start, end, _p, _b, _r in conn.tracer.finished():
                event(name, layer, CONNECTIONS + conn.index, start, end)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


# ----------------------------------------------------------------------
# the whole workload
# ----------------------------------------------------------------------
def measure(result: Any, units: Dict[str, str]) -> None:
    """Run ``srv_open`` and fill ``result`` (a run.RunResult)."""
    inputs = generate(result.seed, result.seconds, result.quick, result.trace)
    samples: List[float] = []
    split = cpu_split()
    server_cpu = split[0] if split else None
    affinity = os.sched_getaffinity(0)
    if split:
        os.sched_setaffinity(0, {split[1]})
    steps: Dict[str, StepResult] = {}
    try:
        for _ in range(EXTRA_BOOTS):
            (server, conns), elapsed = timed(boot, inputs["batches"], server_cpu)
            samples.append(elapsed)
            for conn in conns:
                conn.close()
            server.close()
        (server, conns), elapsed = timed(boot, inputs["batches"], server_cpu)
        samples.append(elapsed)
        try:
            for plan in inputs["plans"]:
                if plan.optional:
                    continue
                if plan.name == STEPS[0]:
                    cpu0, scrape0 = process_cpu_s(server.pid), server.scrape()
                steps[plan.name] = run_step(conns, inputs, plan)
            cpu1, scrape1 = process_cpu_s(server.pid), server.scrape()
            rss = peak_rss_mb(server.pid)
            measured = [s for name, s in steps.items() if name != "warmup"]
            looks = [steps[LATENCY_STEP]]
            for plan in inputs["plans"]:
                if plan.optional:
                    if result.quick or quiet_p50(looks)[1] >= MIN_QUIET_WINDOWS:
                        break
                    time.sleep(LOOK_PAUSE_S)
                    steps[plan.name] = run_step(conns, inputs, plan)
                    looks.append(steps[plan.name])
            last = max(steps.values(), key=lambda s: s.plan.first).plan
            wrong = check_exactly_once(conns, inputs, last.first + last.count)
        finally:
            for conn in conns:
                conn.close()
            server.close()
    finally:
        os.sched_setaffinity(0, affinity)

    rows = sum(s.plan.count for s in measured) * FRAME_ROWS * CONNECTIONS
    result.attempted = sum(s.plan.count for s in steps.values()) * CONNECTIONS
    result.failed = sum(s.failed for s in steps.values()) + wrong
    high, mid = steps["high"], steps["mid"]
    mid_p99_ms = percentile(mid.latencies, 99) * 1e3
    p50, quiet_windows = quiet_p50(looks)
    # Unlike the closed loops, nothing here is brought to nominal machine
    # speed: a slow host does not slow the wall clock that paces the
    # steps and the server's polling threads (README, "srv_open").
    result.metrics.update({
        "rows_per_s": Metric(
            high.delivered_in_window / (high.last_delivery - high.start),
            "rows/s"),
        "p50_ms": Metric(
            p50 * 1e3, "ms", sum(len(look.latencies) for look in looks)),
        "cpu_us_per_row": Metric((cpu1 - cpu0) / rows * 1e6, "us"),
        "peak_rss_mb": Metric(rss, "MB"),
        "setup_s": Metric(statistics.median(samples), "s", len(samples)),
        "p99_ms": Metric(mid_p99_ms, "ms", len(mid.latencies)),
        "sustainable_rows_per_s": Metric(sustainable(steps), "rows/s"),
    })
    result.info.update(
        rows_per_step={s.plan.name: s.plan.count * FRAME_ROWS * CONNECTIONS
                       for s in steps.values()},
        input_digest=input_digest(inputs),
        latency_looks=len(looks), quiet_windows=quiet_windows,
        steps={
            name: {
                "offered_rows_per_s": s.offered_rows_per_s,
                "p50_ms": percentile(s.latencies, 50) * 1e3,
                "quiet_p50_ms": quiet_p50([s])[0] * 1e3,
                "p99_ms": percentile(s.latencies, 99) * 1e3,
                "failed": s.failed,
                "backlog_mid_rows": s.backlog_mid,
                "backlog_end_rows": s.backlog_end,
                "late_p99_ms": percentile(s.late, 99) * 1e3,
            }
            for name, s in steps.items()
        },
    )
    if not result.trace:
        return

    def delta(prefix: str) -> float:
        """Growth over the steps of every ``/metrics`` series so named."""
        return sum(value - scrape0.get(key, 0.0)
                   for key, value in scrape1.items() if key.startswith(prefix))

    import probes

    traced = steps["traced"]
    window = slice(traced.plan.first, traced.plan.first + traced.plan.count)
    ping_ms = percentile([rtt for _, rtt in traced.pings], 50) * 1e3
    to_ack = [x for conn in conns
              for x in (conn.ack_at[window] - conn.sent_at[window]).tolist()]
    ack_to_data = [x for conn in conns
                   for x in (conn.done_at[window] - conn.ack_at[window]).tolist()]
    pump_firings = delta(
        'datacell_transition_firings_total{transition="server_ingest"}')
    activations = sum(
        delta(f'datacell_transition_firings_total{{transition="q{i}"}}')
        for i in range(CONNECTIONS))
    mal_calls = delta("datacell_mal_opcode_invocations_total")
    sample = inputs["values"][0][:FRAME_ROWS]
    values = probes.frame_probes(
        COLUMNS, {"c": sample * 0, "b": sample * 0, "v": sample})
    values.update({
        "p99_ms": mid_p99_ms,
        "sustainable_rows_per_s": sustainable(steps),
        "failed_share": result.failed / max(1, result.attempted),
        "server.ping_rtt_ms": ping_ms,
        # the hop metrics are increments: ping + ack + ack_to_data = p50
        "server.ack_ms": max(0.0, percentile(to_ack, 50) * 1e3 - ping_ms),
        "server.ack_to_data_ms": percentile(ack_to_data, 50) * 1e3,
        "server.rows_per_pump_activation": (
            delta("datacell_server_ingested_rows_total") / pump_firings
            if pump_firings else 0.0),
        "server.frames_out_per_row": delta("datacell_server_frames_out_total") / rows,
        "server.bytes_out_per_row": delta("datacell_server_bytes_out_total") / rows,
        "server.dropped_frames": delta("datacell_server_dropped_frames_total"),
        "server.backlog_end_rows": float(high.backlog_end),
        "gen.late_p99_ms": percentile(
            [x for s in measured for x in s.late], 99) * 1e3,
        "gen.step_low.p99_ms": percentile(steps["low"].latencies, 99) * 1e3,
        "gen.step_mid.p99_ms": mid_p99_ms,
        "gen.step_high.backlog_rows": float(high.backlog_end),
        "trace.overhead_share": (
            quiet_p50([traced])[0] / quiet_p50(looks[:1])[0] - 1.0),
        "kernel.mal_calls": mal_calls,
        "kernel.mal_us_per_call": (
            delta("datacell_mal_opcode_seconds_total") / mal_calls * 1e6
            if mal_calls else 0.0),
        "core.factory.activations": activations,
        "core.factory.rows_per_activation": (
            rows / activations if activations else 0.0),
        "core.emitter.rows_delivered": delta("datacell_emitter_delivered_total"),
    })
    result.metrics = {}
    result.add(values, units)
    trace_path = OUT_DIR / f"srv_open.seed{result.seed}.trace.json"
    write_trace(conns, traced, trace_path)
    result.info["trace_file"] = str(trace_path)
