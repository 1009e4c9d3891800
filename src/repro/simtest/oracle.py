"""The differential oracle: streaming ≡ one-shot SQL, up to permutation.

DataCell's core correctness claim (inherited from building on a
relational kernel) is that a continuous query is *the same query* the
kernel would run one-shot: replaying every input tuple into an ordinary
table and executing the SQL once must produce exactly the multiset of
rows the streaming pipeline emitted — under any firing order, any
batching, and any boundary fault that preserves the delivered stream.
Purpose-built DSMSs cannot check themselves this cheaply; we can, so
every simulated episode is checked.

One check covers both query forms.  A continuous SELECT
(``ORACLE_CASES``) answers each firing, so the rows it delivered,
summed as a multiset, equal the one-shot SQL.  A view
(``VIEW_CASES``: the aggregates of ``AGG_CASES`` and the two-stream
``JOIN_CASE``) is DBSP's integral of its SELECT, so its weighted
deltas, integrated, equal the same one-shot SQL.  The check runs at
every quiescent point of the episode — each time nothing is enabled at
the current virtual time — over what was delivered up to that point.

Equivalence rules (also in ``docs/testing.md``):

* comparison is **multiset** equality — emission order carries no
  meaning for non-window queries;
* the one-shot side accumulates the *post-fault delivered* stream (a
  dropped batch is absent from both sides, a duplicated one present
  twice in both);
* window queries are instead checked against references, compared as
  *sequences* ordered by window index: a COUNT window against the naive
  per-tuple baseline fed the delivered stream in basket-ingest order,
  a TIME window against the re-eval plan fed the same stamped stream.

On failure, :func:`shrink_episode` minimizes ``(stream, schedule)``:
first it tries dropping the faults and simplifying the policy to the
deterministic default (for a view, else to starving its factory), then
greedily delta-debugs the input rows of each stream, re-running the
full differential check on every candidate.  The shrunk spec renders as a one-line repro via
:func:`render_repro`.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..adapters.channels import Channel, InMemoryChannel
from ..baselines.reeval import NaiveReEvalWindow, ReEvalWindowAggregatePlan
from ..core.continuous import ContinuousQuery
from ..core.engine import DataCell
from ..core.windows import WindowMode, WindowSpec
from ..kernel.types import AtomType
from ..obs.metrics import MetricsRegistry
from .faults import FaultPlan, FaultableChannel
from .sim import EpisodeResult, InputEvent, SimScheduler

__all__ = [
    "OracleCase",
    "AGG_CASES",
    "JOIN_CASE",
    "ORACLE_CASES",
    "VIEW_CASES",
    "EpisodeSpec",
    "DifferentialResult",
    "run_streaming",
    "check_episode",
    "shrink_episode",
    "render_repro",
    "run_window_differential",
    "run_time_window_differential",
]

Row = Tuple[int, ...]
BugHook = Callable[[ContinuousQuery], None]

STREAM = "feed"  # the basket/table name every one-stream case queries
CHANNEL = "wire"
VIEW = "v"  # the name a view case registers under (its factory's too)


@dataclass(frozen=True)
class OracleCase:
    """One continuous query with its one-shot twin.

    Both statements are over two-int-column streams (``feed(a, b)``, or
    the join's ``jleft(k, a)`` and ``jright(k, b)``); integer values
    keep float summation order out of the equivalence question.
    """

    name: str
    continuous_sql: str
    oneshot_sql: str


ORACLE_CASES: Dict[str, OracleCase] = {
    case.name: case
    for case in (
        OracleCase(
            "passthrough",
            "select x.a, x.b from [select * from feed] as x",
            "select a, b from feed",
        ),
        OracleCase(
            "filter",
            "select x.a, x.b from "
            "[select * from feed where feed.a > 10] as x",
            "select a, b from feed where a > 10",
        ),
        OracleCase(
            "compound",
            "select x.a, x.b from "
            "[select * from feed where feed.a > 10 and feed.b < 5] as x",
            "select a, b from feed where a > 10 and b < 5",
        ),
        OracleCase(
            "disjunct",
            "select x.b from "
            "[select * from feed where feed.a > 15 or feed.b = 2] as x",
            "select b from feed where a > 15 or b = 2",
        ),
        OracleCase(
            "arith",
            "select x.a + x.b from "
            "[select * from feed where not (feed.a > 10)] as x",
            "select a + b from feed where not (a > 10)",
        ),
    )
}

#: aggregates over ``feed``: registered as ``create view`` they run on a
#: Z-set circuit, whose integrated output must equal the one-shot twin
AGG_CASES: Dict[str, OracleCase] = {
    case.name: case
    for case in (
        OracleCase(
            "agg_grouped",
            "select x.a, sum(x.b), count(x.b), min(x.b), max(x.b) "
            "from [select * from feed] as x group by x.a",
            "select a, sum(b), count(b), min(b), max(b) "
            "from feed group by a",
        ),
        OracleCase(
            "agg_filtered",
            "select x.a, sum(x.b), avg(x.b) from [select * from feed] as x "
            "where x.b > 2 group by x.a",
            "select a, sum(b), avg(b) from feed where b > 2 group by a",
        ),
        OracleCase(
            "agg_global",
            "select count(*), sum(x.b), min(x.b) "
            "from [select * from feed] as x",
            "select count(*), sum(b), min(b) from feed",
        ),
    )
}

#: the two-stream equi-join view: ``jleft`` is fed ``EpisodeSpec.rows``,
#: ``jright`` its ``right_rows``
JOIN_CASE = OracleCase(
    "join",
    "select x.k, x.a, y.b from [select * from jleft] as x, "
    "[select * from jright] as y where x.k = y.k",
    "select jleft.k, jleft.a, jright.b from jleft, jright "
    "where jleft.k = jright.k",
)

#: the cases registered as ``create view``
VIEW_CASES: Dict[str, OracleCase] = {**AGG_CASES, JOIN_CASE.name: JOIN_CASE}

COLUMNS: List[Tuple[str, AtomType]] = [
    ("a", AtomType.INT),
    ("b", AtomType.INT),
]

Stream = Tuple[str, List[Tuple[str, AtomType]]]  # basket, columns

#: the baskets a case reads, in the order the spec's row streams feed them
_STREAMS: Dict[str, Tuple[Stream, ...]] = {
    JOIN_CASE.name: (
        ("jleft", [("k", AtomType.INT), ("a", AtomType.INT)]),
        ("jright", [("k", AtomType.INT), ("b", AtomType.INT)]),
    ),
}


def _case_streams(case: str) -> Tuple[Stream, ...]:
    return _STREAMS.get(case, ((STREAM, COLUMNS),))


def _suffix(i: int) -> str:
    """Names of stream ``i``'s channel and ingress: ``wire``/``tap``,
    then ``wire2``/``tap2``."""
    return "" if i == 0 else str(i + 1)


def _attach_streams(
    cell: DataCell,
    sim: SimScheduler,
    streams: Sequence[Stream],
    via_server: bool,
    faults: Optional[FaultPlan] = None,
) -> List[Channel]:
    """Create each stream's basket and channel, and ingest it through a
    receptor or the server's wire seam (one ingest queue and pump for
    every stream); returns the channels."""
    channels: List[Channel] = []
    ingress = None
    for i, (basket, columns) in enumerate(streams):
        cell.create_basket(basket, columns)
        channel: Channel = InMemoryChannel(CHANNEL + _suffix(i))
        if faults is not None:
            channel = FaultableChannel(channel, faults, sim.clock)
        if not via_server:
            cell.add_receptor("tap" + _suffix(i), [basket], channel=channel)
        elif ingress is None:
            from .server_episode import attach_server_ingress

            ingress = attach_server_ingress(cell, channel, basket, columns)
        else:
            from .server_episode import WireIngress

            cell.scheduler.register(WireIngress(
                channel, basket, columns, ingress.queue,
                name="server_wire" + _suffix(i),
            ))
        sim.bind_channel(CHANNEL + _suffix(i), channel)
        channels.append(channel)
    return channels


@dataclass(frozen=True)
class EpisodeSpec:
    """Everything that determines one simulated episode, and nothing else."""

    seed: int
    rows: Tuple[Row, ...]
    case: str = "filter"  # a name in ORACLE_CASES or VIEW_CASES
    policy: str = "random"
    batch_size: int = 3
    time_step: float = 0.25
    batch_fault_rate: float = 0.0
    exception_rate: float = 0.0
    #: ingest path: False = receptor (in-process), True = the network
    #: front door's wire seam (encode → decode → ingest queue → pump,
    #: see simtest.server_episode) — the claim is path-independent
    via_server: bool = False
    #: the join case's second stream
    right_rows: Tuple[Row, ...] = ()

    def fault_plan(self) -> Optional[FaultPlan]:
        if self.batch_fault_rate <= 0 and self.exception_rate <= 0:
            return None
        return FaultPlan(
            seed=self.seed,
            batch_fault_rate=self.batch_fault_rate,
            exception_rate=self.exception_rate,
            delay_seconds=self.time_step * 2,
        )

    def streams(self) -> List[Tuple[str, Tuple[Row, ...]]]:
        """``(channel, rows)`` for each basket the case reads."""
        rows = (self.rows, self.right_rows)
        return [
            (CHANNEL + _suffix(i), rows[i])
            for i in range(len(_case_streams(self.case)))
        ]

    def input_events(self) -> List[InputEvent]:
        """Each stream's batches, at the same virtual instants: a join's
        two sides arrive together, so one firing may see both deltas."""
        return [
            InputEvent.make(
                at=(i // self.batch_size) * self.time_step,
                channel=channel,
                events=rows[i : i + self.batch_size],
            )
            for channel, rows in self.streams()
            for i in range(0, len(rows), self.batch_size)
        ]


@dataclass
class StreamingOutcome:
    """What the simulated continuous pipeline produced.

    ``streaming`` and ``oneshot`` are the two sides at the first
    quiescent point where they differ, or else at the end of the episode.
    """

    rows: List[Row]  # as delivered (a view's carry their weight)
    delivered: List[List[Row]]  # per stream, post-fault, in ingest order
    episode: EpisodeResult
    faults: Optional[FaultPlan]
    streaming: "Counter[Row]"
    oneshot: "Counter[Row]"


@dataclass
class DifferentialResult:
    """Verdict of one streaming-vs-one-shot comparison."""

    spec: EpisodeSpec
    ok: bool
    streaming: "Counter[Row]"
    oneshot: "Counter[Row]"
    episode: EpisodeResult
    missing: "Counter[Row]" = field(default_factory=Counter)  # oneshot-only
    extra: "Counter[Row]" = field(default_factory=Counter)  # streaming-only

    def explain(self) -> str:
        if self.ok:
            return "streaming ≡ one-shot"
        return (
            f"streaming != one-shot for {render_repro(self.spec)}: "
            f"missing={dict(self.missing)} extra={dict(self.extra)}"
        )


def _quiet_metrics() -> MetricsRegistry:
    # no-op instruments keep 200-episode CI runs fast
    return MetricsRegistry(enabled=False)


def _delivered(channel: Channel, sent: Sequence[Row]) -> List[Row]:
    """What ``channel`` has handed its ingress so far, post-fault."""
    if isinstance(channel, FaultableChannel):
        return [tuple(e) for e in channel.delivered]
    assert isinstance(channel, InMemoryChannel)
    return [tuple(r) for r in sent[: channel.total_pushed - channel.pending()]]


class _Differential:
    """The check made at each quiescent point: what the query delivered
    so far, summed (a view's rows by their weights), against the
    one-shot SQL over what the channels delivered so far.  A reference
    cell keeps the delivered rows as tables; the first mismatch stands.
    """

    def __init__(
        self,
        case: OracleCase,
        handle: ContinuousQuery,
        channels: List[Channel],
        sent: List[Tuple[Row, ...]],
    ):
        self.case = case
        self.handle = handle
        self.channels = channels
        self.sent = sent
        self.reference = DataCell(metrics=_quiet_metrics())
        self.tables = [
            self.reference.create_table(basket, columns)
            for basket, columns in _case_streams(case.name)
        ]
        self.loaded = [0] * len(self.tables)
        self.rows: List[Row] = []
        self.streaming: Counter = Counter()
        self.oneshot: Counter = Counter()
        self.failed = False

    def delivered(self) -> List[List[Row]]:
        return [
            _delivered(channel, sent)
            for channel, sent in zip(self.channels, self.sent)
        ]

    def __call__(self) -> None:
        if self.failed:
            return
        fresh = [tuple(r) for r in self.handle.fetch()]
        self.rows.extend(fresh)
        for row in fresh:
            key, weight = (
                (row[:-1], row[-1]) if self.handle.weighted else (row, 1)
            )
            self.streaming[key] += weight
            if not self.streaming[key]:
                del self.streaming[key]
        for i, rows in enumerate(self.delivered()):
            if len(rows) > self.loaded[i]:
                self.tables[i].append_rows(
                    [list(r) for r in rows[self.loaded[i] :]]
                )
                self.loaded[i] = len(rows)
        result = self.reference.execute(self.case.oneshot_sql)
        self.oneshot = Counter(tuple(r) for r in result.rows())
        # a retraction below zero shows as ``missing``
        self.failed = bool(
            self.oneshot - self.streaming or self.streaming - self.oneshot
        )


def run_streaming(
    spec: EpisodeSpec, bug: Optional[BugHook] = None
) -> StreamingOutcome:
    """Drive the episode's rows through a simulated continuous pipeline,
    making the differential check at every quiescent point.

    ``bug`` (tests only) mutates the registered query before the episode
    runs — how the deliberate consumption bug is planted to prove the
    oracle catches and shrinks it.
    """
    view = spec.case in VIEW_CASES
    case = VIEW_CASES[spec.case] if view else ORACLE_CASES[spec.case]
    faults = spec.fault_plan()
    metrics = _quiet_metrics()
    sim = SimScheduler(
        seed=spec.seed, policy=spec.policy, faults=faults, metrics=metrics
    )
    cell = DataCell(clock=sim.clock, scheduler=sim, metrics=metrics)
    channels = _attach_streams(
        cell, sim, _case_streams(spec.case), spec.via_server, faults
    )
    handle = cell.submit_continuous(
        f"create view {VIEW} as {case.continuous_sql}"
        if view else case.continuous_sql
    )
    if bug is not None:
        bug(handle)
    check = _Differential(
        case, handle, channels, [rows for _, rows in spec.streams()]
    )
    episode = sim.run_episode(spec.input_events(), on_quiescent=check)
    sim.attach_digests(cell.catalog.baskets())
    return StreamingOutcome(
        rows=check.rows,
        delivered=check.delivered(),
        episode=episode,
        faults=faults,
        streaming=check.streaming,
        oneshot=check.oneshot,
    )


def check_episode(
    spec: EpisodeSpec, bug: Optional[BugHook] = None
) -> DifferentialResult:
    """One full differential check: simulate, replay, compare multisets."""
    outcome = run_streaming(spec, bug=bug)
    streaming, oneshot = outcome.streaming, outcome.oneshot
    missing = oneshot - streaming
    extra = streaming - oneshot
    return DifferentialResult(
        spec=spec,
        ok=not missing and not extra,
        streaming=streaming,
        oneshot=oneshot,
        episode=outcome.episode,
        missing=missing,
        extra=extra,
    )


# ----------------------------------------------------------------------
# shrinking
# ----------------------------------------------------------------------
def shrink_episode(
    spec: EpisodeSpec,
    bug: Optional[BugHook] = None,
    max_attempts: int = 400,
) -> Tuple[EpisodeSpec, int]:
    """Minimize a failing episode; returns ``(smallest spec, attempts)``.

    Schedule first — a repro without faults under a deterministic
    policy is worth more than a short stream — then ddmin-style
    greedy removal of input rows, stream by stream.  Every candidate
    re-runs the entire differential check, so the result is guaranteed
    to still fail.
    """
    attempts = 0

    def fails(candidate: EpisodeSpec) -> bool:
        nonlocal attempts
        if attempts >= max_attempts:
            return False
        attempts += 1
        return not check_episode(candidate, bug=bug).ok

    current = spec
    # 1. simplify the schedule: drop faults, then take a deterministic
    #    policy, the default over one that starves a view's factory (a
    #    firing waits for every delta of an instant: both join sides)
    starve = [dict(policy=f"starve:{VIEW}")] if spec.case in VIEW_CASES else []
    for simplify in (
        dict(batch_fault_rate=0.0, exception_rate=0.0),
        *starve,
        dict(policy="priority"),
    ):
        simpler = replace(current, **simplify)
        if simpler != current and fails(simpler):
            current = simpler
    # 2. shrink each stream (greedy ddmin over row chunks), again while
    #    a pass shrinks one: a shorter right stream moves the batches
    #    the left rows must meet
    shrunk = None
    while shrunk != current:
        shrunk = current
        for name in ("rows", "right_rows"):
            rows = _ddmin(
                list(getattr(current, name)),
                lambda rows: fails(replace(current, **{name: tuple(rows)})),
            )
            current = replace(current, **{name: tuple(rows)})
    return current, attempts


def _ddmin(rows: List, fails: Callable[[List], bool]) -> List:
    """Greedy delta debugging: drop chunks of ``rows``, halving the
    chunk, while the shorter list still ``fails``; never empties it."""
    chunk = max(1, len(rows) // 2)
    while rows:
        i = 0
        while i < len(rows):
            candidate = rows[:i] + rows[i + chunk :]
            if candidate and fails(candidate):
                rows = candidate
            else:
                i += chunk
        if chunk == 1:
            break
        chunk = max(1, chunk // 2)
    return rows


def render_repro(spec: EpisodeSpec) -> str:
    """The one-line repro printed on failure.

    Paste it back as ``check_episode(EpisodeSpec(...))`` — every field
    that determines the episode is in the line (see ``docs/testing.md``).
    """
    right = (
        f", right_rows={list(spec.right_rows)!r}" if spec.right_rows else ""
    )
    return (
        f"EpisodeSpec(seed={spec.seed}, case={spec.case!r}, "
        f"policy={spec.policy!r}, batch_size={spec.batch_size}, "
        f"time_step={spec.time_step}, "
        f"batch_fault_rate={spec.batch_fault_rate}, "
        f"exception_rate={spec.exception_rate}, "
        f"via_server={spec.via_server}, "
        f"rows={list(spec.rows)!r}{right})"
    )


# ----------------------------------------------------------------------
# window queries: the baselines are the oracle
# ----------------------------------------------------------------------
def run_window_differential(
    size: int,
    slide: int,
    rows: Sequence[int],
    aggregate: str = "sum",
    seed: int = 0,
    policy: str = "random",
    batch_size: int = 4,
    min_tuples: int = 1,
    batch_fault_rate: float = 0.0,
) -> Tuple[List[float], List[float], EpisodeResult]:
    """Window aggregate through the engine vs the naive per-tuple oracle.

    Returns ``(streaming, naive, episode)`` where both result lists are
    ordered by window index; the naive side is
    :class:`~repro.baselines.reeval.NaiveReEvalWindow` fed the delivered
    stream in basket-ingest order.  Works for any count-window geometry
    the spec accepts (tumbling ``slide == size``, overlapping, ``size
    1``) and any batching — the engine's answers must not depend on how
    activations chop the stream.
    """
    faults = (
        FaultPlan(seed=seed, batch_fault_rate=batch_fault_rate)
        if batch_fault_rate > 0
        else None
    )
    metrics = _quiet_metrics()
    sim = SimScheduler(
        seed=seed, policy=policy, faults=faults, metrics=metrics
    )
    cell = DataCell(clock=sim.clock, scheduler=sim, metrics=metrics)
    cell.create_basket(STREAM, [("v", AtomType.INT)])
    channel: Channel = InMemoryChannel(CHANNEL)
    if faults is not None:
        channel = FaultableChannel(channel, faults, sim.clock)
    cell.add_receptor("tap", [STREAM], channel=channel)
    sim.bind_channel(CHANNEL, channel)
    handle = cell.submit_continuous(
        f"select {aggregate}(x.v) from [select * from {STREAM}] as x "
        f"window {size} slide {slide}"
    )
    handle.factory.inputs[0].min_tuples = min_tuples
    events = [
        InputEvent.make(
            at=(i // batch_size) * 0.25,
            channel=CHANNEL,
            events=[(v,) for v in rows[i : i + batch_size]],
        )
        for i in range(0, len(rows), batch_size)
    ]
    episode = sim.run_episode(events)
    if min_tuples > 1:
        # a threshold above the final residue legitimately gates the tail
        # (the paper's min-tuples firing condition); flush it so strict
        # equivalence against the full-stream oracle applies
        handle.factory.inputs[0].min_tuples = 1
        while sim.sim_fire() is not None:
            pass
    # output rows are (window_id, aggregate); order by window index so
    # the comparison is insensitive to delivery batching
    streaming = [
        float(r[1]) for r in sorted(handle.fetch(), key=lambda r: r[0])
    ]
    if isinstance(channel, FaultableChannel):
        delivered = [e[0] for e in channel.delivered]
    else:
        delivered = list(rows)
    naive = NaiveReEvalWindow(size, slide, aggregate)
    for value in delivered:
        naive.insert(value)
    return streaming, [float(v) for v in naive.results], episode


def run_time_window_differential(
    size: float,
    slide: float,
    rows: Sequence[Row],
    aggregates: Sequence[str] = ("sum",),
    grouped: bool = False,
    disorder: float = 0.0,
    seed: int = 0,
    batch_size: int = 3,
) -> Tuple[List[Row], List[Row]]:
    """SQL ``WINDOW size SECONDS SLIDE slide`` vs the re-eval reference.

    ``rows`` are ``(value, key)`` pairs; grouped, the query groups by
    ``"g" + str(key % 3)``.  Each row's stamp moves the stream head on by
    up to half a slide and lags it by up to ``disorder`` seconds, so with
    ``disorder`` stamps go backwards and tuples arrive late.  A receptor
    stamps "now", so the rows are inserted straight into the basket with
    their stamps, firing to quiescence every ``batch_size`` rows.  The
    SQL query and :class:`~repro.baselines.reeval.ReEvalWindowAggregatePlan`
    (registered by hand) see the identical stamped sequence; returns
    ``(plan rows, reference rows)``, equal as sequences when correct.
    """

    def drive(reference: bool) -> List[Row]:
        cell = DataCell(metrics=_quiet_metrics())
        cell.create_basket("s", [("v", AtomType.LNG), ("g", AtomType.STR)])
        if reference:
            plan = ReEvalWindowAggregatePlan(
                "s", "v", list(aggregates),
                WindowSpec(WindowMode.TIME, size, slide), "w_out",
                group_column="g" if grouped else None,
                value_atom=AtomType.LNG,
            )
            handle = cell.submit_plan("w", plan, ["s"], plan.output_schema())
        else:
            # the reference's column order: the key, then the aggregates
            key, group = ("x.g, ", " group by x.g") if grouped else ("", "")
            aggs = ", ".join(f"{agg}(x.v)" for agg in aggregates)
            handle = cell.submit_continuous(
                f"select {key}{aggs} from [select * from s] as x{group} "
                f"window {size} seconds slide {slide} seconds",
                name="w",
            )
        basket = cell.basket("s")
        rng = random.Random(f"datacell-time-window:{seed}")
        out: List[Row] = []
        t = 100.0
        for i, (value, key_value) in enumerate(rows):
            t += rng.random() * (slide / 2)
            stamp = t - (rng.random() * disorder if disorder else 0.0)
            basket.insert_rows(
                [[value, "g" + str(key_value % 3)]], timestamp=stamp
            )
            if i % batch_size == 0:
                cell.run_until_quiescent()
                out.extend(tuple(r) for r in handle.fetch())
        cell.run_until_quiescent()
        out.extend(tuple(r) for r in handle.fetch())
        return out

    return drive(reference=False), drive(reference=True)
