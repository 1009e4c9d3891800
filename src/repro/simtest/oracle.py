"""The differential oracle: streaming ≡ one-shot SQL, up to permutation.

DataCell's core correctness claim (inherited from building on a
relational kernel) is that a continuous query is *the same query* the
kernel would run one-shot: replaying every input tuple into an ordinary
table and executing the SQL once must produce exactly the multiset of
rows the streaming pipeline emitted — under any firing order, any
batching, and any boundary fault that preserves the delivered stream.
Purpose-built DSMSs cannot check themselves this cheaply; we can, so
every simulated episode is checked.

Equivalence rules (also in ``docs/testing.md``):

* comparison is **multiset** equality — emission order carries no
  meaning for non-window queries;
* the one-shot side accumulates the *post-fault delivered* stream (a
  dropped batch is absent from both sides, a duplicated one present
  twice in both);
* window queries are instead checked against the naive per-tuple
  baseline (``baselines.reeval``), fed the delivered stream in
  basket-ingest order, and compared as *sequences*
  (window results are ordered by window index).

On failure, :func:`shrink_episode` minimizes ``(stream, schedule)``:
first it tries dropping the faults and simplifying the policy to the
deterministic default, then greedily delta-debugs the input rows,
re-running the full differential check on every candidate.  The shrunk
spec renders as a one-line repro via :func:`render_repro`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..adapters.channels import Channel, InMemoryChannel
from ..baselines.reeval import NaiveReEvalWindow
from ..core.continuous import ContinuousQuery
from ..core.engine import DataCell
from ..kernel.types import AtomType
from ..obs.metrics import MetricsRegistry
from .faults import FaultPlan, FaultableChannel
from .sim import EpisodeResult, InputEvent, SimScheduler

__all__ = [
    "OracleCase",
    "AGG_CASES",
    "ORACLE_CASES",
    "EpisodeSpec",
    "DifferentialResult",
    "run_streaming",
    "run_oneshot",
    "check_episode",
    "shrink_episode",
    "render_repro",
    "run_window_differential",
]

Row = Tuple[int, ...]
BugHook = Callable[[ContinuousQuery], None]

STREAM = "feed"  # the basket/table name every case queries
CHANNEL = "wire"


@dataclass(frozen=True)
class OracleCase:
    """One continuous query with its one-shot twin.

    Both statements are over a two-int-column stream ``feed(a, b)``;
    integer values keep float summation order out of the equivalence
    question.
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

COLUMNS: List[Tuple[str, AtomType]] = [
    ("a", AtomType.INT),
    ("b", AtomType.INT),
]


@dataclass(frozen=True)
class EpisodeSpec:
    """Everything that determines one simulated episode, and nothing else."""

    seed: int
    rows: Tuple[Row, ...]
    case: str = "filter"
    policy: str = "random"
    batch_size: int = 3
    time_step: float = 0.25
    batch_fault_rate: float = 0.0
    exception_rate: float = 0.0
    #: ingest path: False = receptor (in-process), True = the network
    #: front door's wire seam (encode → decode → ingest queue → pump,
    #: see simtest.server_episode) — the claim is path-independent
    via_server: bool = False

    def fault_plan(self) -> Optional[FaultPlan]:
        if self.batch_fault_rate <= 0 and self.exception_rate <= 0:
            return None
        return FaultPlan(
            seed=self.seed,
            batch_fault_rate=self.batch_fault_rate,
            exception_rate=self.exception_rate,
            delay_seconds=self.time_step * 2,
        )

    def input_events(self) -> List[InputEvent]:
        events = []
        for i in range(0, len(self.rows), self.batch_size):
            events.append(
                InputEvent.make(
                    at=(i // self.batch_size) * self.time_step,
                    channel=CHANNEL,
                    events=self.rows[i : i + self.batch_size],
                )
            )
        return events


@dataclass
class StreamingOutcome:
    """What the simulated continuous pipeline produced."""

    rows: List[Row]
    delivered: List[Row]  # post-fault ground truth, in ingest order
    episode: EpisodeResult
    faults: Optional[FaultPlan]


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


def run_streaming(
    spec: EpisodeSpec, bug: Optional[BugHook] = None
) -> StreamingOutcome:
    """Drive the episode's rows through a simulated continuous pipeline.

    ``bug`` (tests only) mutates the registered query before the episode
    runs — how the deliberate consumption bug is planted to prove the
    oracle catches and shrinks it.
    """
    case = ORACLE_CASES[spec.case]
    faults = spec.fault_plan()
    metrics = _quiet_metrics()
    sim = SimScheduler(
        seed=spec.seed, policy=spec.policy, faults=faults, metrics=metrics
    )
    cell = DataCell(clock=sim.clock, scheduler=sim, metrics=metrics)
    cell.create_basket(STREAM, COLUMNS)
    channel: Channel = InMemoryChannel(CHANNEL)
    if faults is not None:
        channel = FaultableChannel(channel, faults, sim.clock)
    if spec.via_server:
        from .server_episode import attach_server_ingress

        attach_server_ingress(cell, channel, STREAM, COLUMNS)
    else:
        cell.add_receptor("tap", [STREAM], channel=channel)
    sim.bind_channel(CHANNEL, channel)
    handle = cell.submit_continuous(case.continuous_sql)
    if bug is not None:
        bug(handle)
    episode = sim.run_episode(spec.input_events())
    sim.attach_digests(cell.catalog.baskets())
    if isinstance(channel, FaultableChannel):
        delivered = [tuple(e) for e in channel.delivered]
    else:
        delivered = [tuple(r) for r in spec.rows]
    return StreamingOutcome(
        rows=[tuple(r) for r in handle.fetch()],
        delivered=delivered,
        episode=episode,
        faults=faults,
    )


def run_oneshot(case: OracleCase, delivered: Sequence[Row]) -> List[Row]:
    """Re-run the query once over the accumulated stream table."""
    cell = DataCell(metrics=_quiet_metrics())
    table = cell.create_table(STREAM, COLUMNS)
    if delivered:
        table.append_rows([list(r) for r in delivered])
    result = cell.execute(case.oneshot_sql)
    return [tuple(r) for r in result.rows()]


def check_episode(
    spec: EpisodeSpec, bug: Optional[BugHook] = None
) -> DifferentialResult:
    """One full differential check: simulate, replay, compare multisets."""
    outcome = run_streaming(spec, bug=bug)
    oneshot_rows = run_oneshot(ORACLE_CASES[spec.case], outcome.delivered)
    streaming = Counter(outcome.rows)
    oneshot = Counter(oneshot_rows)
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

    Schedule first — a repro without faults under the deterministic
    default policy is worth more than a short stream — then ddmin-style
    greedy removal of input rows.  Every candidate re-runs the entire
    differential check, so the result is guaranteed to still fail.
    """
    attempts = 0

    def fails(candidate: EpisodeSpec) -> bool:
        nonlocal attempts
        if attempts >= max_attempts:
            return False
        attempts += 1
        return not check_episode(candidate, bug=bug).ok

    current = spec
    # 1. simplify the schedule: drop faults, then the random policy
    for simpler in (
        replace(current, batch_fault_rate=0.0, exception_rate=0.0),
        replace(current, policy="priority"),
    ):
        if simpler != current and fails(simpler):
            current = simpler
    # 2. shrink the stream (greedy ddmin over row chunks)
    rows = list(current.rows)
    chunk = max(1, len(rows) // 2)
    while True:
        i = 0
        while i < len(rows):
            candidate = rows[:i] + rows[i + chunk :]
            if candidate and fails(replace(current, rows=tuple(candidate))):
                rows = candidate
            else:
                i += chunk
        if chunk == 1:
            break
        chunk = max(1, chunk // 2)
    return replace(current, rows=tuple(rows)), attempts


def render_repro(spec: EpisodeSpec) -> str:
    """The one-line repro printed on failure.

    Paste it back as ``check_episode(EpisodeSpec(...))`` — every field
    that determines the episode is in the line (see ``docs/testing.md``).
    """
    return (
        f"EpisodeSpec(seed={spec.seed}, case={spec.case!r}, "
        f"policy={spec.policy!r}, batch_size={spec.batch_size}, "
        f"time_step={spec.time_step}, "
        f"batch_fault_rate={spec.batch_fault_rate}, "
        f"exception_rate={spec.exception_rate}, "
        f"via_server={spec.via_server}, "
        f"rows={list(spec.rows)!r})"
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
