"""Incremental differential gate: views and windows against references.

The incremental subsystem's correctness claim (DBSP/Z-set theory made
executable): for any delivered stream, any firing order, and any
boundary fault —

* **aggregate/join** views emit weighted deltas whose integration at
  every quiescent point equals the one-shot query over everything
  delivered so far;
* **windows** (count and time geometry, in-order and out-of-order
  timestamps): the one window plan emits the exact row sequence of the
  re-eval and naive baselines;
* **crash episodes** kill an engine running an aggregate view at a
  firing boundary and require the recovered output to integrate to an
  uninterrupted run's (circuit state rides the checkpoint/WAL
  machinery).

Episodes are pure functions of ``(seed, kind, policy, fault plan)``;
a third get channel faults (drop/duplicate/reorder/delay) and a sixth
injected exceptions.  On failure the offending episode's input rows are
ddmin-shrunk — re-running the full differential check per candidate —
and a paste-back one-line repro is printed.

CLI (CI gate)::

    PYTHONPATH=src python -m repro.simtest.incremental --episodes 200 \\
        --seed 0 --out benchmarks/incremental_repro.json
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..adapters.channels import Channel, InMemoryChannel
from ..baselines.reeval import ReEvalWindowAggregatePlan
from ..core.engine import DataCell
from ..core.windows import WindowMode, WindowSpec
from ..kernel.types import AtomType
from ..testing import current_seed
from .crash import CrashSpec, _integral, check_crash_episode
from .faults import FaultPlan, FaultableChannel
from .oracle import (
    AGG_CASES,
    CHANNEL,
    STREAM,
    _quiet_metrics,
    run_window_differential,
)
from .policies import policy_names
from .sim import InputEvent, SimScheduler

__all__ = [
    "JOIN_CASE",
    "IncrementalEpisodeSpec",
    "IncrementalResult",
    "check_incremental_episode",
    "shrink_incremental_episode",
    "render_incremental_repro",
    "incremental_episode_spec",
    "EPISODE_KINDS",
]

Row = Tuple[int, ...]


#: the two-stream equi-join circuit and its one-shot twin
JOIN_CASE = (
    "select x.k, x.a, y.b from [select * from jleft] as x, "
    "[select * from jright] as y where x.k = y.k",
    "select jleft.k, jleft.a, jright.b from jleft, jright "
    "where jleft.k = jright.k",
)

EPISODE_KINDS = (
    "aggregate",
    "join",
    "window_count",
    "window_time",
    "crash",
)

WINDOW_GEOMETRIES = ((5, 2), (4, 4), (8, 3), (30, 10), (1, 1))
TIME_GEOMETRIES = ((8.0, 2.0), (5.0, 5.0), (12.0, 3.0))
WINDOW_AGGREGATES = (
    ["sum"], ["count"], ["avg"], ["min"], ["max"],
    ["sum", "count", "min", "max"],
)


@dataclass(frozen=True)
class IncrementalEpisodeSpec:
    """Everything that determines one incremental differential episode."""

    seed: int
    kind: str  # one of EPISODE_KINDS
    rows: Tuple[Row, ...]
    # join kind: the right-stream rows (left stream uses ``rows``)
    right_rows: Tuple[Row, ...] = ()
    case: str = "agg_grouped"  # aggregate and crash: AGG_CASES
    policy: str = "random"
    batch_size: int = 3
    time_step: float = 0.25
    batch_fault_rate: float = 0.0
    exception_rate: float = 0.0
    window: Tuple[float, float] = (5, 2)
    aggregates: Tuple[str, ...] = ("sum",)
    grouped: bool = False
    #: window_time only: max seconds a timestamp lags the stream head
    disorder: float = 0.0
    crash_after: int = 5
    checkpoint_every: Optional[int] = None


@dataclass
class IncrementalResult:
    """Verdict of one incremental differential episode."""

    spec: IncrementalEpisodeSpec
    ok: bool
    detail: str = ""

    def explain(self) -> str:
        if self.ok:
            return "incremental ≡ reference"
        return (
            f"incremental != reference for "
            f"{render_incremental_repro(self.spec)}: {self.detail}"
        )


def render_incremental_repro(spec: IncrementalEpisodeSpec) -> str:
    """One-line repro: paste back as
    ``check_incremental_episode(IncrementalEpisodeSpec(...))``."""
    return (
        f"IncrementalEpisodeSpec(seed={spec.seed}, kind={spec.kind!r}, "
        f"case={spec.case!r}, policy={spec.policy!r}, "
        f"batch_size={spec.batch_size}, "
        f"batch_fault_rate={spec.batch_fault_rate}, "
        f"exception_rate={spec.exception_rate}, window={spec.window}, "
        f"aggregates={spec.aggregates}, grouped={spec.grouped}, "
        f"disorder={spec.disorder}, crash_after={spec.crash_after}, "
        f"checkpoint_every={spec.checkpoint_every}, "
        f"rows={list(spec.rows)!r}, right_rows={list(spec.right_rows)!r})"
    )


# ----------------------------------------------------------------------
# kinds: aggregate / join — integrate(deltas) ≡ one-shot
# ----------------------------------------------------------------------
def _simulated_cell(
    spec: IncrementalEpisodeSpec, channels: Sequence[str]
) -> Tuple[SimScheduler, DataCell, Dict[str, Channel]]:
    faults = (
        FaultPlan(
            seed=spec.seed,
            batch_fault_rate=spec.batch_fault_rate,
            exception_rate=spec.exception_rate,
            delay_seconds=spec.time_step * 2,
        )
        if spec.batch_fault_rate > 0 or spec.exception_rate > 0
        else None
    )
    metrics = _quiet_metrics()
    sim = SimScheduler(
        seed=spec.seed, policy=spec.policy, faults=faults, metrics=metrics
    )
    cell = DataCell(clock=sim.clock, scheduler=sim, metrics=metrics)
    wrapped: Dict[str, Channel] = {}
    for name in channels:
        channel: Channel = InMemoryChannel(name)
        if faults is not None:
            channel = FaultableChannel(channel, faults, sim.clock)
        sim.bind_channel(name, channel)
        wrapped[name] = channel
    return sim, cell, wrapped


def _delivered(channel: Channel, sent: Sequence[Row]) -> List[Row]:
    if isinstance(channel, FaultableChannel):
        return [tuple(e) for e in channel.delivered]
    return [tuple(r) for r in sent]


def _script(
    rows: Sequence[Row], channel: str, batch_size: int, time_step: float,
    phase: float = 0.0,
) -> List[InputEvent]:
    return [
        InputEvent.make(
            at=(i // batch_size) * time_step + phase,
            channel=channel,
            events=rows[i : i + batch_size],
        )
        for i in range(0, len(rows), batch_size)
    ]


def _compare_multisets(
    spec: IncrementalEpisodeSpec,
    integrated: Optional[List[Row]],
    oneshot: List[Row],
) -> IncrementalResult:
    if integrated is None:
        return IncrementalResult(
            spec, False, "integrated delta output has negative weights"
        )
    left, right = Counter(integrated), Counter(oneshot)
    if left != right:
        return IncrementalResult(
            spec,
            False,
            f"missing={dict(right - left)} extra={dict(left - right)}",
        )
    return IncrementalResult(spec, True)


def _check_aggregate(spec: IncrementalEpisodeSpec) -> IncrementalResult:
    case = AGG_CASES[spec.case]
    sim, cell, channels = _simulated_cell(spec, [CHANNEL])
    cell.create_basket(
        STREAM, [("a", AtomType.INT), ("b", AtomType.INT)]
    )
    cell.add_receptor("tap", [STREAM], channel=channels[CHANNEL])
    handle = cell.submit_continuous(
        f"create view v as {case.continuous_sql}"
    )
    sim.run_episode(
        _script(spec.rows, CHANNEL, spec.batch_size, spec.time_step)
    )
    integrated = _integral(handle.fetch())
    delivered = _delivered(channels[CHANNEL], spec.rows)
    ref = DataCell(metrics=_quiet_metrics())
    table = ref.create_table(
        STREAM, [("a", AtomType.INT), ("b", AtomType.INT)]
    )
    if delivered:
        table.append_rows([list(r) for r in delivered])
    oneshot = [tuple(r) for r in ref.execute(case.oneshot_sql).rows()]
    return _compare_multisets(spec, integrated, oneshot)


def _check_join(spec: IncrementalEpisodeSpec) -> IncrementalResult:
    continuous_sql, oneshot_sql = JOIN_CASE
    sim, cell, channels = _simulated_cell(spec, ["lwire", "rwire"])
    cell.create_basket("jleft", [("k", AtomType.INT), ("a", AtomType.INT)])
    cell.create_basket("jright", [("k", AtomType.INT), ("b", AtomType.INT)])
    cell.add_receptor("ltap", ["jleft"], channel=channels["lwire"])
    cell.add_receptor("rtap", ["jright"], channel=channels["rwire"])
    handle = cell.submit_continuous(f"create view v as {continuous_sql}")
    events = _script(
        spec.rows, "lwire", spec.batch_size, spec.time_step
    ) + _script(
        spec.right_rows, "rwire", spec.batch_size, spec.time_step,
        phase=spec.time_step / 2,
    )
    sim.run_episode(events)
    integrated = _integral(handle.fetch())
    ref = DataCell(metrics=_quiet_metrics())
    for name, cols, channel, sent in (
        ("jleft", [("k", AtomType.INT), ("a", AtomType.INT)],
         channels["lwire"], spec.rows),
        ("jright", [("k", AtomType.INT), ("b", AtomType.INT)],
         channels["rwire"], spec.right_rows),
    ):
        table = ref.create_table(name, cols)
        delivered = _delivered(channel, sent)
        if delivered:
            table.append_rows([list(r) for r in delivered])
    oneshot = [tuple(r) for r in ref.execute(oneshot_sql).rows()]
    return _compare_multisets(spec, integrated, oneshot)


# ----------------------------------------------------------------------
# kind: window_count — the window plan vs the naive per-tuple oracle
# ----------------------------------------------------------------------
def _check_window_count(spec: IncrementalEpisodeSpec) -> IncrementalResult:
    streaming, naive, _ = run_window_differential(
        int(spec.window[0]),
        int(spec.window[1]),
        [r[0] for r in spec.rows],
        aggregate=spec.aggregates[0],
        seed=spec.seed,
        policy=spec.policy,
        batch_size=spec.batch_size,
        batch_fault_rate=spec.batch_fault_rate,
    )
    if streaming != naive:
        return IncrementalResult(spec, False, f"{streaming} != naive {naive}")
    return IncrementalResult(spec, True)


# ----------------------------------------------------------------------
# kind: window_time — out-of-order stamps, the window plan vs re-eval
# ----------------------------------------------------------------------
def _run_time_window(
    spec: IncrementalEpisodeSpec, reference: bool
) -> List[Row]:
    """Direct (simulator-free) seeded drive with explicit timestamps.

    Out-of-order arrival needs explicit stamps — receptor ingest always
    stamps "now" — so this kind bypasses channels and inserts straight
    into the basket, firing to quiescence on a seeded cadence.  The
    SQL ``WINDOW n SECONDS SLIDE m`` query and the re-eval reference
    (registered by hand) see the identical stamped sequence.
    """
    size, slide = spec.window
    cell = DataCell(metrics=_quiet_metrics())
    cell.create_basket("s", [("v", AtomType.LNG), ("g", AtomType.STR)])
    group_by = "g" if spec.grouped else None
    if reference:
        plan = ReEvalWindowAggregatePlan(
            "s", "v", list(spec.aggregates),
            WindowSpec(WindowMode.TIME, size, slide), "w_out",
            group_column=group_by, value_atom=AtomType.LNG,
        )
        handle = cell.submit_plan("w", plan, ["s"], plan.output_schema())
    else:
        # the reference's column order: the key, then the aggregates
        key, group = ("x.g, ", " group by x.g") if group_by else ("", "")
        aggs = ", ".join(f"{agg}(x.v)" for agg in spec.aggregates)
        handle = cell.submit_continuous(
            f"select {key}{aggs} from [select * from s] as x{group} "
            f"window {size} seconds slide {slide} seconds",
            name="w",
        )
    basket = cell.basket("s")
    rng = random.Random(f"datacell-time-window:{spec.seed}")
    out: List[Row] = []
    t = 100.0
    for i, row in enumerate(spec.rows):
        v, g = row[0], "g" + str(row[1] % 3)
        t += rng.random() * (slide / 2)
        stamp = t - (rng.random() * spec.disorder if spec.disorder else 0.0)
        basket.insert_rows([[v, g]], timestamp=stamp)
        if i % spec.batch_size == 0:
            cell.run_until_quiescent()
            out.extend(tuple(r) for r in handle.fetch())
    cell.run_until_quiescent()
    out.extend(tuple(r) for r in handle.fetch())
    return out


def _check_window_time(spec: IncrementalEpisodeSpec) -> IncrementalResult:
    plan = _run_time_window(spec, reference=False)
    ree = _run_time_window(spec, reference=True)
    if plan != ree:
        diverge = next(
            (i for i, (a, b) in enumerate(zip(plan, ree)) if a != b),
            min(len(plan), len(ree)),
        )
        return IncrementalResult(
            spec,
            False,
            f"row {diverge}: plan={plan[diverge:diverge + 3]} "
            f"reeval={ree[diverge:diverge + 3]} "
            f"(lengths {len(plan)}/{len(ree)})",
        )
    return IncrementalResult(spec, True)


# ----------------------------------------------------------------------
# kind: crash — view state through kill-and-restart
# ----------------------------------------------------------------------
def _check_crash(spec: IncrementalEpisodeSpec) -> IncrementalResult:
    crash = CrashSpec(
        seed=spec.seed,
        rows=spec.rows,
        case=spec.case,
        policy=spec.policy,
        batch_size=spec.batch_size,
        crash_after=spec.crash_after,
        checkpoint_every=spec.checkpoint_every,
    )
    result = check_crash_episode(crash)
    if not result.ok:
        return IncrementalResult(spec, False, result.explain())
    return IncrementalResult(spec, True)


_CHECKERS: Dict[
    str, Callable[[IncrementalEpisodeSpec], IncrementalResult]
] = {
    "aggregate": _check_aggregate,
    "join": _check_join,
    "window_count": _check_window_count,
    "window_time": _check_window_time,
    "crash": _check_crash,
}


def check_incremental_episode(
    spec: IncrementalEpisodeSpec,
) -> IncrementalResult:
    """Run one differential episode of the spec's kind."""
    return _CHECKERS[spec.kind](spec)


# ----------------------------------------------------------------------
# shrinking
# ----------------------------------------------------------------------
def shrink_incremental_episode(
    spec: IncrementalEpisodeSpec, max_attempts: int = 300
) -> Tuple[IncrementalEpisodeSpec, int]:
    """ddmin the failing episode's rows; returns (smallest spec, attempts).

    Faults and the random policy are dropped first when the failure
    survives without them, then both row streams are greedily chunked
    down — every candidate re-runs the full differential check.
    """
    attempts = 0

    def fails(candidate: IncrementalEpisodeSpec) -> bool:
        nonlocal attempts
        if attempts >= max_attempts:
            return False
        attempts += 1
        return not check_incremental_episode(candidate).ok

    current = spec
    for simpler in (
        replace(current, batch_fault_rate=0.0, exception_rate=0.0),
        replace(current, policy="priority"),
        replace(current, disorder=0.0),
    ):
        if simpler != current and fails(simpler):
            current = simpler

    def ddmin(field: str) -> None:
        nonlocal current
        rows = list(getattr(current, field))
        chunk = max(1, len(rows) // 2)
        while True:
            i = 0
            while i < len(rows):
                candidate = rows[:i] + rows[i + chunk :]
                trial = replace(current, **{field: tuple(candidate)})
                if candidate and fails(trial):
                    rows = candidate
                    current = trial
                else:
                    i += chunk
            if chunk == 1:
                break
            chunk = max(1, chunk // 2)

    ddmin("rows")
    if current.right_rows:
        ddmin("right_rows")
    return current, attempts


# ----------------------------------------------------------------------
# seeded episode generation (CLI + CI gate)
# ----------------------------------------------------------------------
def incremental_episode_spec(
    index: int, base_seed: int
) -> IncrementalEpisodeSpec:
    """Deterministic episode ``index`` of a run with ``base_seed``.

    Cycles the five kinds; within each kind, cases / geometries /
    aggregates / policies cycle and everything else derives from the
    seed.  A third of eligible episodes get channel faults, a sixth
    injected exceptions; every other time-window episode is
    out-of-order.
    """
    seed = base_seed + index
    rng = random.Random(f"datacell-incremental-episode:{seed}")
    kind = EPISODE_KINDS[index % len(EPISODE_KINDS)]
    cycle = index // len(EPISODE_KINDS)
    policies = list(policy_names()) + ["starve:tap"]
    n = rng.randint(6, 60)
    rows = tuple(
        (rng.randint(-5, 30), rng.randint(0, 10)) for _ in range(n)
    )
    spec = IncrementalEpisodeSpec(
        seed=seed,
        kind=kind,
        rows=rows,
        policy=policies[cycle % len(policies)]
        if kind != "crash"
        else list(policy_names())[cycle % len(policy_names())],
        batch_size=rng.choice((1, 2, 3, 5, 8)),
        batch_fault_rate=(
            0.3
            if cycle % 3 == 0
            and kind in ("aggregate", "join", "window_count")
            else 0.0
        ),
        exception_rate=(
            0.15
            if cycle % 6 == 3 and kind in ("aggregate", "join")
            else 0.0
        ),
    )
    cases = sorted(AGG_CASES)
    if kind == "aggregate":
        return replace(spec, case=cases[cycle % len(cases)])
    if kind == "join":
        m = rng.randint(4, 40)
        return replace(
            spec,
            rows=tuple(
                (rng.randint(0, 8), rng.randint(0, 20)) for _ in range(n)
            ),
            right_rows=tuple(
                (rng.randint(0, 8), rng.randint(0, 20)) for _ in range(m)
            ),
        )
    if kind == "window_count":
        size, slide = WINDOW_GEOMETRIES[cycle % len(WINDOW_GEOMETRIES)]
        return replace(
            spec,
            window=(size, slide),
            aggregates=tuple(
                WINDOW_AGGREGATES[cycle % len(WINDOW_AGGREGATES)][:1]
            ),
            rows=tuple(
                (rng.randint(0, 50),)
                for _ in range(rng.randint(size, 80))
            ),
        )
    if kind == "window_time":
        size, slide = TIME_GEOMETRIES[cycle % len(TIME_GEOMETRIES)]
        return replace(
            spec,
            window=(size, slide),
            aggregates=tuple(
                WINDOW_AGGREGATES[cycle % len(WINDOW_AGGREGATES)]
            ),
            grouped=cycle % 2 == 0,
            disorder=(slide * 2.5) if cycle % 2 == 1 else 0.0,
            rows=tuple(
                (rng.randint(0, 50), rng.randint(0, 5))
                for _ in range(rng.randint(10, 70))
            ),
        )
    # crash: cycle the aggregate views
    batch = spec.batch_size
    est_firings = max(3, 3 * (len(rows) // batch + 1))
    return replace(
        spec,
        case=cases[cycle % len(cases)],
        crash_after=rng.randint(1, est_firings),
        checkpoint_every=rng.choice((None, 2, 4, 7)),
        batch_fault_rate=0.0,
        exception_rate=0.0,
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="seeded incremental differential episodes "
        "(views and windows)"
    )
    parser.add_argument("--episodes", type=int, default=200)
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="base seed (default: DATACELL_SEED via repro.testing)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="write a JSON repro artifact here on failure",
    )
    parser.add_argument(
        "--kind",
        choices=EPISODE_KINDS,
        default=None,
        help="restrict to one episode kind (debugging aid)",
    )
    args = parser.parse_args(argv)
    if args.seed is None:
        args.seed = current_seed()

    failures: List[str] = []
    shrunk_artifact = None
    per_kind: Counter = Counter()
    for index in range(args.episodes):
        spec = incremental_episode_spec(index, args.seed)
        if args.kind is not None and spec.kind != args.kind:
            continue
        per_kind[spec.kind] += 1
        result = check_incremental_episode(spec)
        if result.ok:
            continue
        failures.append(result.explain())
        if shrunk_artifact is None:
            shrunk, attempts = shrink_incremental_episode(spec)
            shrunk_artifact = {
                "repro": render_incremental_repro(shrunk),
                "original": render_incremental_repro(spec),
                "shrink_attempts": attempts,
            }
            print(f"shrunk repro ({attempts} attempts):")
            print(f"  {shrunk_artifact['repro']}")
    ran = sum(per_kind.values())
    print(
        f"incremental simtest: {ran - len(failures)}/{ran} episodes "
        f"passed (base seed {args.seed}; "
        + ", ".join(f"{k}={v}" for k, v in sorted(per_kind.items()))
        + ")"
    )
    for message in failures:
        print(f"FAIL: {message}", file=sys.stderr)
    if failures and args.out:
        with open(args.out, "w") as handle:
            json.dump(
                {"failures": failures, "shrunk": shrunk_artifact},
                handle,
                indent=2,
            )
        print(f"repro artifact written to {args.out}", file=sys.stderr)
    return min(len(failures), 125)


if __name__ == "__main__":
    sys.exit(main())
