"""Kill-and-restart differential: recovered output ≡ uninterrupted output.

The durability subsystem's correctness claim is byte-identical delivery
across a crash: for any seeded episode, killing the engine at an
arbitrary firing boundary, recovering from the newest checkpoint plus
the WAL suffix, and feeding the rest of the stream must deliver exactly
the rows an uninterrupted run of the same episode delivers — no loss,
no duplicates, same values, same order (window results ordered by
window index, as ``simtest.oracle`` orders them).  A view's deltas
follow the firing batches, which a restart changes, so for a view the
integrated results must be equal instead.

Each episode runs three phases over one scratch durability directory:

1. **reference** — the same spec without durability, run to quiescence;
2. **crash** — durability on, a firing hook raises
   :class:`SimulatedCrash` after ``crash_after`` firings (optionally
   checkpointing every ``checkpoint_every`` firings first), then the
   manager is *abandoned* — closed with no final fsync, exactly what a
   process kill leaves on disk;
3. **recovery** — a fresh engine with the identical topology calls
   :meth:`DataCell.recover`, drains the replayed in-flight work, and
   ingests the suffix of the stream the dead process never saw
   (``rows[total_in:]`` — ingest is FIFO, so the restored ``total_in``
   counter is the resume point).

``pre_crash + post_recovery == reference`` is then required to hold
exactly.  Crashes land on firing boundaries, where exactly-once holds;
the mid-delivery at-most-once edge is documented in
``docs/durability.md``.  Only COUNT windows are exercised — a restarted
virtual clock makes TIME geometry stamps legitimately diverge.

CLI (CI gate)::

    PYTHONPATH=src python -m repro.simtest.crash --episodes 100 \\
        --seed 0 --out benchmarks/crash_repro.json
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, List, Optional, Tuple

from ..core.engine import DataCell
from ..durability import DurabilityConfig, RecoveryReport
from ..errors import DataCellError
from ..incremental import integrate_weighted_rows
from ..kernel.types import AtomType, nil_value
from ..testing import current_seed
from .oracle import (
    JOIN_CASE,
    ORACLE_CASES,
    STREAM,
    VIEW_CASES,
    EpisodeSpec,
    Stream,
    _attach_streams,
    _case_streams,
    _quiet_metrics,
)
from .policies import policy_names
from .sim import InputEvent, SimScheduler

__all__ = [
    "SimulatedCrash",
    "CrashSpec",
    "CrashDifferentialResult",
    "check_crash_episode",
    "crash_episode_spec",
]

Row = Tuple[Any, ...]

QUERY = "q"  # fixed query name: recovery needs an identical topology

WINDOW_GEOMETRIES = ((4, 2), (4, 4), (1, 1), (6, 3))
AGGREGATES = ("sum", "count", "avg", "min", "max")
GROUP_ATOMS = (AtomType.STR, AtomType.INT)
FSYNC_CYCLE = ("interval", "off", "always")


class SimulatedCrash(Exception):
    """Raised from the firing hook to kill an episode at a boundary."""


@dataclass(frozen=True)
class CrashSpec:
    """Everything that determines one crash episode, and nothing else.

    ``case`` is an oracle case name (plain continuous query), a view
    case name (an aggregate or the two-stream join, registered as
    ``create view``, so its circuit state rides the checkpoint/WAL
    machinery; the join's second stream is ``right_rows``) or
    ``"window"`` (a SQL
    COUNT-window aggregate per ``window`` / ``window_aggregate``,
    grouped by a second column ``k`` of atom ``window_group`` when one
    is given).  No channel faults: the crash *is* the fault.
    """

    seed: int
    rows: Tuple[Row, ...]
    case: str = "filter"
    policy: str = "random"
    batch_size: int = 3
    time_step: float = 0.25
    crash_after: int = 5
    checkpoint_every: Optional[int] = None
    fsync: str = "interval"
    window: Tuple[int, int] = (4, 2)
    window_aggregate: str = "sum"
    window_group: Optional[AtomType] = None
    #: run the telemetry sampler (sys.* streams) alongside the episode —
    #: user-visible output must stay byte-identical, since system
    #: streams never enter the WAL or the checkpoints
    sampling: bool = False
    #: ingest through the server's wire seam (frame encode/decode +
    #: ingest queue + pump) instead of a receptor — recovery must be
    #: byte-identical with the network front door attached too
    via_server: bool = False
    #: the join case's second stream
    right_rows: Tuple[Row, ...] = ()

    def input_events(self) -> List[InputEvent]:
        # the oracle's episode with the same streams and batching
        return EpisodeSpec(
            self.seed, self.rows, self.case, batch_size=self.batch_size,
            time_step=self.time_step, right_rows=self.right_rows,
        ).input_events()


@dataclass
class CrashDifferentialResult:
    """Verdict of one kill-restart-compare episode."""

    spec: CrashSpec
    ok: bool
    crashed: bool  # False = crash_after landed past quiescence
    reference: List[Row]
    pre_crash: List[Row]
    post_recovery: List[Row]
    report: RecoveryReport

    def explain(self) -> str:
        if self.ok:
            return "recovered ≡ uninterrupted"
        combined = self.pre_crash + self.post_recovery
        return (
            f"recovered != uninterrupted for {render_crash_repro(self.spec)}"
            f": reference={self.reference} pre={self.pre_crash} "
            f"post={self.post_recovery} combined={combined} "
            f"({self.report})"
        )


def render_crash_repro(spec: CrashSpec) -> str:
    """One-line repro: paste back as ``check_crash_episode(CrashSpec(...))``."""
    return (
        f"CrashSpec(seed={spec.seed}, case={spec.case!r}, "
        f"policy={spec.policy!r}, batch_size={spec.batch_size}, "
        f"crash_after={spec.crash_after}, "
        f"checkpoint_every={spec.checkpoint_every}, "
        f"fsync={spec.fsync!r}, window={spec.window}, "
        f"window_aggregate={spec.window_aggregate!r}, "
        f"window_group={spec.window_group}, "
        f"sampling={spec.sampling}, "
        f"via_server={spec.via_server}, rows={list(spec.rows)!r}"
        + (f", right_rows={list(spec.right_rows)!r}" if spec.right_rows
           else "")
        + ")"
    )


# ----------------------------------------------------------------------
# the three phases
# ----------------------------------------------------------------------
def _build(
    spec: CrashSpec, directory: Optional[Path]
) -> Tuple[SimScheduler, DataCell, "object"]:
    """One engine with the episode's topology; durability iff a dir given.

    Reference, crash, and recovery phases all build through here so the
    basket/factory/emitter names are identical — the topology-identity
    contract recovery requires.
    """
    metrics = _quiet_metrics()
    sim = SimScheduler(seed=spec.seed, policy=spec.policy, metrics=metrics)
    durability = (
        DurabilityConfig(directory=directory, fsync=spec.fsync)
        if directory is not None
        else None
    )
    from ..obs.sysstreams import SystemStreamsConfig

    cell = DataCell(
        clock=sim.clock, scheduler=sim, metrics=metrics,
        durability=durability,
        # all three phases share the sampling choice so the transition
        # set (and hence every policy's firing sequence) is identical
        system_streams=(
            SystemStreamsConfig(interval=2 * spec.time_step)
            if spec.sampling
            else None
        ),
    )
    _attach_streams(cell, sim, _baskets(spec), spec.via_server)
    if spec.case == "window":
        sql = _window_sql(spec)
    elif spec.case in VIEW_CASES:
        sql = f"create view {QUERY} as {VIEW_CASES[spec.case].continuous_sql}"
    else:
        sql = ORACLE_CASES[spec.case].continuous_sql
    handle = cell.submit_continuous(sql, name=QUERY)
    return sim, cell, handle


def _baskets(spec: CrashSpec) -> Tuple[Stream, ...]:
    """The baskets the episode's query reads, with their columns."""
    if spec.case != "window":
        return _case_streams(spec.case)
    columns = [("v", AtomType.INT)]
    if spec.window_group is not None:
        columns.append(("k", spec.window_group))
    return ((STREAM, columns),)


def _window_sql(spec: CrashSpec) -> str:
    """The window case's SQL.  A grouped one aliases its aggregate and
    lists it before the key, so recovery re-lowers a select list whose
    order is not the plan's own."""
    size, slide = spec.window
    items, group = f"{spec.window_aggregate}(x.v)", ""
    if spec.window_group is not None:
        items, group = f"{items} as total, x.k", " group by x.k"
    return (
        f"select {items} from [select * from {STREAM}] as x{group} "
        f"window {size} slide {slide}"
    )


def _reference_run(spec: CrashSpec) -> List[Row]:
    sim, cell, handle = _build(spec, None)
    sim.run_episode(spec.input_events())
    return [tuple(r) for r in handle.fetch()]


def _crash_run(spec: CrashSpec, directory: Path) -> Tuple[List[Row], bool]:
    sim, cell, handle = _build(spec, directory)

    def hook(fired: int) -> None:
        if fired >= spec.crash_after:
            raise SimulatedCrash(f"firing {fired}")
        if spec.checkpoint_every and fired % spec.checkpoint_every == 0:
            cell.checkpoint()

    crashed = False
    try:
        sim.run_episode(spec.input_events(), on_firing=hook)
    except SimulatedCrash:
        crashed = True
    pre = [tuple(r) for r in handle.fetch()]
    # a kill, not a shutdown: close descriptors without the final fsync
    cell.durability.abandon()
    return pre, crashed


def _recovery_run(
    spec: CrashSpec, directory: Path
) -> Tuple[List[Row], RecoveryReport]:
    sim, cell, handle = _build(spec, directory)
    report = cell.recover()
    # drain whatever the replay left in-flight (suppressed rows are
    # dropped by the emitter's recovered high-water mark)
    while sim.sim_fire() is not None:
        pass
    # each stream's suffix the dead process never ingested; ingest is
    # FIFO through one receptor per stream, so a basket's total_in is
    # the exact resume point
    for (name, _), rows in zip(_baskets(spec), (spec.rows, spec.right_rows)):
        basket = cell.basket(name)
        remaining = rows[basket.total_in :]
        for i in range(0, len(remaining), spec.batch_size):
            basket.insert_rows(
                [list(r) for r in remaining[i : i + spec.batch_size]]
            )
            while sim.sim_fire() is not None:
                pass
    post = [tuple(r) for r in handle.fetch()]
    cell.durability.close()
    return post, report


def check_crash_episode(
    spec: CrashSpec, directory: Optional[Path] = None
) -> CrashDifferentialResult:
    """Run all three phases and compare exactly.

    Window results are ordered by window index before comparison (both
    sides), matching the PR 3 oracle's equivalence rules; plain query
    rows are compared as raw sequences — emission content *and* order
    are deterministic in ingest order.
    """
    if directory is None:
        with tempfile.TemporaryDirectory(prefix="datacell-crash-") as tmp:
            return check_crash_episode(spec, Path(tmp))
    reference = _reference_run(spec)
    pre, crashed = _crash_run(spec, directory / f"ep-{spec.seed}")
    post, report = _recovery_run(spec, directory / f"ep-{spec.seed}")
    combined = pre + post
    if spec.case == "window":
        combined = sorted(combined, key=lambda r: r[0])
        reference = sorted(reference, key=lambda r: r[0])
    elif spec.case in VIEW_CASES:
        combined, reference = _integral(combined), _integral(reference)
    return CrashDifferentialResult(
        spec=spec,
        ok=combined == reference,
        crashed=crashed,
        reference=reference,
        pre_crash=pre,
        post_recovery=post,
        report=report,
    )


def _integral(rows: List[Row]) -> Optional[List[Row]]:
    """A view's weighted rows folded to its result, in a fixed order;
    None when a row nets a negative weight (a replayed retraction)."""
    try:
        return sorted(integrate_weighted_rows(rows), key=repr)
    except DataCellError:
        return None


# ----------------------------------------------------------------------
# seeded episode generation (CLI + CI gate)
# ----------------------------------------------------------------------
def crash_episode_spec(index: int, base_seed: int) -> CrashSpec:
    """Deterministic episode ``index`` of a run with ``base_seed``.

    Every third episode registers a view, cycling the aggregate cases
    and the two-stream join; the others cycle the oracle cases plus a
    window case.  Policies and fsync modes cycle too — a view episode's
    by its own turn through the view cases, so every view case meets
    every policy and fsync mode; rows, batching, crash point, and
    checkpoint cadence all derive from the seed.  Every other
    window case is grouped, over a varchar or an int key with rotating
    values and NILs drawn from a stream of its own, so the values and
    the rest of the spec are the ungrouped episode's.
    """
    seed = base_seed + index
    rng = random.Random(f"datacell-crash-episode:{seed}")
    cases = sorted(ORACLE_CASES) + ["window"]
    plain = index - (index + 1) // 3  # episodes before this one, no view
    turn = index  # what the policy and the fsync mode cycle by
    if index % 3 == 2:
        views = sorted(VIEW_CASES)
        case = views[index // 3 % len(views)]
        # the view cycle's own counter: the index would tie a view case
        # to one policy and every view episode to one fsync mode
        turn = index // 3 // len(views)
    else:
        case = cases[plain % len(cases)]
    group = None
    right: Tuple[Row, ...] = ()
    if case == JOIN_CASE.name:
        # join keys from a small domain, so the two sides match often
        def side(least: int) -> Tuple[Row, ...]:
            return tuple(
                (rng.randint(0, 8), rng.randint(0, 20))
                for _ in range(rng.randint(least, 40))
            )

        rows, right = side(5), side(4)
    elif case == "window":
        rows: Tuple[Row, ...] = tuple(
            (rng.randint(0, 50),) for _ in range(rng.randint(8, 60))
        )
        if plain // len(cases) % 2:
            group = GROUP_ATOMS[plain // len(cases) // 2 % 2]
            rows = tuple(
                row + (key,) for row, key in zip(rows, _rotating_keys(
                    random.Random(f"datacell-crash-keys:{seed}"),
                    len(rows), group,
                ))
            )
    else:
        rows = tuple(
            (rng.randint(-5, 30), rng.randint(0, 10))
            for _ in range(rng.randint(5, 60))
        )
    batch = rng.choice((1, 2, 3, 5))
    # ~3 firings per batch (receptor + factory + emitter); land the
    # crash anywhere from the first firing to past quiescence so clean
    # shutdowns are exercised too
    est_firings = max(3, 3 * (len(rows) // batch + 1))
    policies = list(policy_names())
    return CrashSpec(
        seed=seed,
        rows=rows,
        case=case,
        policy=policies[turn % len(policies)],
        batch_size=batch,
        crash_after=rng.randint(1, est_firings),
        checkpoint_every=rng.choice((None, 2, 4, 7)),
        fsync=FSYNC_CYCLE[turn % len(FSYNC_CYCLE)],
        window=WINDOW_GEOMETRIES[index % len(WINDOW_GEOMETRIES)],
        window_aggregate=AGGREGATES[index % len(AGGREGATES)],
        window_group=group,
        sampling=(index % 2 == 1),
        # every 5th episode ingests through the server's wire seam
        via_server=(index % 5 == 3),
        right_rows=right,
    )


def _rotating_keys(rng: random.Random, n: int, atom: AtomType) -> List[Any]:
    """``n`` group keys from a domain of three that moves on by one
    every few rows; about one in six is NIL (an int NIL is its sentinel,
    as the wire format carries it)."""
    period = rng.randint(2, 8)
    nil = None if atom is AtomType.STR else int(nil_value(atom))
    keys = []
    for i in range(n):
        key = i // period + rng.randint(0, 2)
        keys.append(
            nil if rng.random() < 1 / 6
            else f"k{key}" if atom is AtomType.STR else key
        )
    return keys


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="seeded DataCell crash-recovery episodes "
        "(kill-and-restart differential gate)"
    )
    parser.add_argument("--episodes", type=int, default=100)
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
    args = parser.parse_args(argv)
    if args.seed is None:
        args.seed = current_seed()

    failures: List[str] = []
    crashes = 0
    for index in range(args.episodes):
        spec = crash_episode_spec(index, args.seed)
        result = check_crash_episode(spec)
        crashes += int(result.crashed)
        if not result.ok:
            failures.append(result.explain())
    print(
        f"crash simtest: {args.episodes - len(failures)}/{args.episodes} "
        f"episodes passed, {crashes} mid-run kills (base seed {args.seed})"
    )
    for message in failures:
        print(f"FAIL: {message}", file=sys.stderr)
    if failures and args.out:
        with open(args.out, "w") as handle:
            json.dump({"failures": failures}, handle, indent=2)
        print(f"repro artifact written to {args.out}", file=sys.stderr)
    return min(len(failures), 125)


if __name__ == "__main__":
    sys.exit(main())
