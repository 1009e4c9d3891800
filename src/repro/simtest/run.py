"""CI entry point: run N seeded simulation episodes as a non-flaky gate.

Usage::

    PYTHONPATH=src python -m repro.simtest.run --episodes 400 \\
        --seed 0 --out benchmarks/simtest_repro.json

Every differential of the simulator but crash recovery runs here.
Episodes cycle deterministically through ``CYCLE``: of every five, two
are *linear* (a continuous SELECT of ``ORACLE_CASES``), one a *view*
(``create view`` over ``VIEW_CASES``; every other one is the two-stream
*join*, the rest cycle the *aggregate* cases) and two windows, COUNT
and TIME in turn (the engine against the naive per-tuple baseline, and
against the re-eval plan, grouped or not, in or out of order).
Linear and view episodes rotate their cases, then their firing
policies; a third get batch faults, a sixth injected exceptions, a
seventh ingest through the server's wire seam.  Everything derives
from ``--seed``, so a CI failure reproduces locally with the same
invocation.  On failure the first failing linear or view episode is
shrunk and its one-line repro (plus a JSON artifact for upload) is
emitted, and a failing window episode's rows are shrunk before its
paste-back call is printed; exit status is the number of failing
episodes.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from collections import Counter
from dataclasses import asdict, replace
from typing import Callable, List, Optional, Tuple

from .oracle import (
    AGG_CASES,
    JOIN_CASE,
    ORACLE_CASES,
    VIEW,
    EpisodeSpec,
    _ddmin,
    check_episode,
    render_repro,
    run_time_window_differential,
    run_window_differential,
    shrink_episode,
)
from .policies import policy_names
from ..testing import current_seed

#: one turn of the episode schedule
CYCLE = ("linear", "view", "window", "linear", "window")
#: the view episodes' cases: the join every other time
VIEW_CYCLE = tuple(
    case for agg in sorted(AGG_CASES) for case in (agg, JOIN_CASE.name)
)
WINDOW_GEOMETRIES = [
    (5, 2),  # overlapping slide
    (4, 4),  # tumbling
    (1, 1),  # degenerate size 1
    (8, 3),
    (30, 10),
]
TIME_GEOMETRIES = ((8.0, 2.0), (5.0, 5.0), (12.0, 3.0))
AGGREGATES = ("sum", "count", "avg", "min", "max")
TIME_AGGREGATES = (
    ("sum",), ("count",), ("avg",), ("min",), ("max",),
    ("sum", "count", "min", "max"),
)


def episode_kind(index: int) -> Tuple[str, int]:
    """Episode ``index``'s slot in ``CYCLE`` and its ordinal among the
    episodes of that slot."""
    turn, at = divmod(index, len(CYCLE))
    slot = CYCLE[at]
    return slot, turn * CYCLE.count(slot) + CYCLE[:at].count(slot)


def kind_name(index: int) -> str:
    """What episode ``index`` checks: ``linear``, ``aggregate``,
    ``join``, ``count_window`` or ``time_window``."""
    slot, ordinal = episode_kind(index)
    if slot == "window":
        return ("count_window", "time_window")[ordinal % 2]
    if slot == "view":
        case = VIEW_CYCLE[ordinal % len(VIEW_CYCLE)]
        return "join" if case == JOIN_CASE.name else "aggregate"
    return "linear"


def _episode_spec(index: int, base_seed: int) -> EpisodeSpec:
    """A linear or view episode.  Its case cycles fastest; each turn
    through the cases takes the next policy, a third of the turns get
    batch faults, a sixth injected exceptions too, and a seventh ingest
    through the server's wire seam (encode → decode → ingest queue →
    pump) instead of a receptor."""
    seed = base_seed + index
    rng = random.Random(f"datacell-episode:{seed}")
    slot, ordinal = episode_kind(index)
    cases = sorted(ORACLE_CASES) if slot == "linear" else VIEW_CYCLE
    turn, case = divmod(ordinal, len(cases))
    via_server = turn % 7 == 2
    # a starved view factory fires once every delivered delta waits:
    # both sides of a join in one firing
    starve = (
        VIEW if slot == "view" else "server_wire" if via_server else "tap"
    )
    policies = list(policy_names()) + [f"starve:{starve}"]
    n_rows = rng.randint(5, 60)
    spec = EpisodeSpec(
        seed=seed,
        rows=tuple(
            (rng.randint(-5, 30), rng.randint(0, 10)) for _ in range(n_rows)
        ),
        case=cases[case],
        policy=policies[turn % len(policies)],
        batch_size=rng.choice((1, 2, 3, 5, 8)),
        batch_fault_rate=0.3 if turn % 3 == 0 else 0.0,
        exception_rate=0.15 if turn % 6 == 0 else 0.0,
        via_server=via_server,
    )
    if spec.case != JOIN_CASE.name:
        return spec
    # join keys from a small domain, so the two sides match often
    return replace(
        spec,
        rows=tuple(
            (rng.randint(0, 8), rng.randint(0, 20)) for _ in range(n_rows)
        ),
        right_rows=tuple(
            (rng.randint(0, 8), rng.randint(0, 20))
            for _ in range(rng.randint(4, 40))
        ),
    )


def _window_call(index: int, base_seed: int) -> Tuple[Callable, dict]:
    """Window episode ``index``'s differential, COUNT or TIME, and the
    keyword arguments to call it with."""
    seed = base_seed + index
    rng = random.Random(f"datacell-window-episode:{seed}")
    turn = episode_kind(index)[1] // 2
    if kind_name(index) == "time_window":
        size, slide = TIME_GEOMETRIES[turn % len(TIME_GEOMETRIES)]
        return run_time_window_differential, dict(
            size=size,
            slide=slide,
            rows=[
                (rng.randint(0, 50), rng.randint(0, 5))
                for _ in range(rng.randint(10, 70))
            ],
            aggregates=TIME_AGGREGATES[turn // 3 % len(TIME_AGGREGATES)],
            grouped=turn % 2 == 0,
            disorder=slide * 2.5 if turn // 2 % 2 else 0.0,
            seed=seed,
            batch_size=rng.choice((1, 2, 3, 5, 8)),
        )
    size, slide = WINDOW_GEOMETRIES[turn % len(WINDOW_GEOMETRIES)]
    return run_window_differential, dict(
        size=size,
        slide=slide,
        rows=[rng.randint(0, 50) for _ in range(rng.randint(size, 80))],
        aggregate=AGGREGATES[turn // len(WINDOW_GEOMETRIES) % len(AGGREGATES)],
        seed=seed,
        policy=rng.choice(list(policy_names()) + ["starve:tap"]),
        batch_size=rng.choice((1, 3, 7)),
        min_tuples=rng.choice((1, 1, 1, size + 2)),
        batch_fault_rate=0.3 if turn % 3 == 0 else 0.0,
    )


def _window_mismatch(function: Callable, call: dict) -> Optional[str]:
    """Run a window differential; where its two sides differ, or None."""
    if function is run_window_differential:
        streaming, naive, _ = function(**call)
        return None if streaming == naive else f"{streaming} != {naive}"
    plan, reference = function(**call)
    if plan == reference:
        return None
    diverge = next(
        (i for i, (a, b) in enumerate(zip(plan, reference)) if a != b),
        min(len(plan), len(reference)),
    )
    return (
        f"row {diverge}: plan={plan[diverge:diverge + 3]} "
        f"reeval={reference[diverge:diverge + 3]} "
        f"(lengths {len(plan)}/{len(reference)})"
    )


def _run_window_episode(index: int, base_seed: int) -> Optional[str]:
    """One window differential; returns a one-line repro of the failure,
    its rows shrunk by greedy ddmin, or None."""
    function, call = _window_call(index, base_seed)
    if _window_mismatch(function, call) is None:
        return None
    call["rows"] = _ddmin(call["rows"], lambda rows: _window_mismatch(
        function, {**call, "rows": rows}) is not None)
    args = ", ".join(f"{k}={v!r}" for k, v in call.items())
    return f"{function.__name__}({args}): {_window_mismatch(function, call)}"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="seeded DataCell simulation episodes (differential gate)"
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
        "--lock-order",
        action="store_true",
        help="install the acquisition-graph recorder "
        "(repro.analysis.lockorder) for every episode; any lock-order "
        "cycle counts as a failed run",
    )
    args = parser.parse_args(argv)
    if args.seed is None:
        args.seed = current_seed()

    recorder = None
    if args.lock_order:
        from ..analysis.lockorder import (
            LockOrderRecorder,
            set_global_recorder,
        )

        recorder = LockOrderRecorder(strict=False)
        set_global_recorder(recorder)

    failures: List[str] = []
    shrunk_artifact = None
    per_kind: Counter = Counter()
    for index in range(args.episodes):
        per_kind[kind_name(index)] += 1
        if episode_kind(index)[0] == "window":
            message = _run_window_episode(index, args.seed)
            if message is not None:
                failures.append(message)
            continue
        spec = _episode_spec(index, args.seed)
        result = check_episode(spec)
        if result.ok:
            continue
        failures.append(result.explain())
        if shrunk_artifact is None:
            shrunk, attempts = shrink_episode(spec)
            shrunk_artifact = {
                "repro": render_repro(shrunk),
                "original": render_repro(spec),
                "shrink_attempts": attempts,
                "spec": asdict(shrunk),
            }
            print(f"shrunk repro ({attempts} attempts):")
            print(f"  {shrunk_artifact['repro']}")
    if recorder is not None:
        from ..analysis.lockorder import set_global_recorder

        set_global_recorder(None)
        print(recorder.summary())
        failures.extend(
            f"lock-order violation: {message}"
            for message in recorder.violations
        )
    print(
        f"simtest: {args.episodes - len(failures)}/{args.episodes} "
        f"episodes passed (base seed {args.seed}; "
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
