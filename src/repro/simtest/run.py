"""CI entry point: run N seeded simulation episodes as a non-flaky gate.

Usage::

    PYTHONPATH=src python -m repro.simtest.run --episodes 200 \\
        --seed 0 --out benchmarks/simtest_repro.json

Episodes cycle deterministically through the firing policies and oracle
cases; a third get batch faults, a sixth get injected exceptions, and
every fifth episode is a window-geometry differential instead of a SQL
one.  Everything derives from ``--seed``, so a CI failure reproduces
locally with the same invocation.  On failure the first failing episode
is shrunk and the one-line repro (plus a JSON artifact for upload)
is emitted; exit status is the number of failing episodes.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import asdict
from typing import List, Optional

from .oracle import (
    ORACLE_CASES,
    EpisodeSpec,
    check_episode,
    render_repro,
    run_window_differential,
    shrink_episode,
)
from .policies import policy_names
from ..testing import current_seed

WINDOW_GEOMETRIES = [
    (5, 2),  # overlapping slide
    (4, 4),  # tumbling
    (1, 1),  # degenerate size 1
    (8, 3),
    (30, 10),
]
AGGREGATES = ("sum", "count", "avg", "min", "max")


def _episode_spec(index: int, base_seed: int) -> EpisodeSpec:
    seed = base_seed + index
    rng = random.Random(f"datacell-episode:{seed}")
    # every 7th episode ingests through the server's wire seam
    # (encode → decode → ingest queue → pump) instead of a receptor
    via_server = index % 7 == 2
    starve = "starve:server_wire" if via_server else "starve:tap"
    policies = list(policy_names()) + [starve]
    case_names = sorted(ORACLE_CASES)
    n_rows = rng.randint(5, 60)
    return EpisodeSpec(
        seed=seed,
        rows=tuple(
            (rng.randint(-5, 30), rng.randint(0, 10)) for _ in range(n_rows)
        ),
        case=case_names[index % len(case_names)],
        policy=policies[index % len(policies)],
        batch_size=rng.choice((1, 2, 3, 5, 8)),
        batch_fault_rate=0.3 if index % 3 == 0 else 0.0,
        exception_rate=0.15 if index % 6 == 0 else 0.0,
        via_server=via_server,
    )


def _run_window_episode(index: int, base_seed: int) -> Optional[str]:
    """One window differential; returns a failure description or None."""
    seed = base_seed + index
    rng = random.Random(f"datacell-window-episode:{seed}")
    size, slide = WINDOW_GEOMETRIES[index % len(WINDOW_GEOMETRIES)]
    aggregate = AGGREGATES[index % len(AGGREGATES)]
    policy = (list(policy_names()) + ["starve:tap"])[
        index % (len(policy_names()) + 1)
    ]
    rows = [rng.randint(0, 50) for _ in range(rng.randint(size, 80))]
    streaming, naive, _ = run_window_differential(
        size,
        slide,
        rows,
        aggregate=aggregate,
        seed=seed,
        policy=policy,
        batch_size=rng.choice((1, 3, 7)),
        min_tuples=rng.choice((1, 1, 1, size + 2)),
        batch_fault_rate=0.3 if index % 3 == 0 else 0.0,
    )
    if streaming == naive:
        return None
    return (
        f"window differential seed={seed} size={size} slide={slide} "
        f"agg={aggregate} policy={policy}: {streaming} != {naive}"
    )


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
    for index in range(args.episodes):
        if index % 5 == 4:
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
        f"episodes passed (base seed {args.seed})"
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
