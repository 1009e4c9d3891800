"""``datacell-serve`` — boot a DataCell and open the network front door.

Example::

    datacell-serve --port 9462 --init schema.sql --sys

``--init`` takes a file of semicolon-separated SQL executed at boot
(DDL plus any standing queries clients will attach to with
``SUBSCRIBE {"query": name}``).  The listen port also answers the HTTP
telemetry GETs (``/metrics``, ``/dashboard``, ...); the process prints
their base URL on stderr.  It runs until interrupted, then shuts down
in the documented order (server → scheduler → durability).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from ..core.engine import DataCell
from ..durability import DurabilityConfig
from .session import BACKPRESSURE_POLICIES, ServerConfig

__all__ = ["main"]


def _run_init(cell: DataCell, path: Path) -> int:
    # drop whole-line comments first: a comment above a statement must
    # not swallow the statement when the file is split on semicolons
    text = "\n".join(
        line
        for line in path.read_text().splitlines()
        if not line.lstrip().startswith("--")
    )
    statements = [s.strip() for s in text.split(";") if s.strip()]
    for sql in statements:
        cell.execute(sql)
    return len(statements)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="datacell-serve",
        description="Serve a DataCell engine over TCP/WebSocket.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=9462,
        help="listen port (0 = any free port; default 9462)",
    )
    parser.add_argument(
        "--init", type=Path, default=None,
        help="file of semicolon-separated SQL to execute at boot",
    )
    parser.add_argument(
        "--backpressure", choices=BACKPRESSURE_POLICIES, default="block",
        help="per-client output-queue policy (default block)",
    )
    parser.add_argument(
        "--queue-frames", type=int, default=1024,
        help="per-client DATA frame bound (default 1024)",
    )
    parser.add_argument(
        "--execution", choices=("reeval", "incremental"), default="reeval",
    )
    parser.add_argument(
        "--durability", type=Path, default=None, metavar="DIR",
        help="enable WAL + checkpoints in DIR (recovers on boot)",
    )
    parser.add_argument(
        "--sys", action="store_true",
        help="enable the sys.* self-monitoring streams",
    )
    # inert: telemetry is served on --port.  Kept because the benchmark
    # suite's server workload still passes ``--http 0`` (and reads the
    # "telemetry at" line); it goes once the suite stops passing it
    parser.add_argument("--http", type=int, help=argparse.SUPPRESS)
    opts = parser.parse_args(argv)

    cell = DataCell(
        execution=opts.execution,
        durability=(
            DurabilityConfig(directory=str(opts.durability))
            if opts.durability is not None
            else None
        ),
        system_streams=bool(opts.sys),
    )
    if opts.durability is not None:
        report = cell.recover()
        print(f"recovered: {report}", file=sys.stderr)
    if opts.init is not None:
        count = _run_init(cell, opts.init)
        print(f"executed {count} init statements", file=sys.stderr)
    cell.start()
    config = ServerConfig(
        backpressure=opts.backpressure, queue_frames=opts.queue_frames
    )
    server = cell.serve(host=opts.host, port=opts.port, config=config)
    assert server.address is not None
    print(f"datacell listening on {server.address[0]}:{server.address[1]}")
    print(
        f"telemetry at http://{server.address[0]}:{server.address[1]}",
        file=sys.stderr,
    )
    try:
        while True:
            time.sleep(1.0)
    except KeyboardInterrupt:
        print("shutting down...", file=sys.stderr)
    finally:
        cell.stop()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(main())
