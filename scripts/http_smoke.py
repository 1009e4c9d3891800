"""Serve a live DataCell's telemetry endpoint for smoke testing.

Starts a cell with system streams enabled, drives a small continuous
query so every surface has data, then serves HTTP until the hold time
expires (or forever with ``--hold 0``).  CI backgrounds this script and
curls ``/metrics``, ``/dashboard``, ``/sys/metrics`` and ``/sys/events``
against it; developers can point a browser at it.

Usage::

    python scripts/http_smoke.py --port 8787 --hold 30
"""

import argparse
import sys
import time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="0 binds any free port")
    parser.add_argument("--hold", type=float, default=30.0,
                        help="seconds to keep serving (0 = forever)")
    args = parser.parse_args(argv)

    from repro.core.engine import DataCell
    from repro.obs.sysstreams import SystemStreamsConfig

    cell = DataCell(
        system_streams=SystemStreamsConfig(interval=0.25, retention=256)
    )
    cell.execute("create basket sensors (sensor int, temp double)")
    cell.submit_continuous(
        "select s.sensor, s.temp from "
        "[select * from sensors where sensors.temp > 30.0] as s",
        name="hot",
    )
    cell.add_alert(
        "backlog",
        "select b.basket, b.depth from "
        "[select * from sys.baskets where depth > 10000] as b",
    )
    server = cell.serve_http(host=args.host, port=args.port)
    print(f"serving {server.url}", flush=True)

    deadline = time.monotonic() + args.hold if args.hold else None
    sensor = 0
    try:
        while deadline is None or time.monotonic() < deadline:
            # keep the telemetry moving so the endpoints show live data
            sensor += 1
            cell.insert(
                "sensors", [(sensor, 20.0 + (sensor % 30))]
            )
            cell.run_until_quiescent()
            time.sleep(0.05)
    except KeyboardInterrupt:
        pass
    finally:
        cell.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
