"""Serve a live DataCell's telemetry views for smoke testing.

Starts a threaded cell with system streams enabled, opens its network
front door (``cell.serve``), drives a small continuous query so every
view has data, and serves until the hold time expires (or forever with
``--hold 0``).  The front door's one port answers the HTTP GETs
(``/metrics``, ``/dashboard``, ``/top``, ``/explain/hot``,
``/sys/metrics``, ``/sys/events``, ...) beside framed-TCP and WebSocket
sessions; CI backgrounds this script and curls them, and developers
can point a browser at it.

The process prints ``threads: <names>`` (its live thread names) on
``SIGUSR1`` and at exit, so a caller can check which threads serve.

Usage::

    python scripts/http_smoke.py --port 8787 --hold 30
"""

import argparse
import signal
import sys
import threading
import time


def print_threads(*_args) -> None:
    names = sorted(t.name for t in threading.enumerate())
    print("threads: " + ",".join(names), flush=True)


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
    cell.start()
    host, port = cell.serve(host=args.host, port=args.port).address
    print(f"serving http://{host}:{port}", flush=True)
    signal.signal(signal.SIGUSR1, print_threads)

    deadline = time.monotonic() + args.hold if args.hold else None
    sensor = 0
    try:
        while deadline is None or time.monotonic() < deadline:
            # keep the telemetry moving so the views show live data
            sensor += 1
            cell.insert("sensors", [(sensor, 20.0 + (sensor % 30))])
            time.sleep(0.05)
    except KeyboardInterrupt:
        pass
    finally:
        print_threads()
        cell.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
