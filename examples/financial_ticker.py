#!/usr/bin/env python3
"""Financial services — standing queries over a stock-tick stream.

Demonstrates:

* per-symbol sliding-window statistics (avg/min/max price) as a SQL
  ``WINDOW`` query, which runs on the engine's window plan (a table of
  per-basic-window partials);
* a large-trade alert joining ticks against a static reference table to
  enrich alerts with the sector (continuous stream-table join in SQL);
* the window plan beside §3.1's re-evaluation reference on identical
  input, with their work counters, to show the incremental advantage.

Run:  python examples/financial_ticker.py
"""

import math

from repro import DataCell, LogicalClock, WindowMode, WindowSpec
from repro.adapters.generators import stock_ticks
from repro.baselines.reeval import ReEvalWindowAggregatePlan

TICK_SCHEMA = "(sym varchar(10), price double, qty int)"


def main() -> None:
    cell = DataCell(clock=LogicalClock())
    for basket in ("ticks_stats", "ticks_alerts", "ticks_reeval"):
        cell.execute(f"create basket {basket} {TICK_SCHEMA}")
    cell.execute("create table listings (sym varchar(10), sector varchar(20))")
    cell.execute(
        "insert into listings values "
        "('ACME', 'industrial'), ('GLOBEX', 'conglomerate'), "
        "('INITECH', 'software'), ('UMBRELLA', 'pharma')"
    )

    stats_inc = cell.submit_continuous(
        "select t.sym, avg(t.price), min(t.price), max(t.price) "
        "from [select * from ticks_stats] as t "
        "group by t.sym window 200 slide 100",
        name="stats",
    )
    reference = ReEvalWindowAggregatePlan(
        "ticks_reeval", "price", ["avg", "min", "max"],
        WindowSpec(WindowMode.COUNT, 200, 100),
        "stats_reeval_out", group_column="sym",
    )
    stats_reeval = cell.submit_plan(
        "stats_reeval", reference, ["ticks_reeval"],
        reference.output_schema(),
    )

    big_trades = cell.submit_continuous(
        "select t.sym, l.sector, t.price, t.qty from "
        "[select * from ticks_alerts where ticks_alerts.qty > 450] as t "
        "join listings l on t.sym = l.sym",
        name="big_trades",
    )

    receptor = cell.add_receptor(
        "feed", ["ticks_stats", "ticks_alerts", "ticks_reeval"]
    )
    for row in stock_ticks(5_000, seed=99):
        receptor.channel.push(row)
    cell.run_until_quiescent()

    rows = stats_inc.fetch()
    print(f"window stats rows: {len(rows)}; last few:")
    for window_id, sym, avg, low, high in rows[-4:]:
        print(
            f"  w{window_id} {sym:10s} avg={avg:8.2f} "
            f"min={low:8.2f} max={high:8.2f}"
        )

    alerts = big_trades.fetch()
    print(f"\nlarge-trade alerts: {len(alerts)}; first few:")
    for sym, sector, price, qty in alerts[:4]:
        print(f"  {sym:10s} [{sector}] {qty} @ {price:.2f}")

    # the plan and the reference computed the same rows in the same order
    # (up to float summation order: the plan adds per-pane partial sums)...
    reeval_rows = stats_reeval.fetch()
    same = len(rows) == len(reeval_rows) and all(
        x[:2] == y[:2]
        and all(
            math.isclose(a, b, rel_tol=1e-9) for a, b in zip(x[2:], y[2:])
        )
        for x, y in zip(rows, reeval_rows)
    )
    print(f"\nincremental == re-evaluation results: {same}")
    # ...but did very different amounts of work:
    inc_plan = cell.scheduler.get("stats").plan
    re_plan = cell.scheduler.get("stats_reeval").plan
    print(
        f"tuples touched — window plan: {inc_plan.values_processed}, "
        f"re-evaluation: {re_plan.values_processed} "
        f"({re_plan.values_processed / inc_plan.values_processed:.1f}x)"
    )


if __name__ == "__main__":
    main()
