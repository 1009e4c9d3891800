"""Experiment W1 — re-evaluation vs incremental window processing (§3.1).

Paper claim: "the incremental evaluation approach seems more promising
since it avoids processing the already known stream data"; with the basic
window model, a window slide only touches new tuples plus a fold over the
window's ``size/bw`` panes, while re-evaluation rescans the whole window
every slide.  Incremental = the engine's ``WindowAggregatePlan``;
re-evaluation = the reference in ``baselines/reeval.py``.

Reported table: (window, slide) vs tuples-touched and wall time for both
routes.  Shape: the work ratio reeval/incremental ≈ size/slide — the gap
grows as the slide shrinks relative to the window.
"""

import time

import numpy as np

from repro.baselines.reeval import ReEvalWindowAggregatePlan
from repro.bench import print_table, record_result
from repro.core.basket import Basket
from repro.core.clock import LogicalClock
from repro.core.factory import ConsumeMode, Factory, InputBinding
from repro.core.windows import WindowAggregatePlan, WindowMode, WindowSpec
from repro.kernel.types import AtomType

N_TUPLES = 30_000
CHUNK = 500
GEOMETRIES = [  # (window, slide)
    (1_000, 1_000),
    (1_000, 100),
    (1_000, 10),
    (5_000, 50),
    (10_000, 100),
]


def run(plan_cls, size, slide):
    clock = LogicalClock()
    inp = Basket("w_in", [("v", AtomType.DBL)], clock)
    plan = plan_cls(
        "w_in", "v", ["sum", "min", "max", "count"],
        WindowSpec(WindowMode.COUNT, size, slide), "w_out",
    )
    out = Basket("w_out", plan.output_schema(), clock)
    factory = Factory(
        "w", plan, [InputBinding(inp, ConsumeMode.ALL)], [out]
    )
    rng = np.random.default_rng(3)
    values = rng.uniform(0, 100, N_TUPLES)
    started = time.perf_counter()
    for i in range(0, N_TUPLES, CHUNK):
        inp.insert_rows([(float(v),) for v in values[i : i + CHUNK]])
        factory.activate()
        out.consume_all()
    elapsed = time.perf_counter() - started
    return elapsed, plan


def test_window_incremental_vs_reevaluation(benchmark):
    table = []
    series = []
    for size, slide in GEOMETRIES:
        re_time, re_plan = run(ReEvalWindowAggregatePlan, size, slide)
        inc_time, inc_plan = run(WindowAggregatePlan, size, slide)
        work_ratio = (
            re_plan.values_processed / max(1, inc_plan.values_processed)
        )
        table.append(
            (
                f"{size}/{slide}",
                re_plan.values_processed,
                inc_plan.values_processed,
                work_ratio,
                re_time,
                inc_time,
                re_time / inc_time,
            )
        )
        series.append(
            {
                "window": size,
                "slide": slide,
                "reeval_work": re_plan.values_processed,
                "incremental_work": inc_plan.values_processed,
                "reeval_s": re_time,
                "incremental_s": inc_time,
            }
        )
        assert re_plan.windows_emitted == inc_plan.windows_emitted
        # incremental touches each tuple exactly once
        assert inc_plan.values_processed == N_TUPLES
    print_table(
        "W1: sliding-window aggregation, re-evaluation vs incremental",
        ["window/slide", "reeval work", "incr work", "work ratio",
         "reeval s", "incr s", "speedup"],
        table,
    )
    record_result(
        "W1",
        {
            "claim": "incremental (pane table) avoids rescans; gap ~ size/slide",
            "series": series,
        },
    )
    # the work gap grows as slide shrinks: 1000/10 >> 1000/1000
    ratios = {row[0]: row[3] for row in table}
    assert ratios["1000/10"] > ratios["1000/1000"] * 10

    benchmark(
        lambda: run(WindowAggregatePlan, 1_000, 100)
    )
