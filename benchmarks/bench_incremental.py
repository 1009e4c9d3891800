"""Experiment INC — incremental window evaluation vs re-evaluation.

The incremental performance claim (DBSP, and the paper's §3.1
"incremental evaluation ... avoids processing the already known stream
data"): per-firing cost follows the delta, not the window size.
Re-evaluation rescans the whole window on every slide, so its cost per
tuple grows with the overlap ratio ``size/slide`` — at 100:1 and up the
engine's pane-table ``WindowAggregatePlan`` must win by well over the 5x
acceptance floor.

Series reported to ``BENCH_incremental.json``:

* ``INC_window`` — sliding COUNT-window aggregates (COUNT and SUM) at
  10:1 / 100:1 / 1000:1 overlap, the window plan vs the re-eval
  reference in ``baselines/reeval.py``.

(``INC_join``, the Z-set sliding join against the symmetric-hash plan,
was retired with that join plan in PR 21.)
"""

import numpy as np

from repro.baselines.reeval import ReEvalWindowAggregatePlan
from repro.bench import print_table, record_bench_incremental
from repro.core.basket import Basket
from repro.core.clock import LogicalClock
from repro.core.factory import ConsumeMode, Factory, InputBinding
from repro.core.windows import WindowAggregatePlan, WindowMode, WindowSpec
from repro.kernel.types import AtomType

N_TUPLES = 250_000
CHUNK = 5_000
GEOMETRIES = [  # (window, slide) — overlap 10:1, 100:1, 1000:1
    (50_000, 5_000),
    (50_000, 500),
    (50_000, 50),
]
AGGREGATES = ("count", "sum")


def run_window(plan_cls, size, slide, aggregate):
    """Drive one window plan; return summed plan-evaluation seconds.

    The measured quantity is the factory's per-activation
    ``plan_seconds`` — the plan evaluation alone.  End-to-end wall time
    is dominated by the shared driver (python-tuple ingest, per-window
    emission), identical on both routes, which would mask the
    O(|delta|)-vs-O(size) separation this experiment exists to show.
    """
    clock = LogicalClock()
    inp = Basket("w_in", [("v", AtomType.DBL)], clock)
    plan = plan_cls(
        "w_in", "v", [aggregate],
        WindowSpec(WindowMode.COUNT, size, slide), "w_out",
    )
    out = Basket("w_out", plan.output_schema(), clock)
    factory = Factory(
        "w", plan, [InputBinding(inp, ConsumeMode.ALL)], [out]
    )
    rng = np.random.default_rng(11)
    values = rng.uniform(0, 100, N_TUPLES)
    plan_seconds = 0.0
    for i in range(0, N_TUPLES, CHUNK):
        inp.insert_rows([(float(v),) for v in values[i : i + CHUNK]])
        plan_seconds += factory.activate().plan_seconds
        out.consume_all()
    return plan_seconds, plan


def test_window_plan_beats_reevaluation(benchmark):
    table = []
    series = []
    for aggregate in AGGREGATES:
        for size, slide in GEOMETRIES:
            re_time, re_plan = run_window(
                ReEvalWindowAggregatePlan, size, slide, aggregate
            )
            inc_time, inc_plan = run_window(
                WindowAggregatePlan, size, slide, aggregate
            )
            assert re_plan.windows_emitted == inc_plan.windows_emitted
            speedup = re_time / inc_time
            overlap = size // slide
            table.append(
                (
                    f"{aggregate} {size}/{slide}",
                    overlap,
                    re_plan.values_processed,
                    inc_plan.values_processed,
                    re_time,
                    inc_time,
                    speedup,
                )
            )
            series.append(
                {
                    "aggregate": aggregate,
                    "window": size,
                    "slide": slide,
                    "overlap": overlap,
                    "reeval_work": re_plan.values_processed,
                    "incremental_work": inc_plan.values_processed,
                    "reeval_plan_s": re_time,
                    "incremental_plan_s": inc_time,
                    "speedup": speedup,
                }
            )
    print_table(
        "INC: sliding COUNT-window aggregates, window plan vs re-eval",
        ["agg window/slide", "overlap", "reeval work", "plan work",
         "reeval plan s", "plan s", "speedup"],
        table,
    )
    floor = min(
        row["speedup"] for row in series if row["overlap"] >= 100
    )
    record_bench_incremental(
        "INC_window",
        {
            "claim": "window plan is O(|delta|): >=5x over re-eval "
            "at overlap >=100:1",
            "tuples": N_TUPLES,
            "min_speedup_at_100x": floor,
            "series": series,
        },
    )
    # the acceptance floor: every >=100:1 geometry, both aggregates
    assert floor >= 5.0, f"speedup floor {floor:.2f} < 5x"
    benchmark(
        lambda: run_window(WindowAggregatePlan, 50_000, 500, "sum")
    )
