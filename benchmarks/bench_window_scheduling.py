"""Experiment W2 — scheduler-gated window firing (§3.1, §2.4).

Paper claim: "the role of the scheduler is very important ... to trigger
the evaluation of the proper factories when there are enough tuples to
fill one or more windows.  For count-based windows all we need to do is to
monitor the number of tuples in baskets."

We compare the same tumbling-window factory driven two ways: gated
(``min_tuples`` = tuples still needed for the next window, updated from
the plan's ``tuples_needed()``) vs naive (fire on any non-empty basket).
The engine does not wire this gate; the bench sets it by hand.
Same results either way; the gated scheduler activates the factory
windows-many times instead of chunks-many times.

Reported table: firing counts + wall time per mode, across chunk sizes.
"""

import time

from repro.adapters.generators import gaussian_doubles
from repro.bench import print_table, record_result
from repro.core.basket import Basket
from repro.core.clock import LogicalClock
from repro.core.factory import ConsumeMode, Factory, InputBinding
from repro.core.windows import WindowAggregatePlan, WindowMode, WindowSpec
from repro.kernel.types import AtomType

N_TUPLES = 20_000
WINDOW = 1_000
CHUNKS = [10, 50, 200]


def run(chunk: int, gated: bool):
    clock = LogicalClock()
    inp = Basket("w_in", [("v", AtomType.DBL)], clock)
    plan = WindowAggregatePlan(
        "w_in", "v", ["avg"], WindowSpec(WindowMode.COUNT, WINDOW), "w_out"
    )
    out = Basket("w_out", plan.output_schema(), clock)
    binding = InputBinding(inp, ConsumeMode.ALL)
    factory = Factory("w", plan, [binding], [out])
    rows = gaussian_doubles(N_TUPLES, 50, 10, seed=4)
    emitted = 0
    started = time.perf_counter()
    for i in range(0, N_TUPLES, chunk):
        inp.insert_rows(rows[i : i + chunk])
        if gated:
            binding.min_tuples = max(1, plan.tuples_needed())
        if factory.enabled():
            factory.activate()
            if gated:
                binding.min_tuples = max(1, plan.tuples_needed())
        emitted = out.count + emitted
        out.consume_all()
    elapsed = time.perf_counter() - started
    return factory.activations, plan.windows_emitted, elapsed


def test_window_trigger_scheduling(benchmark):
    table = []
    series = []
    for chunk in CHUNKS:
        gated_acts, gated_windows, gated_time = run(chunk, gated=True)
        naive_acts, naive_windows, naive_time = run(chunk, gated=False)
        assert gated_windows == naive_windows == N_TUPLES // WINDOW
        table.append(
            (chunk, gated_acts, naive_acts, gated_time, naive_time)
        )
        series.append(
            {
                "chunk": chunk,
                "gated_activations": gated_acts,
                "naive_activations": naive_acts,
            }
        )
        # the gate fires the factory ~once per completed window,
        # the naive scheduler once per chunk
        assert gated_acts <= gated_windows + 1
        assert naive_acts >= N_TUPLES // chunk - 1
    print_table(
        "W2: factory activations, window-gated vs naive scheduling "
        f"(window={WINDOW}, {N_TUPLES} tuples)",
        ["chunk", "gated activations", "naive activations", "gated s",
         "naive s"],
        table,
    )
    record_result(
        "W2",
        {
            "claim": "scheduler fires window factories only when windows fill",
            "series": series,
        },
    )

    benchmark(lambda: run(50, gated=True))
