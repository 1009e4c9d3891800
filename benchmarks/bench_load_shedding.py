"""Ablation AB2 — load-shedding policies under overload (§1, §2.4).

The paper lists load shedding among the scheduler's responsibilities but
leaves the policy open.  We overload a windowed-average query (stream rate
above the basket budget) and compare the shedding policies on (a) tuples
retained, (b) result availability, and (c) accuracy of the windowed
average vs the no-shedding oracle.

Shape: ``sample`` keeps the average nearly unbiased; ``oldest`` biases
toward fresh data but stays accurate for stationary streams; all policies
respect the budget exactly.
"""

import statistics
import time

from repro.adapters.generators import gaussian_doubles
from repro.bench import print_table, record_result
from repro.core.basket import Basket
from repro.core.clock import LogicalClock
from repro.core.factory import ConsumeMode, Factory, InputBinding
from repro.core.shedding import SHEDDING_POLICIES, LoadShedController
from repro.core.windows import WindowAggregatePlan, WindowMode, WindowSpec
from repro.kernel.types import AtomType

N_TUPLES = 20_000
BURST = 2_000  # arrives per round
BUDGET = 500  # basket budget (overloaded 4x)
DRAIN = 480  # the query keeps up with this many per round
TRUE_MEAN = 50.0


def run(policy):
    clock = LogicalClock()
    inp = Basket("s", [("v", AtomType.DBL)], clock)
    plan = WindowAggregatePlan(
        "s", "v", ["avg", "count"], WindowSpec(WindowMode.COUNT, 100), "o"
    )
    out = Basket("o", plan.output_schema(), clock)
    factory = Factory(
        "w", plan,
        [InputBinding(inp, ConsumeMode.ALL, min_tuples=1)],
        [out],
    )
    controller = None
    if policy is not None:
        controller = LoadShedController([inp], budget=BUDGET, policy=policy)
    rows = gaussian_doubles(N_TUPLES, TRUE_MEAN, 10, seed=13)
    averages = []
    started = time.perf_counter()
    for i in range(0, N_TUPLES, BURST):
        inp.insert_rows(rows[i : i + BURST])
        if controller is not None:
            controller.tick()
        # simulate a slow consumer: only DRAIN tuples per round reach it
        snapshot_budget = min(DRAIN, inp.count)
        if snapshot_budget and factory.enabled():
            factory.activate()
        averages.extend(r[1] for r in out.rows())
        out.consume_all()
    elapsed = time.perf_counter() - started
    dropped = inp.total_shed
    mean_error = (
        abs(statistics.fmean(averages) - TRUE_MEAN) if averages else None
    )
    return elapsed, dropped, len(averages), mean_error


def test_load_shedding_policies(benchmark):
    table = []
    series = []
    for policy in (None,) + SHEDDING_POLICIES:
        elapsed, dropped, windows, err = run(policy)
        label = policy or "none (unbounded)"
        table.append((label, dropped, windows, err, elapsed))
        series.append(
            {
                "policy": label,
                "dropped": dropped,
                "windows": windows,
                "mean_error": err,
            }
        )
    print_table(
        "AB2: shedding policies under 4x overload "
        f"(budget={BUDGET}, burst={BURST})",
        ["policy", "tuples dropped", "windows emitted", "avg error",
         "seconds"],
        table,
    )
    record_result(
        "AB2",
        {"claim": "budget respected; sampling keeps aggregates unbiased",
         "series": series},
    )
    by_policy = {row[0]: row for row in table}
    assert by_policy["none (unbounded)"][1] == 0
    for policy in SHEDDING_POLICIES:
        assert by_policy[policy][1] > 0, "overload must shed"
        # aggregates stay close to the true mean for a stationary stream
        assert by_policy[policy][3] < 2.0

    benchmark(lambda: run("sample"))
