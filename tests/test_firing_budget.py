"""Call budgets per firing: a firing's cost that does not depend on the host.

Wall-clock benches drift between sittings; python call counts do not.
Each shape of ``scripts/firing_cost.py`` (one fig1 8-row firing, one
win_slide 200-row firing, one wal_ingest 64-row firing under an
fsync-always log, one 64-row batch joined to a 10,000-row table and
grouped, one 64-row batch folded into a grouped view, one server ingest
pump activation, one 10,000-row table load, one ``/metrics`` scrape of
a 20-query cell; metrics lit and dark) makes
a committed number of calls into ``src/repro`` frames, with ±5 % slack
for interpreter differences.  A change that lowers a count lowers its
budget here; one that raises a count says why in CHANGES.md.
"""

import importlib.util
import threading
from pathlib import Path

import pytest

from repro.core.factory import Factory
from repro.core.scheduler import Scheduler
from repro.incremental import IncrementalGroupAggregate
from repro.kernel.catalog import Table
from repro.kernel.select import Range
from repro.kernel.types import coerce_scalar

_SPEC = importlib.util.spec_from_file_location(
    "firing_cost", Path(__file__).parents[1] / "scripts" / "firing_cost.py"
)
firing_cost = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(firing_cost)

#: (shape, metrics) -> calls into src/repro per firing, comprehension
#: frames left out
BUDGETS = {
    ("fig1 8 rows", "lit"): 105,
    ("fig1 8 rows", "dark"): 102,
    ("win_slide 200 rows", "lit"): 139,
    ("win_slide 200 rows", "dark"): 137,
    ("wal_ingest 64 rows", "lit"): 129,
    ("wal_ingest 64 rows", "dark"): 126,
    ("join 64 rows", "lit"): 213,
    ("join 64 rows", "dark"): 210,
    ("view 64 rows", "lit"): 224,
    ("view 64 rows", "dark"): 221,
    ("server pump 16 rows", "lit"): 28,
    ("server pump 16 rows", "dark"): 26,
    ("table load 10000 rows", "lit"): 20,
    ("table load 10000 rows", "dark"): 20,
    ("/metrics scrape, 20 queries", "lit"): 4982,
    ("/metrics scrape, 20 queries", "dark"): 4,
}
SLACK = 0.05


def calls(shape, mode):
    built = firing_cost.SHAPES[shape](mode == "dark")
    try:
        return sum(firing_cost.count_calls(built.fire).values())
    finally:
        built.close()


def within_budget(shape, mode, count):
    budget = BUDGETS[shape, mode]
    return abs(count - budget) <= SLACK * budget


@pytest.mark.parametrize("shape, mode", sorted(BUDGETS))
def test_firing_stays_within_its_call_budget(shape, mode):
    count = calls(shape, mode)
    assert within_budget(shape, mode, count), (
        f"{shape} ({mode}): {count} calls per firing, budget "
        f"{BUDGETS[shape, mode]} ±{SLACK:.0%}"
    )


@pytest.mark.parametrize("mode", ["lit", "dark"])
def test_fig1_count_and_read_do_not_grow_with_residue(mode):
    # 500 rows the filter rejected stay buffered: a firing still reads
    # only its own 8 rows, and costs the same calls
    plain = firing_cost.fig1(mode == "dark")
    residue = firing_cost.fig1(mode == "dark", residue=500)
    assert (firing_cost.count_calls(residue.fire)
            == firing_cost.count_calls(plain.fire))
    factory = residue.query.factory
    residue.fire()
    assert factory.inputs[0].basket.count >= 500
    assert factory.total_in == 500 + 52 * 8
    basket = factory.inputs[0].basket
    basket.insert_columns({"k": firing_cost.np.arange(8, dtype="int32"),
                           "v": firing_cost.FIG1_V})
    assert factory.activate().tuples_in == 8


def test_the_counter_sees_a_planted_call(monkeypatch):
    # the budget's own mutation check: a call planted in Factory._loop
    # (here, around its _emit) is counted once per firing, and a planted
    # call of real work breaks the budget
    base = calls("fig1 8 rows", "lit")
    emit = Factory._emit

    def one_more(self, *args):
        self.input_places()
        return emit(self, *args)

    monkeypatch.setattr(Factory, "_emit", one_more)
    assert calls("fig1 8 rows", "lit") == base + 1

    def describe_too(self, *args):
        self.plan.describe()
        return emit(self, *args)

    monkeypatch.setattr(Factory, "_emit", describe_too)
    planted = calls("fig1 8 rows", "lit")
    assert not within_budget("fig1 8 rows", "lit", planted)


@pytest.mark.parametrize("mode", ["lit", "dark"])
def test_join_budget_sees_the_table_steps_rerun(mode):
    # the join shape's own mutation check: forgetting the saved table
    # steps before every firing re-runs the table scan and re-indexes
    # the table's join key, which breaks the budget
    built = firing_cost.SHAPES["join 64 rows"](mode == "dark")
    table = built.query.program()._bound.table

    def fire_forgetting():
        table.versions = None
        return built.fire()

    assert within_budget("join 64 rows", mode, calls("join 64 rows", mode))
    forgetting = sum(firing_cost.count_calls(fire_forgetting).values())
    assert not within_budget("join 64 rows", mode, forgetting)


def view_calls(mode, rows):
    built = firing_cost.view(mode == "dark", rows)
    return sum(firing_cost.count_calls(built.fire).values())


@pytest.mark.parametrize("mode", ["lit", "dark"])
def test_view_calls_do_not_grow_with_the_batch(mode):
    # a view folds its delta in numpy: 1,000 rows cost the calls of 64
    assert within_budget("view 64 rows", mode, view_calls(mode, 1_000))


@pytest.mark.parametrize("mode", ["lit", "dark"])
def test_view_budget_sees_a_per_row_fold(monkeypatch, mode):
    # the view shape's own mutation check: a python call per delta row,
    # as the per-row aggregate state once made, breaks the 1,000-row
    # firing's budget
    step = IncrementalGroupAggregate.step

    def per_row(self, keys, values):
        for value in values.tail.tolist():
            coerce_scalar(self.value_atom, value)
        return step(self, keys, values)

    monkeypatch.setattr(IncrementalGroupAggregate, "step", per_row)
    assert not within_budget("view 64 rows", mode, view_calls(mode, 1_000))


@pytest.mark.parametrize("mode", ["lit", "dark"])
def test_table_load_budget_sees_a_per_row_load(monkeypatch, mode):
    # the table load's own mutation check: loading one row at a time
    # (each row its own append) instead of column at a time breaks the
    # budget
    append_rows = Table.append_rows

    def per_row(self, rows):
        return sum(append_rows(self, (row,)) for row in rows)

    monkeypatch.setattr(Table, "append_rows", per_row)
    planted = calls("table load 10000 rows", mode)
    assert not within_budget("table load 10000 rows", mode, planted)


def test_scrape_budget_sees_a_timing_histogram(monkeypatch):
    # the scrape shape's own mutation check: a per-transition histogram
    # observed on every firing, as the scheduler once kept, adds 22
    # lines per transition to every scrape and breaks the budget
    scrape = "/metrics scrape, 20 queries"
    fire = Scheduler._fire

    def timed(self, transition):
        result = fire(self, transition)
        self.metrics.histogram(
            "planted_activation_seconds", "", ("transition",)
        ).labels(transition.name).observe(0.001)
        return result

    monkeypatch.setattr(Scheduler, "_fire", timed)
    assert not within_budget(scrape, "lit", calls(scrape, "lit"))


@pytest.mark.parametrize("mode", ["lit", "dark"])
def test_fig1_budget_sees_bounds_resolved_per_call(monkeypatch, mode):
    # the selection's own mutation check: a range that checks and coerces
    # its bounds on every call instead of once breaks the budget
    select = Range.__call__

    def resolving(self, bat, candidates=None):
        self.resolve(bat.atom)
        return select(self, bat, candidates)

    monkeypatch.setattr(Range, "__call__", resolving)
    planted = calls("fig1 8 rows", mode)
    assert not within_budget("fig1 8 rows", mode, planted)


class CountingLock:
    """A lock that counts its acquisitions."""

    def __init__(self):
        self.lock = threading.Lock()
        self.taken = 0

    def __enter__(self):
        self.taken += 1
        return self.lock.__enter__()

    def __exit__(self, *exc):
        return self.lock.__exit__(*exc)


def test_a_warm_lit_firing_takes_no_profile_lock():
    # the opcode profile's own mutation check: a warm firing adds to the
    # slots its thread owns without the profile lock, and a lock planted
    # back into each execution (here: the slots resolved again on every
    # execution, which takes it) is seen
    shape = firing_cost.fig1(False)
    interpreter = shape.query.factory.plan.interpreter
    interpreter._profile_lock = lock = CountingLock()
    shape.fire()
    assert lock.taken == 0
    bound = shape.query.program()._bound
    for _ in range(3):
        bound.thread = None
        shape.fire()
    assert lock.taken == 3
