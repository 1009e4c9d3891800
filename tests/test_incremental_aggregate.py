"""Aggregate views against the one-time GROUP BY.

A view's integral is a fold of each firing's delta into the kernel's
partials, finalized as a one-time GROUP BY finalizes them.  Over random
batch splits, zero, one or two GROUP BY keys with NULL keys, and INT,
BIGINT and DOUBLE values with NULLs and extremes (VARCHAR values for the
counts and min/max), the integral of what the view delivered must equal
``cell.query(...)`` over every row so far, after every batch, exactly.
DOUBLE values are dyadic, so their sums are exact in any order, or
infinite.  A BIGINT sum leaving int64 is refused by both at the same
batch.  A checkpoint taken mid-stream and restored into a fresh view
delivers what the uninterrupted view delivers.  The examples replay
under ``DATACELL_SEED``.
"""

import math
from collections import Counter

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro import DataCell
from repro.errors import AggregateOverflowError
from repro.incremental import integrate_weighted_rows
from repro.testing import current_seed

#: values per column type: each type's extremes beside small ones
POOLS = {
    "int": [2**31 - 1, -(2**31) + 1, 0, 1, -7],
    "bigint": [2**63 - 1, -(2**63) + 1, 2**62, 2**53 + 1, 0, 3, -5],
    "double": [math.inf, -math.inf, 2.0**40, -(2.0**40), 0.5, -2.5, 0.0],
    "varchar(2)": ["", "a", "ab", "b", "é"],
}
#: the select items each value type answers
AGGREGATES = ["count(*)", "count(x.v)", "min(x.v)", "max(x.v)"]
NUMERIC_ONLY = ["sum(x.v)", "avg(x.v)"]
GROUPINGS = [[], ["k1"], ["k1", "k2"]]


@st.composite
def streams(draw):
    """A value type, the view's keys and aggregates, and its rows in
    batches: ``(k1 int, k2 varchar, v)`` with NULLs everywhere."""
    kind = draw(st.sampled_from(sorted(POOLS)))
    names = AGGREGATES + (NUMERIC_ONLY if kind != "varchar(2)" else [])
    aggregates = draw(st.lists(
        st.sampled_from(names), min_size=1, max_size=4, unique=True,
    ))
    keys = draw(st.sampled_from(GROUPINGS))
    rows = draw(st.lists(st.tuples(
        st.sampled_from([0, 1, None]),
        st.sampled_from(["a", "b", None]),
        st.one_of(st.none(), st.sampled_from(POOLS[kind])),
    ), min_size=1, max_size=20))
    cuts = sorted(draw(st.lists(st.integers(1, len(rows)), max_size=4)))
    batches = [
        rows[lo:hi] for lo, hi in zip([0] + cuts, cuts + [len(rows)])
        if hi > lo
    ]
    return kind, keys, aggregates, batches


def select_sql(keys, aggregates, source):
    """``SELECT`` of ``keys`` and ``aggregates`` (each under an alias of
    its own) from ``source``, columns qualified by ``x``."""
    items = [f"x.{k}" for k in keys]
    group_by = f" group by {', '.join(items)}" if keys else ""
    items += [f"{a} as a{i}" for i, a in enumerate(aggregates)]
    return f"select {', '.join(items)} from {source}{group_by}"


def view_sql(keys, aggregates):
    return "create view v as " + select_sql(
        keys, aggregates, "[select * from b] as x"
    )


def one_time_sql(keys, aggregates):
    return select_sql(keys, aggregates, "t").replace("x.", "")


def cell_with_view(kind, keys, aggregates):
    cell = DataCell()
    cell.execute(f"create basket b (k1 int, k2 varchar(2), v {kind})")
    cell.execute(f"create table t (k1 int, k2 varchar(2), v {kind})")
    return cell, cell.submit_continuous(view_sql(keys, aggregates))


def outcome(run):
    """``run()``, or the overflow refusing it."""
    try:
        return run()
    except AggregateOverflowError:
        return AggregateOverflowError


@seed(current_seed())
@settings(max_examples=80, deadline=None)
@given(streams())
def test_a_view_integrates_to_the_one_time_group_by(stream):
    kind, keys, aggregates, batches = stream
    cell, view = cell_with_view(kind, keys, aggregates)
    delivered = []
    for batch in batches:
        cell.insert("b", batch)
        cell.insert("t", batch)
        fired = outcome(cell.run_until_quiescent)
        expected = outcome(
            lambda: cell.query(one_time_sql(keys, aggregates))
        )
        if AggregateOverflowError in (fired, expected):
            # the first sum past int64 is refused by both routes alike
            assert fired is expected is AggregateOverflowError
            return
        delivered += view.fetch()
        assert Counter(integrate_weighted_rows(delivered)) == Counter(expected)


@seed(current_seed())
@settings(max_examples=40, deadline=None)
@given(streams(), st.data())
def test_a_checkpoint_mid_stream_delivers_what_an_uninterrupted_view_does(
    stream, data
):
    kind, keys, aggregates, batches = stream
    cut = data.draw(st.integers(0, len(batches)))
    whole, whole_view = cell_with_view(kind, keys, aggregates)
    first, first_view = cell_with_view(kind, keys, aggregates)
    for batch in batches[:cut]:
        for cell in (whole, first):
            cell.insert("b", batch)
            if outcome(cell.run_until_quiescent) is AggregateOverflowError:
                return
    blob = first_view.factory.plan.export_state()
    restored, restored_view = cell_with_view(kind, keys, aggregates)
    for cell, view in ((whole, whole_view), (restored, restored_view)):
        cell.run_until_quiescent()
        view.fetch()  # so far; an ungrouped view's registration-time row
    restored_view.factory.plan.import_state(blob)
    for batch in batches[cut:]:
        for cell in (whole, restored):
            cell.insert("b", batch)
            if outcome(cell.run_until_quiescent) is AggregateOverflowError:
                return
        assert restored_view.fetch() == whole_view.fetch()
