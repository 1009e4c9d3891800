"""Property tests for the kernel's partial-aggregate algebra.

``kernel/aggregate.py`` holds one algebra — ``fold`` rows into per-cell
partials, ``merge`` runs of cells, ``finalize`` an aggregate — that a
GROUP BY (``grouped_aggregate``) and a window's pane table both run.
Over INT, BIGINT and DOUBLE columns with NULLs and extreme values, and
VARCHAR for the counts and min/max, three routes must agree on every
aggregate: folding any split of a batch and merging the parts, folding
the whole batch, and ``grouped_aggregate`` over it.  A COUNT window
whose panes are an equal split answers its one window as they do, or
refuses a pane or window sum that leaves BIGINT.  The examples replay
under ``DATACELL_SEED``.
"""

import math

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.core.basket import Basket
from repro.core.clock import LogicalClock
from repro.core.factory import ConsumeMode, Factory, InputBinding
from repro.core.windows import WindowAggregatePlan, WindowMode, WindowSpec
from repro.errors import AggregateOverflowError
from repro.kernel.aggregate import (
    AGGREGATE_NAMES,
    IDENTITIES,
    MAX,
    MIN,
    PLANES,
    SUM,
    SUM_LIMIT,
    finalize,
    fold,
    grouped_aggregate,
    merge,
)
from repro.kernel.bat import bat_from_values
from repro.kernel.group import group
from repro.kernel.types import AtomType
from repro.testing import current_seed

#: values per atom: each atom's extremes beside small ones.  DOUBLE
#: values are dyadic, so sums are exact in any order, or infinite.
POOLS = {
    AtomType.INT: st.sampled_from([2**31 - 1, -(2**31) + 1, 0, 1, -7]),
    AtomType.LNG: st.sampled_from([
        2**63 - 1, -(2**63) + 1, 2**62, -(2**62), 2**53 + 1, 0, 3, -5,
    ]),
    AtomType.DBL: st.sampled_from([
        math.inf, -math.inf, 2.0**40, -(2.0**40), 0.5, -2.5, 0.0, -0.0,
    ]),
    AtomType.STR: st.sampled_from(["", "a", "ab", "b", "é", "\x00"]),
}
NUMERIC = (AtomType.INT, AtomType.LNG, AtomType.DBL)
#: what each atom's partials can finalize
NAMES = {
    atom: AGGREGATE_NAMES if atom is not AtomType.STR
    else ("count", "count_star", "min", "max")
    for atom in POOLS
}


@st.composite
def batches(draw, atoms=tuple(POOLS)):
    """An atom, a column of its values with NULLs, and the group keys
    (0-2) of its rows."""
    atom = draw(st.sampled_from(atoms))
    values = draw(st.lists(
        st.one_of(st.none(), POOLS[atom]), min_size=1, max_size=24,
    ))
    keys = draw(st.lists(
        st.integers(0, 2), min_size=len(values), max_size=len(values),
    ))
    return atom, values, keys


def outcome(run):
    """``run()``'s values, NaN spelt out; or the error refusing them."""
    try:
        values = run()
    except AggregateOverflowError:
        return AggregateOverflowError
    return [
        "nan" if isinstance(v, float) and math.isnan(v) else v
        for v in values
    ]


def same(left, right):
    """Equal outcomes; an average may differ in its last bit, by where
    the exact sum was divided (numpy over int64, python over ints)."""
    if not isinstance(left, list) or not isinstance(right, list):
        return left is right
    return len(left) == len(right) and all(
        a == b or (isinstance(a, float) and isinstance(b, float)
                   and math.isclose(a, b, rel_tol=1e-15))
        for a, b in zip(left, right)
    )


def plane_values(partials):
    """Each plane's cells as python values, NaN spelt out."""
    return [outcome(lambda: partials[p].tolist()) for p in range(PLANES)]


def grouping(keys):
    """Group ids of ``keys`` in first-occurrence order, the BAT and the
    group count."""
    groups, _, ngroups = group(bat_from_values(AtomType.INT, keys))
    return groups, ngroups


@seed(current_seed())
@settings(max_examples=150, deadline=None)
@given(batches(), st.data())
def test_a_split_folds_and_merges_to_the_whole_and_to_group_by(batch, data):
    atom, values, keys = batch
    column = bat_from_values(atom, values)
    groups, ngroups = grouping(keys)
    gids, tail, nil = groups.tail, column.tail, column.nil_positions()
    cuts = sorted(data.draw(st.lists(
        st.integers(0, len(values)), max_size=4,
    )))
    bounds = list(zip([0] + cuts, cuts + [len(values)]))
    # every plane but STR's sum
    planes = [p for p in range(PLANES) if atom is not AtomType.STR or p != SUM]
    whole = fold(atom, gids, tail, nil, planes, ncells=ngroups)
    parts = [
        fold(atom, gids[lo:hi], tail[lo:hi], nil[lo:hi], planes,
             ncells=ngroups)
        for lo, hi in bounds
    ]
    # a part whose sum left int64 holds python ints: so does the stack
    stacked = np.stack(parts, axis=1)
    merged = merge(
        atom, stacked, np.array([0]), np.array([len(parts)]), planes,
    )[:, 0]
    assert plane_values(merged) == plane_values(whole)
    for name in NAMES[atom]:
        folded = outcome(lambda: finalize(name, atom, whole).python_list())
        assert same(folded, outcome(
            lambda: finalize(name, atom, merged).python_list()
        )), name
        assert same(folded, outcome(lambda: grouped_aggregate(
            name, column, groups, ngroups
        ).python_list())), name


def test_int_extremes_with_nulls_fold_in_the_column_dtype():
    """Fresh partials reduce an INT column's MIN and MAX over several
    groups in int32: ±(2**31 - 1) answer as themselves and a group of
    NULLs answers NULL; a fold into a pane table keeps its identities."""
    column = bat_from_values(
        AtomType.INT, [2**31 - 1, None, -(2**31) + 1, None, 5, 2**31 - 1]
    )
    groups, ngroups = grouping([0, 1, 0, 2, 2, 3])
    assert grouped_aggregate(
        "min", column, groups, ngroups
    ).python_list() == [-(2**31) + 1, None, 5, 2**31 - 1]
    assert grouped_aggregate(
        "max", column, groups, ngroups
    ).python_list() == [2**31 - 1, None, 5, 2**31 - 1]
    table = np.repeat(IDENTITIES[AtomType.INT][:, None], ngroups, axis=1)
    fold(AtomType.INT, groups.tail, column.tail, column.nil_positions(),
         into=table)
    assert table[MIN].tolist() == [-(2**31) + 1, SUM_LIMIT, 5, 2**31 - 1]
    assert table[MAX].tolist() == [2**31 - 1, -SUM_LIMIT, 5, 2**31 - 1]


def window_rows(atom, values, keys, bw, chunks):
    """The one window of a COUNT window of ``len(values)`` tuples whose
    panes hold ``bw`` tuples each, fed in ``chunks``; rows without the
    window id."""
    clock = LogicalClock()
    inp = Basket("w_in", [("v", atom), ("g", AtomType.INT)], clock)
    plan = WindowAggregatePlan(
        "w_in", "v", list(AGGREGATE_NAMES),
        WindowSpec(WindowMode.COUNT, len(values), bw), "w_out",
        group_column="g", group_atom=AtomType.INT, value_atom=atom,
    )
    out = Basket("w_out", plan.output_schema(), clock)
    factory = Factory("w", plan, [InputBinding(inp, ConsumeMode.ALL)], [out])
    rows = list(zip(values, keys))
    for part in np.array_split(np.arange(len(rows)), chunks):
        if len(part):
            inp.insert_rows([rows[i] for i in part])
            factory.activate()
    return [row[1:-1] for row in out.rows()]  # no window id, no dc_time


def exact_sums(values, keys, lo, hi):
    """Each group's exact sum over rows ``[lo, hi)``, NULLs skipped."""
    sums = {}
    for value, key in zip(values[lo:hi], keys[lo:hi]):
        if value is not None:
            sums[key] = sums.get(key, 0) + value
    return sums.values()


@seed(current_seed())
@settings(max_examples=100, deadline=None)
@given(batches(NUMERIC), st.data())
def test_a_count_window_over_the_split_answers_as_group_by(batch, data):
    atom, values, keys = batch
    bw = data.draw(st.sampled_from([
        d for d in range(1, len(values) + 1) if len(values) % d == 0
    ]))
    chunks = data.draw(st.integers(1, 4))
    column = bat_from_values(atom, values)
    groups, ngroups = grouping(keys)
    expected = [
        outcome(lambda: grouped_aggregate(
            name, column, groups, ngroups
        ).python_list())
        for name in AGGREGATE_NAMES
    ]
    # the window's pane table folds in place, a firing at a time: a pane
    # whose sum so far leaves BIGINT is refused, whatever the aggregates
    ends = [int(part[-1]) + 1 for part in np.array_split(
        np.arange(len(values)), chunks) if len(part)]
    panes_leave = atom is AtomType.LNG and any(
        abs(total) > SUM_LIMIT
        for end in ends
        for lo in range(0, end, bw)
        for total in exact_sums(values, keys, lo, min(lo + bw, end))
    )
    got = outcome(lambda: window_rows(atom, values, keys, bw, chunks))
    if panes_leave or AggregateOverflowError in expected:
        assert got is AggregateOverflowError
        return
    assert got != AggregateOverflowError
    # the window emits its groups in first-arrival order, as group.group
    # numbers them
    firsts = {}
    for key in keys:
        firsts.setdefault(key, len(firsts))
    assert [row[0] for row in got] == list(firsts)
    for i, name in enumerate(AGGREGATE_NAMES):
        column_of = outcome(lambda: [row[1 + i] for row in got])
        assert same(column_of, expected[i]), name
