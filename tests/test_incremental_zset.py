"""Property tests for the Z-set algebra and the incremental join.

Hypothesis hammers the algebraic laws views rest on: Z-sets form an
abelian group under merge with eager zero elimination, and the
equi-join against integrated state agrees with brute-force
recomputation over the integrated input.  The aggregate views are
checked against the one-time GROUP BY in
``tests/test_incremental_aggregate.py``; the view episodes of
``python -m repro.simtest.run`` check both operators end to end.
"""

from collections import Counter

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.incremental import IncrementalJoin, ZSet, integrate_weighted_rows
from repro.testing import current_seed

# rows are small tuples of small ints: collisions (and hence weight
# accumulation / cancellation) must actually happen
row_st = st.tuples(st.integers(0, 3), st.integers(-2, 2))
weight_st = st.integers(-3, 3).filter(lambda w: w != 0)
zset_st = st.lists(st.tuples(row_st, weight_st), max_size=12).map(
    lambda pairs: _zset(pairs)
)


def _zset(pairs):
    out = ZSet()
    for row, weight in pairs:
        out.add(row, weight)
    return out


# ----------------------------------------------------------------------
# group algebra
# ----------------------------------------------------------------------
@seed(current_seed())
@settings(max_examples=120, deadline=None)
@given(zset_st)
def test_additive_inverse_cancels(a):
    assert not (a + (-a))
    assert not (a - a)


@seed(current_seed())
@settings(max_examples=120, deadline=None)
@given(zset_st, zset_st)
def test_merge_commutes(a, b):
    assert a + b == b + a


@seed(current_seed())
@settings(max_examples=120, deadline=None)
@given(zset_st, zset_st, zset_st)
def test_merge_associates(a, b, c):
    assert (a + b) + c == a + (b + c)


@seed(current_seed())
@settings(max_examples=120, deadline=None)
@given(zset_st, zset_st)
def test_zero_weights_are_always_eliminated(a, b):
    merged = a + b
    assert all(w != 0 for _, w in merged.items())


@seed(current_seed())
@settings(max_examples=100, deadline=None)
@given(st.lists(row_st, max_size=10))
def test_from_rows_to_rows_round_trips_multisets(rows):
    z = ZSet.from_rows(rows)
    assert Counter(z.to_rows()) == Counter(rows)
    assert z.total_weight() == len(rows)
    assert z.is_positive()


@seed(current_seed())
@settings(max_examples=100, deadline=None)
@given(zset_st)
def test_weighted_rows_round_trip(z):
    again = ZSet()
    for *row, weight in z.to_weighted_rows():
        again.add(tuple(row), weight)
    assert again == z


def test_to_rows_refuses_retractions():
    z = ZSet({(1, 2): -1})
    with pytest.raises(Exception):
        z.to_rows()


def test_integrate_weighted_rows_cancels():
    rows = [(1, 5, 1), (1, 5, 1), (1, 5, -1), (2, 7, 1)]
    assert Counter(integrate_weighted_rows(rows)) == Counter(
        [(1, 5), (2, 7)]
    )


# ----------------------------------------------------------------------
# incremental join vs brute force
# ----------------------------------------------------------------------
join_row_st = st.tuples(st.integers(0, 3), st.integers(0, 5))
join_stream_st = st.lists(
    st.tuples(
        st.lists(join_row_st, max_size=4),  # left batch
        st.lists(join_row_st, max_size=4),  # right batch
    ),
    max_size=8,
)


@seed(current_seed())
@settings(max_examples=100, deadline=None)
@given(join_stream_st)
def test_join_integrates_to_brute_force(stream):
    op = IncrementalJoin(0, 0)
    integrated = ZSet()
    left_all, right_all = [], []
    for left_batch, right_batch in stream:
        left_all.extend(left_batch)
        right_all.extend(right_batch)
        integrated.merge(
            op.step_both(
                ZSet.from_rows(left_batch), ZSet.from_rows(right_batch)
            )
        )
    expected = Counter(
        (lk, lv, rv)
        for lk, lv in left_all
        for rk, rv in right_all
        if lk == rk
    )
    assert integrated.is_positive()
    assert Counter(integrated.to_rows()) == expected


@seed(current_seed())
@settings(max_examples=60, deadline=None)
@given(join_stream_st)
def test_join_delta_order_is_irrelevant(stream):
    """All-left-then-all-right == interleaved batches (same integral)."""
    interleaved = IncrementalJoin(0, 0)
    a = ZSet()
    for left_batch, right_batch in stream:
        a.merge(
            interleaved.step_both(
                ZSet.from_rows(left_batch), ZSet.from_rows(right_batch)
            )
        )
    sequential = IncrementalJoin(0, 0)
    b = ZSet()
    for left_batch, _ in stream:
        b.merge(sequential.step_both(ZSet.from_rows(left_batch), ZSet()))
    for _, right_batch in stream:
        b.merge(sequential.step_both(ZSet(), ZSet.from_rows(right_batch)))
    assert a == b


def test_join_retraction_cancels_pairs():
    op = IncrementalJoin(0, 0)
    out = ZSet()
    out.merge(op.step_both(ZSet.from_rows([(1, "a")]), ZSet()))
    out.merge(op.step_both(ZSet(), ZSet.from_rows([(1, "b")])))
    assert out.to_rows() == [(1, "a", "b")]
    out.merge(op.step_both(ZSet({(1, "a"): -1}), ZSet()))
    assert not out


# ----------------------------------------------------------------------
# operator state round-trips (durability contract)
# ----------------------------------------------------------------------
def test_join_state_round_trip_preserves_behaviour():
    original = IncrementalJoin(0, 0)
    original.step_both(
        ZSet.from_rows([(1, "a"), (2, "b")]), ZSet.from_rows([(1, "x")])
    )
    clone = IncrementalJoin(0, 0)
    clone.import_state(original.export_state())
    probe_r = ZSet.from_rows([(2, "y"), (1, "z")])
    assert original.step_both(ZSet(), probe_r.copy()) == clone.step_both(
        ZSet(), probe_r.copy()
    )
