"""PLAN bindings read past their watermark: a differential check.

A basket expression's WHERE is a per-tuple predicate, so a tuple it
rejected once never qualifies later, and a factory reads only the tuples
past its binding's ``last_seen_seq``.  Each case here runs one query
twice over the same batches: once on the engine as it is, once on a
reference whose input basket ignores ``since_seq`` (every firing re-reads
the whole basket, residue included).  Delivered rows and both baskets'
``state_digest()`` must be equal.  Inner-LIMIT bindings still re-read,
and a checkpoint taken with residue recovers to the same deliveries.
"""

from typing import List, Optional, Sequence, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import DataCell, LogicalClock
from repro.core.basket import Basket
from repro.durability import DurabilityConfig

BIG = 2**53
SCHEMA = "create basket s (i int, b bigint, d double, name varchar(8))"
Row = Tuple[Optional[int], Optional[int], Optional[float], Optional[str]]

#: one conjunct per entry; literals sit where rows cluster, and the
#: BIGINT bounds are one apart above 2**53, where float64 cannot tell
PREDICATES = (
    "s.i >= 0", "s.i < 3", "s.i > -2", "s.i <= 1", "s.i = 2", "s.i <> 0",
    "s.i between -1 and 2", "s.i is null", "s.i is not null",
    f"s.b > {BIG + 1}", f"s.b <= {BIG + 2}", f"s.b >= {BIG + 1}",
    f"s.b < {BIG + 3}", "s.b is null",
    "s.d > 0.5", "s.d <= 1.5", "s.d < 2.25", "s.d >= -1.0",
    "s.name >= 'm'", "s.name < 'q'", "s.name like 'a%'",
    "s.name is not null",
    "s.dc_time >= 2", "s.dc_time < 5",
    "s.i + 1 > s.d", "s.i > 0 or s.name = 'x'",
)

rows_strategy = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(-3, 4)),
        st.one_of(st.none(), st.integers(BIG - 1, BIG + 4)),
        st.one_of(st.none(), st.sampled_from([-1.0, 0.0, 0.5, 1.5, 2.25, 3.0])),
        st.one_of(st.none(), st.sampled_from(["a", "ab", "m", "q", "x", "zz"])),
    ),
    min_size=1,
    max_size=40,
)


def _cell(sql: str, rescan: bool) -> Tuple[DataCell, object]:
    clock = LogicalClock()
    cell = DataCell(clock=clock)
    cell.execute(SCHEMA)
    query = cell.submit_continuous(sql, name="q")
    if rescan:
        basket = cell.basket("s")
        # the reference: every firing snapshots the whole basket
        basket.snapshot = lambda since_seq=None: Basket.snapshot(basket)
    return cell, query


def _drive(sql: str, rows: Sequence[Row], splits: Sequence[int],
           rescan: bool):
    cell, query = _cell(sql, rescan)
    delivered: List[List[tuple]] = []
    tuples_in = []
    position = 0
    for size in splits:
        batch = rows[position:position + size]
        position += size
        cell.clock.advance(1.0)
        if batch:
            cell.basket("s").insert_rows(batch)
        cell.run_until_quiescent()
        delivered.append(query.fetch())
        tuples_in.append(query.factory.total_in)
    return (
        delivered,
        cell.basket("s").state_digest(),
        query.output_basket.state_digest(),
        tuples_in,
    )


def _splits(data, n: int) -> List[int]:
    """Batch sizes summing to ``n``; empty batches are firings too."""
    cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=8)))
    bounds = [0, *cuts, n]
    return [high - low for low, high in zip(bounds, bounds[1:])]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rows=rows_strategy, data=st.data())
def test_watermark_read_equals_full_rescan(rows, data):
    conjuncts = data.draw(
        st.lists(st.sampled_from(PREDICATES), min_size=1, max_size=3)
    )
    sql = (
        "select t.i, t.b, t.d, t.name, t.dc_time from "
        f"[select * from s where {' and '.join(conjuncts)}] as t"
    )
    splits = _splits(data, len(rows))
    ours = _drive(sql, rows, splits, rescan=False)
    reference = _drive(sql, rows, splits, rescan=True)
    assert ours[:3] == reference[:3]
    # each tuple is read once: the watermark read counts every row once
    assert ours[3][-1] == len(rows)


def test_a_firing_reads_only_its_batch():
    cell, query = _cell(
        "select t.i from [select * from s where s.i > 100] as t", False
    )
    basket = cell.basket("s")
    basket.insert_rows([(0, None, None, None)] * 500)
    cell.run_until_quiescent()
    basket.insert_rows([(i, None, None, None) for i in range(95, 103)])
    result = query.factory.activate()
    assert result.tuples_in == 8
    assert result.consumed == 2
    assert basket.count == 506
    assert query.factory.total_in == 508


def test_inner_limit_re_reads_its_leftovers():
    cell, query = _cell(
        "select t.i from [select * from s where s.i > 0 limit 2] as t",
        False,
    )
    cell.basket("s").insert_rows(
        [(i, None, None, None) for i in (5, -1, 6, 7, 8, 9)]
    )
    factory = query.factory
    reads = [factory.activate().tuples_in for _ in range(3)]
    # the leftovers are read again: 6, then 4, then 2 buffered rows
    assert reads == [6, 4, 2]
    cell.run_until_quiescent()
    assert sorted(query.fetch()) == [(5,), (6,), (7,), (8,), (9,)]
    assert cell.basket("s").count == 1  # the rejected -1


def test_peek_binding_re_reads_everything():
    from repro.core.factory import ConsumeMode

    cell, query = _cell(
        "select t.i from [select * from s where s.i > 0] as t", False
    )
    query.factory.inputs[0].mode = ConsumeMode.PEEK
    basket = cell.basket("s")
    basket.insert_rows([(1, None, None, None), (-1, None, None, None)])
    assert query.factory.activate().tuples_in == 2
    basket.insert_rows([(2, None, None, None)])
    assert query.factory.activate().tuples_in == 3


@pytest.mark.parametrize("fsync", ["always", "off"])
def test_checkpoint_with_residue_recovers_identically(tmp_path, fsync):
    sql = "select t.i, t.b from [select * from s where s.i >= 2] as t"
    batches = [
        [(i % 5, BIG + i, None, None) for i in range(start, start + 7)]
        for start in range(0, 70, 7)
    ]

    def build(directory):
        cell = DataCell(
            clock=LogicalClock(),
            durability=DurabilityConfig(directory=directory, fsync=fsync),
        )
        cell.execute(SCHEMA)
        return cell, cell.submit_continuous(sql, name="q")

    def feed(cell, query, part):
        out = []
        for batch in part:
            cell.basket("s").insert_rows(batch)
            cell.run_until_quiescent()
            out.extend(query.fetch())
        return out

    whole_cell, whole = build(tmp_path / "whole")
    expected = feed(whole_cell, whole, batches)
    whole_cell.durability.close()

    cell, query = build(tmp_path / "crash")
    before = feed(cell, query, batches[:4])
    assert cell.basket("s").count > 0  # residue at the checkpoint
    cell.checkpoint()
    before += feed(cell, query, batches[4:6])
    cell.basket("s").insert_rows(batches[6])  # in flight at the crash
    cell.durability.abandon()

    cell2, query2 = build(tmp_path / "crash")
    cell2.recover()
    cell2.run_until_quiescent()
    after = query2.fetch() + feed(cell2, query2, batches[7:])
    assert before + after == expected
    assert cell2.basket("s").state_digest() == (
        whole_cell.basket("s").state_digest()
    )
    cell2.durability.close()
