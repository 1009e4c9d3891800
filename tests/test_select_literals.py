"""Differential test: selections with fractional and out-of-domain literals
against stdlib ``sqlite3``.

A selection's bounds are resolved against the column's atom
(``kernel.select.Range``): a fractional bound on an INT or BIGINT column
rounds toward the inside of the range, ``=`` a fraction matches nothing
and ``<>`` a fraction every non-NULL row, and a bound past the atom's
domain leaves an empty range or an unbounded side.  Each predicate runs
on the engine and on sqlite over the same rows (NULLs included): as a
one-time query over a table, and as a continuous query whose basket
expression filters one batch.
"""

import sqlite3

import pytest

from repro import DataCell

SCHEMA = "(v int, w bigint)"
ROWS = [(5, 5), (7, 7), (None, None), (-(2**31) + 1, -(2**63) + 1),
        (2**31 - 1, 2**63 - 1), (0, 2**53 + 1)]

#: WHERE predicates over ``{a}``, the qualifier of the table or of the
#: basket expression
PREDICATES = (
    "{a}v < 5.5",
    "{a}v = 5.5",
    "{a}v >= 5.1",
    "{a}v between 5.5 and 8",
    "{a}v <> 5.5",
    "{a}v > 6.5 and {a}v < 7.5",
    "5.5 > {a}v",
    "{a}v > 5.0",
    "{a}v <= 6.999",
    "{a}v < -0.5",
    "{a}v >= -0.5",
    "{a}v < 3000000000",
    "{a}v > 3000000000",
    "{a}v = 3000000000",
    "{a}v <> 3000000000",
    "{a}v >= -3000000000",
    "{a}v <= -3000000000",
    "{a}v between -3000000000 and 3000000000",
    "{a}v >= -2147483648",
    "{a}v < 1e300",
    "{a}v > -1e300 and {a}v < 6",
    "{a}w < 5.5",
    "{a}w = 7.0",
    "{a}w <> 6.5",
    "{a}w > 4.5 and {a}w <= 7.5",
    "{a}w < 10000000000000000000",
    "{a}w > 10000000000000000000",
    "{a}w >= -10000000000000000000",
    "{a}w > 9007199254740992.5",
)


def sqlite_rows(predicate):
    db = sqlite3.connect(":memory:")
    db.execute("create table t (v integer, w integer)")
    db.executemany("insert into t values (?, ?)", ROWS)
    sql = f"select v, w from t where {predicate.format(a='')}"
    return sorted(db.execute(sql).fetchall(), key=repr)


@pytest.mark.parametrize("predicate", PREDICATES)
def test_one_time_selection_answers_like_sqlite(predicate):
    cell = DataCell()
    cell.execute(f"create table t {SCHEMA}")
    cell.insert("t", ROWS)
    got = cell.query(f"select t.v, t.w from t where {predicate.format(a='t.')}")
    assert sorted(got, key=repr) == sqlite_rows(predicate)


@pytest.mark.parametrize("predicate", PREDICATES)
def test_continuous_selection_answers_like_sqlite(predicate):
    cell = DataCell()
    cell.execute(f"create basket b {SCHEMA}")
    query = cell.submit_continuous(
        "select z.v, z.w from "
        f"[select * from b where {predicate.format(a='b.')}] as z"
    )
    for _ in range(2):  # the second firing reuses the resolved bounds
        cell.insert("b", ROWS)
        cell.run_until_quiescent()
        assert sorted(query.fetch(), key=repr) == sqlite_rows(predicate)
