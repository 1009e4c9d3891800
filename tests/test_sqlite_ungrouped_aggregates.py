"""Differential test: aggregates without GROUP BY against stdlib ``sqlite3``.

An aggregate without GROUP BY compiles to the grouped aggregate over one
group.  Each query below runs on the engine and on sqlite over the same
rows: as a one-time query over a 40-row table, and as a continuous query
whose every firing must answer what sqlite answers over that firing's
batch.  The rows carry NULLs in every column and BIGINT values above
2**53, where a float64 reduction would round.  The same rows check
one-time UNION [ALL] chains whose trailing ORDER BY / LIMIT orders and
cuts the whole chain.
"""

import math
import random
import sqlite3

import pytest

from repro import DataCell

SCHEMA = "(i int, x bigint, d double, s varchar(8))"
WORDS = ("pear", "apple", "fig", "kiwi", "Plum", "date")


def make_rows(n=40, seed=7):
    rng = random.Random(seed)

    def maybe(value):
        return None if rng.random() < 0.2 else value

    return [
        (
            maybe(rng.randint(-50, 50)),
            maybe(rng.choice([2**53, -(2**54)]) + rng.randint(-3, 3)),
            maybe(round(rng.uniform(-100, 100), 3)),
            maybe(rng.choice(WORDS)),
        )
        for _ in range(n)
    ]


ROWS = make_rows()

#: queries over ``{src}``, the table or the basket expression, whose
#: columns ``{a}`` qualifies; a continuous query's output columns need
#: distinct names
QUERIES = (
    "select count(*) n, count({a}x) nx, sum({a}x), min({a}x), max({a}x) "
    "from {src}",
    "select sum({a}i) si, avg({a}i) ai, min({a}d), max({a}d), "
    "sum({a}d) sd, avg({a}d) ad from {src}",
    "select min({a}s), max({a}s), count({a}s) from {src}",
    "select sum({a}x + 1), avg({a}x) from {src} where {a}x > 9007199254740992",
    # a WHERE that selects nothing: still one row
    "select count(*) n, count({a}i) ni, sum({a}x), min({a}s), avg({a}d) "
    "from {src} where {a}i > 1000",
    # HAVING without GROUP BY keeps or drops the one row
    "select sum({a}i) from {src} having count(*) > 5",
    "select sum({a}i) from {src} having count(*) > 100",
    "select count({a}x) from {src} having max({a}s) < 'q'",
    "select max({a}d) from {src} having sum({a}x) < 0",
)


#: one-time UNION chains: a trailing ORDER BY / LIMIT binds to the whole
#: chain and keys on output names or positions; each UNION step dedupes
#: what was merged before it, a UNION ALL step appends.  Every ORDER BY
#: is total over the output, so sqlite's answer is the only right one.
UNION_QUERIES = (
    "select i from t where i > 2 union all select i from t where i < 2 "
    "order by i desc limit 1",
    "select i from t where i > 2 union all select i from t where i < 2 "
    "order by i desc limit 3",
    "select i, s from t where i > 0 union all "
    "select i, s from t where i < -10 order by 1 desc, 2 limit 5",
    # mixed chains: (a UNION b) UNION ALL c, (a UNION ALL b) UNION c
    "select s from t where i > 0 union select s from t where i < 0 "
    "union all select s from t where d > 50 order by s limit 6",
    "select i, x from t where i > 30 union all "
    "select i, x from t where i < -30 union "
    "select i, x from t where i > 40 order by 2, 1",
    # a DESC string key keeps the next key's order among its ties
    "select d, s from t where d > 80 union all "
    "select d, s from t where d < -80 order by s desc, d",
    "select x from t union select x from t order by x",
    # the widened column sorts as BIGINT
    "select i from t where i < 0 union all select x from t where i > 45 "
    "order by i desc limit 4",
    "select i, s from t where i > 40 order by 2 desc, 1",
)


def same(ours, theirs):
    assert len(ours) == len(theirs), (ours, theirs)
    for row, expected in zip(ours, theirs):
        assert len(row) == len(expected)
        for got, want in zip(row, expected):
            if isinstance(want, float) and got is not None:
                assert math.isclose(got, want, rel_tol=1e-12), (row, expected)
            else:
                assert got == want, (row, expected)


def sqlite_answer(sql, rows):
    db = sqlite3.connect(":memory:")
    try:
        db.execute(f"create table t {SCHEMA}")
        db.executemany("insert into t values (?, ?, ?, ?)", rows)
        return db.execute(sql).fetchall()
    finally:
        db.close()


@pytest.mark.parametrize("template", QUERIES)
def test_one_time_matches_sqlite(template):
    cell = DataCell()
    cell.execute(f"create table t {SCHEMA}")
    cell.insert("t", ROWS)
    sql = template.format(a="", src="t")
    same(cell.query(sql), sqlite_answer(sql, ROWS))


@pytest.mark.parametrize("template", QUERIES)
def test_each_firing_matches_sqlite_over_its_batch(template):
    cell = DataCell()
    cell.execute(f"create basket b {SCHEMA}")
    query = cell.submit_continuous(
        template.format(a="z.", src="[select * from b] as z")
    )
    reference = template.format(a="", src="t")
    try:
        start = 0
        for size in (1, 7, 12, 20):
            batch = ROWS[start:start + size]
            start += size
            cell.insert("b", batch)
            cell.run_until_quiescent()
            same(query.fetch(), sqlite_answer(reference, batch))
    finally:
        cell.stop()


@pytest.mark.parametrize("sql", UNION_QUERIES)
def test_union_order_limit_matches_sqlite(sql):
    cell = DataCell()
    cell.execute(f"create table t {SCHEMA}")
    cell.insert("t", ROWS)
    same(cell.query(sql), sqlite_answer(sql, ROWS))
