"""All-or-nothing ingest: a rejected batch changes nothing.

Tables and baskets convert every column of a batch
(:func:`repro.kernel.bat.storage_array`) before they append the first,
so a batch with a bad value, a short row or a missing column is neither
appended nor WAL-logged, and the next batch is delivered exactly as in
a run that never tried the bad one.  Each bad batch below has a good
first column: appending column by column as it converts would grow
that column alone and leave the table misaligned.

The vectorised conversion itself agrees with
:func:`~repro.kernel.types.coerce_scalar` value by value.
"""

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro import DataCell, LogicalClock
from repro.durability import DurabilityConfig
from repro.errors import ReproError, TypeMismatchError
from repro.kernel.bat import storage_array
from repro.kernel.types import (
    BOOL_NIL,
    INT_NIL,
    LNG_NIL,
    OID_NIL,
    AtomType,
    coerce_scalar,
    numpy_dtype,
)
from repro.testing import current_seed

GOOD = [(1, 2), (3, 4)]
NEXT = [(7, 8)]

#: entry point -> (its bad batches, how to send a batch of rows)
BASKET_ENTRIES = {
    "insert_rows": (
        [[(1, 2), (3, "x")], [(1, 2), (3,)], [(1, 2), (3, 2**31)]],
        lambda cell, rows: cell.basket("b").insert_rows(rows),
    ),
    "insert_columns": (
        [
            {"a": np.array([1, 3], dtype=np.int32),
             "b": np.array([2, "x"], dtype=object)},
            {"a": np.array([1, 3], dtype=np.int32),
             "b": np.array([2**40, 4], dtype=np.int64)},
            {"a": np.array([1, 3], dtype=np.int32),
             "b": np.array([2], dtype=np.int32)},
            {"a": np.array([1, 3], dtype=np.int32)},
        ],
        lambda cell, rows: cell.basket("b").insert_columns(_columns(rows)),
    ),
    "sql insert": (
        ["(1, 2), (3, 'x')", "(1, 2), (3, 2.5e10)"],
        lambda cell, rows: cell.execute(_insert_sql("b", rows)),
    ),
}
TABLE_ENTRIES = {
    "append_rows": (
        [[(1, 2), (3, "x")], [(1, 2), (3,)], [(1, 2), (3, None, 5)]],
        lambda cell, rows: cell.catalog.get("t").append_rows(rows),
    ),
    "append_columns": (
        [
            {"a": np.array([1, 3], dtype=np.int32),
             "b": np.array([2, "x"], dtype=object)},
            {"a": np.array([1, 3], dtype=np.int32),
             "b": np.array([2], dtype=np.int32)},
            {"a": np.array([1, 3], dtype=np.int32), "c": [2, 4]},
        ],
        lambda cell, rows: cell.catalog.get("t").append_columns(
            _columns(rows)),
    ),
    "sql insert": (
        ["(1, 2), (3, 'x')", "(1, 2), (3, 2.5e10)"],
        lambda cell, rows: cell.execute(_insert_sql("t", rows)),
    ),
}


def _columns(rows):
    if isinstance(rows, dict):  # a bad batch, sent as it is
        return rows
    a, b = zip(*rows)
    return {"a": np.array(a, dtype=np.int32), "b": np.array(b, dtype=np.int32)}


def _insert_sql(name, rows):
    if isinstance(rows, str):  # a bad batch, sent as it is
        return f"insert into {name} values {rows}"
    return f"insert into {name} values " + ", ".join(map(str, rows))


def _basket_cell(tmp_path):
    cell = DataCell(
        clock=LogicalClock(),
        durability=DurabilityConfig(directory=tmp_path, fsync="off"),
    )
    cell.execute("create basket b (a int, b int)")
    query = cell.submit_continuous(
        "select x.a, x.b from [select * from b] as x", name="q")
    return cell, query


def _basket_state(cell):
    basket = cell.basket("b")
    return (
        basket.count,
        [basket.bat(col.name).count for col in basket.schema],
        basket.state_digest(),
        basket.total_in,
        cell.durability.wal.records_written,
    )


def _bad_cases(entries):
    return [
        (name, i) for name, (bad, _) in entries.items()
        for i in range(len(bad))
    ]


@pytest.mark.parametrize("entry, case", _bad_cases(BASKET_ENTRIES))
def test_a_rejected_basket_batch_changes_nothing(tmp_path, entry, case):
    bad, send = BASKET_ENTRIES[entry]
    tried, query = _basket_cell(tmp_path / "tried")
    clean, clean_query = _basket_cell(tmp_path / "clean")
    for cell in (tried, clean):
        send(cell, GOOD)
    before = _basket_state(tried)
    with pytest.raises(ReproError):
        send(tried, bad[case])
    assert _basket_state(tried) == before
    for cell in (tried, clean):
        send(cell, NEXT)
        cell.run_until_quiescent()
    assert _basket_state(tried) == _basket_state(clean)
    assert query.fetch() == clean_query.fetch() == GOOD + NEXT
    for cell in (tried, clean):
        cell.durability.close()


def _table_cell():
    cell = DataCell(clock=LogicalClock())
    cell.execute("create table t (a int, b int)")
    return cell


def _table_state(cell):
    table = cell.catalog.get("t")
    return table.count, [bat.count for bat in table.bats()], table.rows()


@pytest.mark.parametrize("entry, case", _bad_cases(TABLE_ENTRIES))
def test_a_rejected_table_batch_changes_nothing(entry, case):
    bad, send = TABLE_ENTRIES[entry]
    tried, clean = _table_cell(), _table_cell()
    for cell in (tried, clean):
        send(cell, GOOD)
    before = _table_state(tried)
    with pytest.raises(ReproError):
        send(tried, bad[case])
    assert _table_state(tried) == before
    for cell in (tried, clean):
        send(cell, NEXT)
    assert _table_state(tried) == _table_state(clean)
    assert tried.execute("select * from t").rows() == GOOD + NEXT


def test_append_row_is_append_rows_of_one():
    cell = _table_cell()
    table = cell.catalog.get("t")
    table.append_row((1, None))
    with pytest.raises(TypeMismatchError):
        table.append_row((2, "x"))
    assert table.rows() == [(1, None)]
    table.check_alignment()


# ----------------------------------------------------------------------
# the vectorised conversion agrees with coerce_scalar
# ----------------------------------------------------------------------
EDGES = [
    2**31 - 1, 2**31, -(2**31), -(2**31) - 1,
    2**53 + 1, 2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 2**64,
    INT_NIL, LNG_NIL, OID_NIL, BOOL_NIL, np.int8(1), np.int64(2**40),
    float("nan"), float("inf"), -0.5, 1.5, 2147483647.5, -2147483648.5,
    2.0**63, 1e300, True, False, np.bool_(True), -1, 0, 1, 2,
]
VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from(EDGES),
    st.integers(-(2**65), 2**65),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(10**6), 10**6).map(lambda i: i + 0.5),
    st.integers(-(2**64), 2**64).map(str),
    st.floats(-1e6, 1e6).map(repr),
    st.sampled_from(["", "x", " 7 ", "nan", "1e3", "true", "-1"]),
)


def _check(atom, values):
    try:
        expected = [coerce_scalar(atom, value) for value in values]
    except TypeMismatchError:
        with pytest.raises(TypeMismatchError):
            storage_array(atom, values)
        return
    got = storage_array(atom, values)
    want = np.empty(len(expected), numpy_dtype(atom))
    want[:] = expected
    assert got.dtype == want.dtype
    if atom is AtomType.STR:
        assert got.tolist() == want.tolist()
    else:
        assert np.array_equal(got, want, equal_nan=want.dtype.kind == "f")


@seed(current_seed())
@settings(max_examples=400, deadline=None)
@given(st.sampled_from(list(AtomType)), st.lists(VALUES, max_size=6))
def test_conversion_agrees_with_coerce_scalar(atom, values):
    _check(atom, values)


@seed(current_seed())
@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(list(AtomType)),
    st.sampled_from(["int8", "int16", "int32", "int64", "uint8", "uint64",
                     "float32", "float64", "bool", "object", "str"]),
    st.lists(VALUES, max_size=6),
)
def test_array_conversion_agrees_with_coerce_scalar(atom, dtype, values):
    # a column handed over as an array: what numpy made of the values
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            array = np.array(values, dtype=dtype)
    except (TypeError, ValueError, OverflowError):
        return
    if array.ndim != 1:
        return
    _check(atom, array)
