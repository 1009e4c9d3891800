"""Unit and property tests for BATs (the kernel's column structure)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import AlignmentError, KernelError, TypeMismatchError
from repro.kernel.bat import (
    bat_from_values,
    check_aligned,
    empty_bat,
    storage_array,
)
from repro.kernel.types import AtomType


class TestConstruction:
    def test_empty(self):
        b = empty_bat(AtomType.INT)
        assert len(b) == 0
        assert b.hseqbase == 0

    def test_from_values(self):
        b = bat_from_values(AtomType.INT, [1, 2, 3])
        assert b.python_list() == [1, 2, 3]

    def test_from_values_with_nulls(self):
        b = bat_from_values(AtomType.DBL, [1.5, None, 2.5])
        assert b.python_list() == [1.5, None, 2.5]

    def test_hseqbase_preserved(self):
        b = bat_from_values(AtomType.INT, [1, 2], hseqbase=100)
        assert b.head_oids().tolist() == [100, 101]
        assert b.hseq_end == 102

    def test_str_bat(self):
        b = bat_from_values(AtomType.STR, ["x", None, "y"])
        assert b.python_list() == ["x", None, "y"]

    def test_str_object_array_is_checked(self):
        """A varchar column handed over as an object array is taken as
        is only when it holds strings and NULLs; anything else is
        coerced as a python list would be."""
        clean = np.array(["x", None], dtype=object)
        assert storage_array(AtomType.STR, clean) is clean
        dirty = storage_array(AtomType.STR, np.array([1, 2.5], dtype=object))
        assert dirty.tolist() == ["1", "2.5"]


class TestAppend:
    def test_append_grows(self):
        b = empty_bat(AtomType.INT)
        for i in range(1000):
            b.append(i)
        assert len(b) == 1000
        assert b.value(999) == 999

    def test_append_coerces(self):
        b = empty_bat(AtomType.DBL)
        b.append(3)
        assert b.python_list() == [3.0]

    def test_append_many(self):
        b = empty_bat(AtomType.INT)
        b.append_many(range(10))
        assert len(b) == 10

    def test_append_array(self):
        b = empty_bat(AtomType.LNG)
        b.append_array(np.arange(5, dtype=np.int64))
        assert b.python_list() == [0, 1, 2, 3, 4]

    def test_append_array_casts(self):
        b = empty_bat(AtomType.DBL)
        b.append_array(np.arange(3, dtype=np.int32))
        assert b.python_list() == [0.0, 1.0, 2.0]

    def test_append_bat_type_mismatch(self):
        b = empty_bat(AtomType.INT)
        other = bat_from_values(AtomType.STR, ["a"])
        with pytest.raises(TypeMismatchError):
            b.append_bat(other)

    def test_append_bat(self):
        b = bat_from_values(AtomType.INT, [1])
        b.append_bat(bat_from_values(AtomType.INT, [2, 3]))
        assert b.python_list() == [1, 2, 3]


class TestAccess:
    def test_value_out_of_range(self):
        b = bat_from_values(AtomType.INT, [1])
        with pytest.raises(KernelError):
            b.value(1)
        with pytest.raises(KernelError):
            b.value(-1)

    def test_value_at_oid(self):
        b = bat_from_values(AtomType.INT, [7, 8], hseqbase=10)
        assert b.value_at_oid(11) == 8

    def test_tail_is_view_of_valid_region(self):
        b = empty_bat(AtomType.INT)
        b.append(1)
        assert len(b.tail) == 1


class TestDerivation:
    def test_slice_preserves_oids(self):
        b = bat_from_values(AtomType.INT, [10, 20, 30, 40])
        s = b.slice(1, 3)
        assert s.python_list() == [20, 30]
        assert s.hseqbase == 1

    def test_slice_clamps(self):
        b = bat_from_values(AtomType.INT, [1, 2])
        assert b.slice(-5, 100).python_list() == [1, 2]

    def test_take_oids(self):
        b = bat_from_values(AtomType.INT, [10, 20, 30], hseqbase=5)
        t = b.take_oids(np.array([7, 5]))
        assert t.python_list() == [30, 10]
        assert t.hseqbase == 0

    def test_take_oids_out_of_range(self):
        b = bat_from_values(AtomType.INT, [1])
        with pytest.raises(KernelError):
            b.take_oids(np.array([5]))

    def test_copy_is_deep(self):
        b = bat_from_values(AtomType.INT, [1])
        c = b.copy()
        c.append(2)
        assert len(b) == 1 and len(c) == 2

    def test_nil_positions(self):
        b = bat_from_values(AtomType.INT, [1, None, 3])
        assert b.nil_positions().tolist() == [False, True, False]


class TestAlignment:
    def test_aligned_ok(self):
        a = bat_from_values(AtomType.INT, [1, 2])
        b = bat_from_values(AtomType.STR, ["x", "y"])
        check_aligned(a, b)

    def test_count_mismatch(self):
        a = bat_from_values(AtomType.INT, [1, 2])
        b = bat_from_values(AtomType.INT, [1])
        with pytest.raises(AlignmentError):
            check_aligned(a, b)

    def test_base_mismatch(self):
        a = bat_from_values(AtomType.INT, [1], hseqbase=0)
        b = bat_from_values(AtomType.INT, [1], hseqbase=5)
        with pytest.raises(AlignmentError):
            check_aligned(a, b)

    def test_empty_call_ok(self):
        check_aligned()


@st.composite
def int_lists(draw):
    return draw(
        st.lists(st.one_of(st.integers(-10**6, 10**6), st.none()), max_size=200)
    )


class TestProperties:
    @given(int_lists())
    def test_roundtrip(self, values):
        b = bat_from_values(AtomType.LNG, values)
        assert b.python_list() == values

    @given(int_lists(), st.integers(0, 50), st.integers(0, 50))
    def test_slice_matches_python(self, values, start, extent):
        b = bat_from_values(AtomType.LNG, values)
        stop = start + extent
        assert b.slice(start, stop).python_list() == values[start:stop]

    @given(int_lists(), int_lists())
    def test_append_bat_is_concatenation(self, left, right):
        a = bat_from_values(AtomType.LNG, left)
        a.append_bat(bat_from_values(AtomType.LNG, right))
        assert a.python_list() == left + right

    @given(st.lists(st.integers(-100, 100), min_size=1, max_size=100), st.data())
    def test_take_positions_matches_indexing(self, values, data):
        b = bat_from_values(AtomType.LNG, values)
        idx = data.draw(
            st.lists(st.integers(0, len(values) - 1), max_size=50)
        )
        taken = b.take_positions(np.asarray(idx, dtype=np.int64))
        assert taken.python_list() == [values[i] for i in idx]
