"""Unit and property tests for selection primitives."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import KernelError, TypeMismatchError
from repro.kernel.bat import bat_from_values
from repro.kernel.select import (
    range_select,
    select_nil,
    select_non_nil,
    theta_select,
)
from repro.kernel.types import AtomType


def make(values, hseqbase=0, atom=AtomType.INT):
    return bat_from_values(atom, values, hseqbase=hseqbase)


class TestRangeSelect:
    def test_inclusive_range(self):
        b = make([1, 5, 10, 15])
        assert range_select(b, 5, 10).tolist() == [1, 2]

    def test_exclusive_bounds(self):
        b = make([1, 5, 10, 15])
        out = range_select(b, 5, 10, low_inclusive=False, high_inclusive=False)
        assert out.tolist() == []

    def test_unbounded_low(self):
        b = make([1, 5, 10])
        assert range_select(b, None, 5).tolist() == [0, 1]

    def test_unbounded_high(self):
        b = make([1, 5, 10])
        assert range_select(b, 5, None).tolist() == [1, 2]

    def test_unbounded_both_matches_all_non_null(self):
        b = make([1, None, 3])
        assert range_select(b, None, None).tolist() == [0, 2]

    def test_anti_range(self):
        b = make([1, 5, 10, 15])
        assert range_select(b, 5, 10, anti=True).tolist() == [0, 3]

    def test_anti_never_matches_null(self):
        b = make([1, None, 20])
        assert range_select(b, 5, 10, anti=True).tolist() == [0, 2]

    def test_nulls_never_qualify(self):
        b = make([None, 7, None])
        assert range_select(b, 0, 100).tolist() == [1]

    def test_respects_hseqbase(self):
        b = make([1, 5, 10], hseqbase=100)
        assert range_select(b, 5, 10).tolist() == [101, 102]

    def test_with_candidates(self):
        b = make([1, 5, 10, 15])
        cands = np.array([0, 3], dtype=np.int64)
        assert range_select(b, 0, 100, candidates=cands).tolist() == [0, 3]

    def test_string_range(self):
        b = make(["apple", "pear", None, "fig"], atom=AtomType.STR)
        assert range_select(b, "b", "z").tolist() == [1, 3]

    def test_dbl_range(self):
        b = make([0.5, 1.5, 2.5], atom=AtomType.DBL)
        assert range_select(b, 1.0, 2.0).tolist() == [1]

    def test_bound_must_compare_with_column(self):
        """A numeric bound on a STR column (or the reverse) is a type
        error, as for calc_compare and hash_join, not a python TypeError."""
        strings = make(["a", "b"], atom=AtomType.STR)
        with pytest.raises(TypeMismatchError):
            range_select(strings, 1, None)
        with pytest.raises(TypeMismatchError):
            theta_select(strings, "<", 1)
        with pytest.raises(TypeMismatchError):
            range_select(make([1, 2]), None, "b")


class TestThetaSelect:
    def test_all_operators(self):
        b = make([1, 2, 3])
        assert theta_select(b, "==", 2).tolist() == [1]
        assert theta_select(b, "!=", 2).tolist() == [0, 2]
        assert theta_select(b, "<", 2).tolist() == [0]
        assert theta_select(b, "<=", 2).tolist() == [0, 1]
        assert theta_select(b, ">", 2).tolist() == [2]
        assert theta_select(b, ">=", 2).tolist() == [1, 2]

    def test_sql_spellings(self):
        b = make([1, 2])
        assert theta_select(b, "=", 1).tolist() == [0]
        assert theta_select(b, "<>", 1).tolist() == [1]

    def test_unknown_operator(self):
        with pytest.raises(KernelError):
            theta_select(make([1]), "~", 1)

    def test_compare_against_null_is_empty(self):
        b = make([1, 2])
        assert theta_select(b, "==", None).tolist() == []

    def test_nulls_never_qualify(self):
        b = make([None, 5])
        assert theta_select(b, "!=", 99).tolist() == [1]

    def test_string_equality(self):
        b = make(["a", "b", None], atom=AtomType.STR)
        assert theta_select(b, "==", "b").tolist() == [1]

    def test_with_candidates(self):
        b = make([5, 5, 5])
        cands = np.array([1], dtype=np.int64)
        assert theta_select(b, "==", 5, candidates=cands).tolist() == [1]


class TestNilSelect:
    def test_select_nil(self):
        b = make([1, None, 3, None])
        assert select_nil(b).tolist() == [1, 3]

    def test_select_non_nil(self):
        b = make([1, None, 3])
        assert select_non_nil(b).tolist() == [0, 2]

    def test_nil_partition_is_complete(self):
        b = make([1, None, 3, None, 5], hseqbase=7)
        nils = set(select_nil(b).tolist())
        non = set(select_non_nil(b).tolist())
        assert nils | non == set(b.head_oids().tolist())
        assert not (nils & non)


class TestProperties:
    @given(
        st.lists(st.one_of(st.integers(-50, 50), st.none()), max_size=120),
        st.integers(-60, 60),
        st.integers(-60, 60),
    )
    def test_range_select_matches_python(self, values, lo, hi):
        b = make(values, atom=AtomType.LNG)
        got = set(range_select(b, lo, hi).tolist())
        expect = {
            i for i, v in enumerate(values) if v is not None and lo <= v <= hi
        }
        assert got == expect

    @given(
        st.sampled_from([AtomType.INT, AtomType.LNG, AtomType.OID,
                         AtomType.DBL, AtomType.TIMESTAMP]),
        st.lists(st.one_of(st.integers(0, 9), st.none()), max_size=40),
        st.one_of(st.none(), st.integers(-1, 10)),
        st.one_of(st.none(), st.integers(-1, 10)),
        st.booleans(), st.booleans(), st.booleans(),
    )
    def test_one_sided_ranges_never_match_nil(
        self, atom, values, lo, hi, lo_inc, hi_inc, anti
    ):
        # NILs must stay out whichever bounds are open, on every atom
        # (the NIL check is skipped where the comparison rejects it)
        b = make(values, atom=atom)
        got = range_select(b, lo, hi, None, lo_inc, hi_inc, anti).tolist()

        def inside(v):
            return ((lo is None or (v >= lo if lo_inc else v > lo))
                    and (hi is None or (v <= hi if hi_inc else v < hi)))

        expect = [i for i, v in enumerate(values)
                  if v is not None and inside(v) != anti]
        assert got == expect

    def test_a_bound_at_the_nil_sentinel_keeps_nils_out(self):
        b = make([None, -(2**31) + 1, 5], atom=AtomType.INT)
        assert range_select(b, -(2**31), None).tolist() == [1, 2]
        b = make([None, 3], atom=AtomType.LNG)
        assert range_select(b, -(2**63), 10).tolist() == [1]

    @given(
        st.lists(st.one_of(st.integers(-50, 50), st.none()), max_size=120),
        st.sampled_from(["==", "!=", "<", "<=", ">", ">="]),
        st.integers(-60, 60),
    )
    def test_theta_select_matches_python(self, values, op, pivot):
        import operator as _op

        fns = {
            "==": _op.eq,
            "!=": _op.ne,
            "<": _op.lt,
            "<=": _op.le,
            ">": _op.gt,
            ">=": _op.ge,
        }
        b = make(values, atom=AtomType.LNG)
        got = set(theta_select(b, op, pivot).tolist())
        expect = {
            i
            for i, v in enumerate(values)
            if v is not None and fns[op](v, pivot)
        }
        assert got == expect

    @given(st.lists(st.one_of(st.integers(-9, 9), st.none()), max_size=80))
    def test_anti_is_complement_within_non_null(self, values):
        b = make(values, atom=AtomType.LNG)
        pos = set(range_select(b, -3, 3).tolist())
        anti = set(range_select(b, -3, 3, anti=True).tolist())
        non_null = set(select_non_nil(b).tolist())
        assert pos | anti == non_null
        assert not (pos & anti)
