"""Unit and property tests for join, group, aggregate and sort primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KernelError, TypeMismatchError
from repro.kernel.aggregate import (
    AggregateState,
    grouped_aggregate,
    scalar_aggregate,
)
from repro.kernel.bat import bat_from_values
from repro.kernel.group import distinct_positions, group, subgroup
from repro.kernel.join import (
    cross_positions,
    hash_join,
    projection,
)
from repro.kernel.sort import order, refine, topn
from repro.kernel.types import AtomType


def ints(values, hseqbase=0):
    return bat_from_values(AtomType.LNG, values, hseqbase=hseqbase)


def strs(values):
    return bat_from_values(AtomType.STR, values)


class TestProjection:
    def test_fetch_in_candidate_order(self):
        tail = ints([10, 20, 30])
        out = projection(np.array([2, 0], dtype=np.int64), tail)
        assert out.python_list() == [30, 10]

    def test_result_is_dense_from_zero(self):
        tail = ints([10, 20], hseqbase=5)
        out = projection(np.array([6], dtype=np.int64), tail)
        assert out.hseqbase == 0 and out.python_list() == [20]

    def test_empty(self):
        out = projection(np.empty(0, dtype=np.int64), ints([1]))
        assert len(out) == 0


class TestHashJoin:
    def test_basic_matches(self):
        l, r = hash_join(ints([1, 2, 3]), ints([2, 3, 3]))
        pairs = set(zip(l.tolist(), r.tolist()))
        assert pairs == {(1, 0), (2, 1), (2, 2)}

    def test_nulls_never_match(self):
        l, r = hash_join(ints([None, 1]), ints([None, 1]))
        assert set(zip(l.tolist(), r.tolist())) == {(1, 1)}

    def test_respects_hseqbase(self):
        l, r = hash_join(ints([7], hseqbase=10), ints([7], hseqbase=20))
        assert l.tolist() == [10] and r.tolist() == [20]

    def test_string_join(self):
        l, r = hash_join(strs(["a", "b"]), strs(["b"]))
        assert set(zip(l.tolist(), r.tolist())) == {(1, 0)}

    def test_type_mismatch(self):
        with pytest.raises(TypeMismatchError):
            hash_join(strs(["a"]), ints([1]))

    def test_candidates_restrict(self):
        left = ints([1, 1, 1])
        right = ints([1])
        cands = np.array([1], dtype=np.int64)
        l, r = hash_join(left, right, left_cands=cands)
        assert l.tolist() == [1]


class TestCross:
    def test_cross_positions(self):
        l, r = cross_positions(2, 3)
        assert len(l) == 6
        assert set(zip(l.tolist(), r.tolist())) == {
            (i, j) for i in range(2) for j in range(3)
        }


class TestGroup:
    def test_single_column(self):
        groups, extents, n = group(strs(["a", "b", "a"]))
        assert n == 2
        assert groups.python_list() == [0, 1, 0]
        assert extents.tolist() == [0, 1]

    def test_nulls_form_one_group(self):
        _, _, n = group(ints([None, None, 1]))
        assert n == 2

    def test_subgroup_refines(self):
        g1, _, n1 = group(strs(["a", "a", "b", "b"]))
        g2, extents, n2 = subgroup(ints([1, 2, 1, 1]), g1)
        assert n2 == 3
        assert g2.python_list() == [0, 1, 2, 2]

    def test_distinct_positions(self):
        pos = distinct_positions(ints([5, 5, 7, 5, 7]))
        assert pos.tolist() == [0, 2]

    def test_group_with_candidates(self):
        cands = np.array([1, 2], dtype=np.int64)
        _, _, n = group(ints([1, 2, 2]), cands)
        assert n == 1


class TestScalarAggregates:
    def test_sum_skips_nulls(self):
        assert scalar_aggregate("sum", ints([1, None, 2])) == 3

    def test_count_vs_count_star(self):
        b = ints([1, None])
        assert scalar_aggregate("count", b) == 1
        assert scalar_aggregate("count_star", b) == 2

    def test_empty_aggregates_are_null(self):
        b = ints([])
        for name in ("sum", "avg", "min", "max"):
            assert scalar_aggregate(name, b) is None
        assert scalar_aggregate("count", b) == 0

    def test_avg(self):
        assert scalar_aggregate("avg", ints([1, 2, 3])) == 2.0

    def test_min_max(self):
        b = ints([5, None, 1, 9])
        assert scalar_aggregate("min", b) == 1
        assert scalar_aggregate("max", b) == 9

    def test_str_min_max(self):
        b = strs(["pear", "apple", None])
        assert scalar_aggregate("min", b) == "apple"
        assert scalar_aggregate("max", b) == "pear"

    def test_str_sum_raises(self):
        with pytest.raises(TypeMismatchError):
            scalar_aggregate("sum", strs(["a"]))

    def test_unknown_aggregate(self):
        with pytest.raises(KernelError):
            scalar_aggregate("median", ints([1]))

    def test_integral_sum_is_int(self):
        out = scalar_aggregate("sum", ints([1, 2]))
        assert isinstance(out, int)


class TestGroupedAggregates:
    def test_subsum(self):
        keys = strs(["a", "b", "a"])
        vals = ints([1, 10, 2])
        groups, _, n = group(keys)
        out = grouped_aggregate("sum", vals, groups, n)
        assert out.python_list() == [3, 10]

    def test_subcount_skips_nulls(self):
        keys = strs(["a", "a"])
        vals = ints([1, None])
        groups, _, n = group(keys)
        assert grouped_aggregate("count", vals, groups, n).python_list() == [1]
        assert grouped_aggregate(
            "count_star", vals, groups, n
        ).python_list() == [2]

    def test_subavg(self):
        keys = strs(["a", "a", "b"])
        vals = ints([1, 3, 10])
        groups, _, n = group(keys)
        assert grouped_aggregate("avg", vals, groups, n).python_list() == [2.0, 10.0]

    def test_submin_submax(self):
        keys = strs(["a", "a", "b"])
        vals = ints([4, 2, 9])
        groups, _, n = group(keys)
        assert grouped_aggregate("min", vals, groups, n).python_list() == [2, 9]
        assert grouped_aggregate("max", vals, groups, n).python_list() == [4, 9]

    def test_all_null_group_yields_null(self):
        keys = strs(["a", "b"])
        vals = ints([None, 5])
        groups, _, n = group(keys)
        assert grouped_aggregate("sum", vals, groups, n).python_list() == [None, 5]

    def test_str_grouped_min(self):
        keys = ints([0, 0, 1])
        vals = strs(["b", "a", "z"])
        groups, _, n = group(keys)
        assert grouped_aggregate("min", vals, groups, n).python_list() == ["a", "z"]

    def test_misaligned_groups_raise(self):
        groups, _, n = group(ints([1, 2]))
        with pytest.raises(KernelError):
            grouped_aggregate("sum", ints([1]), groups, n)


class TestAggregateState:
    def test_add_and_result(self):
        s = AggregateState()
        for v in (1.0, 5.0, 3.0):
            s.add_value(v)
        assert s.result("count") == 3
        assert s.result("sum") == 9.0
        assert s.result("avg") == 3.0
        assert s.result("min") == 1.0
        assert s.result("max") == 5.0

    def test_empty_results(self):
        s = AggregateState()
        assert s.result("count") == 0
        assert s.result("sum") is None
        assert s.result("min") is None

    def test_merge_equals_bulk(self):
        a, b = AggregateState(), AggregateState()
        a.add_array(np.array([1.0, 2.0]))
        b.add_array(np.array([10.0]))
        merged = a.merge(b)
        ref = AggregateState()
        ref.add_array(np.array([1.0, 2.0, 10.0]))
        assert merged.result("sum") == ref.result("sum")
        assert merged.result("min") == ref.result("min")
        assert merged.result("max") == ref.result("max")
        assert merged.result("count") == ref.result("count")

    @given(
        st.lists(st.floats(-100, 100), max_size=50),
        st.lists(st.floats(-100, 100), max_size=50),
    )
    def test_merge_commutes(self, left, right):
        a, b = AggregateState(), AggregateState()
        a.add_array(np.asarray(left))
        b.add_array(np.asarray(right))
        ab, ba = a.merge(b), b.merge(a)
        for name in ("count", "min", "max"):
            assert ab.result(name) == ba.result(name)
        if ab.count:
            assert abs(ab.result("sum") - ba.result("sum")) < 1e-9


class TestSort:
    def test_ascending_stable(self):
        b = ints([3, 1, 2, 1])
        assert order(b).tolist() == [1, 3, 2, 0]

    def test_descending(self):
        b = ints([3, 1, 2])
        assert order(b, descending=True).tolist() == [0, 2, 1]

    def test_nulls_first_ascending(self):
        b = ints([3, None, 1])
        assert order(b).tolist() == [1, 2, 0]

    def test_refine_secondary_key(self):
        first = strs(["b", "a", "a"])
        second = ints([9, 2, 1])
        primary = order(first)
        final = refine(second, primary)
        # 'a' rows sorted by second key, then 'b'
        assert final.tolist() == [2, 1, 0]

    def test_topn(self):
        b = ints([5, 1, 4, 2])
        assert topn(b, 2).tolist() == [1, 3]
        assert topn(b, 2, descending=True).tolist() == [0, 2]

    def test_string_sort(self):
        b = strs(["pear", None, "apple"])
        assert order(b).tolist() == [1, 2, 0]

    @given(st.lists(st.integers(-100, 100), max_size=80))
    def test_order_matches_sorted(self, values):
        b = ints(values)
        perm = order(b)
        got = [values[i] for i in perm.tolist()]
        assert got == sorted(values)


class TestExactIntegerAggregates:
    """SUM/MIN/MAX over integral atoms reduce in int64, not float64."""

    def test_grouped_sum_exact_past_2_53(self):
        groups, _, n = group(ints([0, 0]))
        out = grouped_aggregate("sum", ints([2**53, 1]), groups, n)
        assert out.python_list() == [2**53 + 1]

    def test_scalar_sum_exact_past_2_53(self):
        assert scalar_aggregate("sum", ints([2**53, 1])) == 2**53 + 1

    def test_min_max_exact_near_2_62(self):
        vals = ints([2**62 + 1, -(2**62) - 1, None])
        groups, _, n = group(ints([0, 0, 0]))
        assert scalar_aggregate("max", vals) == 2**62 + 1
        assert scalar_aggregate("min", vals) == -(2**62) - 1
        assert grouped_aggregate("max", vals, groups, n).python_list() == [
            2**62 + 1
        ]
        assert grouped_aggregate("min", vals, groups, n).python_list() == [
            -(2**62) - 1
        ]


# ----------------------------------------------------------------------
# differential: the bulk kernels against a nested-loop / dict reference
# ----------------------------------------------------------------------
_POOLS = {
    "small": st.integers(-4, 6),
    "int32": st.integers(-(2**31) + 1, 2**31 - 1),
    # a span far wider than any row count forces the sort path; the
    # neighbours of 2**62 are equal once rounded to float64
    "wide": st.sampled_from(
        [2**62, 2**62 + 1, -(2**62), -(2**62) - 1, 2**63 - 1, 0]
    ),
    "float": st.sampled_from([-0.0, 0.0, 0.5, 1.0, -3.0, 2.0**53, 1e300])
    | st.floats(-10, 10),
    "str": st.text("ab\x00é", max_size=3),
}
_INTEGRAL = (AtomType.INT, AtomType.LNG)
_JOIN_CASES = [
    (AtomType.INT, AtomType.INT, ("small", "int32")),
    (AtomType.LNG, AtomType.LNG, ("small", "wide")),
    (AtomType.DBL, AtomType.DBL, ("small", "float")),
    (AtomType.STR, AtomType.STR, ("str",)),
    (AtomType.INT, AtomType.DBL, ("small", "float")),
    (AtomType.DBL, AtomType.INT, ("small", "float")),
    (AtomType.INT, AtomType.LNG, ("small",)),
]


def _fits(atom, value):
    """Whether a pool value is storable as ``atom``."""
    if atom is AtomType.STR:
        return isinstance(value, str)
    if isinstance(value, str):
        return False
    if atom is AtomType.INT:
        return float(value).is_integer() and abs(value) < 2**31
    if atom is AtomType.LNG:
        return isinstance(value, int)
    return True


@st.composite
def _column(draw, atom, pool, min_size=0):
    """A BAT of ``atom`` drawn from ``pool`` (duplicates likely) plus NILs,
    a random ``hseqbase`` and maybe a candidate list."""
    choices = [v for v in pool if _fits(atom, v)] + [None]
    values = draw(st.lists(st.sampled_from(choices), min_size=min_size,
                           max_size=12))
    base = draw(st.integers(0, 40))
    bat = bat_from_values(atom, values, hseqbase=base)
    cands = None
    if draw(st.booleans()):
        keep = draw(st.lists(st.booleans(), min_size=len(values),
                             max_size=len(values)))
        cands = np.array(
            [base + i for i, k in enumerate(keep) if k], dtype=np.int64
        )
    return bat, cands


@st.composite
def _join_inputs(draw):
    latom, ratom, kinds = draw(st.sampled_from(_JOIN_CASES))
    pool = draw(st.lists(_POOLS[draw(st.sampled_from(kinds))], min_size=1,
                         max_size=6))
    return draw(_column(latom, pool)), draw(_column(ratom, pool))


def _positions(bat, cands):
    if cands is None:
        return list(range(len(bat)))
    return [int(c) - bat.hseqbase for c in cands]


def _comparable(left, right):
    """The reference's common type: int when both sides are integral."""
    if left.atom is AtomType.STR:
        return lambda v: v
    if left.atom in _INTEGRAL and right.atom in _INTEGRAL:
        return int
    return float


def ref_join(left, lcands, right, rcands):
    """Nested loop: equi-join pairs in probe order, matches by position."""
    conv = _comparable(left, right)
    lv, rv = left.python_list(), right.python_list()
    pairs = []
    for i in _positions(left, lcands):
        pairs += [
            (i + left.hseqbase, j + right.hseqbase)
            for j in _positions(right, rcands)
            if lv[i] is not None and rv[j] is not None
            and conv(lv[i]) == conv(rv[j])
        ]
    return pairs


def ref_group(keys, prev=None):
    """Dict reference: group ids by first occurrence, NILs together."""
    mapping, gids, extents = {}, [], []
    for i, key in enumerate(keys):
        composite = (None if prev is None else prev[i], key is None, key)
        if composite not in mapping:
            mapping[composite] = len(mapping)
            extents.append(i)
        gids.append(mapping[composite])
    return gids, extents


def _pairs(result):
    left, right = result
    return list(zip(left.tolist(), right.tolist()))


class TestKernelsMatchReference:
    @settings(max_examples=300, deadline=None)
    @given(_join_inputs())
    def test_hash_join(self, inputs):
        (left, lc), (right, rc) = inputs
        assert _pairs(hash_join(left, right, lc, rc)) == ref_join(
            left, lc, right, rc
        )

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_group_and_subgroup(self, data):
        first_atom, second_atom = (
            data.draw(st.sampled_from([AtomType.INT, AtomType.LNG,
                                       AtomType.DBL, AtomType.STR]))
            for _ in range(2)
        )
        pools = {
            AtomType.INT: ("small", "int32"), AtomType.LNG: ("small", "wide"),
            AtomType.DBL: ("small", "float"), AtomType.STR: ("str",),
        }
        columns = []
        for atom in (first_atom, second_atom):
            kind = data.draw(st.sampled_from(pools[atom]))
            pool = data.draw(st.lists(_POOLS[kind], min_size=1, max_size=6))
            columns.append(pool)
        first, cands = data.draw(_column(first_atom, columns[0]))
        rows = len(_positions(first, cands))
        # the refining column is aligned with the first one's candidates
        second = bat_from_values(
            second_atom,
            data.draw(st.lists(
                st.sampled_from(
                    [v for v in columns[1] if _fits(second_atom, v)] + [None]
                ),
                min_size=rows, max_size=rows,
            )),
        )
        keys = [first.python_list()[p] for p in _positions(first, cands)]
        groups, extents, n = group(first, cands)
        ref_ids, ref_extents = ref_group(keys)
        assert groups.python_list() == ref_ids
        assert extents.tolist() == ref_extents and n == len(ref_extents)

        refined, extents, n = subgroup(second, groups)
        ref_ids, ref_extents = ref_group(second.python_list(), prev=ref_ids)
        assert refined.python_list() == ref_ids
        assert extents.tolist() == ref_extents and n == len(ref_extents)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_grouped_str_min_max(self, data):
        words = data.draw(st.lists(_POOLS["str"], min_size=1, max_size=6))
        values = data.draw(st.lists(st.sampled_from(words + [None]),
                                    max_size=15))
        keys = data.draw(st.lists(st.integers(0, 3), min_size=len(values),
                                  max_size=len(values)))
        groups, _, n = group(ints(keys))
        gids = groups.python_list()
        for name, pick in (("min", min), ("max", max)):
            expect = [
                pick((v for g, v in zip(gids, values)
                      if g == gid and v is not None), default=None)
                for gid in range(n)
            ]
            got = grouped_aggregate(name, strs(values), groups, n)
            assert got.python_list() == expect
            present = [v for v in values if v is not None]
            assert scalar_aggregate(name, strs(values)) == (
                pick(present) if present else None
            )

    def test_wide_keys_take_the_sort_path(self):
        from repro.kernel.group import dense_span

        keys = np.array([2**62, -(2**62)], dtype=np.int64)
        assert dense_span(keys, len(keys)) is None
        assert dense_span(np.array([3, 9, 4]), 3) == (3, 7)
        l, r = hash_join(ints([2**62, -(2**62), 5]), ints([-(2**62), 2**62]))
        assert _pairs((l, r)) == [(0, 1), (1, 0)]
