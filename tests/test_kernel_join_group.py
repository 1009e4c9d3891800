"""Unit and property tests for join, group, aggregate and sort primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AggregateOverflowError, KernelError, TypeMismatchError
from repro.kernel.aggregate import grouped_aggregate
from repro.kernel.bat import bat_from_values
from repro.kernel.calc import const_bat
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


def one_group(name, bat, ngroups=1):
    """Aggregate ``name`` over every row of ``bat`` as group 0, the way an
    aggregate without GROUP BY compiles (group ids ``batcalc.const(0)``,
    group count 1); returns the group's value.  ``ngroups`` > 1 adds
    empty groups, which takes the per-group scatter path instead."""
    groups = const_bat(0, bat, AtomType.OID)
    out = grouped_aggregate(name, bat, groups, ngroups)
    assert len(out) == ngroups
    return out.python_list()[0]


def outcome(name, bat, ngroups=1):
    """:func:`one_group`'s value, or the error that refuses it."""
    try:
        return one_group(name, bat, ngroups)
    except AggregateOverflowError:
        return AggregateOverflowError


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
        l, r = hash_join(ints([7, 8], hseqbase=10), ints([7], hseqbase=20))
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
    """An aggregate without GROUP BY: one group holding every row."""

    def test_sum_skips_nulls(self):
        assert one_group("sum", ints([1, None, 2])) == 3

    def test_count_vs_count_star(self):
        b = ints([1, None])
        assert one_group("count", b) == 1
        assert one_group("count_star", b) == 2

    def test_empty_aggregates_are_null(self):
        b = ints([])
        for name in ("sum", "avg", "min", "max"):
            assert one_group(name, b) is None
        assert one_group("count", b) == 0
        assert one_group("count_star", b) == 0

    def test_avg(self):
        assert one_group("avg", ints([1, 2, 3])) == 2.0

    def test_min_max(self):
        b = ints([5, None, 1, 9])
        assert one_group("min", b) == 1
        assert one_group("max", b) == 9

    def test_str_min_max(self):
        b = strs(["pear", "apple", None])
        assert one_group("min", b) == "apple"
        assert one_group("max", b) == "pear"
        assert one_group("min", strs([None])) is None

    def test_str_sum_raises(self):
        with pytest.raises(TypeMismatchError):
            one_group("sum", strs(["a"]))

    def test_unknown_aggregate(self):
        with pytest.raises(KernelError):
            one_group("median", ints([1]))

    def test_integral_sum_is_int(self):
        out = one_group("sum", ints([1, 2]))
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

    def test_bigint_sorts_exactly(self):
        # float64 keys merged these: they sorted …987, …985, …986
        values = [-(2**54) - 1, -(2**54) - 2, -(2**54) - 3]
        b = bat_from_values(AtomType.LNG, values)
        assert order(b).tolist() == [2, 1, 0]
        assert order(b, descending=True).tolist() == [0, 1, 2]

    @given(st.lists(st.one_of(st.none(), st.integers(2**62, 2**62 + 6)),
                    max_size=40),
           st.booleans())
    def test_bigint_order_nulls_and_ties(self, values, descending):
        b = bat_from_values(AtomType.LNG, values)
        perm = order(b, descending=descending).tolist()
        present = [i for i, v in enumerate(values) if v is not None]
        nulls = [i for i, v in enumerate(values) if v is None]
        # stable: ties keep arrival order in both directions
        ranked = sorted(present, key=lambda i: -values[i] if descending
                        else values[i])
        expected = ranked + nulls if descending else nulls + ranked
        assert perm == expected

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
        assert one_group("sum", ints([2**53, 1])) == 2**53 + 1

    def test_min_max_exact_near_2_62(self):
        vals = ints([2**62 + 1, -(2**62) - 1, None])
        groups, _, n = group(ints([0, 0, 0]))
        assert one_group("max", vals) == 2**62 + 1
        assert one_group("min", vals) == -(2**62) - 1
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


def _pairs(left, result):
    """A join's oid pairs, its all-rows left side (``None``) spelt out."""
    lefts, rights = result
    if lefts is None:
        lefts = left.head_oids()
    return list(zip(lefts.tolist(), rights.tolist()))


class TestKernelsMatchReference:
    @settings(max_examples=300, deadline=None)
    @given(_join_inputs())
    def test_hash_join(self, inputs):
        (left, lc), (right, rc) = inputs
        assert _pairs(left, hash_join(left, right, lc, rc)) == ref_join(
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
            assert one_group(name, strs(values)) == (
                pick(present) if present else None
            )

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_one_group_matches_the_scatter_path(self, data):
        """The one-group reduction and the per-group scatter agree, also
        on refusing a BIGINT sum past int64."""
        atom = data.draw(st.sampled_from(
            [AtomType.INT, AtomType.LNG, AtomType.DBL, AtomType.STR]
        ))
        pool = {
            # halves sum exactly in any order, so DBL compares exactly
            AtomType.DBL: st.integers(-8, 8).map(lambda v: v / 2),
            AtomType.INT: _POOLS["int32"],
            AtomType.LNG: _POOLS["wide"],
            AtomType.STR: _POOLS["str"],
        }[atom]
        values = data.draw(st.lists(st.one_of(st.none(), pool), max_size=12))
        column = bat_from_values(atom, values)
        names = ("count", "count_star", "min", "max")
        if atom is not AtomType.STR:
            names += ("sum", "avg")
        if atom is AtomType.LNG:
            names = tuple(n for n in names if n != "avg")  # float rounding
        for name in names:
            assert outcome(name, column) == outcome(name, column, 3)

    def test_wide_keys_take_the_sort_path(self):
        from repro.kernel.group import dense_span

        keys = np.array([2**62, -(2**62)], dtype=np.int64)
        assert dense_span(keys, len(keys)) is None
        assert dense_span(np.array([3, 9, 4]), 3) == (3, 7)
        left = ints([2**62, -(2**62), 5])
        l, r = hash_join(left, ints([-(2**62), 2**62]))
        assert _pairs(left, (l, r)) == [(0, 1), (1, 0)]


# ----------------------------------------------------------------------
# the all-rows candidate of a full-match probe, and the group histogram
# ----------------------------------------------------------------------
@st.composite
def _key_join_inputs(draw):
    """A probe side drawn mostly from the build side's keys (a foreign
    key), so full matches are common; NULLs, duplicate build keys,
    misses and candidates on either side keep partial ones in play."""
    latom, ratom, kinds = draw(st.sampled_from(_JOIN_CASES))
    pool = draw(st.lists(_POOLS[draw(st.sampled_from(kinds))], min_size=1,
                         max_size=6))
    right, rc = draw(_column(ratom, pool, min_size=1))
    values = right.python_list()
    keys = [values[p] for p in _positions(right, rc)]
    foreign = [v for v in keys if v is not None and _fits(latom, v)]
    if foreign and draw(st.booleans()):
        pool = foreign
    return draw(_column(latom, pool)), (right, rc)


def _unique_grouping(keys):
    """Group ids by first occurrence, extents and rows per group, from
    ``np.unique``."""
    _, first, inverse, sizes = np.unique(
        keys, return_index=True, return_inverse=True, return_counts=True
    )
    order = np.argsort(first)
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    return rank[inverse.reshape(-1)], first[order], sizes[order]


def _check_grouping(result, keys):
    groups, extents, n = result
    gids, firsts, sizes = _unique_grouping(keys)
    assert groups.tail.tolist() == gids.tolist()
    assert extents.tolist() == firsts.tolist() and n == len(firsts)
    assert groups.histogram.tolist() == sizes.tolist()
    assert groups.histogram.tolist() == np.bincount(
        groups.tail, minlength=n).tolist()


class TestAllRowsCandidate:
    @settings(max_examples=300, deadline=None)
    @given(_key_join_inputs())
    def test_all_rows_and_materialised_paths_answer_alike(self, inputs):
        (left, lc), (right, rc) = inputs
        lefts, rights = hash_join(left, right, lc, rc)
        # the same probe through explicit candidates spells its left out
        explicit = left.head_oids() if lc is None else lc
        listed, listed_rights = hash_join(left, right, explicit, rc)
        assert listed is not None
        assert rights.tolist() == listed_rights.tolist()
        pairs = list(zip(listed.tolist(), listed_rights.tolist()))
        assert _pairs(left, (lefts, rights)) == pairs
        assert pairs == ref_join(left, lc, right, rc)
        if lefts is None:  # every left row matched once, in order
            assert lc is None
            assert listed.tolist() == left.head_oids().tolist()
        assert (projection(lefts, left).python_list()
                == projection(listed, left).python_list())

    @pytest.mark.parametrize("build, probe", [
        ([30, 10, 20], [20, 30, 20, 10]),  # dense unique keys: slot table
        ([30, 10, 20, 40, 40], [20, 30, 10]),  # dense, with duplicates
        ([2**40, 7, -(2**40)], [7, 2**40, 7]),  # sparse: sorted keys
    ])
    def test_a_full_match_returns_the_all_rows_candidate(self, build, probe):
        left, right = ints(probe, hseqbase=5), ints(build, hseqbase=9)
        lefts, rights = hash_join(left, right)
        assert lefts is None
        assert right.tail[rights - 9].tolist() == probe
        cands = np.array([5, 7], dtype=np.int64)
        assert hash_join(left, right, left_cands=cands)[0] is cands
        left.append(12345)  # one probe row more, which misses
        lefts, _ = hash_join(left, right)
        assert lefts.tolist() == list(range(5, 5 + len(probe)))

    def test_a_full_string_match_returns_the_all_rows_candidate(self):
        lefts, rights = hash_join(strs(["b", "a", "b"]), strs(["a", "b", "c"]))
        assert lefts is None and rights.tolist() == [1, 0, 1]

    def test_projection_through_all_rows_is_a_read_only_view(self):
        tail = ints([10, 20, 30], hseqbase=4)
        out = projection(None, tail)
        assert out.hseqbase == 0 and out.python_list() == [10, 20, 30]
        assert np.shares_memory(out.tail, tail.tail)
        with pytest.raises(ValueError):
            out.tail[0] = 1

    def test_compose_reads_the_all_rows_candidate(self):
        from repro.kernel.interpreter import OPCODES

        compose = OPCODES["algebra.compose"].fn
        cands = np.array([1, 3], dtype=np.int64)
        assert compose(None, None, cands) is cands
        assert compose(None, cands, None) is cands
        assert compose(None, None, None) is None
        assert compose(None, np.array([4, 6, 8, 9]), cands).tolist() == [6, 9]


class TestGroupHistogram:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 4000),
           st.integers(1, 300), st.integers(0, 3), st.booleans())
    def test_numbering_and_histograms_match_unique(
        self, seed, rows, ncodes, late, nils
    ):
        rng = np.random.default_rng(seed)
        keys = rng.integers(0, ncodes, rows)
        if rows:
            # keys first met in the last quarter: past the prefix that
            # first positions are looked for in, once rows outgrow it
            at = rng.integers(rows * 3 // 4, rows, late)
            keys[at] = ncodes + np.arange(late)
        values = keys.tolist()
        if nils:  # a NIL group
            for i in rng.integers(0, max(rows, 1), 3 if rows else 0):
                values[i] = None
        column = ints(values)
        result = group(column)
        _check_grouping(result, column.tail)
        second = rng.integers(0, 3, rows)
        refined = subgroup(ints(second.tolist()), result[0])
        _check_grouping(refined, _unique_grouping(column.tail)[0] * 3 + second)

    def test_aggregates_read_the_histogram_only_when_every_row_counts(self):
        keys = ints([1, 2, 1, 3, 1])
        groups, _, n = group(keys)
        assert groups.histogram.tolist() == [3, 1, 1]
        groups.histogram = np.array([30, 10, 10])  # shows where it is read
        full, holey = ints([5, 4, 7, 1, 2]), ints([5, None, 7, 1, 2])
        for name in ("count", "count_star"):
            assert grouped_aggregate(name, full, groups, n).python_list() == [
                30, 10, 10]
        assert grouped_aggregate("avg", full, groups, n).python_list() == [
            14 / 30, 0.4, 0.1]
        # a NULL in the values: counted, not read
        assert grouped_aggregate("count", holey, groups, n).python_list() == [
            3, 0, 1]
        assert grouped_aggregate("avg", holey, groups, n).python_list() == [
            14 / 3, None, 1.0]
        # candidates: counted, not read
        cands = np.array([0, 1, 2], dtype=np.int64)
        picked, _, m = group(keys, cands)
        picked.histogram = picked.histogram + 10
        assert grouped_aggregate(
            "count_star", full, picked, m, cands).python_list() == [2, 1]
        # an append drops the histogram: it no longer counts every row
        groups.append(0)
        assert groups.histogram is None
