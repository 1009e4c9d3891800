"""Unit and property tests for batcalc arithmetic/comparison/boolean ops."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import KernelError, TypeMismatchError
from repro.kernel.bat import bat_from_values
from repro.kernel.calc import (
    calc_and,
    calc_binary,
    calc_compare,
    calc_ifthenelse,
    calc_isnil,
    calc_neg,
    calc_not,
    calc_or,
    const_bat,
)
from repro.kernel.types import AtomType


def ints(values, hseqbase=0):
    return bat_from_values(AtomType.LNG, values, hseqbase=hseqbase)


def bools(values):
    return bat_from_values(AtomType.BOOL, values)


class TestArithmetic:
    def test_add_bats(self):
        out = calc_binary("+", ints([1, 2]), ints([10, 20]))
        assert out.python_list() == [11, 22]

    def test_add_scalar(self):
        out = calc_binary("+", ints([1, 2]), 5)
        assert out.python_list() == [6, 7]

    def test_scalar_on_left(self):
        out = calc_binary("-", 10, ints([1, 2]))
        assert out.python_list() == [9, 8]

    def test_mul(self):
        assert calc_binary("*", ints([3]), ints([4])).python_list() == [12]

    def test_div_always_dbl(self):
        out = calc_binary("/", ints([7]), ints([2]))
        assert out.atom is AtomType.DBL
        assert out.python_list() == [3.5]

    def test_div_by_zero_is_null(self):
        out = calc_binary("/", ints([1, 2]), ints([0, 1]))
        assert out.python_list() == [None, 2.0]

    def test_mod(self):
        assert calc_binary("%", ints([7]), ints([3])).python_list() == [1]

    def test_mod_by_zero_is_null(self):
        assert calc_binary("%", ints([7]), ints([0])).python_list() == [None]

    def test_null_propagates(self):
        out = calc_binary("+", ints([1, None]), ints([1, 1]))
        assert out.python_list() == [2, None]

    def test_int_plus_dbl_widens(self):
        d = bat_from_values(AtomType.DBL, [0.5])
        out = calc_binary("+", ints([1]), d)
        assert out.atom is AtomType.DBL
        assert out.python_list() == [1.5]

    def test_string_concat(self):
        a = bat_from_values(AtomType.STR, ["foo", None])
        b = bat_from_values(AtomType.STR, ["bar", "x"])
        assert calc_binary("+", a, b).python_list() == ["foobar", None]

    def test_arithmetic_on_str_raises(self):
        a = bat_from_values(AtomType.STR, ["x"])
        with pytest.raises((TypeMismatchError, KernelError)):
            calc_binary("*", a, a)

    def test_unknown_op_raises(self):
        with pytest.raises(KernelError):
            calc_binary("^", ints([1]), ints([1]))

    def test_no_bat_operand_raises(self):
        with pytest.raises(KernelError):
            calc_binary("+", 1, 2)

    def test_neg(self):
        assert calc_neg(ints([1, -2, None])).python_list() == [-1, 2, None]

    def test_alignment_preserved(self):
        a = ints([1, 2], hseqbase=50)
        out = calc_binary("+", a, 1)
        assert out.hseqbase == 50


class TestExactIntegerArithmetic:
    """Integer results are computed in int64 and are exact; a row whose
    value leaves the result atom's range is NULL, never a wrapped or
    float-rounded number."""

    LNG_MAX = 2**63 - 1

    def test_bigint_beyond_float_precision(self):
        x = ints([2**53 + 1])
        assert calc_binary("+", x, 0).python_list() == [2**53 + 1]
        assert calc_binary("-", x, 1).python_list() == [2**53]
        assert calc_binary("*", x, 1).python_list() == [2**53 + 1]
        assert calc_binary("%", x, 10).python_list() == [(2**53 + 1) % 10]

    @pytest.mark.filterwarnings("error")
    def test_int_overflow_is_null_without_warnings(self):
        i = bat_from_values(AtomType.INT, [2**31 - 1, 5, -(2**31) + 1])
        one = bat_from_values(AtomType.INT, [1, 1, 1])
        assert calc_binary("+", i, one).python_list() == [
            None, 6, -(2**31) + 2]
        assert calc_binary("-", i, one).python_list() == [
            2**31 - 2, 4, None]
        assert calc_binary("*", i, i).python_list() == [None, 25, None]

    @pytest.mark.filterwarnings("error")
    def test_lng_overflow_is_null(self):
        big = ints([self.LNG_MAX, -self.LNG_MAX, 2**62, None])
        assert calc_binary("+", big, 1).python_list() == [
            None, -self.LNG_MAX + 1, 2**62 + 1, None]
        assert calc_binary("-", big, 2).python_list() == [
            self.LNG_MAX - 2, None, 2**62 - 2, None]
        assert calc_binary("*", big, 2).python_list() == [
            None, None, None, None]
        assert calc_binary("*", big, -1).python_list() == [
            -self.LNG_MAX, self.LNG_MAX, -(2**62), None]

    def test_div_and_mod_keep_their_semantics(self):
        a = ints([-7, 7])
        assert calc_binary("/", a, 2).python_list() == [-3.5, 3.5]
        assert calc_binary("%", a, 2).python_list() == [1, 1]
        assert calc_binary("%", a, -2).python_list() == [-1, -1]

    @given(
        st.lists(st.one_of(st.integers(-(2**63) + 1, 2**63 - 1), st.none()),
                 max_size=40),
        st.integers(-(2**63) + 1, 2**63 - 1),
        st.sampled_from(["+", "-", "*"]),
    )
    def test_wide_values_match_python(self, values, scalar, op):
        import operator as _op

        fn = {"+": _op.add, "-": _op.sub, "*": _op.mul}[op]

        def exact(v):
            if v is None:
                return None
            r = fn(v, scalar)
            return r if -(2**63) < r < 2**63 else None

        out = calc_binary(op, ints(values), scalar)
        assert out.python_list() == [exact(v) for v in values]

    def test_sql_bigint_and_int_overflow(self):
        import warnings

        from repro import DataCell

        cell = DataCell()
        cell.execute("create table t (x bigint, i int, j int)")
        cell.execute(
            "insert into t values (9007199254740993, 2147483647, 1)")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cell.query("select x + 0, x - 1, i + j from t") == [
                (9007199254740993, 9007199254740992, None)]


class TestComparison:
    def test_compare_bats(self):
        out = calc_compare("<", ints([1, 5]), ints([3, 3]))
        assert out.python_list() == [True, False]

    def test_compare_scalar(self):
        out = calc_compare(">=", ints([1, 2, 3]), 2)
        assert out.python_list() == [False, True, True]

    def test_null_compare_is_null(self):
        out = calc_compare("==", ints([None, 1]), 1)
        assert out.python_list() == [None, True]

    def test_string_compare(self):
        a = bat_from_values(AtomType.STR, ["a", "b", None])
        out = calc_compare("==", a, "b")
        assert out.python_list() == [False, True, None]

    def test_str_vs_int_raises(self):
        a = bat_from_values(AtomType.STR, ["a"])
        with pytest.raises((TypeMismatchError, KernelError)):
            calc_compare("==", a, 1)

    def test_bigint_compares_exactly(self):
        x = ints([2**53 + 1, -(2**62) - 1])
        assert calc_compare("==", x, 2**53).python_list() == [False, False]
        assert calc_compare(">", x, 2**53).python_list() == [True, False]
        assert calc_compare(
            "<", ints([-(2**62), 2**53]), x
        ).python_list() == [True, False]

    @given(
        st.lists(st.one_of(st.integers(-3, 3), st.none()), max_size=40),
        st.integers(-(2**63) + 4, 2**63 - 4),
        st.sampled_from(["==", "!=", "<", "<=", ">", ">="]),
    )
    def test_wide_values_compare_like_python(self, offsets, scalar, op):
        import operator as _op

        fn = {"==": _op.eq, "!=": _op.ne, "<": _op.lt, "<=": _op.le,
              ">": _op.gt, ">=": _op.ge}[op]
        # neighbours of the scalar: float64 cannot tell them apart
        values = [None if d is None else scalar + d for d in offsets]
        out = calc_compare(op, ints(values), scalar)
        assert out.python_list() == [
            None if v is None else fn(v, scalar) for v in values
        ]

    def test_sql_projection_case_and_where_agree(self):
        """Regression: a projected or CASE comparison went through
        float64, so 2**53 + 1 equalled 2**53 there but not in WHERE."""
        from repro import DataCell

        cell = DataCell()
        cell.execute("create table t (x bigint)")
        cell.execute("insert into t values (9007199254740993)")
        for literal, equal in (("9007199254740992", False),
                               ("9007199254740993", True)):
            assert cell.query(f"select x = {literal} from t") == [(equal,)]
            assert cell.query(
                f"select case when x = {literal} then 1 else 0 end from t"
            ) == [(int(equal),)]
            assert cell.query(f"select x from t where x = {literal}") == (
                [(9007199254740993,)] if equal else [])

    @given(
        st.lists(st.one_of(st.integers(-3, 3), st.none()), max_size=20),
        st.integers(-(2**63) + 4, 2**63 - 4),
        st.one_of(st.none(), st.floats(allow_nan=False)),
        st.sampled_from(["==", "!=", "<", "<=", ">", ">="]),
        st.booleans(),
    )
    def test_bigint_compares_with_double_exactly(
        self, offsets, base, double, op, flipped
    ):
        import operator as _op

        fn = {"==": _op.eq, "!=": _op.ne, "<": _op.lt, "<=": _op.le,
              ">": _op.gt, ">=": _op.ge}[op]
        if double is None:  # the double float64 rounds the values onto
            double = float(base)
        # python compares an int with a float exactly; float64 cannot
        values = [None if d is None else base + d for d in offsets]
        doubles = bat_from_values(AtomType.DBL, [double] * len(values))
        for right in (double, doubles):
            args = (right, ints(values)) if flipped else (ints(values), right)
            out = calc_compare(op, *args)
            assert out.python_list() == [
                None if v is None
                else fn(double, v) if flipped else fn(v, double)
                for v in values
            ]

    def test_bigint_against_double_agrees_with_sqlite(self):
        """Regression: a BIGINT compared with a DOUBLE in float64, so
        2**53 + 1 equalled 2**53.0 in a projection and under NOT."""
        import sqlite3

        from repro import DataCell

        values = [2**53 + 1, 2**53, 2**53 - 1, -(2**53) - 1, 2**63 - 1,
                  -(2**63) + 1, 0, 5, None]
        cell = DataCell()
        cell.execute("create table t (b bigint, d double)")
        cell.insert("t", [(v, 2.0**53) for v in values])
        db = sqlite3.connect(":memory:")
        db.execute("create table t (b integer, d real)")
        db.executemany("insert into t values (?, ?)",
                       [(v, 2.0**53) for v in values])

        def order(row):
            return row[0] is None, row[0] or 0

        for right in ("9007199254740992.0", "9007199254740993.0",
                      "9.223372036854776e18", "-9.223372036854776e18",
                      "5.5", "1e300", "t.d"):
            for op in ("=", "<>", "<", "<=", ">", ">="):
                for sql in (
                    f"select t.b from t where not (t.b {op} {right})",
                    f"select t.b from t where not ({right} {op} t.b)",
                    f"select t.b {op} {right} from t",
                ):
                    ours = [tuple(None if v is None else int(v) for v in row)
                            for row in cell.query(sql)]
                    theirs = db.execute(
                        sql.replace("t.b", "b").replace("t.d", "d")
                    ).fetchall()
                    assert sorted(ours, key=order) == sorted(
                        theirs, key=order), sql


class TestBoolean:
    def test_and_truth_table(self):
        left = bools([1, 1, 1, 0, 0, 0, None, None, None])
        right = bools([1, 0, None, 1, 0, None, 1, 0, None])
        out = calc_and(left, right)
        assert out.python_list() == [
            True, False, None, False, False, False, None, False, None,
        ]

    def test_or_truth_table(self):
        left = bools([1, 1, 1, 0, 0, 0, None, None, None])
        right = bools([1, 0, None, 1, 0, None, 1, 0, None])
        out = calc_or(left, right)
        assert out.python_list() == [
            True, True, True, True, False, None, True, None, None,
        ]

    def test_not(self):
        out = calc_not(bools([1, 0, None]))
        assert out.python_list() == [False, True, None]

    def test_not_requires_bool(self):
        with pytest.raises(TypeMismatchError):
            calc_not(ints([1]))

    def test_and_with_scalar(self):
        out = calc_and(bools([1, 0]), True)
        assert out.python_list() == [True, False]

    def test_isnil(self):
        out = calc_isnil(ints([1, None]))
        assert out.python_list() == [False, True]


class TestIfThenElse:
    def test_basic(self):
        cond = bools([1, 0, None])
        out = calc_ifthenelse(cond, ints([10, 10, 10]), ints([20, 20, 20]))
        assert out.python_list() == [10, 20, 20]

    def test_scalar_branches(self):
        cond = bools([1, 0])
        out = calc_ifthenelse(cond, 1, 2)
        assert out.python_list() == [1, 2]

    def test_requires_bool_condition(self):
        with pytest.raises(TypeMismatchError):
            calc_ifthenelse(ints([1]), 1, 2)

    def test_str_branches(self):
        cond = bools([1, 0])
        a = bat_from_values(AtomType.STR, ["hi", "hi"])
        b = bat_from_values(AtomType.STR, ["lo", "lo"])
        assert calc_ifthenelse(cond, a, b).python_list() == ["hi", "lo"]


class TestConstBat:
    def test_numeric(self):
        like = ints([1, 2, 3])
        assert const_bat(7, like).python_list() == [7, 7, 7]

    def test_string(self):
        like = ints([1, 2])
        assert const_bat("x", like).python_list() == ["x", "x"]

    def test_alignment(self):
        like = ints([1], hseqbase=9)
        assert const_bat(0, like).hseqbase == 9


class TestProperties:
    @given(
        st.lists(st.one_of(st.integers(-10**6, 10**6), st.none()), max_size=100),
        st.integers(-1000, 1000),
        st.sampled_from(["+", "-", "*"]),
    )
    def test_arithmetic_matches_python(self, values, scalar, op):
        import operator as _op

        fns = {"+": _op.add, "-": _op.sub, "*": _op.mul}
        out = calc_binary(op, ints(values), scalar)
        expect = [None if v is None else fns[op](v, scalar) for v in values]
        assert out.python_list() == expect

    @given(st.lists(st.sampled_from([True, False, None]), max_size=60))
    def test_demorgan(self, raw):
        left = bools(raw)
        right = bools(list(reversed(raw)))
        lhs = calc_not(calc_and(left, right))
        rhs = calc_or(calc_not(left), calc_not(right))
        assert lhs.python_list() == rhs.python_list()

    @given(st.lists(st.sampled_from([True, False, None]), max_size=60))
    def test_double_negation(self, raw):
        b = bools(raw)
        assert calc_not(calc_not(b)).python_list() == b.python_list()
