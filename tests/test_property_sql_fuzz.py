"""SQL fuzz tests: generated queries checked against a python oracle.

Hypothesis builds random WHERE predicates and select expressions over a
random table (an INT and a BIGINT column); the compiled MAL plan must
agree with direct evaluation of the same predicate in python (NULL-aware
three-valued logic included).  A predicate's literals are small integers,
fractions and integers past INT's and BIGINT's domains: python compares
an int with a float exactly, as SQL does, so a bound truncated or
refused on an integral column shows.
"""

import operator

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.kernel.catalog import Catalog
from repro.kernel.interpreter import MalInterpreter
from repro.kernel.types import AtomType
from repro.sql.compiler import compile_select
from repro.sql.optimizer import optimize
from repro.sql.parser import parse_select
from repro.testing import current_seed


#: comparison literals: small integers, fractions (quarters), and
#: integers at and past the edges of INT's and BIGINT's domains
LITERALS = st.one_of(
    st.integers(-20, 20),
    st.integers(-100, 100).map(lambda quarters: quarters / 4),
    st.sampled_from([
        2**31 - 1, 2**31, -(2**31), -(2**31) + 1, 3_000_000_000,
        -3_000_000_000, 2**63 - 1, 2**63, -(2**63), 10**19, -(10**19),
    ]),
)


# ----------------------------------------------------------------------
# predicate AST (mirrors the SQL subset we fuzz)
# ----------------------------------------------------------------------
@st.composite
def predicates(draw, depth=0):
    """Return (sql_text, python_eval) pairs; eval returns True/False/None."""
    if depth >= 3 or draw(st.booleans()):
        column = draw(st.sampled_from(["a", "b"]))
        op = draw(st.sampled_from(["=", "<>", "<", "<=", ">", ">="]))
        value = draw(LITERALS)
        fns = {
            "=": operator.eq,
            "<>": operator.ne,
            "<": operator.lt,
            "<=": operator.le,
            ">": operator.gt,
            ">=": operator.ge,
        }

        def leaf(row, c=column, f=fns[op], v=value):
            x = row[c]
            if x is None:
                return None
            return f(x, v)

        return f"{column} {op} {value}", leaf
    kind = draw(st.sampled_from(["and", "or", "not", "between", "isnull"]))
    if kind == "not":
        text, fn = draw(predicates(depth=depth + 1))

        def neg(row, f=fn):
            v = f(row)
            return None if v is None else (not v)

        return f"not ({text})", neg
    if kind == "between":
        column = draw(st.sampled_from(["a", "b"]))
        lo = draw(LITERALS)
        hi = draw(st.one_of(
            st.just(lo + draw(st.integers(0, 15))), LITERALS
        ))

        def between(row, c=column, lo=lo, hi=hi):
            x = row[c]
            if x is None:
                return None
            return lo <= x <= hi

        return f"{column} between {lo} and {hi}", between
    if kind == "isnull":
        column = draw(st.sampled_from(["a", "b"]))
        negated = draw(st.booleans())

        def isnull(row, c=column, n=negated):
            hit = row[c] is None
            return (not hit) if n else hit

        suffix = "is not null" if negated else "is null"
        return f"{column} {suffix}", isnull
    left_text, left_fn = draw(predicates(depth=depth + 1))
    right_text, right_fn = draw(predicates(depth=depth + 1))
    if kind == "and":

        def conj(row, l=left_fn, r=right_fn):
            lv, rv = l(row), r(row)
            if lv is False or rv is False:
                return False
            if lv is None or rv is None:
                return None
            return True

        return f"({left_text}) and ({right_text})", conj

    def disj(row, l=left_fn, r=right_fn):
        lv, rv = l(row), r(row)
        if lv is True or rv is True:
            return True
        if lv is None or rv is None:
            return None
        return False

    return f"({left_text}) or ({right_text})", disj


def rows_strategy():
    cell_value = st.one_of(st.none(), st.integers(-25, 25))
    return st.lists(st.tuples(cell_value, cell_value), max_size=40)


def run(catalog, sql, rewrite=None):
    """Compile ``sql``, optionally rewrite the program, run it; returns rows.

    Every result column must carry the atom the compiler declared for it.
    """
    compiled = compile_select(catalog, parse_select(sql))
    program = compiled.program if rewrite is None else rewrite(compiled.program)
    result = MalInterpreter(catalog).run(program)
    assert compiled.output_atoms == [b.atom for b in result.bats]
    return result.rows()


def build_catalog(rows):
    catalog = Catalog()
    table = catalog.create_table(
        "d", [("a", AtomType.INT), ("b", AtomType.LNG)]
    )
    table.append_rows(rows)
    return catalog


class TestWherePredicateFuzz:
    @seed(current_seed())
    @settings(max_examples=120, deadline=None)
    @given(rows=rows_strategy(), pred=predicates())
    def test_where_matches_oracle(self, rows, pred):
        text, fn = pred
        catalog = build_catalog(rows)
        got = run(catalog, f"select a, b from d where {text}")
        expected = [
            (a, b) for a, b in rows if fn({"a": a, "b": b}) is True
        ]
        assert got == expected

    @seed(current_seed())
    @settings(max_examples=60, deadline=None)
    @given(rows=rows_strategy(), pred=predicates())
    def test_optimizer_preserves_semantics(self, rows, pred):
        text, _ = pred
        catalog = build_catalog(rows)
        sql = f"select b, a from d where {text} order by a, b"
        raw = run(catalog, sql)
        opt = run(catalog, sql, lambda program: optimize(program)[0])
        assert raw == opt


class TestExpressionFuzz:
    @seed(current_seed())
    @settings(max_examples=80, deadline=None)
    @given(
        rows=rows_strategy(),
        coefficients=st.tuples(
            st.integers(-5, 5), st.integers(-5, 5), st.integers(1, 7)
        ),
    )
    def test_arithmetic_matches_oracle(self, rows, coefficients):
        p, q, m = coefficients
        catalog = build_catalog(rows)
        sql = f"select a * {p} + b * {q} - (a % {m}) from d"
        got = [r[0] for r in run(catalog, sql)]
        expected = []
        for a, b in rows:
            if a is None or b is None:
                expected.append(None)
            else:
                # kernel modulo follows numpy/python semantics (sign of
                # the divisor), same as python's %
                expected.append(a * p + b * q - (a % m))
        assert got == expected

    @seed(current_seed())
    @settings(max_examples=60, deadline=None)
    @given(rows=rows_strategy())
    def test_aggregates_match_oracle(self, rows):
        catalog = build_catalog(rows)
        sql = (
            "select count(*), count(a), sum(a), min(b), max(b) from d"
        )
        got = run(catalog, sql)[0]
        a_vals = [a for a, _ in rows if a is not None]
        b_vals = [b for _, b in rows if b is not None]
        expected = (
            len(rows),
            len(a_vals),
            sum(a_vals) if a_vals else None,
            min(b_vals) if b_vals else None,
            max(b_vals) if b_vals else None,
        )
        assert got == expected

    @seed(current_seed())
    @settings(max_examples=60, deadline=None)
    @given(rows=rows_strategy(), pivot=st.integers(-10, 10))
    def test_group_by_matches_oracle(self, rows, pivot):
        catalog = build_catalog(rows)
        sql = (
            f"select a, count(*), sum(b) from d where a > {pivot} "
            "group by a order by a"
        )
        got = run(catalog, sql)
        groups = {}
        for a, b in rows:
            if a is not None and a > pivot:
                entry = groups.setdefault(a, [0, 0, False])
                entry[0] += 1
                if b is not None:
                    entry[1] += b
                    entry[2] = True
        expected = [
            (a, c, s if has else None)
            for a, (c, s, has) in sorted(groups.items())
        ]
        assert got == expected
