"""Routing golden: which plan every continuous query registers, per mode.

For each query and each execution mode this records the plan class, the
output basket's schema (names and atoms), ``weighted``,
``handle.execution`` and the ``incremental_fallbacks`` reason — or, for
a rejected query, the error class.  The golden was captured before the
SQL lowering was folded into one resolver and one registration path;
the queries are every ``analysis.corpus`` GOOD query, every
``simtest`` oracle case (linear, aggregate and join) and the queries of
``tests/test_sql_window_syntax.py`` and ``tests/test_incremental_engine.py``,
plus one query per row of the incremental circuit's shape matrix.

The one allowed difference is listed by name in ``LINEAR_INCREMENTAL``:
a linear query in incremental mode used to be wrapped in a stateless
``CircuitContinuousPlan`` and now registers the ``MalContinuousPlan``
re-eval registers, still reporting ``execution == "incremental"``.
"""

import pytest

from repro import DataCell
from repro.analysis.corpus import GOOD_QUERIES
from repro.simtest.incremental import AGG_CASES, JOIN_CASE
from repro.simtest.oracle import ORACLE_CASES

SCHEMA = """
create basket trades (price double, qty int, sym varchar(8));
create basket refs (sym varchar(8), sector varchar(8));
create basket feed (a int, b int);
create basket ticks (sym varchar(5), price double);
create basket two (a double, b double);
create basket s (k int, v int);
create basket b (p double);
create basket lt (k int, a int);
create basket rt (k int, b int);
create basket jleft (k int, a int);
create basket jright (k int, b int);
create table plain (p double)
"""

QUERIES = {
    **{f"corpus:{name}": sql for name, sql, _ in GOOD_QUERIES},
    **{f"oracle:{n}": c.continuous_sql for n, c in ORACLE_CASES.items()},
    **{f"oracle:{n}": c.continuous_sql for n, c in AGG_CASES.items()},
    "oracle:join": JOIN_CASE[0],
    # tests/test_sql_window_syntax.py
    "window:fractional": (
        "select avg(x.p) from [select * from b] as x window 2.5"
    ),
    "window:tumbling": (
        "select sum(x.price) from [select * from ticks] as x window 4"
    ),
    "window:sliding": (
        "select avg(x.price), max(x.price) from "
        "[select * from ticks] as x window 4 slide 2"
    ),
    "window:count-star": (
        "select count(*) from [select * from ticks] as x window 3"
    ),
    "window:grouped": (
        "select x.sym, sum(x.price) from [select * from ticks] as x "
        "group by x.sym window 4"
    ),
    "window:group-key-atom": (
        "select x.k, sum(x.v), count(*) from [select * from s] as x "
        "group by x.k window 4 slide 2"
    ),
    "window:time": (
        "select sum(x.price) from [select * from ticks] as x "
        "window 2 seconds"
    ),
    "window:plain-table": "select avg(p) from plain as x window 4",
    "window:inner-where": (
        "select avg(x.price) from "
        "[select * from ticks where ticks.price > 1] as x window 4"
    ),
    "window:non-aggregate": (
        "select x.price from [select * from ticks] as x window 4"
    ),
    "window:mixed-columns": (
        "select sum(x.a), sum(x.b) from [select * from two] as x window 4"
    ),
    "window:order-by": (
        "select avg(x.price) from [select * from ticks] as x "
        "order by 1 window 4"
    ),
    "window:key-and-count": (
        "select x.sym, count(*) from [select * from ticks] as x "
        "group by x.sym window 2"
    ),
    # tests/test_incremental_engine.py
    "engine:linear": (
        "select x.a, x.b from [select * from feed] as x where x.b > 2"
    ),
    "engine:linear-one-column": "select x.a from [select * from feed] as x",
    "engine:aggregate": (
        "select x.a, sum(x.b), count(x.b), min(x.b), max(x.b) "
        "from [select * from feed] as x group by x.a"
    ),
    "engine:join": (
        "select x.k, x.a, y.b from [select * from lt] as x, "
        "[select * from rt] as y where x.k = y.k"
    ),
    "engine:distinct": "select distinct x.a from [select * from feed] as x",
    "engine:window": (
        "select x.k, sum(x.v), min(x.v), count(*) "
        "from [select * from s] as x group by x.k window 5 slide 2"
    ),
    "engine:group-sum": (
        "select x.a, sum(x.b) from [select * from feed] as x group by x.a"
    ),
    # the circuit's shape matrix: supported shapes and fallback reasons
    "shape:having": (
        "select x.a, sum(x.b) from [select * from feed] as x "
        "group by x.a having sum(x.b) > 3"
    ),
    "shape:aggregate-order": (
        "select x.a, sum(x.b) from [select * from feed] as x "
        "group by x.a order by x.a"
    ),
    "shape:limit": "select x.a from [select * from feed] as x limit 3",
    "shape:distinct-aggregate": (
        "select count(distinct x.b) from [select * from feed] as x"
    ),
    "shape:group-expression": (
        "select sum(x.b) from [select * from feed] as x group by x.a + 1"
    ),
    "shape:ungrouped-column": (
        "select x.b, sum(x.a) from [select * from feed] as x group by x.a"
    ),
    "shape:expression-argument": (
        "select sum(x.a + x.b) from [select * from feed] as x"
    ),
    "shape:expression-item": (
        "select sum(x.b) + 1 from [select * from feed] as x"
    ),
    "shape:group-without-aggregate": (
        "select x.a from [select * from feed] as x group by x.a"
    ),
    "shape:aliased-aggregate": (
        "select x.a as key, sum(x.b) as total, count(*) "
        "from [select * from feed] as x where x.b > 0 group by x.a"
    ),
    "shape:aggregate-over-join": (
        "select sum(x.a) from [select * from lt] as x, "
        "[select * from rt] as y where x.k = y.k"
    ),
    "shape:aggregate-over-subquery": (
        "select sum(z.a) from "
        "(select x.a from [select * from feed] as x) as z"
    ),
    "shape:subquery": (
        "select z.a from (select x.a from [select * from feed] as x) as z"
    ),
    "shape:join-side-filters": (
        "select x.k, y.b as bee from [select * from lt] as x, "
        "[select * from rt] as y where x.a > 1 and y.k = x.k and y.b < 5"
    ),
    "shape:join-cross-residual": (
        "select x.k from [select * from lt] as x, [select * from rt] as y "
        "where x.k = y.k and x.a < y.b"
    ),
    "shape:join-star": (
        "select * from [select * from lt] as x, [select * from rt] as y "
        "where x.k = y.k"
    ),
    "shape:join-constant": (
        "select x.k from [select * from lt] as x, [select * from rt] as y "
        "where x.k = y.k and 1 = 1"
    ),
    "shape:join-bare-column": (
        "select x.k from [select * from lt] as x, [select * from rt] as y "
        "where x.k = y.k and a > 1"
    ),
    "shape:join-expression-item": (
        "select x.k + 1 from [select * from lt] as x, "
        "[select * from rt] as y where x.k = y.k"
    ),
    "shape:join-distinct": (
        "select distinct x.k from [select * from lt] as x, "
        "[select * from rt] as y where x.k = y.k"
    ),
    "shape:cross-join": (
        "select x.k, y.b from [select * from lt] as x, "
        "[select * from rt] as y where x.a < y.b"
    ),
}

#: linear queries whose incremental plan class changed from the wrapping
#: ``CircuitContinuousPlan`` to the re-eval ``MalContinuousPlan``
LINEAR_INCREMENTAL = {
    "corpus:passthrough",
    "corpus:inner-filter",
    "corpus:outer-filter",
    "corpus:arith-projection",
    "corpus:string-functions",
    "corpus:math-functions",
    "corpus:case-when",
    "corpus:between-in",
    "corpus:inner-limit",
    "corpus:isnull",
    "corpus:incremental-lift",
    "oracle:passthrough",
    "oracle:filter",
    "oracle:compound",
    "oracle:disjunct",
    "oracle:arith",
    "engine:linear",
    "engine:linear-one-column",
    "shape:cross-join",
}


def route(sql, execution):
    """The routing record of ``sql`` registered on a fresh cell."""
    cell = DataCell(execution=execution)
    for statement in SCHEMA.split(";"):
        cell.execute(statement)
    try:
        handle = cell.submit_continuous(sql, name="q")
    except Exception as exc:  # a rejection is part of the routing
        return ("error", type(exc).__name__)
    finally:
        cell.stop()
    schema = " ".join(
        f"{c.name}:{c.atom.name}" for c in cell.basket("q_out").user_columns
    )
    fallback = [reason for name, reason in cell.incremental_fallbacks]
    return (
        type(handle.factory.plan).__name__,
        schema,
        handle.weighted,
        handle.execution,
        fallback[0] if fallback else None,
    )


GOLDEN = {
    ("corpus:arith-projection", "reeval"): (
        "MalContinuousPlan", "sym:STR col1:DBL col2:INT", False, "reeval", None,
    ),
    ("corpus:arith-projection", "incremental"): (
        "CircuitContinuousPlan",
        "sym:STR col1:DBL col2:INT",
        False,
        "incremental",
        None,
    ),
    ("corpus:between-in", "reeval"): (
        "MalContinuousPlan", "sym:STR", False, "reeval", None,
    ),
    ("corpus:between-in", "incremental"): (
        "CircuitContinuousPlan", "sym:STR", False, "incremental", None,
    ),
    ("corpus:case-when", "reeval"): (
        "MalContinuousPlan", "sym:STR col1:LNG", False, "reeval", None,
    ),
    ("corpus:case-when", "incremental"): (
        "CircuitContinuousPlan", "sym:STR col1:LNG", False, "incremental", None,
    ),
    ("corpus:distinct", "reeval"): (
        "MalContinuousPlan", "sym:STR", False, "reeval", None,
    ),
    ("corpus:distinct", "incremental"): (
        "MalContinuousPlan",
        "sym:STR",
        False,
        "reeval",
        "DISTINCT is not linear over multisets (dedup needs integrated state)",
    ),
    ("corpus:group-by-all-aggregates", "reeval"): (
        "MalContinuousPlan",
        "sym:STR sum:LNG count:LNG avg:DBL min:INT max:DBL",
        False,
        "reeval",
        None,
    ),
    ("corpus:group-by-all-aggregates", "incremental"): (
        "MalContinuousPlan",
        "sym:STR sum:LNG count:LNG avg:DBL min:INT max:DBL",
        False,
        "reeval",
        "all aggregates must target the same stream column",
    ),
    ("corpus:group-min-int", "reeval"): (
        "MalContinuousPlan", "sym:STR min:INT max:INT", False, "reeval", None,
    ),
    ("corpus:group-min-int", "incremental"): (
        "CircuitContinuousPlan",
        "sym:STR min:INT max:INT dc_weight:LNG",
        True,
        "incremental",
        None,
    ),
    ("corpus:incremental-aggregate", "reeval"): (
        "MalContinuousPlan", "sym:STR sum:LNG count:LNG", False, "reeval", None,
    ),
    ("corpus:incremental-aggregate", "incremental"): (
        "CircuitContinuousPlan",
        "sym:STR sum:LNG count:LNG dc_weight:LNG",
        True,
        "incremental",
        None,
    ),
    ("corpus:incremental-join", "reeval"): (
        "MalContinuousPlan",
        "sym:STR price:DBL sector:STR",
        False,
        "reeval",
        None,
    ),
    ("corpus:incremental-join", "incremental"): (
        "CircuitContinuousPlan",
        "sym:STR price:DBL sector:STR dc_weight:LNG",
        True,
        "incremental",
        None,
    ),
    ("corpus:incremental-lift", "reeval"): (
        "MalContinuousPlan", "sym:STR price:DBL", False, "reeval", None,
    ),
    ("corpus:incremental-lift", "incremental"): (
        "CircuitContinuousPlan",
        "sym:STR price:DBL",
        False,
        "incremental",
        None,
    ),
    ("corpus:inner-filter", "reeval"): (
        "MalContinuousPlan", "price:DBL qty:INT sym:STR", False, "reeval", None,
    ),
    ("corpus:inner-filter", "incremental"): (
        "CircuitContinuousPlan",
        "price:DBL qty:INT sym:STR",
        False,
        "incremental",
        None,
    ),
    ("corpus:inner-limit", "reeval"): (
        "MalContinuousPlan", "price:DBL qty:INT sym:STR", False, "reeval", None,
    ),
    ("corpus:inner-limit", "incremental"): (
        "CircuitContinuousPlan",
        "price:DBL qty:INT sym:STR",
        False,
        "incremental",
        None,
    ),
    ("corpus:isnull", "reeval"): (
        "MalContinuousPlan", "sym:STR", False, "reeval", None,
    ),
    ("corpus:isnull", "incremental"): (
        "CircuitContinuousPlan", "sym:STR", False, "incremental", None,
    ),
    ("corpus:math-functions", "reeval"): (
        "MalContinuousPlan",
        "abs:DBL sqrt:DBL round:DBL floor:LNG",
        False,
        "reeval",
        None,
    ),
    ("corpus:math-functions", "incremental"): (
        "CircuitContinuousPlan",
        "abs:DBL sqrt:DBL round:DBL floor:LNG",
        False,
        "incremental",
        None,
    ),
    ("corpus:outer-filter", "reeval"): (
        "MalContinuousPlan", "sym:STR price:DBL", False, "reeval", None,
    ),
    ("corpus:outer-filter", "incremental"): (
        "CircuitContinuousPlan",
        "sym:STR price:DBL",
        False,
        "incremental",
        None,
    ),
    ("corpus:passthrough", "reeval"): (
        "MalContinuousPlan", "price:DBL qty:INT sym:STR", False, "reeval", None,
    ),
    ("corpus:passthrough", "incremental"): (
        "CircuitContinuousPlan",
        "price:DBL qty:INT sym:STR",
        False,
        "incremental",
        None,
    ),
    ("corpus:scalar-aggregates", "reeval"): (
        "MalContinuousPlan", "sum:DBL count:LNG avg:DBL", False, "reeval", None,
    ),
    ("corpus:scalar-aggregates", "incremental"): (
        "MalContinuousPlan",
        "sum:DBL count:LNG avg:DBL",
        False,
        "reeval",
        "all aggregates must target the same stream column",
    ),
    ("corpus:string-functions", "reeval"): (
        "MalContinuousPlan",
        "upper:STR length:INT substring:STR",
        False,
        "reeval",
        None,
    ),
    ("corpus:string-functions", "incremental"): (
        "CircuitContinuousPlan",
        "upper:STR length:INT substring:STR",
        False,
        "incremental",
        None,
    ),
    ("engine:aggregate", "reeval"): (
        "MalContinuousPlan",
        "a:INT sum:LNG count:LNG min:INT max:INT",
        False,
        "reeval",
        None,
    ),
    ("engine:aggregate", "incremental"): (
        "CircuitContinuousPlan",
        "a:INT sum:LNG count:LNG min:INT max:INT dc_weight:LNG",
        True,
        "incremental",
        None,
    ),
    ("engine:distinct", "reeval"): (
        "MalContinuousPlan", "a:INT", False, "reeval", None,
    ),
    ("engine:distinct", "incremental"): (
        "MalContinuousPlan",
        "a:INT",
        False,
        "reeval",
        "DISTINCT is not linear over multisets (dedup needs integrated state)",
    ),
    ("engine:group-sum", "reeval"): (
        "MalContinuousPlan", "a:INT sum:LNG", False, "reeval", None,
    ),
    ("engine:group-sum", "incremental"): (
        "CircuitContinuousPlan",
        "a:INT sum:LNG dc_weight:LNG",
        True,
        "incremental",
        None,
    ),
    ("engine:join", "reeval"): (
        "MalContinuousPlan", "k:INT a:INT b:INT", False, "reeval", None,
    ),
    ("engine:join", "incremental"): (
        "CircuitContinuousPlan",
        "k:INT a:INT b:INT dc_weight:LNG",
        True,
        "incremental",
        None,
    ),
    ("engine:linear", "reeval"): (
        "MalContinuousPlan", "a:INT b:INT", False, "reeval", None,
    ),
    ("engine:linear", "incremental"): (
        "CircuitContinuousPlan", "a:INT b:INT", False, "incremental", None,
    ),
    ("engine:linear-one-column", "reeval"): (
        "MalContinuousPlan", "a:INT", False, "reeval", None,
    ),
    ("engine:linear-one-column", "incremental"): (
        "CircuitContinuousPlan", "a:INT", False, "incremental", None,
    ),
    ("engine:window", "reeval"): (
        "WindowAggregatePlan",
        "window_id:LNG k:INT sum:DBL min:DBL count_star:LNG",
        False,
        "reeval",
        None,
    ),
    ("engine:window", "incremental"): (
        "WindowAggregatePlan",
        "window_id:LNG k:INT sum:DBL min:DBL count_star:LNG",
        False,
        "reeval",
        None,
    ),
    ("oracle:agg_filtered", "reeval"): (
        "MalContinuousPlan", "a:INT sum:LNG avg:DBL", False, "reeval", None,
    ),
    ("oracle:agg_filtered", "incremental"): (
        "CircuitContinuousPlan",
        "a:INT sum:LNG avg:DBL dc_weight:LNG",
        True,
        "incremental",
        None,
    ),
    ("oracle:agg_global", "reeval"): (
        "MalContinuousPlan", "count:LNG sum:LNG min:INT", False, "reeval", None,
    ),
    ("oracle:agg_global", "incremental"): (
        "CircuitContinuousPlan",
        "count:LNG sum:LNG min:INT dc_weight:LNG",
        True,
        "incremental",
        None,
    ),
    ("oracle:agg_grouped", "reeval"): (
        "MalContinuousPlan",
        "a:INT sum:LNG count:LNG min:INT max:INT",
        False,
        "reeval",
        None,
    ),
    ("oracle:agg_grouped", "incremental"): (
        "CircuitContinuousPlan",
        "a:INT sum:LNG count:LNG min:INT max:INT dc_weight:LNG",
        True,
        "incremental",
        None,
    ),
    ("oracle:arith", "reeval"): (
        "MalContinuousPlan", "col0:INT", False, "reeval", None,
    ),
    ("oracle:arith", "incremental"): (
        "CircuitContinuousPlan", "col0:INT", False, "incremental", None,
    ),
    ("oracle:compound", "reeval"): (
        "MalContinuousPlan", "a:INT b:INT", False, "reeval", None,
    ),
    ("oracle:compound", "incremental"): (
        "CircuitContinuousPlan", "a:INT b:INT", False, "incremental", None,
    ),
    ("oracle:disjunct", "reeval"): (
        "MalContinuousPlan", "b:INT", False, "reeval", None,
    ),
    ("oracle:disjunct", "incremental"): (
        "CircuitContinuousPlan", "b:INT", False, "incremental", None,
    ),
    ("oracle:filter", "reeval"): (
        "MalContinuousPlan", "a:INT b:INT", False, "reeval", None,
    ),
    ("oracle:filter", "incremental"): (
        "CircuitContinuousPlan", "a:INT b:INT", False, "incremental", None,
    ),
    ("oracle:join", "reeval"): (
        "MalContinuousPlan", "k:INT a:INT b:INT", False, "reeval", None,
    ),
    ("oracle:join", "incremental"): (
        "CircuitContinuousPlan",
        "k:INT a:INT b:INT dc_weight:LNG",
        True,
        "incremental",
        None,
    ),
    ("oracle:passthrough", "reeval"): (
        "MalContinuousPlan", "a:INT b:INT", False, "reeval", None,
    ),
    ("oracle:passthrough", "incremental"): (
        "CircuitContinuousPlan", "a:INT b:INT", False, "incremental", None,
    ),
    ("shape:aggregate-order", "reeval"): (
        "MalContinuousPlan", "a:INT sum:LNG", False, "reeval", None,
    ),
    ("shape:aggregate-order", "incremental"): (
        "MalContinuousPlan",
        "a:INT sum:LNG",
        False,
        "reeval",
        "ORDER BY / LIMIT / DISTINCT do not compose with delta aggregate output",
    ),
    ("shape:aggregate-over-join", "reeval"): (
        "MalContinuousPlan", "sum:LNG", False, "reeval", None,
    ),
    ("shape:aggregate-over-join", "incremental"): (
        "MalContinuousPlan",
        "sum:LNG",
        False,
        "reeval",
        "aggregate circuits need exactly one basket expression source",
    ),
    ("shape:aggregate-over-subquery", "reeval"): (
        "MalContinuousPlan", "sum:LNG", False, "reeval", None,
    ),
    ("shape:aggregate-over-subquery", "incremental"): (
        "MalContinuousPlan",
        "sum:LNG",
        False,
        "reeval",
        "not a continuous query",
    ),
    ("shape:aliased-aggregate", "reeval"): (
        "MalContinuousPlan",
        "key:INT total:LNG count:LNG",
        False,
        "reeval",
        None,
    ),
    ("shape:aliased-aggregate", "incremental"): (
        "CircuitContinuousPlan",
        "key:INT total:LNG count:LNG dc_weight:LNG",
        True,
        "incremental",
        None,
    ),
    ("shape:cross-join", "reeval"): (
        "MalContinuousPlan", "k:INT b:INT", False, "reeval", None,
    ),
    ("shape:cross-join", "incremental"): (
        "CircuitContinuousPlan", "k:INT b:INT", False, "incremental", None,
    ),
    ("shape:distinct-aggregate", "reeval"): (
        "error", "BindError",
    ),
    ("shape:distinct-aggregate", "incremental"): (
        "error", "BindError",
    ),
    ("shape:expression-argument", "reeval"): (
        "MalContinuousPlan", "sum:LNG", False, "reeval", None,
    ),
    ("shape:expression-argument", "incremental"): (
        "MalContinuousPlan",
        "sum:LNG",
        False,
        "reeval",
        "aggregate arguments must be plain stream columns",
    ),
    ("shape:expression-item", "reeval"): (
        "error", "BindError",
    ),
    ("shape:expression-item", "incremental"): (
        "error", "BindError",
    ),
    ("shape:group-expression", "reeval"): (
        "MalContinuousPlan", "sum:LNG", False, "reeval", None,
    ),
    ("shape:group-expression", "incremental"): (
        "MalContinuousPlan",
        "sum:LNG",
        False,
        "reeval",
        "GROUP BY must name stream columns directly",
    ),
    ("shape:group-without-aggregate", "reeval"): (
        "MalContinuousPlan", "a:INT", False, "reeval", None,
    ),
    ("shape:group-without-aggregate", "incremental"): (
        "MalContinuousPlan",
        "a:INT",
        False,
        "reeval",
        "no aggregates in the select list",
    ),
    ("shape:having", "reeval"): (
        "MalContinuousPlan", "a:INT sum:LNG", False, "reeval", None,
    ),
    ("shape:having", "incremental"): (
        "MalContinuousPlan",
        "a:INT sum:LNG",
        False,
        "reeval",
        "HAVING over incremental aggregates is not supported yet",
    ),
    ("shape:join-bare-column", "reeval"): (
        "MalContinuousPlan", "k:INT", False, "reeval", None,
    ),
    ("shape:join-bare-column", "incremental"): (
        "MalContinuousPlan",
        "k:INT",
        False,
        "reeval",
        "join circuits need qualified column references (got bare 'a')",
    ),
    ("shape:join-constant", "reeval"): (
        "MalContinuousPlan", "k:INT", False, "reeval", None,
    ),
    ("shape:join-constant", "incremental"): (
        "MalContinuousPlan",
        "k:INT",
        False,
        "reeval",
        "constant predicates in join WHERE are not supported",
    ),
    ("shape:join-cross-residual", "reeval"): (
        "MalContinuousPlan", "k:INT", False, "reeval", None,
    ),
    ("shape:join-cross-residual", "incremental"): (
        "MalContinuousPlan",
        "k:INT",
        False,
        "reeval",
        "predicates spanning both join sides (beyond the equi key) are not supported",
    ),
    ("shape:join-distinct", "reeval"): (
        "MalContinuousPlan", "k:INT", False, "reeval", None,
    ),
    ("shape:join-distinct", "incremental"): (
        "MalContinuousPlan",
        "k:INT",
        False,
        "reeval",
        "ORDER BY / LIMIT / DISTINCT do not compose with delta join output",
    ),
    ("shape:join-expression-item", "reeval"): (
        "MalContinuousPlan", "col0:LNG", False, "reeval", None,
    ),
    ("shape:join-expression-item", "incremental"): (
        "MalContinuousPlan",
        "col0:LNG",
        False,
        "reeval",
        "join select items must be qualified column references",
    ),
    ("shape:join-side-filters", "reeval"): (
        "MalContinuousPlan", "k:INT bee:INT", False, "reeval", None,
    ),
    ("shape:join-side-filters", "incremental"): (
        "CircuitContinuousPlan",
        "k:INT bee:INT dc_weight:LNG",
        True,
        "incremental",
        None,
    ),
    ("shape:join-star", "reeval"): (
        "error", "CatalogError",
    ),
    ("shape:join-star", "incremental"): (
        "error", "CatalogError",
    ),
    ("shape:limit", "reeval"): (
        "MalContinuousPlan", "a:INT", False, "reeval", None,
    ),
    ("shape:limit", "incremental"): (
        "MalContinuousPlan",
        "a:INT",
        False,
        "reeval",
        "outer LIMIT truncates per firing, not per stream",
    ),
    ("shape:subquery", "reeval"): (
        "MalContinuousPlan", "a:INT", False, "reeval", None,
    ),
    ("shape:subquery", "incremental"): (
        "MalContinuousPlan", "a:INT", False, "reeval", "not a continuous query",
    ),
    ("shape:ungrouped-column", "reeval"): (
        "error", "BindError",
    ),
    ("shape:ungrouped-column", "incremental"): (
        "error", "BindError",
    ),
    ("window:count-star", "reeval"): (
        "WindowAggregatePlan",
        "window_id:LNG count_star:LNG",
        False,
        "reeval",
        None,
    ),
    ("window:count-star", "incremental"): (
        "WindowAggregatePlan",
        "window_id:LNG count_star:LNG",
        False,
        "reeval",
        None,
    ),
    ("window:fractional", "reeval"): (
        "error", "DataCellError",
    ),
    ("window:fractional", "incremental"): (
        "error", "DataCellError",
    ),
    ("window:group-key-atom", "reeval"): (
        "WindowAggregatePlan",
        "window_id:LNG k:INT sum:DBL count_star:LNG",
        False,
        "reeval",
        None,
    ),
    ("window:group-key-atom", "incremental"): (
        "WindowAggregatePlan",
        "window_id:LNG k:INT sum:DBL count_star:LNG",
        False,
        "reeval",
        None,
    ),
    ("window:grouped", "reeval"): (
        "WindowAggregatePlan",
        "window_id:LNG sym:STR sum:DBL",
        False,
        "reeval",
        None,
    ),
    ("window:grouped", "incremental"): (
        "WindowAggregatePlan",
        "window_id:LNG sym:STR sum:DBL",
        False,
        "reeval",
        None,
    ),
    ("window:inner-where", "reeval"): (
        "error", "SqlError",
    ),
    ("window:inner-where", "incremental"): (
        "error", "SqlError",
    ),
    ("window:key-and-count", "reeval"): (
        "WindowAggregatePlan",
        "window_id:LNG sym:STR count_star:LNG",
        False,
        "reeval",
        None,
    ),
    ("window:key-and-count", "incremental"): (
        "WindowAggregatePlan",
        "window_id:LNG sym:STR count_star:LNG",
        False,
        "reeval",
        None,
    ),
    ("window:mixed-columns", "reeval"): (
        "error", "SqlError",
    ),
    ("window:mixed-columns", "incremental"): (
        "error", "SqlError",
    ),
    ("window:non-aggregate", "reeval"): (
        "error", "SqlError",
    ),
    ("window:non-aggregate", "incremental"): (
        "error", "SqlError",
    ),
    ("window:order-by", "reeval"): (
        "error", "SqlError",
    ),
    ("window:order-by", "incremental"): (
        "error", "SqlError",
    ),
    ("window:plain-table", "reeval"): (
        "error", "SqlError",
    ),
    ("window:plain-table", "incremental"): (
        "error", "SqlError",
    ),
    ("window:sliding", "reeval"): (
        "WindowAggregatePlan",
        "window_id:LNG avg:DBL max:DBL",
        False,
        "reeval",
        None,
    ),
    ("window:sliding", "incremental"): (
        "WindowAggregatePlan",
        "window_id:LNG avg:DBL max:DBL",
        False,
        "reeval",
        None,
    ),
    ("window:time", "reeval"): (
        "WindowAggregatePlan", "window_id:LNG sum:DBL", False, "reeval", None,
    ),
    ("window:time", "incremental"): (
        "WindowAggregatePlan", "window_id:LNG sum:DBL", False, "reeval", None,
    ),
    ("window:tumbling", "reeval"): (
        "WindowAggregatePlan", "window_id:LNG sum:DBL", False, "reeval", None,
    ),
    ("window:tumbling", "incremental"): (
        "WindowAggregatePlan", "window_id:LNG sum:DBL", False, "reeval", None,
    ),
}


@pytest.mark.parametrize("execution", ["reeval", "incremental"])
@pytest.mark.parametrize("name", sorted(QUERIES))
def test_routing_matches_golden(name, execution):
    expected = GOLDEN[name, execution]
    if execution == "incremental" and name in LINEAR_INCREMENTAL:
        assert expected[0] == "CircuitContinuousPlan"
        expected = ("MalContinuousPlan",) + expected[1:]
    assert route(QUERIES[name], execution) == expected


def test_linear_list_names_golden_queries():
    assert LINEAR_INCREMENTAL <= set(QUERIES)
