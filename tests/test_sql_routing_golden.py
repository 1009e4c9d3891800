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

``PROGRAMS`` pins, per query and mode, each registered MAL stage's
optimized program text and its plan-node tree, captured before the
SELECT resolver replaced the per-generator clause readers.  A planner
change that alters a program updates its entry on purpose.
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
    # added with the fixes for ungrouped HAVING, repeated output names
    # and the window select list
    "having:ungrouped": (
        "select sum(x.v) from [select * from s] as x having sum(x.v) > 100"
    ),
    "names:repeated-aggregate": (
        "select count(x.v), count(*) from [select * from s] as x"
    ),
    "names:repeated-window": (
        "select sum(x.v), sum(x.v) from [select * from s] as x window 2"
    ),
    "names:repeated-distinct": (
        "select distinct x.k, x.k from [select * from s] as x"
    ),
    "window:alias": (
        "select x.k as key, sum(x.v) as total from [select * from s] as x "
        "group by x.k window 2"
    ),
    "window:item-order": (
        "select sum(x.v), x.k from [select * from s] as x "
        "group by x.k window 2"
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


def _cell(execution):
    cell = DataCell(execution=execution)
    for statement in SCHEMA.split(";"):
        cell.execute(statement)
    return cell


def route(sql, execution):
    """The routing record of ``sql`` registered on a fresh cell."""
    cell = _cell(execution)
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


def _render_stage(program):
    """A stage's optimized program, then its plan-node tree: each node's
    label and the number of instructions tagged with it."""
    counts = {}
    for ins in program.instructions:
        counts[ins.node] = counts.get(ins.node, 0) + 1
    lines = [program.render(), "--"]

    def walk(node_id, depth):
        node = program.nodes[node_id]
        lines.append("  " * depth + f"{node.label} [{counts.get(node_id, 0)}]")
        for child in node.children:
            walk(child, depth + 1)

    if program.plan_root is not None:
        walk(program.plan_root, 0)
    return "\n".join(lines)


def stage_programs(sql, execution):
    """The rendered MAL stages ``sql`` registers, or None for a window
    plan or a rejected query."""
    cell = _cell(execution)
    try:
        handle = cell.submit_continuous(sql, name="q")
    except Exception:
        return None
    finally:
        cell.stop()
    stages = getattr(handle.factory.plan, "stages", None)
    if stages is None:
        return None
    return tuple(_render_stage(stage.program) for stage in stages)


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
        "window_id:LNG k:INT sum:LNG min:INT count_star:LNG",
        False,
        "reeval",
        None,
    ),
    ("engine:window", "incremental"): (
        "WindowAggregatePlan",
        "window_id:LNG k:INT sum:LNG min:INT count_star:LNG",
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
        "MalContinuousPlan", "col0:LNG", False, "reeval", None,
    ),
    ("shape:expression-item", "incremental"): (
        "MalContinuousPlan",
        "col0:LNG",
        False,
        "reeval",
        "select items must be group keys or aggregate calls",
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
        "window_id:LNG k:INT sum:LNG count_star:LNG",
        False,
        "reeval",
        None,
    ),
    ("window:group-key-atom", "incremental"): (
        "WindowAggregatePlan",
        "window_id:LNG k:INT sum:LNG count_star:LNG",
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
    # added with the fixes for ungrouped HAVING, repeated output names
    # and the window select list
    ("having:ungrouped", "reeval"): (
        "MalContinuousPlan",
        "sum:LNG",
        False,
        "reeval",
        None,
    ),
    ("having:ungrouped", "incremental"): (
        "MalContinuousPlan",
        "sum:LNG",
        False,
        "reeval",
        "HAVING over incremental aggregates is not supported yet",
    ),
    ("names:repeated-aggregate", "reeval"): (
        "error", "BindError",
    ),
    ("names:repeated-aggregate", "incremental"): (
        "error", "BindError",
    ),
    ("names:repeated-distinct", "reeval"): (
        "error", "BindError",
    ),
    ("names:repeated-distinct", "incremental"): (
        "error", "BindError",
    ),
    ("names:repeated-window", "reeval"): (
        "error", "BindError",
    ),
    ("names:repeated-window", "incremental"): (
        "error", "BindError",
    ),
    ("window:alias", "reeval"): (
        "WindowAggregatePlan",
        "window_id:LNG key:INT total:LNG",
        False,
        "reeval",
        None,
    ),
    ("window:alias", "incremental"): (
        "WindowAggregatePlan",
        "window_id:LNG key:INT total:LNG",
        False,
        "reeval",
        None,
    ),
    ("window:item-order", "reeval"): (
        "WindowAggregatePlan",
        "window_id:LNG sum:LNG k:INT",
        False,
        "reeval",
        None,
    ),
    ("window:item-order", "incremental"): (
        "WindowAggregatePlan",
        "window_id:LNG sum:LNG k:INT",
        False,
        "reeval",
        None,
    ),
}


#: each registered MAL stage, optimized, with its plan-node tree; a
#: query absent here registers a window plan or is rejected
PROGRAMS = {
    ("corpus:arith-projection", "reeval"): (
        """\
function q(x.price, x.qty, x.sym, x.dc_time):
    v1 := algebra.densecands(x.price)
    v2 := batcalc.*(x.price, x.qty)
    v3 := batcalc.neg(x.qty)
    v4 := sql.resultset(('sym', 'col1', 'col2'), x.sym, v2, v3)
    return v4;
--
continuous select [0]
  from [0]
    basket trades [1]
  project [2]
  result [1]""",
    ),
    ("corpus:arith-projection", "incremental"): (
        """\
function q(x.price, x.qty, x.sym, x.dc_time):
    v1 := algebra.densecands(x.price)
    v2 := batcalc.*(x.price, x.qty)
    v3 := batcalc.neg(x.qty)
    v4 := sql.resultset(('sym', 'col1', 'col2'), x.sym, v2, v3)
    return v4;
--
continuous select [0]
  from [0]
    basket trades [1]
  project [2]
  result [1]""",
    ),
    ("corpus:between-in", "reeval"): (
        """\
function q(x.price, x.qty, x.sym, x.dc_time):
    v1 := algebra.densecands(x.price)
    v2 := algebra.select(x.price, None, 1.0, 9.0, True, True, False)
    v3 := algebra.projection(v2, x.price)
    v4 := algebra.projection(v2, x.qty)
    v5 := algebra.projection(v2, x.sym)
    v7 := batcalc.const(1, v3, 'lng')
    v8 := batcalc.==(v4, v7)
    v9 := batcalc.const(2, v3, 'lng')
    v10 := batcalc.==(v4, v9)
    v11 := batcalc.or(v8, v10)
    v12 := batcalc.const(3, v3, 'lng')
    v13 := batcalc.==(v4, v12)
    v14 := batcalc.or(v11, v13)
    v15 := algebra.mask2cand(v14)
    v18 := algebra.projection(v15, v5)
    v21 := sql.resultset(('sym',), v18)
    return v21;
--
continuous select [0]
  from [0]
    basket trades [1]
  where [14]
  project [0]
  result [1]""",
    ),
    ("corpus:between-in", "incremental"): (
        """\
function q(x.price, x.qty, x.sym, x.dc_time):
    v1 := algebra.densecands(x.price)
    v2 := algebra.select(x.price, None, 1.0, 9.0, True, True, False)
    v3 := algebra.projection(v2, x.price)
    v4 := algebra.projection(v2, x.qty)
    v5 := algebra.projection(v2, x.sym)
    v7 := batcalc.const(1, v3, 'lng')
    v8 := batcalc.==(v4, v7)
    v9 := batcalc.const(2, v3, 'lng')
    v10 := batcalc.==(v4, v9)
    v11 := batcalc.or(v8, v10)
    v12 := batcalc.const(3, v3, 'lng')
    v13 := batcalc.==(v4, v12)
    v14 := batcalc.or(v11, v13)
    v15 := algebra.mask2cand(v14)
    v18 := algebra.projection(v15, v5)
    v21 := sql.resultset(('sym',), v18)
    return v21;
--
continuous select [0]
  from [0]
    basket trades [1]
  where [14]
  project [0]
  result [1]""",
    ),
    ("corpus:case-when", "reeval"): (
        """\
function q(x.price, x.qty, x.sym, x.dc_time):
    v1 := algebra.densecands(x.price)
    v2 := batcalc.const(0, x.price, 'lng')
    v3 := batcalc.const(50.0, x.price, 'dbl')
    v4 := batcalc.>(x.price, v3)
    v5 := batcalc.const(1, x.price, 'lng')
    v6 := batcalc.ifthenelse(v4, v5, v2)
    v7 := sql.resultset(('sym', 'col1'), x.sym, v6)
    return v7;
--
continuous select [0]
  from [0]
    basket trades [1]
  project [5]
  result [1]""",
    ),
    ("corpus:case-when", "incremental"): (
        """\
function q(x.price, x.qty, x.sym, x.dc_time):
    v1 := algebra.densecands(x.price)
    v2 := batcalc.const(0, x.price, 'lng')
    v3 := batcalc.const(50.0, x.price, 'dbl')
    v4 := batcalc.>(x.price, v3)
    v5 := batcalc.const(1, x.price, 'lng')
    v6 := batcalc.ifthenelse(v4, v5, v2)
    v7 := sql.resultset(('sym', 'col1'), x.sym, v6)
    return v7;
--
continuous select [0]
  from [0]
    basket trades [1]
  project [5]
  result [1]""",
    ),
    ("corpus:distinct", "reeval"): (
        """\
function q(x.price, x.qty, x.sym, x.dc_time):
    v1 := algebra.densecands(x.price)
    v2, v3, v4 := group.group(x.sym)
    v5 := algebra.projection(v3, x.sym)
    v6 := sql.resultset(('sym',), v5)
    return v6;
--
continuous select [0]
  from [0]
    basket trades [1]
  project [0]
  distinct [2]
  result [1]""",
    ),
    ("corpus:distinct", "incremental"): (
        """\
function q(x.price, x.qty, x.sym, x.dc_time):
    v1 := algebra.densecands(x.price)
    v2, v3, v4 := group.group(x.sym)
    v5 := algebra.projection(v3, x.sym)
    v6 := sql.resultset(('sym',), v5)
    return v6;
--
continuous select [0]
  from [0]
    basket trades [1]
  project [0]
  distinct [2]
  result [1]""",
    ),
    ("corpus:group-by-all-aggregates", "reeval"): (
        """\
function q(x.price, x.qty, x.sym, x.dc_time):
    v1 := algebra.densecands(x.price)
    v2, v3, v4 := group.group(x.sym)
    v5 := aggr.subsum(x.qty, v2, v4)
    v6 := aggr.subcount(x.qty, v2, v4)
    v7 := aggr.subavg(x.price, v2, v4)
    v8 := aggr.submin(x.qty, v2, v4)
    v9 := aggr.submax(x.price, v2, v4)
    v10 := algebra.projection(v3, x.sym)
    v11 := sql.resultset(('sym', 'sum', 'count', 'avg', 'min', 'max'), v10, v5, v6, v7, v8, v9)
    return v11;
--
continuous select [0]
  from [0]
    basket trades [1]
  aggregate [7]
  result [1]""",
    ),
    ("corpus:group-by-all-aggregates", "incremental"): (
        """\
function q(x.price, x.qty, x.sym, x.dc_time):
    v1 := algebra.densecands(x.price)
    v2, v3, v4 := group.group(x.sym)
    v5 := aggr.subsum(x.qty, v2, v4)
    v6 := aggr.subcount(x.qty, v2, v4)
    v7 := aggr.subavg(x.price, v2, v4)
    v8 := aggr.submin(x.qty, v2, v4)
    v9 := aggr.submax(x.price, v2, v4)
    v10 := algebra.projection(v3, x.sym)
    v11 := sql.resultset(('sym', 'sum', 'count', 'avg', 'min', 'max'), v10, v5, v6, v7, v8, v9)
    return v11;
--
continuous select [0]
  from [0]
    basket trades [1]
  aggregate [7]
  result [1]""",
    ),
    ("corpus:group-min-int", "reeval"): (
        """\
function q(x.price, x.qty, x.sym, x.dc_time):
    v1 := algebra.densecands(x.price)
    v2, v3, v4 := group.group(x.sym)
    v5 := aggr.submin(x.qty, v2, v4)
    v6 := aggr.submax(x.qty, v2, v4)
    v7 := algebra.projection(v3, x.sym)
    v8 := sql.resultset(('sym', 'min', 'max'), v7, v5, v6)
    return v8;
--
continuous select [0]
  from [0]
    basket trades [1]
  aggregate [4]
  result [1]""",
    ),
    ("corpus:group-min-int", "incremental"): (
        """\
function q(x.price, x.qty, x.sym, x.dc_time):
    v1 := algebra.densecands(x.price)
    v2 := sql.resultset(('__k0', '__v'), x.sym, x.qty)
    return v2;
--
continuous select [0]
  from [0]
    basket trades [1]
  project [0]
  result [1]""",
    ),
    ("corpus:incremental-aggregate", "reeval"): (
        """\
function q(x.price, x.qty, x.sym, x.dc_time):
    v1 := algebra.densecands(x.price)
    v2, v3, v4 := group.group(x.sym)
    v5 := aggr.subsum(x.qty, v2, v4)
    v6 := aggr.subcount_star(x.price, v2, v4)
    v7 := algebra.projection(v3, x.sym)
    v8 := sql.resultset(('sym', 'sum', 'count'), v7, v5, v6)
    return v8;
--
continuous select [0]
  from [0]
    basket trades [1]
  aggregate [4]
  result [1]""",
    ),
    ("corpus:incremental-aggregate", "incremental"): (
        """\
function q(x.price, x.qty, x.sym, x.dc_time):
    v1 := algebra.densecands(x.price)
    v2 := sql.resultset(('__k0', '__v'), x.sym, x.qty)
    return v2;
--
continuous select [0]
  from [0]
    basket trades [1]
  project [0]
  result [1]""",
    ),
    ("corpus:incremental-join", "reeval"): (
        """\
function q(l.price, l.qty, l.sym, l.dc_time, r.sym, r.sector, r.dc_time):
    v1 := algebra.densecands(l.price)
    v2 := algebra.densecands(r.sym)
    v3, v4 := algebra.join(l.sym, r.sym)
    v5 := algebra.projection(v3, l.price)
    v7 := algebra.projection(v3, l.sym)
    v10 := algebra.projection(v4, r.sector)
    v12 := sql.resultset(('sym', 'price', 'sector'), v7, v5, v10)
    return v12;
--
continuous select [0]
  from [4]
    basket trades [1]
    basket refs [1]
  project [0]
  result [1]""",
    ),
    ("corpus:incremental-join", "incremental"): (
        """\
function q[0](l.price, l.qty, l.sym, l.dc_time):
    v1 := algebra.densecands(l.price)
    v2 := sql.resultset(('__c0', '__c1'), l.sym, l.price)
    return v2;
--
continuous select [0]
  from [0]
    basket trades [1]
  project [0]
  result [1]""",
        """\
function q[1](r.sym, r.sector, r.dc_time):
    v1 := algebra.densecands(r.sym)
    v2 := sql.resultset(('__c0', '__c1'), r.sym, r.sector)
    return v2;
--
continuous select [0]
  from [0]
    basket refs [1]
  project [0]
  result [1]""",
    ),
    ("corpus:incremental-lift", "reeval"): (
        """\
function q(x.price, x.qty, x.sym, x.dc_time):
    v1 := algebra.thetaselect(x.qty, None, '>', 0)
    v2 := algebra.projection(v1, x.price)
    v4 := algebra.projection(v1, x.sym)
    v6 := sql.resultset(('sym', 'price'), v4, v2)
    return v6;
--
continuous select [0]
  from [0]
    basket trades [3]
  project [0]
  result [1]""",
    ),
    ("corpus:incremental-lift", "incremental"): (
        """\
function q(x.price, x.qty, x.sym, x.dc_time):
    v1 := algebra.thetaselect(x.qty, None, '>', 0)
    v2 := algebra.projection(v1, x.price)
    v4 := algebra.projection(v1, x.sym)
    v6 := sql.resultset(('sym', 'price'), v4, v2)
    return v6;
--
continuous select [0]
  from [0]
    basket trades [3]
  project [0]
  result [1]""",
    ),
    ("corpus:inner-filter", "reeval"): (
        """\
function q(x.price, x.qty, x.sym, x.dc_time):
    v1 := algebra.thetaselect(x.price, None, '>', 5.0)
    v2 := algebra.projection(v1, x.price)
    v3 := algebra.projection(v1, x.qty)
    v4 := algebra.projection(v1, x.sym)
    v6 := sql.resultset(('price', 'qty', 'sym'), v2, v3, v4)
    return v6;
--
continuous select [0]
  from [0]
    basket trades [4]
  project [0]
  result [1]""",
    ),
    ("corpus:inner-filter", "incremental"): (
        """\
function q(x.price, x.qty, x.sym, x.dc_time):
    v1 := algebra.thetaselect(x.price, None, '>', 5.0)
    v2 := algebra.projection(v1, x.price)
    v3 := algebra.projection(v1, x.qty)
    v4 := algebra.projection(v1, x.sym)
    v6 := sql.resultset(('price', 'qty', 'sym'), v2, v3, v4)
    return v6;
--
continuous select [0]
  from [0]
    basket trades [4]
  project [0]
  result [1]""",
    ),
    ("corpus:inner-limit", "reeval"): (
        """\
function q(x.price, x.qty, x.sym, x.dc_time):
    v1 := algebra.densecands(x.price)
    v2 := algebra.firstn(v1, 3)
    v3 := algebra.slice(x.price, 0, 3)
    v4 := algebra.slice(x.qty, 0, 3)
    v5 := algebra.slice(x.sym, 0, 3)
    v7 := sql.resultset(('price', 'qty', 'sym'), v3, v4, v5)
    return v7;
--
continuous select [0]
  from [0]
    basket trades [5]
  project [0]
  result [1]""",
    ),
    ("corpus:inner-limit", "incremental"): (
        """\
function q(x.price, x.qty, x.sym, x.dc_time):
    v1 := algebra.densecands(x.price)
    v2 := algebra.firstn(v1, 3)
    v3 := algebra.slice(x.price, 0, 3)
    v4 := algebra.slice(x.qty, 0, 3)
    v5 := algebra.slice(x.sym, 0, 3)
    v7 := sql.resultset(('price', 'qty', 'sym'), v3, v4, v5)
    return v7;
--
continuous select [0]
  from [0]
    basket trades [5]
  project [0]
  result [1]""",
    ),
    ("corpus:isnull", "reeval"): (
        """\
function q(x.price, x.qty, x.sym, x.dc_time):
    v1 := algebra.densecands(x.price)
    v2 := algebra.selectnotnil(x.price, None)
    v5 := algebra.projection(v2, x.sym)
    v7 := sql.resultset(('sym',), v5)
    return v7;
--
continuous select [0]
  from [0]
    basket trades [1]
  where [2]
  project [0]
  result [1]""",
    ),
    ("corpus:isnull", "incremental"): (
        """\
function q(x.price, x.qty, x.sym, x.dc_time):
    v1 := algebra.densecands(x.price)
    v2 := algebra.selectnotnil(x.price, None)
    v5 := algebra.projection(v2, x.sym)
    v7 := sql.resultset(('sym',), v5)
    return v7;
--
continuous select [0]
  from [0]
    basket trades [1]
  where [2]
  project [0]
  result [1]""",
    ),
    ("corpus:math-functions", "reeval"): (
        """\
function q(x.price, x.qty, x.sym, x.dc_time):
    v1 := algebra.densecands(x.price)
    v2 := batmath.abs(x.price, 0)
    v3 := batmath.sqrt(x.price, 0)
    v4 := batmath.round(x.price, 2)
    v5 := batmath.floor(x.qty, 0)
    v6 := sql.resultset(('abs', 'sqrt', 'round', 'floor'), v2, v3, v4, v5)
    return v6;
--
continuous select [0]
  from [0]
    basket trades [1]
  project [4]
  result [1]""",
    ),
    ("corpus:math-functions", "incremental"): (
        """\
function q(x.price, x.qty, x.sym, x.dc_time):
    v1 := algebra.densecands(x.price)
    v2 := batmath.abs(x.price, 0)
    v3 := batmath.sqrt(x.price, 0)
    v4 := batmath.round(x.price, 2)
    v5 := batmath.floor(x.qty, 0)
    v6 := sql.resultset(('abs', 'sqrt', 'round', 'floor'), v2, v3, v4, v5)
    return v6;
--
continuous select [0]
  from [0]
    basket trades [1]
  project [4]
  result [1]""",
    ),
    ("corpus:outer-filter", "reeval"): (
        """\
function q(x.price, x.qty, x.sym, x.dc_time):
    v1 := algebra.densecands(x.price)
    v2 := algebra.thetaselect(x.qty, None, '>=', 10)
    v3 := algebra.thetaselect(x.price, v2, '<', 100.0)
    v4 := algebra.projection(v3, x.price)
    v6 := algebra.projection(v3, x.sym)
    v8 := sql.resultset(('sym', 'price'), v6, v4)
    return v8;
--
continuous select [0]
  from [0]
    basket trades [1]
  where [4]
  project [0]
  result [1]""",
    ),
    ("corpus:outer-filter", "incremental"): (
        """\
function q(x.price, x.qty, x.sym, x.dc_time):
    v1 := algebra.densecands(x.price)
    v2 := algebra.thetaselect(x.qty, None, '>=', 10)
    v3 := algebra.thetaselect(x.price, v2, '<', 100.0)
    v4 := algebra.projection(v3, x.price)
    v6 := algebra.projection(v3, x.sym)
    v8 := sql.resultset(('sym', 'price'), v6, v4)
    return v8;
--
continuous select [0]
  from [0]
    basket trades [1]
  where [4]
  project [0]
  result [1]""",
    ),
    ("corpus:passthrough", "reeval"): (
        """\
function q(x.price, x.qty, x.sym, x.dc_time):
    v1 := algebra.densecands(x.price)
    v2 := sql.resultset(('price', 'qty', 'sym'), x.price, x.qty, x.sym)
    return v2;
--
continuous select [0]
  from [0]
    basket trades [1]
  project [0]
  result [1]""",
    ),
    ("corpus:passthrough", "incremental"): (
        """\
function q(x.price, x.qty, x.sym, x.dc_time):
    v1 := algebra.densecands(x.price)
    v2 := sql.resultset(('price', 'qty', 'sym'), x.price, x.qty, x.sym)
    return v2;
--
continuous select [0]
  from [0]
    basket trades [1]
  project [0]
  result [1]""",
    ),
    ("corpus:scalar-aggregates", "reeval"): (
        """\
function q(x.price, x.qty, x.sym, x.dc_time):
    v1 := algebra.densecands(x.price)
    v2 := batcalc.const(0, x.price, 'oid')
    v3 := aggr.subsum(x.price, v2, 1)
    v4 := aggr.subcount_star(x.price, v2, 1)
    v5 := aggr.subavg(x.qty, v2, 1)
    v6 := sql.resultset(('sum', 'count', 'avg'), v3, v4, v5)
    return v6;
--
continuous select [0]
  from [0]
    basket trades [1]
  aggregate [4]
  result [1]""",
    ),
    ("corpus:scalar-aggregates", "incremental"): (
        """\
function q(x.price, x.qty, x.sym, x.dc_time):
    v1 := algebra.densecands(x.price)
    v2 := batcalc.const(0, x.price, 'oid')
    v3 := aggr.subsum(x.price, v2, 1)
    v4 := aggr.subcount_star(x.price, v2, 1)
    v5 := aggr.subavg(x.qty, v2, 1)
    v6 := sql.resultset(('sum', 'count', 'avg'), v3, v4, v5)
    return v6;
--
continuous select [0]
  from [0]
    basket trades [1]
  aggregate [4]
  result [1]""",
    ),
    ("corpus:string-functions", "reeval"): (
        """\
function q(x.price, x.qty, x.sym, x.dc_time):
    v1 := algebra.densecands(x.price)
    v2 := algebra.likeselect(x.sym, None, 'A%', False)
    v5 := algebra.projection(v2, x.sym)
    v7 := batstr.upper(v5)
    v8 := batstr.length(v5)
    v9 := batstr.substring(v5, 1, 2)
    v10 := sql.resultset(('upper', 'length', 'substring'), v7, v8, v9)
    return v10;
--
continuous select [0]
  from [0]
    basket trades [1]
  where [2]
  project [3]
  result [1]""",
    ),
    ("corpus:string-functions", "incremental"): (
        """\
function q(x.price, x.qty, x.sym, x.dc_time):
    v1 := algebra.densecands(x.price)
    v2 := algebra.likeselect(x.sym, None, 'A%', False)
    v5 := algebra.projection(v2, x.sym)
    v7 := batstr.upper(v5)
    v8 := batstr.length(v5)
    v9 := batstr.substring(v5, 1, 2)
    v10 := sql.resultset(('upper', 'length', 'substring'), v7, v8, v9)
    return v10;
--
continuous select [0]
  from [0]
    basket trades [1]
  where [2]
  project [3]
  result [1]""",
    ),
    ("engine:aggregate", "reeval"): (
        """\
function q(x.a, x.b, x.dc_time):
    v1 := algebra.densecands(x.a)
    v2, v3, v4 := group.group(x.a)
    v5 := aggr.subsum(x.b, v2, v4)
    v6 := aggr.subcount(x.b, v2, v4)
    v7 := aggr.submin(x.b, v2, v4)
    v8 := aggr.submax(x.b, v2, v4)
    v9 := algebra.projection(v3, x.a)
    v10 := sql.resultset(('a', 'sum', 'count', 'min', 'max'), v9, v5, v6, v7, v8)
    return v10;
--
continuous select [0]
  from [0]
    basket feed [1]
  aggregate [6]
  result [1]""",
    ),
    ("engine:aggregate", "incremental"): (
        """\
function q(x.a, x.b, x.dc_time):
    v1 := algebra.densecands(x.a)
    v2 := sql.resultset(('__k0', '__v'), x.a, x.b)
    return v2;
--
continuous select [0]
  from [0]
    basket feed [1]
  project [0]
  result [1]""",
    ),
    ("engine:distinct", "reeval"): (
        """\
function q(x.a, x.b, x.dc_time):
    v1 := algebra.densecands(x.a)
    v2, v3, v4 := group.group(x.a)
    v5 := algebra.projection(v3, x.a)
    v6 := sql.resultset(('a',), v5)
    return v6;
--
continuous select [0]
  from [0]
    basket feed [1]
  project [0]
  distinct [2]
  result [1]""",
    ),
    ("engine:distinct", "incremental"): (
        """\
function q(x.a, x.b, x.dc_time):
    v1 := algebra.densecands(x.a)
    v2, v3, v4 := group.group(x.a)
    v5 := algebra.projection(v3, x.a)
    v6 := sql.resultset(('a',), v5)
    return v6;
--
continuous select [0]
  from [0]
    basket feed [1]
  project [0]
  distinct [2]
  result [1]""",
    ),
    ("engine:group-sum", "reeval"): (
        """\
function q(x.a, x.b, x.dc_time):
    v1 := algebra.densecands(x.a)
    v2, v3, v4 := group.group(x.a)
    v5 := aggr.subsum(x.b, v2, v4)
    v6 := algebra.projection(v3, x.a)
    v7 := sql.resultset(('a', 'sum'), v6, v5)
    return v7;
--
continuous select [0]
  from [0]
    basket feed [1]
  aggregate [3]
  result [1]""",
    ),
    ("engine:group-sum", "incremental"): (
        """\
function q(x.a, x.b, x.dc_time):
    v1 := algebra.densecands(x.a)
    v2 := sql.resultset(('__k0', '__v'), x.a, x.b)
    return v2;
--
continuous select [0]
  from [0]
    basket feed [1]
  project [0]
  result [1]""",
    ),
    ("engine:join", "reeval"): (
        """\
function q(x.k, x.a, x.dc_time, y.k, y.b, y.dc_time):
    v1 := algebra.densecands(x.k)
    v2 := algebra.densecands(y.k)
    v3, v4 := algebra.join(x.k, y.k)
    v5 := algebra.projection(v3, x.k)
    v6 := algebra.projection(v3, x.a)
    v9 := algebra.projection(v4, y.b)
    v11 := sql.resultset(('k', 'a', 'b'), v5, v6, v9)
    return v11;
--
continuous select [0]
  from [4]
    basket lt [1]
    basket rt [1]
  project [0]
  result [1]""",
    ),
    ("engine:join", "incremental"): (
        """\
function q[0](x.k, x.a, x.dc_time):
    v1 := algebra.densecands(x.k)
    v2 := sql.resultset(('__c0', '__c1'), x.k, x.a)
    return v2;
--
continuous select [0]
  from [0]
    basket lt [1]
  project [0]
  result [1]""",
        """\
function q[1](y.k, y.b, y.dc_time):
    v1 := algebra.densecands(y.k)
    v2 := sql.resultset(('__c0', '__c1'), y.k, y.b)
    return v2;
--
continuous select [0]
  from [0]
    basket rt [1]
  project [0]
  result [1]""",
    ),
    ("engine:linear", "reeval"): (
        """\
function q(x.a, x.b, x.dc_time):
    v1 := algebra.densecands(x.a)
    v2 := algebra.thetaselect(x.b, None, '>', 2)
    v3 := algebra.projection(v2, x.a)
    v4 := algebra.projection(v2, x.b)
    v6 := sql.resultset(('a', 'b'), v3, v4)
    return v6;
--
continuous select [0]
  from [0]
    basket feed [1]
  where [3]
  project [0]
  result [1]""",
    ),
    ("engine:linear", "incremental"): (
        """\
function q(x.a, x.b, x.dc_time):
    v1 := algebra.densecands(x.a)
    v2 := algebra.thetaselect(x.b, None, '>', 2)
    v3 := algebra.projection(v2, x.a)
    v4 := algebra.projection(v2, x.b)
    v6 := sql.resultset(('a', 'b'), v3, v4)
    return v6;
--
continuous select [0]
  from [0]
    basket feed [1]
  where [3]
  project [0]
  result [1]""",
    ),
    ("engine:linear-one-column", "reeval"): (
        """\
function q(x.a, x.b, x.dc_time):
    v1 := algebra.densecands(x.a)
    v2 := sql.resultset(('a',), x.a)
    return v2;
--
continuous select [0]
  from [0]
    basket feed [1]
  project [0]
  result [1]""",
    ),
    ("engine:linear-one-column", "incremental"): (
        """\
function q(x.a, x.b, x.dc_time):
    v1 := algebra.densecands(x.a)
    v2 := sql.resultset(('a',), x.a)
    return v2;
--
continuous select [0]
  from [0]
    basket feed [1]
  project [0]
  result [1]""",
    ),
    ("oracle:agg_filtered", "reeval"): (
        """\
function q(x.a, x.b, x.dc_time):
    v1 := algebra.densecands(x.a)
    v2 := algebra.thetaselect(x.b, None, '>', 2)
    v3 := algebra.projection(v2, x.a)
    v4 := algebra.projection(v2, x.b)
    v6, v7, v8 := group.group(v3)
    v9 := aggr.subsum(v4, v6, v8)
    v10 := aggr.subavg(v4, v6, v8)
    v11 := algebra.projection(v7, v3)
    v12 := sql.resultset(('a', 'sum', 'avg'), v11, v9, v10)
    return v12;
--
continuous select [0]
  from [0]
    basket feed [1]
  where [3]
  aggregate [4]
  result [1]""",
    ),
    ("oracle:agg_filtered", "incremental"): (
        """\
function q(x.a, x.b, x.dc_time):
    v1 := algebra.densecands(x.a)
    v2 := algebra.thetaselect(x.b, None, '>', 2)
    v3 := algebra.projection(v2, x.a)
    v4 := algebra.projection(v2, x.b)
    v6 := sql.resultset(('__k0', '__v'), v3, v4)
    return v6;
--
continuous select [0]
  from [0]
    basket feed [1]
  where [3]
  project [0]
  result [1]""",
    ),
    ("oracle:agg_global", "reeval"): (
        """\
function q(x.a, x.b, x.dc_time):
    v1 := algebra.densecands(x.a)
    v2 := batcalc.const(0, x.a, 'oid')
    v3 := aggr.subcount_star(x.a, v2, 1)
    v4 := aggr.subsum(x.b, v2, 1)
    v5 := aggr.submin(x.b, v2, 1)
    v6 := sql.resultset(('count', 'sum', 'min'), v3, v4, v5)
    return v6;
--
continuous select [0]
  from [0]
    basket feed [1]
  aggregate [4]
  result [1]""",
    ),
    ("oracle:agg_global", "incremental"): (
        """\
function q(x.a, x.b, x.dc_time):
    v1 := algebra.densecands(x.a)
    v2 := sql.resultset(('__v',), x.b)
    return v2;
--
continuous select [0]
  from [0]
    basket feed [1]
  project [0]
  result [1]""",
    ),
    ("oracle:agg_grouped", "reeval"): (
        """\
function q(x.a, x.b, x.dc_time):
    v1 := algebra.densecands(x.a)
    v2, v3, v4 := group.group(x.a)
    v5 := aggr.subsum(x.b, v2, v4)
    v6 := aggr.subcount(x.b, v2, v4)
    v7 := aggr.submin(x.b, v2, v4)
    v8 := aggr.submax(x.b, v2, v4)
    v9 := algebra.projection(v3, x.a)
    v10 := sql.resultset(('a', 'sum', 'count', 'min', 'max'), v9, v5, v6, v7, v8)
    return v10;
--
continuous select [0]
  from [0]
    basket feed [1]
  aggregate [6]
  result [1]""",
    ),
    ("oracle:agg_grouped", "incremental"): (
        """\
function q(x.a, x.b, x.dc_time):
    v1 := algebra.densecands(x.a)
    v2 := sql.resultset(('__k0', '__v'), x.a, x.b)
    return v2;
--
continuous select [0]
  from [0]
    basket feed [1]
  project [0]
  result [1]""",
    ),
    ("oracle:arith", "reeval"): (
        """\
function q(x.a, x.b, x.dc_time):
    v1 := batcalc.const(10, x.a, 'lng')
    v2 := batcalc.>(x.a, v1)
    v3 := batcalc.not(v2)
    v4 := algebra.mask2cand(v3)
    v5 := algebra.projection(v4, x.a)
    v6 := algebra.projection(v4, x.b)
    v8 := batcalc.+(v5, v6)
    v9 := sql.resultset(('col0',), v8)
    return v9;
--
continuous select [0]
  from [0]
    basket feed [6]
  project [1]
  result [1]""",
    ),
    ("oracle:arith", "incremental"): (
        """\
function q(x.a, x.b, x.dc_time):
    v1 := batcalc.const(10, x.a, 'lng')
    v2 := batcalc.>(x.a, v1)
    v3 := batcalc.not(v2)
    v4 := algebra.mask2cand(v3)
    v5 := algebra.projection(v4, x.a)
    v6 := algebra.projection(v4, x.b)
    v8 := batcalc.+(v5, v6)
    v9 := sql.resultset(('col0',), v8)
    return v9;
--
continuous select [0]
  from [0]
    basket feed [6]
  project [1]
  result [1]""",
    ),
    ("oracle:compound", "reeval"): (
        """\
function q(x.a, x.b, x.dc_time):
    v1 := algebra.thetaselect(x.a, None, '>', 10)
    v2 := algebra.thetaselect(x.b, v1, '<', 5)
    v3 := algebra.projection(v2, x.a)
    v4 := algebra.projection(v2, x.b)
    v6 := sql.resultset(('a', 'b'), v3, v4)
    return v6;
--
continuous select [0]
  from [0]
    basket feed [4]
  project [0]
  result [1]""",
    ),
    ("oracle:compound", "incremental"): (
        """\
function q(x.a, x.b, x.dc_time):
    v1 := algebra.thetaselect(x.a, None, '>', 10)
    v2 := algebra.thetaselect(x.b, v1, '<', 5)
    v3 := algebra.projection(v2, x.a)
    v4 := algebra.projection(v2, x.b)
    v6 := sql.resultset(('a', 'b'), v3, v4)
    return v6;
--
continuous select [0]
  from [0]
    basket feed [4]
  project [0]
  result [1]""",
    ),
    ("oracle:disjunct", "reeval"): (
        """\
function q(x.a, x.b, x.dc_time):
    v1 := batcalc.const(15, x.a, 'lng')
    v2 := batcalc.>(x.a, v1)
    v3 := batcalc.const(2, x.a, 'lng')
    v4 := batcalc.==(x.b, v3)
    v5 := batcalc.or(v2, v4)
    v6 := algebra.mask2cand(v5)
    v8 := algebra.projection(v6, x.b)
    v10 := sql.resultset(('b',), v8)
    return v10;
--
continuous select [0]
  from [0]
    basket feed [7]
  project [0]
  result [1]""",
    ),
    ("oracle:disjunct", "incremental"): (
        """\
function q(x.a, x.b, x.dc_time):
    v1 := batcalc.const(15, x.a, 'lng')
    v2 := batcalc.>(x.a, v1)
    v3 := batcalc.const(2, x.a, 'lng')
    v4 := batcalc.==(x.b, v3)
    v5 := batcalc.or(v2, v4)
    v6 := algebra.mask2cand(v5)
    v8 := algebra.projection(v6, x.b)
    v10 := sql.resultset(('b',), v8)
    return v10;
--
continuous select [0]
  from [0]
    basket feed [7]
  project [0]
  result [1]""",
    ),
    ("oracle:filter", "reeval"): (
        """\
function q(x.a, x.b, x.dc_time):
    v1 := algebra.thetaselect(x.a, None, '>', 10)
    v2 := algebra.projection(v1, x.a)
    v3 := algebra.projection(v1, x.b)
    v5 := sql.resultset(('a', 'b'), v2, v3)
    return v5;
--
continuous select [0]
  from [0]
    basket feed [3]
  project [0]
  result [1]""",
    ),
    ("oracle:filter", "incremental"): (
        """\
function q(x.a, x.b, x.dc_time):
    v1 := algebra.thetaselect(x.a, None, '>', 10)
    v2 := algebra.projection(v1, x.a)
    v3 := algebra.projection(v1, x.b)
    v5 := sql.resultset(('a', 'b'), v2, v3)
    return v5;
--
continuous select [0]
  from [0]
    basket feed [3]
  project [0]
  result [1]""",
    ),
    ("oracle:join", "reeval"): (
        """\
function q(x.k, x.a, x.dc_time, y.k, y.b, y.dc_time):
    v1 := algebra.densecands(x.k)
    v2 := algebra.densecands(y.k)
    v3, v4 := algebra.join(x.k, y.k)
    v5 := algebra.projection(v3, x.k)
    v6 := algebra.projection(v3, x.a)
    v9 := algebra.projection(v4, y.b)
    v11 := sql.resultset(('k', 'a', 'b'), v5, v6, v9)
    return v11;
--
continuous select [0]
  from [4]
    basket jleft [1]
    basket jright [1]
  project [0]
  result [1]""",
    ),
    ("oracle:join", "incremental"): (
        """\
function q[0](x.k, x.a, x.dc_time):
    v1 := algebra.densecands(x.k)
    v2 := sql.resultset(('__c0', '__c1'), x.k, x.a)
    return v2;
--
continuous select [0]
  from [0]
    basket jleft [1]
  project [0]
  result [1]""",
        """\
function q[1](y.k, y.b, y.dc_time):
    v1 := algebra.densecands(y.k)
    v2 := sql.resultset(('__c0', '__c1'), y.k, y.b)
    return v2;
--
continuous select [0]
  from [0]
    basket jright [1]
  project [0]
  result [1]""",
    ),
    ("oracle:passthrough", "reeval"): (
        """\
function q(x.a, x.b, x.dc_time):
    v1 := algebra.densecands(x.a)
    v2 := sql.resultset(('a', 'b'), x.a, x.b)
    return v2;
--
continuous select [0]
  from [0]
    basket feed [1]
  project [0]
  result [1]""",
    ),
    ("oracle:passthrough", "incremental"): (
        """\
function q(x.a, x.b, x.dc_time):
    v1 := algebra.densecands(x.a)
    v2 := sql.resultset(('a', 'b'), x.a, x.b)
    return v2;
--
continuous select [0]
  from [0]
    basket feed [1]
  project [0]
  result [1]""",
    ),
    ("shape:aggregate-order", "reeval"): (
        """\
function q(x.a, x.b, x.dc_time):
    v1 := algebra.densecands(x.a)
    v2, v3, v4 := group.group(x.a)
    v5 := aggr.subsum(x.b, v2, v4)
    v6 := algebra.projection(v3, x.a)
    v7 := algebra.sort(v6, None, False)
    v8 := algebra.projection(v7, v6)
    v9 := algebra.projection(v7, v5)
    v10 := sql.resultset(('a', 'sum'), v8, v9)
    return v10;
--
continuous select [0]
  from [0]
    basket feed [1]
  aggregate [3]
  order by [3]
  result [1]""",
    ),
    ("shape:aggregate-order", "incremental"): (
        """\
function q(x.a, x.b, x.dc_time):
    v1 := algebra.densecands(x.a)
    v2, v3, v4 := group.group(x.a)
    v5 := aggr.subsum(x.b, v2, v4)
    v6 := algebra.projection(v3, x.a)
    v7 := algebra.sort(v6, None, False)
    v8 := algebra.projection(v7, v6)
    v9 := algebra.projection(v7, v5)
    v10 := sql.resultset(('a', 'sum'), v8, v9)
    return v10;
--
continuous select [0]
  from [0]
    basket feed [1]
  aggregate [3]
  order by [3]
  result [1]""",
    ),
    ("shape:aggregate-over-join", "reeval"): (
        """\
function q(x.k, x.a, x.dc_time, y.k, y.b, y.dc_time):
    v1 := algebra.densecands(x.k)
    v2 := algebra.densecands(y.k)
    v3, v4 := algebra.join(x.k, y.k)
    v6 := algebra.projection(v3, x.a)
    v11 := batcalc.const(0, v6, 'oid')
    v12 := aggr.subsum(v6, v11, 1)
    v13 := sql.resultset(('sum',), v12)
    return v13;
--
continuous select [0]
  from [2]
    basket lt [1]
    basket rt [1]
  aggregate [2]
  result [1]""",
    ),
    ("shape:aggregate-over-join", "incremental"): (
        """\
function q(x.k, x.a, x.dc_time, y.k, y.b, y.dc_time):
    v1 := algebra.densecands(x.k)
    v2 := algebra.densecands(y.k)
    v3, v4 := algebra.join(x.k, y.k)
    v6 := algebra.projection(v3, x.a)
    v11 := batcalc.const(0, v6, 'oid')
    v12 := aggr.subsum(v6, v11, 1)
    v13 := sql.resultset(('sum',), v12)
    return v13;
--
continuous select [0]
  from [2]
    basket lt [1]
    basket rt [1]
  aggregate [2]
  result [1]""",
    ),
    ("shape:aggregate-over-subquery", "reeval"): (
        """\
function q(x.a, x.b, x.dc_time):
    v1 := algebra.densecands(x.a)
    v2 := batcalc.const(0, x.a, 'oid')
    v3 := aggr.subsum(x.a, v2, 1)
    v4 := sql.resultset(('sum',), v3)
    return v4;
--
continuous select [0]
  from [0]
    subquery [0]
      from [0]
        basket feed [1]
      project [0]
  aggregate [2]
  result [1]""",
    ),
    ("shape:aggregate-over-subquery", "incremental"): (
        """\
function q(x.a, x.b, x.dc_time):
    v1 := algebra.densecands(x.a)
    v2 := batcalc.const(0, x.a, 'oid')
    v3 := aggr.subsum(x.a, v2, 1)
    v4 := sql.resultset(('sum',), v3)
    return v4;
--
continuous select [0]
  from [0]
    subquery [0]
      from [0]
        basket feed [1]
      project [0]
  aggregate [2]
  result [1]""",
    ),
    ("shape:aliased-aggregate", "reeval"): (
        """\
function q(x.a, x.b, x.dc_time):
    v1 := algebra.densecands(x.a)
    v2 := algebra.thetaselect(x.b, None, '>', 0)
    v3 := algebra.projection(v2, x.a)
    v4 := algebra.projection(v2, x.b)
    v6, v7, v8 := group.group(v3)
    v9 := aggr.subsum(v4, v6, v8)
    v10 := aggr.subcount_star(v3, v6, v8)
    v11 := algebra.projection(v7, v3)
    v12 := sql.resultset(('key', 'total', 'count'), v11, v9, v10)
    return v12;
--
continuous select [0]
  from [0]
    basket feed [1]
  where [3]
  aggregate [4]
  result [1]""",
    ),
    ("shape:aliased-aggregate", "incremental"): (
        """\
function q(x.a, x.b, x.dc_time):
    v1 := algebra.densecands(x.a)
    v2 := algebra.thetaselect(x.b, None, '>', 0)
    v3 := algebra.projection(v2, x.a)
    v4 := algebra.projection(v2, x.b)
    v6 := sql.resultset(('__k0', '__v'), v3, v4)
    return v6;
--
continuous select [0]
  from [0]
    basket feed [1]
  where [3]
  project [0]
  result [1]""",
    ),
    ("shape:cross-join", "reeval"): (
        """\
function q(x.k, x.a, x.dc_time, y.k, y.b, y.dc_time):
    v1 := algebra.densecands(x.k)
    v2 := algebra.densecands(y.k)
    v3, v4 := algebra.crossproduct(x.k, y.k)
    v5 := algebra.projection(v3, x.k)
    v6 := algebra.projection(v3, x.a)
    v9 := algebra.projection(v4, y.b)
    v11 := batcalc.<(v6, v9)
    v12 := algebra.mask2cand(v11)
    v13 := algebra.projection(v12, v5)
    v17 := algebra.projection(v12, v9)
    v19 := sql.resultset(('k', 'b'), v13, v17)
    return v19;
--
continuous select [0]
  from [4]
    basket lt [1]
    basket rt [1]
  where [4]
  project [0]
  result [1]""",
    ),
    ("shape:cross-join", "incremental"): (
        """\
function q(x.k, x.a, x.dc_time, y.k, y.b, y.dc_time):
    v1 := algebra.densecands(x.k)
    v2 := algebra.densecands(y.k)
    v3, v4 := algebra.crossproduct(x.k, y.k)
    v5 := algebra.projection(v3, x.k)
    v6 := algebra.projection(v3, x.a)
    v9 := algebra.projection(v4, y.b)
    v11 := batcalc.<(v6, v9)
    v12 := algebra.mask2cand(v11)
    v13 := algebra.projection(v12, v5)
    v17 := algebra.projection(v12, v9)
    v19 := sql.resultset(('k', 'b'), v13, v17)
    return v19;
--
continuous select [0]
  from [4]
    basket lt [1]
    basket rt [1]
  where [4]
  project [0]
  result [1]""",
    ),
    ("shape:expression-argument", "reeval"): (
        """\
function q(x.a, x.b, x.dc_time):
    v1 := algebra.densecands(x.a)
    v2 := batcalc.+(x.a, x.b)
    v3 := batcalc.const(0, v2, 'oid')
    v4 := aggr.subsum(v2, v3, 1)
    v5 := sql.resultset(('sum',), v4)
    return v5;
--
continuous select [0]
  from [0]
    basket feed [1]
  aggregate [3]
  result [1]""",
    ),
    ("shape:expression-argument", "incremental"): (
        """\
function q(x.a, x.b, x.dc_time):
    v1 := algebra.densecands(x.a)
    v2 := batcalc.+(x.a, x.b)
    v3 := batcalc.const(0, v2, 'oid')
    v4 := aggr.subsum(v2, v3, 1)
    v5 := sql.resultset(('sum',), v4)
    return v5;
--
continuous select [0]
  from [0]
    basket feed [1]
  aggregate [3]
  result [1]""",
    ),
    ("shape:expression-item", "reeval"): (
        """\
function q(x.a, x.b, x.dc_time):
    v1 := algebra.densecands(x.a)
    v2 := batcalc.const(0, x.b, 'oid')
    v3 := aggr.subsum(x.b, v2, 1)
    v4 := batcalc.const(1, v3, 'lng')
    v5 := batcalc.+(v3, v4)
    v6 := sql.resultset(('col0',), v5)
    return v6;
--
continuous select [0]
  from [0]
    basket feed [1]
  aggregate [4]
  result [1]""",
    ),
    ("shape:expression-item", "incremental"): (
        """\
function q(x.a, x.b, x.dc_time):
    v1 := algebra.densecands(x.a)
    v2 := batcalc.const(0, x.b, 'oid')
    v3 := aggr.subsum(x.b, v2, 1)
    v4 := batcalc.const(1, v3, 'lng')
    v5 := batcalc.+(v3, v4)
    v6 := sql.resultset(('col0',), v5)
    return v6;
--
continuous select [0]
  from [0]
    basket feed [1]
  aggregate [4]
  result [1]""",
    ),
    ("shape:group-expression", "reeval"): (
        """\
function q(x.a, x.b, x.dc_time):
    v1 := algebra.densecands(x.a)
    v2 := batcalc.const(1, x.a, 'lng')
    v3 := batcalc.+(x.a, v2)
    v4, v5, v6 := group.group(v3)
    v7 := aggr.subsum(x.b, v4, v6)
    v9 := sql.resultset(('sum',), v7)
    return v9;
--
continuous select [0]
  from [0]
    basket feed [1]
  aggregate [4]
  result [1]""",
    ),
    ("shape:group-expression", "incremental"): (
        """\
function q(x.a, x.b, x.dc_time):
    v1 := algebra.densecands(x.a)
    v2 := batcalc.const(1, x.a, 'lng')
    v3 := batcalc.+(x.a, v2)
    v4, v5, v6 := group.group(v3)
    v7 := aggr.subsum(x.b, v4, v6)
    v9 := sql.resultset(('sum',), v7)
    return v9;
--
continuous select [0]
  from [0]
    basket feed [1]
  aggregate [4]
  result [1]""",
    ),
    ("shape:group-without-aggregate", "reeval"): (
        """\
function q(x.a, x.b, x.dc_time):
    v1 := algebra.densecands(x.a)
    v2, v3, v4 := group.group(x.a)
    v5 := algebra.projection(v3, x.a)
    v6 := sql.resultset(('a',), v5)
    return v6;
--
continuous select [0]
  from [0]
    basket feed [1]
  aggregate [2]
  result [1]""",
    ),
    ("shape:group-without-aggregate", "incremental"): (
        """\
function q(x.a, x.b, x.dc_time):
    v1 := algebra.densecands(x.a)
    v2, v3, v4 := group.group(x.a)
    v5 := algebra.projection(v3, x.a)
    v6 := sql.resultset(('a',), v5)
    return v6;
--
continuous select [0]
  from [0]
    basket feed [1]
  aggregate [2]
  result [1]""",
    ),
    ("shape:having", "reeval"): (
        """\
function q(x.a, x.b, x.dc_time):
    v1 := algebra.densecands(x.a)
    v2, v3, v4 := group.group(x.a)
    v5 := aggr.subsum(x.b, v2, v4)
    v6 := algebra.projection(v3, x.a)
    v7 := batcalc.const(3, v6, 'lng')
    v8 := batcalc.>(v5, v7)
    v9 := algebra.mask2cand(v8)
    v10 := algebra.projection(v9, v6)
    v11 := algebra.projection(v9, v5)
    v12 := sql.resultset(('a', 'sum'), v10, v11)
    return v12;
--
continuous select [0]
  from [0]
    basket feed [1]
  aggregate [8]
  result [1]""",
    ),
    ("shape:having", "incremental"): (
        """\
function q(x.a, x.b, x.dc_time):
    v1 := algebra.densecands(x.a)
    v2, v3, v4 := group.group(x.a)
    v5 := aggr.subsum(x.b, v2, v4)
    v6 := algebra.projection(v3, x.a)
    v7 := batcalc.const(3, v6, 'lng')
    v8 := batcalc.>(v5, v7)
    v9 := algebra.mask2cand(v8)
    v10 := algebra.projection(v9, v6)
    v11 := algebra.projection(v9, v5)
    v12 := sql.resultset(('a', 'sum'), v10, v11)
    return v12;
--
continuous select [0]
  from [0]
    basket feed [1]
  aggregate [8]
  result [1]""",
    ),
    ("shape:join-bare-column", "reeval"): (
        """\
function q(x.k, x.a, x.dc_time, y.k, y.b, y.dc_time):
    v1 := algebra.densecands(x.k)
    v2 := algebra.densecands(y.k)
    v3, v4 := algebra.join(x.k, y.k)
    v5 := algebra.projection(v3, x.k)
    v6 := algebra.projection(v3, x.a)
    v11 := algebra.thetaselect(v6, None, '>', 1)
    v12 := algebra.projection(v11, v5)
    v18 := sql.resultset(('k',), v12)
    return v18;
--
continuous select [0]
  from [3]
    basket lt [1]
    basket rt [1]
  where [2]
  project [0]
  result [1]""",
    ),
    ("shape:join-bare-column", "incremental"): (
        """\
function q(x.k, x.a, x.dc_time, y.k, y.b, y.dc_time):
    v1 := algebra.densecands(x.k)
    v2 := algebra.densecands(y.k)
    v3, v4 := algebra.join(x.k, y.k)
    v5 := algebra.projection(v3, x.k)
    v6 := algebra.projection(v3, x.a)
    v11 := algebra.thetaselect(v6, None, '>', 1)
    v12 := algebra.projection(v11, v5)
    v18 := sql.resultset(('k',), v12)
    return v18;
--
continuous select [0]
  from [3]
    basket lt [1]
    basket rt [1]
  where [2]
  project [0]
  result [1]""",
    ),
    ("shape:join-constant", "reeval"): (
        """\
function q(x.k, x.a, x.dc_time, y.k, y.b, y.dc_time):
    v1 := algebra.densecands(x.k)
    v2 := algebra.densecands(y.k)
    v3, v4 := algebra.join(x.k, y.k)
    v5 := algebra.projection(v3, x.k)
    v11 := batcalc.const(1, v5, 'lng')
    v13 := batcalc.==(v11, v11)
    v14 := algebra.mask2cand(v13)
    v15 := algebra.projection(v14, v5)
    v21 := sql.resultset(('k',), v15)
    return v21;
--
continuous select [0]
  from [2]
    basket lt [1]
    basket rt [1]
  where [4]
  project [0]
  result [1]""",
    ),
    ("shape:join-constant", "incremental"): (
        """\
function q(x.k, x.a, x.dc_time, y.k, y.b, y.dc_time):
    v1 := algebra.densecands(x.k)
    v2 := algebra.densecands(y.k)
    v3, v4 := algebra.join(x.k, y.k)
    v5 := algebra.projection(v3, x.k)
    v11 := batcalc.const(1, v5, 'lng')
    v13 := batcalc.==(v11, v11)
    v14 := algebra.mask2cand(v13)
    v15 := algebra.projection(v14, v5)
    v21 := sql.resultset(('k',), v15)
    return v21;
--
continuous select [0]
  from [2]
    basket lt [1]
    basket rt [1]
  where [4]
  project [0]
  result [1]""",
    ),
    ("shape:join-cross-residual", "reeval"): (
        """\
function q(x.k, x.a, x.dc_time, y.k, y.b, y.dc_time):
    v1 := algebra.densecands(x.k)
    v2 := algebra.densecands(y.k)
    v3, v4 := algebra.join(x.k, y.k)
    v5 := algebra.projection(v3, x.k)
    v6 := algebra.projection(v3, x.a)
    v9 := algebra.projection(v4, y.b)
    v11 := batcalc.<(v6, v9)
    v12 := algebra.mask2cand(v11)
    v13 := algebra.projection(v12, v5)
    v19 := sql.resultset(('k',), v13)
    return v19;
--
continuous select [0]
  from [4]
    basket lt [1]
    basket rt [1]
  where [3]
  project [0]
  result [1]""",
    ),
    ("shape:join-cross-residual", "incremental"): (
        """\
function q(x.k, x.a, x.dc_time, y.k, y.b, y.dc_time):
    v1 := algebra.densecands(x.k)
    v2 := algebra.densecands(y.k)
    v3, v4 := algebra.join(x.k, y.k)
    v5 := algebra.projection(v3, x.k)
    v6 := algebra.projection(v3, x.a)
    v9 := algebra.projection(v4, y.b)
    v11 := batcalc.<(v6, v9)
    v12 := algebra.mask2cand(v11)
    v13 := algebra.projection(v12, v5)
    v19 := sql.resultset(('k',), v13)
    return v19;
--
continuous select [0]
  from [4]
    basket lt [1]
    basket rt [1]
  where [3]
  project [0]
  result [1]""",
    ),
    ("shape:join-distinct", "reeval"): (
        """\
function q(x.k, x.a, x.dc_time, y.k, y.b, y.dc_time):
    v1 := algebra.densecands(x.k)
    v2 := algebra.densecands(y.k)
    v3, v4 := algebra.join(x.k, y.k)
    v5 := algebra.projection(v3, x.k)
    v11, v12, v13 := group.group(v5)
    v14 := algebra.projection(v12, v5)
    v15 := sql.resultset(('k',), v14)
    return v15;
--
continuous select [0]
  from [2]
    basket lt [1]
    basket rt [1]
  project [0]
  distinct [2]
  result [1]""",
    ),
    ("shape:join-distinct", "incremental"): (
        """\
function q(x.k, x.a, x.dc_time, y.k, y.b, y.dc_time):
    v1 := algebra.densecands(x.k)
    v2 := algebra.densecands(y.k)
    v3, v4 := algebra.join(x.k, y.k)
    v5 := algebra.projection(v3, x.k)
    v11, v12, v13 := group.group(v5)
    v14 := algebra.projection(v12, v5)
    v15 := sql.resultset(('k',), v14)
    return v15;
--
continuous select [0]
  from [2]
    basket lt [1]
    basket rt [1]
  project [0]
  distinct [2]
  result [1]""",
    ),
    ("shape:join-expression-item", "reeval"): (
        """\
function q(x.k, x.a, x.dc_time, y.k, y.b, y.dc_time):
    v1 := algebra.densecands(x.k)
    v2 := algebra.densecands(y.k)
    v3, v4 := algebra.join(x.k, y.k)
    v5 := algebra.projection(v3, x.k)
    v11 := batcalc.const(1, v5, 'lng')
    v12 := batcalc.+(v5, v11)
    v13 := sql.resultset(('col0',), v12)
    return v13;
--
continuous select [0]
  from [2]
    basket lt [1]
    basket rt [1]
  project [2]
  result [1]""",
    ),
    ("shape:join-expression-item", "incremental"): (
        """\
function q(x.k, x.a, x.dc_time, y.k, y.b, y.dc_time):
    v1 := algebra.densecands(x.k)
    v2 := algebra.densecands(y.k)
    v3, v4 := algebra.join(x.k, y.k)
    v5 := algebra.projection(v3, x.k)
    v11 := batcalc.const(1, v5, 'lng')
    v12 := batcalc.+(v5, v11)
    v13 := sql.resultset(('col0',), v12)
    return v13;
--
continuous select [0]
  from [2]
    basket lt [1]
    basket rt [1]
  project [2]
  result [1]""",
    ),
    ("shape:join-side-filters", "reeval"): (
        """\
function q(x.k, x.a, x.dc_time, y.k, y.b, y.dc_time):
    v1 := algebra.densecands(x.k)
    v2 := algebra.densecands(y.k)
    v3, v4 := algebra.join(x.k, y.k)
    v5 := algebra.projection(v3, x.k)
    v6 := algebra.projection(v3, x.a)
    v9 := algebra.projection(v4, y.b)
    v11 := algebra.thetaselect(v6, None, '>', 1)
    v12 := algebra.thetaselect(v9, v11, '<', 5)
    v13 := algebra.projection(v12, v5)
    v17 := algebra.projection(v12, v9)
    v19 := sql.resultset(('k', 'bee'), v13, v17)
    return v19;
--
continuous select [0]
  from [4]
    basket lt [1]
    basket rt [1]
  where [4]
  project [0]
  result [1]""",
    ),
    ("shape:join-side-filters", "incremental"): (
        """\
function q[0](x.k, x.a, x.dc_time):
    v1 := algebra.densecands(x.k)
    v2 := algebra.thetaselect(x.a, None, '>', 1)
    v3 := algebra.projection(v2, x.k)
    v6 := sql.resultset(('__c0',), v3)
    return v6;
--
continuous select [0]
  from [0]
    basket lt [1]
  where [2]
  project [0]
  result [1]""",
        """\
function q[1](y.k, y.b, y.dc_time):
    v1 := algebra.densecands(y.k)
    v2 := algebra.thetaselect(y.b, None, '<', 5)
    v3 := algebra.projection(v2, y.k)
    v4 := algebra.projection(v2, y.b)
    v6 := sql.resultset(('__c0', '__c1'), v3, v4)
    return v6;
--
continuous select [0]
  from [0]
    basket rt [1]
  where [3]
  project [0]
  result [1]""",
    ),
    ("shape:limit", "reeval"): (
        """\
function q(x.a, x.b, x.dc_time):
    v1 := algebra.densecands(x.a)
    v2 := algebra.slice(x.a, 0, 3)
    v3 := sql.resultset(('a',), v2)
    return v3;
--
continuous select [0]
  from [0]
    basket feed [1]
  project [0]
  limit [1]
  result [1]""",
    ),
    ("shape:limit", "incremental"): (
        """\
function q(x.a, x.b, x.dc_time):
    v1 := algebra.densecands(x.a)
    v2 := algebra.slice(x.a, 0, 3)
    v3 := sql.resultset(('a',), v2)
    return v3;
--
continuous select [0]
  from [0]
    basket feed [1]
  project [0]
  limit [1]
  result [1]""",
    ),
    ("shape:subquery", "reeval"): (
        """\
function q(x.a, x.b, x.dc_time):
    v1 := algebra.densecands(x.a)
    v2 := sql.resultset(('a',), x.a)
    return v2;
--
continuous select [0]
  from [0]
    subquery [0]
      from [0]
        basket feed [1]
      project [0]
  project [0]
  result [1]""",
    ),
    ("shape:subquery", "incremental"): (
        """\
function q(x.a, x.b, x.dc_time):
    v1 := algebra.densecands(x.a)
    v2 := sql.resultset(('a',), x.a)
    return v2;
--
continuous select [0]
  from [0]
    subquery [0]
      from [0]
        basket feed [1]
      project [0]
  project [0]
  result [1]""",
    ),
    # added with the fixes for ungrouped HAVING, repeated output names
    # and the window select list
    ("having:ungrouped", "reeval"): (
        """\
function q(x.k, x.v, x.dc_time):
    v1 := algebra.densecands(x.k)
    v2 := batcalc.const(0, x.v, 'oid')
    v3 := aggr.subsum(x.v, v2, 1)
    v4 := batcalc.const(100, v3, 'lng')
    v5 := batcalc.>(v3, v4)
    v6 := algebra.mask2cand(v5)
    v7 := algebra.projection(v6, v3)
    v8 := sql.resultset(('sum',), v7)
    return v8;
--
continuous select [0]
  from [0]
    basket s [1]
  aggregate [6]
  result [1]""",
    ),
    ("having:ungrouped", "incremental"): (
        """\
function q(x.k, x.v, x.dc_time):
    v1 := algebra.densecands(x.k)
    v2 := batcalc.const(0, x.v, 'oid')
    v3 := aggr.subsum(x.v, v2, 1)
    v4 := batcalc.const(100, v3, 'lng')
    v5 := batcalc.>(v3, v4)
    v6 := algebra.mask2cand(v5)
    v7 := algebra.projection(v6, v3)
    v8 := sql.resultset(('sum',), v7)
    return v8;
--
continuous select [0]
  from [0]
    basket s [1]
  aggregate [6]
  result [1]""",
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


@pytest.mark.parametrize("execution", ["reeval", "incremental"])
@pytest.mark.parametrize("name", sorted(QUERIES))
def test_programs_match_golden(name, execution):
    assert stage_programs(QUERIES[name], execution) == PROGRAMS.get(
        (name, execution)
    )
