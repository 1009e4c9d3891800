"""Routing golden: which plan every continuous query registers, per form.

Each query is registered in its two forms, named after the route each
takes: ``"reeval"`` registers the continuous SELECT itself (re-evaluated
over each firing's tuples), and ``"incremental"`` registers it as
``create view q as <select>`` (maintained by a Z-set circuit).  For each
this records the plan class, the output basket's schema (names and
atoms) and ``weighted`` — or, for a rejected query, the error class and
message.  The golden was captured before the SQL lowering was folded
into one resolver and one registration path; the queries are every
``analysis.corpus`` GOOD query, every ``simtest`` oracle case (linear,
aggregate and join) and the queries of ``tests/test_sql_window_syntax.py``
and ``tests/test_incremental_engine.py``, plus one query per row of the
incremental circuit's shape matrix.

When views replaced the engine-wide execution mode, each entry of the
incremental form kept its plan, schema and programs where the mode had
compiled a circuit.  Where the mode had fallen back to re-eval, the view
is a ``BindError`` carrying the recorded fallback reason.  A linear
query, a WINDOW query and a join without an equi key, which the mode
ran on their SELECT plans, are each a ``BindError`` that says so.

``PROGRAMS`` pins, per query and form, each registered MAL stage's
optimized program text and its plan-node tree, captured before the
SELECT resolver replaced the per-generator clause readers.  A planner
change that alters a program updates its entry on purpose.
"""

import pytest

from repro import DataCell
from repro.analysis.corpus import GOOD_QUERIES
from repro.simtest.oracle import AGG_CASES, JOIN_CASE, ORACLE_CASES

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
    # a corpus view's golden entries are its SELECT's
    **{
        f"corpus:{name}": sql.split(" as ", 1)[1]
        if sql.startswith("create view ") else sql
        for name, sql in GOOD_QUERIES
    },
    **{f"oracle:{n}": c.continuous_sql for n, c in ORACLE_CASES.items()},
    **{f"oracle:{n}": c.continuous_sql for n, c in AGG_CASES.items()},
    "oracle:join": JOIN_CASE.continuous_sql,
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

#: the two forms of a query (see the module docstring)
FORMS = {"reeval": "{}", "incremental": "create view q as {}"}


def _cell():
    cell = DataCell()
    for statement in SCHEMA.split(";"):
        cell.execute(statement)
    return cell


def route(sql, form):
    """The routing record of ``sql`` in ``form`` on a fresh cell."""
    cell = _cell()
    try:
        handle = cell.submit_continuous(FORMS[form].format(sql), name="q")
    except Exception as exc:  # a rejection is part of the routing
        return ("error", type(exc).__name__, str(exc))
    finally:
        cell.stop()
    schema = " ".join(
        f"{c.name}:{c.atom.name}" for c in cell.basket("q_out").user_columns
    )
    return (type(handle.factory.plan).__name__, schema, handle.weighted)


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


def stage_programs(sql, form):
    """The rendered MAL stages ``sql`` in ``form`` registers, or None for
    a window plan or a rejected query."""
    cell = _cell()
    try:
        handle = cell.submit_continuous(FORMS[form].format(sql), name="q")
    except Exception:
        return None
    finally:
        cell.stop()
    stages = getattr(handle.factory.plan, "stages", None)
    if stages is None:
        return None
    return tuple(_render_stage(stage.program) for stage in stages)


#: the rejections of a linear and of a WINDOW query's view
LINEAR_VIEW = (
    "a linear query has no circuit: its continuous SELECT already emits "
    "each firing's delta"
)
WINDOW_VIEW = (
    "a WINDOW query has no circuit: its continuous SELECT emits one row "
    "per closed window"
)

GOLDEN = {
    ("corpus:arith-projection", "incremental"): (
        "error", "BindError", LINEAR_VIEW,
    ),
    ("corpus:arith-projection", "reeval"): (
        "MalContinuousPlan", "sym:STR col1:DBL col2:INT", False,
    ),
    ("corpus:between-in", "incremental"): ("error", "BindError", LINEAR_VIEW),
    ("corpus:between-in", "reeval"): (
        "MalContinuousPlan", "sym:STR", False,
    ),
    ("corpus:case-when", "incremental"): ("error", "BindError", LINEAR_VIEW),
    ("corpus:case-when", "reeval"): (
        "MalContinuousPlan", "sym:STR col1:LNG", False,
    ),
    ("corpus:distinct", "incremental"): (
        "error",
        "BindError",
        "DISTINCT is not linear over multisets (dedup needs integrated state)",
    ),
    ("corpus:distinct", "reeval"): (
        "MalContinuousPlan", "sym:STR", False,
    ),
    ("corpus:group-by-all-aggregates", "incremental"): (
        "error",
        "BindError",
        "all aggregates must target the same stream column",
    ),
    ("corpus:group-by-all-aggregates", "reeval"): (
        "MalContinuousPlan",
        "sym:STR sum:LNG count:LNG avg:DBL min:INT max:DBL",
        False,
    ),
    ("corpus:group-min-int", "incremental"): (
        "CircuitContinuousPlan", "sym:STR min:INT max:INT dc_weight:LNG", True,
    ),
    ("corpus:group-min-int", "reeval"): (
        "MalContinuousPlan", "sym:STR min:INT max:INT", False,
    ),
    ("corpus:incremental-aggregate", "incremental"): (
        "CircuitContinuousPlan",
        "sym:STR sum:LNG count:LNG dc_weight:LNG",
        True,
    ),
    ("corpus:incremental-aggregate", "reeval"): (
        "MalContinuousPlan", "sym:STR sum:LNG count:LNG", False,
    ),
    ("corpus:incremental-join", "incremental"): (
        "CircuitContinuousPlan",
        "sym:STR price:DBL sector:STR dc_weight:LNG",
        True,
    ),
    ("corpus:incremental-join", "reeval"): (
        "MalContinuousPlan", "sym:STR price:DBL sector:STR", False,
    ),
    ("corpus:incremental-lift", "incremental"): (
        "error", "BindError", LINEAR_VIEW,
    ),
    ("corpus:incremental-lift", "reeval"): (
        "MalContinuousPlan", "sym:STR price:DBL", False,
    ),
    ("corpus:inner-filter", "incremental"): (
        "error", "BindError", LINEAR_VIEW,
    ),
    ("corpus:inner-filter", "reeval"): (
        "MalContinuousPlan", "price:DBL qty:INT sym:STR", False,
    ),
    ("corpus:inner-limit", "incremental"): ("error", "BindError", LINEAR_VIEW),
    ("corpus:inner-limit", "reeval"): (
        "MalContinuousPlan", "price:DBL qty:INT sym:STR", False,
    ),
    ("corpus:isnull", "incremental"): ("error", "BindError", LINEAR_VIEW),
    ("corpus:isnull", "reeval"): (
        "MalContinuousPlan", "sym:STR", False,
    ),
    ("corpus:math-functions", "incremental"): (
        "error", "BindError", LINEAR_VIEW,
    ),
    ("corpus:math-functions", "reeval"): (
        "MalContinuousPlan", "abs:DBL sqrt:DBL round:DBL floor:LNG", False,
    ),
    ("corpus:outer-filter", "incremental"): (
        "error", "BindError", LINEAR_VIEW,
    ),
    ("corpus:outer-filter", "reeval"): (
        "MalContinuousPlan", "sym:STR price:DBL", False,
    ),
    ("corpus:passthrough", "incremental"): ("error", "BindError", LINEAR_VIEW),
    ("corpus:passthrough", "reeval"): (
        "MalContinuousPlan", "price:DBL qty:INT sym:STR", False,
    ),
    ("corpus:scalar-aggregates", "incremental"): (
        "error",
        "BindError",
        "all aggregates must target the same stream column",
    ),
    ("corpus:scalar-aggregates", "reeval"): (
        "MalContinuousPlan", "sum:DBL count:LNG avg:DBL", False,
    ),
    ("corpus:string-functions", "incremental"): (
        "error", "BindError", LINEAR_VIEW,
    ),
    ("corpus:string-functions", "reeval"): (
        "MalContinuousPlan", "upper:STR length:INT substring:STR", False,
    ),
    ("engine:aggregate", "incremental"): (
        "CircuitContinuousPlan",
        "a:INT sum:LNG count:LNG min:INT max:INT dc_weight:LNG",
        True,
    ),
    ("engine:aggregate", "reeval"): (
        "MalContinuousPlan", "a:INT sum:LNG count:LNG min:INT max:INT", False,
    ),
    ("engine:distinct", "incremental"): (
        "error",
        "BindError",
        "DISTINCT is not linear over multisets (dedup needs integrated state)",
    ),
    ("engine:distinct", "reeval"): (
        "MalContinuousPlan", "a:INT", False,
    ),
    ("engine:group-sum", "incremental"): (
        "CircuitContinuousPlan", "a:INT sum:LNG dc_weight:LNG", True,
    ),
    ("engine:group-sum", "reeval"): (
        "MalContinuousPlan", "a:INT sum:LNG", False,
    ),
    ("engine:join", "incremental"): (
        "CircuitContinuousPlan", "k:INT a:INT b:INT dc_weight:LNG", True,
    ),
    ("engine:join", "reeval"): (
        "MalContinuousPlan", "k:INT a:INT b:INT", False,
    ),
    ("engine:linear", "incremental"): ("error", "BindError", LINEAR_VIEW),
    ("engine:linear", "reeval"): (
        "MalContinuousPlan", "a:INT b:INT", False,
    ),
    ("engine:linear-one-column", "incremental"): (
        "error", "BindError", LINEAR_VIEW,
    ),
    ("engine:linear-one-column", "reeval"): (
        "MalContinuousPlan", "a:INT", False,
    ),
    ("engine:window", "incremental"): ("error", "BindError", WINDOW_VIEW),
    ("engine:window", "reeval"): (
        "WindowAggregatePlan",
        "window_id:LNG k:INT sum:LNG min:INT count_star:LNG",
        False,
    ),
    ("having:ungrouped", "incremental"): (
        "error",
        "BindError",
        "HAVING over incremental aggregates is not supported yet",
    ),
    ("having:ungrouped", "reeval"): (
        "MalContinuousPlan", "sum:LNG", False,
    ),
    ("names:repeated-aggregate", "incremental"): (
        "error",
        "BindError",
        "duplicate output column 'count': give the item an alias (AS ...)",
    ),
    ("names:repeated-aggregate", "reeval"): (
        "error",
        "BindError",
        "duplicate output column 'count': give the item an alias (AS ...)",
    ),
    ("names:repeated-distinct", "incremental"): (
        "error",
        "BindError",
        "duplicate output column 'k': give the item an alias (AS ...)",
    ),
    ("names:repeated-distinct", "reeval"): (
        "error",
        "BindError",
        "duplicate output column 'k': give the item an alias (AS ...)",
    ),
    ("names:repeated-window", "incremental"): (
        "error", "BindError", WINDOW_VIEW,
    ),
    ("names:repeated-window", "reeval"): (
        "error",
        "BindError",
        "duplicate output column 'sum': give the item an alias (AS ...)",
    ),
    ("oracle:agg_filtered", "incremental"): (
        "CircuitContinuousPlan", "a:INT sum:LNG avg:DBL dc_weight:LNG", True,
    ),
    ("oracle:agg_filtered", "reeval"): (
        "MalContinuousPlan", "a:INT sum:LNG avg:DBL", False,
    ),
    ("oracle:agg_global", "incremental"): (
        "CircuitContinuousPlan",
        "count:LNG sum:LNG min:INT dc_weight:LNG",
        True,
    ),
    ("oracle:agg_global", "reeval"): (
        "MalContinuousPlan", "count:LNG sum:LNG min:INT", False,
    ),
    ("oracle:agg_grouped", "incremental"): (
        "CircuitContinuousPlan",
        "a:INT sum:LNG count:LNG min:INT max:INT dc_weight:LNG",
        True,
    ),
    ("oracle:agg_grouped", "reeval"): (
        "MalContinuousPlan", "a:INT sum:LNG count:LNG min:INT max:INT", False,
    ),
    ("oracle:arith", "incremental"): ("error", "BindError", LINEAR_VIEW),
    ("oracle:arith", "reeval"): (
        "MalContinuousPlan", "col0:INT", False,
    ),
    ("oracle:compound", "incremental"): ("error", "BindError", LINEAR_VIEW),
    ("oracle:compound", "reeval"): (
        "MalContinuousPlan", "a:INT b:INT", False,
    ),
    ("oracle:disjunct", "incremental"): ("error", "BindError", LINEAR_VIEW),
    ("oracle:disjunct", "reeval"): (
        "MalContinuousPlan", "b:INT", False,
    ),
    ("oracle:filter", "incremental"): ("error", "BindError", LINEAR_VIEW),
    ("oracle:filter", "reeval"): (
        "MalContinuousPlan", "a:INT b:INT", False,
    ),
    ("oracle:join", "incremental"): (
        "CircuitContinuousPlan", "k:INT a:INT b:INT dc_weight:LNG", True,
    ),
    ("oracle:join", "reeval"): (
        "MalContinuousPlan", "k:INT a:INT b:INT", False,
    ),
    ("oracle:passthrough", "incremental"): ("error", "BindError", LINEAR_VIEW),
    ("oracle:passthrough", "reeval"): (
        "MalContinuousPlan", "a:INT b:INT", False,
    ),
    ("shape:aggregate-order", "incremental"): (
        "error",
        "BindError",
        "ORDER BY / LIMIT / DISTINCT do not compose with delta aggregate "
        "output",
    ),
    ("shape:aggregate-order", "reeval"): (
        "MalContinuousPlan", "a:INT sum:LNG", False,
    ),
    ("shape:aggregate-over-join", "incremental"): (
        "error",
        "BindError",
        "aggregate circuits need exactly one basket expression source",
    ),
    ("shape:aggregate-over-join", "reeval"): (
        "MalContinuousPlan", "sum:LNG", False,
    ),
    ("shape:aggregate-over-subquery", "incremental"): (
        "error", "BindError", "not a continuous query",
    ),
    ("shape:aggregate-over-subquery", "reeval"): (
        "MalContinuousPlan", "sum:LNG", False,
    ),
    ("shape:aliased-aggregate", "incremental"): (
        "CircuitContinuousPlan",
        "key:INT total:LNG count:LNG dc_weight:LNG",
        True,
    ),
    ("shape:aliased-aggregate", "reeval"): (
        "MalContinuousPlan", "key:INT total:LNG count:LNG", False,
    ),
    ("shape:cross-join", "incremental"): (
        "error",
        "BindError",
        "join circuits need an equi-join key (a.k = b.k)",
    ),
    ("shape:cross-join", "reeval"): (
        "MalContinuousPlan", "k:INT b:INT", False,
    ),
    ("shape:distinct-aggregate", "incremental"): (
        "error", "BindError", "DISTINCT aggregates are not supported",
    ),
    ("shape:distinct-aggregate", "reeval"): (
        "error", "BindError", "DISTINCT aggregates are not supported",
    ),
    ("shape:expression-argument", "incremental"): (
        "error",
        "BindError",
        "aggregate arguments must be plain stream columns",
    ),
    ("shape:expression-argument", "reeval"): (
        "MalContinuousPlan", "sum:LNG", False,
    ),
    ("shape:expression-item", "incremental"): (
        "error",
        "BindError",
        "select items must be group keys or aggregate calls",
    ),
    ("shape:expression-item", "reeval"): (
        "MalContinuousPlan", "col0:LNG", False,
    ),
    ("shape:group-expression", "incremental"): (
        "error", "BindError", "GROUP BY must name stream columns directly",
    ),
    ("shape:group-expression", "reeval"): (
        "MalContinuousPlan", "sum:LNG", False,
    ),
    ("shape:group-without-aggregate", "incremental"): (
        "error", "BindError", "no aggregates in the select list",
    ),
    ("shape:group-without-aggregate", "reeval"): (
        "MalContinuousPlan", "a:INT", False,
    ),
    ("shape:having", "incremental"): (
        "error",
        "BindError",
        "HAVING over incremental aggregates is not supported yet",
    ),
    ("shape:having", "reeval"): (
        "MalContinuousPlan", "a:INT sum:LNG", False,
    ),
    ("shape:join-bare-column", "incremental"): (
        "error",
        "BindError",
        "join circuits need qualified column references (got bare 'a')",
    ),
    ("shape:join-bare-column", "reeval"): (
        "MalContinuousPlan", "k:INT", False,
    ),
    ("shape:join-constant", "incremental"): (
        "error",
        "BindError",
        "constant predicates in join WHERE are not supported",
    ),
    ("shape:join-constant", "reeval"): (
        "MalContinuousPlan", "k:INT", False,
    ),
    ("shape:join-cross-residual", "incremental"): (
        "error",
        "BindError",
        "predicates spanning both join sides (beyond the equi key) are not "
        "supported",
    ),
    ("shape:join-cross-residual", "reeval"): (
        "MalContinuousPlan", "k:INT", False,
    ),
    ("shape:join-distinct", "incremental"): (
        "error",
        "BindError",
        "ORDER BY / LIMIT / DISTINCT do not compose with delta join output",
    ),
    ("shape:join-distinct", "reeval"): (
        "MalContinuousPlan", "k:INT", False,
    ),
    ("shape:join-expression-item", "incremental"): (
        "error",
        "BindError",
        "join select items must be qualified column references",
    ),
    ("shape:join-expression-item", "reeval"): (
        "MalContinuousPlan", "col0:LNG", False,
    ),
    ("shape:join-side-filters", "incremental"): (
        "CircuitContinuousPlan", "k:INT bee:INT dc_weight:LNG", True,
    ),
    ("shape:join-side-filters", "reeval"): (
        "MalContinuousPlan", "k:INT bee:INT", False,
    ),
    ("shape:join-star", "incremental"): (
        "error",
        "BindError",
        "join circuits need an explicit select list (no *)",
    ),
    ("shape:join-star", "reeval"): (
        'error', 'CatalogError', "duplicate column 'k'",
    ),
    ("shape:limit", "incremental"): (
        "error",
        "BindError",
        "outer LIMIT truncates per firing, not per stream",
    ),
    ("shape:limit", "reeval"): (
        "MalContinuousPlan", "a:INT", False,
    ),
    ("shape:subquery", "incremental"): (
        "error", "BindError", "not a continuous query",
    ),
    ("shape:subquery", "reeval"): (
        "MalContinuousPlan", "a:INT", False,
    ),
    ("shape:ungrouped-column", "incremental"): (
        "error",
        "BindError",
        "column 'b' must appear in GROUP BY or inside an aggregate",
    ),
    ("shape:ungrouped-column", "reeval"): (
        "error",
        "BindError",
        "column 'x.b' must appear in GROUP BY or inside an aggregate",
    ),
    ("window:alias", "incremental"): ("error", "BindError", WINDOW_VIEW),
    ("window:alias", "reeval"): (
        "WindowAggregatePlan", "window_id:LNG key:INT total:LNG", False,
    ),
    ("window:count-star", "incremental"): ("error", "BindError", WINDOW_VIEW),
    ("window:count-star", "reeval"): (
        "WindowAggregatePlan", "window_id:LNG count_star:LNG", False,
    ),
    ("window:fractional", "incremental"): (
        "error", "DataCellError", "count windows need integer size/slide",
    ),
    ("window:fractional", "reeval"): (
        "error", "DataCellError", "count windows need integer size/slide",
    ),
    ("window:group-key-atom", "incremental"): (
        "error", "BindError", WINDOW_VIEW,
    ),
    ("window:group-key-atom", "reeval"): (
        "WindowAggregatePlan",
        "window_id:LNG k:INT sum:LNG count_star:LNG",
        False,
    ),
    ("window:grouped", "incremental"): ("error", "BindError", WINDOW_VIEW),
    ("window:grouped", "reeval"): (
        "WindowAggregatePlan", "window_id:LNG sym:STR sum:DBL", False,
    ),
    ("window:inner-where", "incremental"): ("error", "BindError", WINDOW_VIEW),
    ("window:inner-where", "reeval"): (
        "error",
        "SqlError",
        "WINDOW queries: the basket expression must be [select * from "
        "<basket>]",
    ),
    ("window:item-order", "incremental"): ("error", "BindError", WINDOW_VIEW),
    ("window:item-order", "reeval"): (
        "WindowAggregatePlan", "window_id:LNG sum:LNG k:INT", False,
    ),
    ("window:key-and-count", "incremental"): (
        "error", "BindError", WINDOW_VIEW,
    ),
    ("window:key-and-count", "reeval"): (
        "WindowAggregatePlan", "window_id:LNG sym:STR count_star:LNG", False,
    ),
    ("window:mixed-columns", "incremental"): (
        "error", "BindError", WINDOW_VIEW,
    ),
    ("window:mixed-columns", "reeval"): (
        "error",
        "SqlError",
        "WINDOW queries: all aggregates must target the same stream column",
    ),
    ("window:non-aggregate", "incremental"): (
        "error", "BindError", WINDOW_VIEW,
    ),
    ("window:non-aggregate", "reeval"): (
        "error",
        "SqlError",
        "WINDOW queries: column 'price' must appear in GROUP BY or inside an "
        "aggregate",
    ),
    ("window:order-by", "incremental"): ("error", "BindError", WINDOW_VIEW),
    ("window:order-by", "reeval"): (
        "error",
        "SqlError",
        "WINDOW queries: only aggregates, one stream, and GROUP BY are "
        "supported",
    ),
    ("window:plain-table", "incremental"): ("error", "BindError", WINDOW_VIEW),
    ("window:plain-table", "reeval"): (
        "error",
        "SqlError",
        "WINDOW queries: FROM must be a single basket expression",
    ),
    ("window:sliding", "incremental"): ("error", "BindError", WINDOW_VIEW),
    ("window:sliding", "reeval"): (
        "WindowAggregatePlan", "window_id:LNG avg:DBL max:DBL", False,
    ),
    ("window:time", "incremental"): ("error", "BindError", WINDOW_VIEW),
    ("window:time", "reeval"): (
        "WindowAggregatePlan", "window_id:LNG sum:DBL", False,
    ),
    ("window:tumbling", "incremental"): ("error", "BindError", WINDOW_VIEW),
    ("window:tumbling", "reeval"): (
        "WindowAggregatePlan", "window_id:LNG sum:DBL", False,
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
}


@pytest.mark.parametrize("form", list(FORMS))
@pytest.mark.parametrize("name", sorted(QUERIES))
def test_routing_matches_golden(name, form):
    assert route(QUERIES[name], form) == GOLDEN[name, form]


@pytest.mark.parametrize("form", list(FORMS))
@pytest.mark.parametrize("name", sorted(QUERIES))
def test_programs_match_golden(name, form):
    assert stage_programs(QUERIES[name], form) == PROGRAMS.get((name, form))
