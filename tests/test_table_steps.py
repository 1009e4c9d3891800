"""Stream ⋈ table joins at the cost of their probe.

A program's table steps (the steps that read only tables) run once per
table version, and an integral join key's index stays on the build BAT
(:mod:`repro.kernel.interpreter`, :mod:`repro.kernel.join`).  Checked
here: a continuous join sees every table change (appends, truncates,
reloads of the same size) exactly as a one-time SELECT over each
firing's batch does; the cached join index agrees with an uncached one,
pair order included; and telemetry counts only the steps that ran.
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import DataCell, LogicalClock
from repro.core import receptor as receptor_mod
from repro.kernel.bat import bat_from_values
from repro.kernel.join import hash_join
from repro.kernel.types import AtomType

GROUPED = (
    "select d.g, sum(t.v), count(t.v) from [select * from s] as t "
    "join dim d on t.k = d.k group by d.g"
)
LINEAR = (
    "select t.k, t.v, d.g from [select * from s2] as t "
    "join dim d on t.k = d.k"
)
#: the same queries, one-time, over a table ``b`` holding one batch
ONE_TIME = {
    "grouped": "select d.g, sum(t.v), count(t.v) from b t "
               "join dim d on t.k = d.k group by d.g",
    "linear": "select t.k, t.v, d.g from b t join dim d on t.k = d.k",
}
SQL_ATOM = {AtomType.INT: "int", AtomType.LNG: "bigint"}


def join_cell(atom):
    cell = DataCell()
    kind = SQL_ATOM[atom]
    for ddl in (f"create basket s (k {kind}, v int)",
                f"create basket s2 (k {kind}, v int)",
                f"create table dim (k {kind}, g int)",
                f"create table b (k {kind}, v int)"):
        cell.execute(ddl)
    queries = {"grouped": cell.submit_continuous(GROUPED, name="grouped"),
               "linear": cell.submit_continuous(LINEAR, name="linear")}
    return cell, queries


def fire(cell, queries, batch):
    """One firing of both queries on ``batch``; returns, per query, the
    continuous result and the one-time SELECT's over the same batch."""
    cell.insert("s", batch)
    cell.insert("s2", batch)
    cell.run_until_quiescent()
    cell.catalog.get("b").truncate()
    cell.insert("b", batch)
    return {
        name: (sorted(query.fetch(), key=repr),
               sorted(cell.query(ONE_TIME[name]), key=repr))
        for name, query in queries.items()
    }


def keys_of(atom):
    wide = [2**40, -(2**40)] if atom is AtomType.LNG else []
    return st.one_of(
        st.none(),
        st.integers(-8, 24),  # dense: duplicates, gaps, negatives
        st.sampled_from([-(2**31) + 1, 2**31 - 1, 10**6, *wide]),  # sparse
    )


@st.composite
def episodes(draw):
    atom = draw(st.sampled_from([AtomType.INT, AtomType.LNG]))
    keys = keys_of(atom)
    row = st.tuples(keys, st.integers(0, 5))
    initial = table = draw(st.lists(row, max_size=12))
    steps = []
    for _ in range(draw(st.integers(1, 5))):
        change = draw(st.sampled_from(
            ["none", "none", "append", "truncate", "reload"]))
        if change == "reload":  # as many rows as before, new values
            table = rows = draw(st.lists(
                row, min_size=len(table), max_size=len(table)))
        elif change == "append":
            rows = draw(st.lists(row, max_size=12))
            table = table + rows
        else:
            rows = []
            table = [] if change == "truncate" else table
        batch = draw(st.lists(st.tuples(keys, st.integers(-50, 50)),
                              min_size=1, max_size=16))
        steps.append((change, rows, batch))
    return atom, initial, steps


class TestTableChangesAreSeen:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(episodes())
    def test_continuous_join_equals_one_time_select(self, episode):
        atom, initial, steps = episode
        cell, queries = join_cell(atom)
        dim = cell.catalog.get("dim")
        cell.insert("dim", initial)
        for change, rows, batch in steps:
            if change in ("truncate", "reload"):
                dim.truncate()
            if rows:
                cell.insert("dim", rows)
            for name, (got, expected) in fire(cell, queries, batch).items():
                assert got == expected, (name, change)

    def test_a_reload_of_the_same_size_is_seen(self):
        # a truncate swaps in new BATs (hseqbase past the old rows); the
        # reload brings the count back to what the saved steps saw
        cell, queries = join_cell(AtomType.INT)
        dim = cell.catalog.get("dim")
        cell.insert("dim", [(1, 10), (2, 20)])
        fire(cell, queries, [(1, 5), (2, 6)])
        dim.truncate()
        cell.insert("dim", [(1, 30), (2, 40)])
        assert dim.bat("k").hseqbase == 2
        for got, expected in fire(cell, queries, [(1, 5), (2, 6)]).values():
            assert got == expected
        assert sorted(cell.query(ONE_TIME["grouped"])) == [
            (30, 5, 1), (40, 6, 1)]

    def test_an_unchanged_table_reuses_its_steps(self):
        cell, queries = join_cell(AtomType.INT)
        cell.insert("dim", [(k, k % 3) for k in range(50)])
        program = queries["grouped"].program()
        for firing in range(4):
            fire(cell, queries, [(firing, 1), (7, 2)])
        table = program._bound.table
        assert table is not None and table.hit
        scan = [n for n in program.nodes.values()
                if n.label == "scan dim"][0]
        assert program.table_runs[scan.node_id] == [1, 4]
        cell.insert("dim", [(50, 0)])
        fire(cell, queries, [(50, 1)])
        assert program.table_runs[scan.node_id] == [2, 5]


def _reference(left, right):
    """Nested loop: pairs in probe order, one probe row's matches in
    build position order; NULL never joins."""
    lv, rv = left.python_list(), right.python_list()
    return [
        (i + left.hseqbase, j + right.hseqbase)
        for i, x in enumerate(lv) if x is not None
        for j, y in enumerate(rv) if y is not None and x == y
    ]


def _pairs(left, result):
    """A join's oid pairs, its all-rows left side (``None``) spelt out."""
    lefts, rights = result
    if lefts is None:
        lefts = left.head_oids()
    return list(zip(lefts.tolist(), rights.tolist()))


class TestCachedJoinIndex:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_cached_index_matches_the_uncached_path(self, data):
        latom = data.draw(st.sampled_from([AtomType.INT, AtomType.LNG]))
        ratom = data.draw(st.sampled_from([AtomType.INT, AtomType.LNG]))
        keys = keys_of(AtomType.LNG if AtomType.LNG in (latom, ratom)
                       else AtomType.INT)
        if latom is AtomType.INT or ratom is AtomType.INT:
            keys = keys.filter(lambda k: k is None or abs(k) < 2**31)
        left = bat_from_values(latom, data.draw(st.lists(keys)),
                               hseqbase=data.draw(st.integers(0, 5)))
        right = bat_from_values(ratom, data.draw(st.lists(keys)),
                                hseqbase=data.draw(st.integers(0, 5)))
        first = _pairs(left, hash_join(left, right))
        assert right.join_index is not None
        assert right.join_index.count == right.count
        cached = _pairs(left, hash_join(left, right))
        # explicit candidates over the whole build side: indexed per call
        uncached = _pairs(left, hash_join(left, right, None, right.head_oids()))
        assert first == cached == uncached == _reference(left, right)
        # an append moves count past the kept index: it is rebuilt
        right.append_many(data.draw(st.lists(keys, min_size=1)))
        assert _pairs(left, hash_join(left, right)) == _reference(left, right)
        assert right.join_index.count == right.count

    def test_an_int_nil_never_meets_its_value_as_a_bigint(self):
        left = bat_from_values(AtomType.INT, [None, 5])
        right = bat_from_values(AtomType.LNG, [-(2**31), 5, -(2**31) + 1])
        for _ in range(2):
            assert _pairs(left, hash_join(left, right)) == [(1, 1)]

    def test_a_float_probe_reads_an_integer_build_side(self):
        left = bat_from_values(AtomType.DBL, [2.0, 2.5, None])
        right = bat_from_values(AtomType.INT, [2, 3, 2])
        assert _pairs(left, hash_join(left, right)) == [(0, 0), (0, 2)]
        assert right.join_index is None  # float keys are indexed per call


def _blocked_cell():
    cell = DataCell(clock=LogicalClock())
    cell.execute("create basket pkts (src varchar(15), port int)")
    cell.execute("create table blocklist (host varchar(15))")
    cell.execute("insert into blocklist values ('10.0.0.7'), ('10.0.0.13')")
    query = cell.submit_continuous(
        "select p.src, p.port from [select * from pkts] as p "
        "join blocklist b on p.src = b.host",
        name="blocked",
    )
    return cell, query


class TestTelemetryCountsWhatRan:
    def test_skipped_steps_add_no_invocations(self):
        cell, query = _blocked_cell()
        for firing in range(5):
            cell.insert("pkts", [("10.0.0.7", firing), ("10.0.0.1", 1)])
            cell.run_until_quiescent()
        assert len(query.fetch()) == 5
        profile = cell.interpreter.profile()
        # the table side: bind every firing, scan and rebase once; the
        # stream side's densecands every firing
        assert profile["sql.bind"]["calls"] == 5
        assert profile["algebra.densecands"]["calls"] == 5 + 1
        assert profile["algebra.join"]["calls"] == 5
        for key in ("sql.bind", "algebra.densecands", "algebra.join"):
            assert cell.metrics.value(
                "datacell_mal_opcode_invocations_total", (key,)
            ) == profile[key]["calls"]
        text = query.explain_analyze()
        scan = [line for line in text.splitlines() if "scan blocklist" in line]
        assert scan and "once per table version: computed 1 of 5 runs" in (
            scan[0])
        assert "calls=7," in scan[0]  # 5 binds, one densecands + projection

    def test_a_traced_reuse_shows_no_table_side_opcodes(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(receptor_mod, "SAMPLE_EVERY", 1)
        cell, _ = _blocked_cell()
        receptor = cell.add_receptor("tap", ["pkts"])
        for firing in range(2):
            receptor.channel.push(f"10.0.0.7, {firing}")
            cell.run_until_quiescent()
        path = str(tmp_path / "trace.json")
        cell.export_chrome_trace(path)
        with open(path) as handle:
            events = json.load(handle)["traceEvents"]
        factories = [e for e in events if e["cat"] == "factory"]
        opcodes = [
            [e["name"] for e in events if e["cat"] == "opcode"
             and e["args"].get("parent_id") == f["args"]["span_id"]]
            for f in sorted(factories, key=lambda e: e["ts"])
        ]
        assert [ops.count("algebra.projection") for ops in opcodes] == [3, 2]
        assert [ops.count("algebra.densecands") for ops in opcodes] == [2, 1]
        assert all(ops.count("sql.bind") == 1 for ops in opcodes)


def test_a_program_without_a_table_keeps_one_step_list():
    cell = DataCell()
    cell.execute("create basket s (k int, v int)")
    query = cell.submit_continuous(
        "select t.k from [select * from s where s.v > 1] as t")
    cell.insert("s", [(1, 2)])
    cell.run_until_quiescent()
    bound = query.program()._bound
    assert bound.table is None and bound.segments == (bound.steps,)
