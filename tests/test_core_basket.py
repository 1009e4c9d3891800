"""Unit and property tests for baskets (the key DataCell structure)."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro import DataCell
from repro.core.basket import Basket, TIME_COLUMN
from repro.core.clock import LogicalClock
from repro.errors import BasketError
from repro.kernel.bat import bat_from_values
from repro.kernel.catalog import Catalog
from repro.kernel.interpreter import MalInterpreter
from repro.kernel.mal import ResultSet
from repro.kernel.types import AtomType
from repro.obs.metrics import MetricsRegistry
from repro.sql.compiler import compile_select
from repro.sql.parser import parse_statement
from repro.testing import current_seed


@pytest.fixture
def clock():
    return LogicalClock()


@pytest.fixture
def basket(clock):
    return Basket("b", [("v", AtomType.INT), ("s", AtomType.STR)], clock)


class TestSchema:
    def test_implicit_time_column(self, basket):
        assert basket.schema.has(TIME_COLUMN)
        assert [c.name for c in basket.user_columns] == ["v", "s"]

    def test_reserved_names_rejected(self, clock):
        with pytest.raises(BasketError):
            Basket("b", [("dc_time", AtomType.INT)], clock)
        with pytest.raises(BasketError):
            Basket("b", [("dc_seq", AtomType.INT)], clock)

    def test_is_basket_flag(self, basket):
        assert basket.is_basket


class TestIngest:
    def test_insert_stamps_time(self, basket, clock):
        clock.advance(5.0)
        basket.insert_rows([(1, "x")])
        assert basket.rows() == [(1, "x", 5.0)]

    def test_explicit_timestamp(self, basket):
        basket.insert_rows([(1, "x")], timestamp=9.5)
        assert basket.rows()[0][2] == 9.5

    def test_arity_checked(self, basket):
        with pytest.raises(BasketError):
            basket.insert_rows([(1,)])

    def test_empty_insert_is_noop(self, basket):
        assert basket.insert_rows([]) == 0

    def test_insert_columns(self, basket):
        n = basket.insert_columns(
            {
                "v": np.array([1, 2], dtype=np.int32),
                "s": np.array(["a", "b"], dtype=object),
            }
        )
        assert n == 2 and basket.count == 2

    def test_insert_columns_must_cover_user_schema(self, basket):
        with pytest.raises(BasketError):
            basket.insert_columns({"v": np.array([1], dtype=np.int32)})

    def test_statistics(self, basket):
        basket.insert_rows([(1, "a"), (2, "b")])
        assert basket.total_in == 2
        basket.consume_all()
        assert basket.total_out == 2

    def test_frontier_advances(self, basket):
        assert basket.frontier_seq() == -1
        basket.insert_rows([(1, "a")])
        assert basket.frontier_seq() == 0
        basket.consume_all()
        basket.insert_rows([(2, "b")])
        assert basket.frontier_seq() == 1


class TestSnapshot:
    def test_snapshot_is_rebased_to_zero(self, basket):
        basket.insert_rows([(1, "a"), (2, "b")])
        basket.consume_all()
        basket.insert_rows([(3, "c")])
        snap = basket.snapshot()
        assert snap.count == 1
        assert snap.column("v").hseqbase == 0
        assert snap.seqs.tolist() == [2]

    def test_snapshot_isolated_from_later_inserts(self, basket):
        basket.insert_rows([(1, "a")])
        snap = basket.snapshot()
        basket.insert_rows([(2, "b")])
        assert snap.count == 1

    def test_snapshot_since_seq(self, basket):
        basket.insert_rows([(1, "a"), (2, "b"), (3, "c")])
        snap = basket.snapshot(since_seq=0)
        assert snap.column("v").python_list() == [2, 3]

    def test_unknown_column(self, basket):
        basket.insert_rows([(1, "a")])
        with pytest.raises(BasketError):
            basket.snapshot().column("zzz")


class TestConsumption:
    def test_consume_all(self, basket):
        basket.insert_rows([(1, "a"), (2, "b")])
        assert basket.consume_all() == 2
        assert basket.count == 0

    def test_consume_seqs_partial(self, basket):
        basket.insert_rows([(i, "x") for i in range(5)])
        removed = basket.consume_seqs(np.array([0, 2, 4]))
        assert removed == 3
        assert [r[0] for r in basket.rows()] == [1, 3]

    def test_consume_seqs_empty_is_noop(self, basket):
        basket.insert_rows([(1, "a")])
        assert basket.consume_seqs(np.array([], dtype=np.int64)) == 0

    def test_sequences_survive_partial_consume(self, basket):
        basket.insert_rows([(i, "x") for i in range(4)])
        basket.consume_seqs(np.array([1, 2]))
        snap = basket.snapshot()
        assert snap.seqs.tolist() == [0, 3]

    def test_consume_twice_is_idempotent(self, basket):
        basket.insert_rows([(1, "a")])
        basket.consume_seqs(np.array([0]))
        assert basket.consume_seqs(np.array([0])) == 0


class TestSharedReaders:
    def test_register_and_read(self, basket):
        basket.insert_rows([(1, "a")])
        basket.register_reader("q1")
        snap = basket.read_new("q1")
        assert snap.count == 1

    def test_duplicate_registration(self, basket):
        basket.register_reader("q1")
        with pytest.raises(BasketError):
            basket.register_reader("q1")

    def test_unregistered_reader(self, basket):
        with pytest.raises(BasketError):
            basket.read_new("ghost")

    def test_cursor_advance_hides_seen(self, basket):
        basket.register_reader("q1")
        basket.insert_rows([(1, "a"), (2, "b")])
        snap = basket.read_new("q1")
        basket.advance_reader("q1", int(snap.seqs.max()))
        assert basket.read_new("q1").count == 0
        basket.insert_rows([(3, "c")])
        assert basket.read_new("q1").count == 1

    def test_gc_waits_for_all_readers(self, basket):
        """Shared strategy: tuple removed only after all readers saw it."""
        basket.register_reader("q1")
        basket.register_reader("q2")
        basket.insert_rows([(1, "a")])
        basket.advance_reader("q1", 0)
        assert basket.gc_shared() == 0, "q2 has not seen the tuple yet"
        assert basket.count == 1
        basket.advance_reader("q2", 0)
        assert basket.gc_shared() == 1
        assert basket.count == 0

    def test_unseen_count(self, basket):
        basket.register_reader("q1")
        basket.insert_rows([(1, "a"), (2, "b")])
        assert basket.unseen_count("q1") == 2
        basket.advance_reader("q1", 0)
        assert basket.unseen_count("q1") == 1

    def test_new_reader_sees_buffered(self, basket):
        basket.insert_rows([(1, "a")])
        basket.register_reader("late")
        assert basket.read_new("late").count == 1

    def test_unregister_triggers_gc(self, basket):
        basket.register_reader("q1")
        basket.register_reader("q2")
        basket.insert_rows([(1, "a")])
        basket.advance_reader("q1", 0)
        basket.unregister_reader("q2")
        assert basket.count == 0

    def test_gc_without_readers_is_noop(self, basket):
        basket.insert_rows([(1, "a")])
        assert basket.gc_shared() == 0


class TestLoadShedding:
    def test_capacity_drops_oldest(self, basket):
        basket.capacity = 3
        basket.insert_rows([(i, "x") for i in range(5)])
        assert basket.count == 3
        assert [r[0] for r in basket.rows()] == [2, 3, 4]
        assert basket.total_shed == 2

    def test_no_capacity_never_sheds(self, basket):
        basket.insert_rows([(i, "x") for i in range(100)])
        assert basket.total_shed == 0

    def test_shared_reader_sees_survivors_in_order(self, clock):
        metrics = MetricsRegistry()
        basket = Basket("w", [("v", AtomType.INT)], clock, metrics=metrics)
        basket.register_reader("q")
        basket.capacity = 5
        basket.insert_rows([(i,) for i in range(10)])
        assert basket.read_new("q").seqs.tolist() == [5, 6, 7, 8, 9]
        assert metrics.value("datacell_basket_shed_total", ("w",)) == 5


class TestAppendResult:
    def test_append_result(self, basket, clock):
        clock.advance(2.0)
        rs = ResultSet(
            ["v", "s"],
            [
                bat_from_values(AtomType.INT, [7]),
                bat_from_values(AtomType.STR, ["z"]),
            ],
        )
        assert basket.append_result(rs) == 1
        assert basket.rows() == [(7, "z", 2.0)]

    def test_append_result_with_time(self, basket):
        rs = ResultSet(
            ["v", "s", TIME_COLUMN],
            [
                bat_from_values(AtomType.INT, [7]),
                bat_from_values(AtomType.STR, ["z"]),
                bat_from_values(AtomType.TIMESTAMP, [4.5]),
            ],
        )
        basket.append_result(rs)
        assert basket.rows()[0][2] == 4.5

    def test_append_result_arity_checked(self, basket):
        rs = ResultSet(["v"], [bat_from_values(AtomType.INT, [7])])
        with pytest.raises(BasketError):
            basket.append_result(rs)

    def test_empty_result_is_noop(self, basket):
        rs = ResultSet(
            ["v", "s"],
            [
                bat_from_values(AtomType.INT, []),
                bat_from_values(AtomType.STR, []),
            ],
        )
        assert basket.append_result(rs) == 0


class TestProperties:
    @seed(current_seed())
    @given(
        st.lists(st.integers(-100, 100), min_size=1, max_size=60),
        st.data(),
    )
    def test_partial_consume_keeps_complement(self, values, data):
        clock = LogicalClock()
        b = Basket("p", [("v", AtomType.INT)], clock)
        b.insert_rows([(v,) for v in values])
        to_remove = data.draw(
            st.lists(
                st.integers(0, len(values) - 1), unique=True, max_size=30
            )
        )
        b.consume_seqs(np.asarray(to_remove, dtype=np.int64))
        expected = [
            v for i, v in enumerate(values) if i not in set(to_remove)
        ]
        assert [r[0] for r in b.rows()] == expected

    @seed(current_seed())
    @given(st.lists(st.integers(0, 50), min_size=1, max_size=40))
    def test_conservation(self, values):
        """total_in == count + total_out at all times (no tuple loss)."""
        clock = LogicalClock()
        b = Basket("c", [("v", AtomType.INT)], clock)
        for v in values:
            b.insert_rows([(v,)])
            if v % 3 == 0:
                b.consume_all()
            assert b.total_in == b.count + b.total_out


class BasketModel:
    """A list-of-rows reference for a basket: every row is
    ``(seq, v, s, dc_time)``; consumption removes rows by identity (seq).
    ``hidden`` maps each seq to the row's ``(arrival stamp, trace
    token)``, the values the basket keeps per run."""

    def __init__(self):
        self.rows = []
        self.hidden = {}
        self.next_seq = 0
        self.readers = {}
        self.capacity = None
        self.retention = None

    def insert(self, values, stamp, mono=None, token=0):
        for v in values:
            self.rows.append((self.next_seq, v, None if v % 4 == 0 else
                              f"s{v}", stamp))
            self.hidden[self.next_seq] = (mono, token)
            self.next_seq += 1
        for bound in (self.capacity, self.retention):
            if bound is not None and len(self.rows) > bound:
                self.rows = self.rows[len(self.rows) - bound:]

    def restamp(self, seqs, mono, token=None):
        """Set the arrival stamp (and token) of the rows ``seqs``."""
        for seq in seqs:
            old = self.hidden[seq][1]
            self.hidden[seq] = (mono, old if token is None else token)

    def expected_hidden(self, rows):
        return [self.hidden[r[0]] for r in rows]

    def remove(self, seqs):
        doomed = set(seqs)
        before = len(self.rows)
        self.rows = [r for r in self.rows if r[0] not in doomed]
        return before - len(self.rows)

    def since(self, since_seq):
        return [r for r in self.rows if since_seq is None or r[0] > since_seq]

    def gc_shared(self):
        if not self.readers or not self.rows:
            return 0
        low = min(self.readers.values())
        return self.remove(r[0] for r in self.rows if r[0] <= low)

    def digest(self):
        import hashlib

        parts = [
            repr(self.next_seq),
            repr([r[0] for r in self.rows]),
            repr(sorted(self.readers.items())),
        ]
        for name, column in (("v", 1), ("s", 2), (TIME_COLUMN, 3)):
            parts.append(name)
            parts.append(repr([r[column] for r in self.rows]))
        return hashlib.sha256("|".join(parts).encode()).hexdigest()


def expand(runs):
    """A snapshot's runs as one ``(stamp, token)`` per row; also checks
    the run invariant (ends strictly ascend: no empty run is kept)."""
    assert all(b > a for a, b in zip([0] + runs.ends, runs.ends)), runs.ends
    assert len(runs.stamps) == len(runs.tokens) == len(runs.ends)
    rows, last = [], 0
    for end, stamp, token in zip(runs.ends, runs.stamps, runs.tokens):
        rows += [(stamp, token)] * (end - last)
        last = end
    return rows


#: one step of the reference-model walk: (operation, a, b, c)
OPS = st.tuples(
    st.sampled_from((
        "insert", "insert", "append", "append", "snapshot", "snapshot",
        "snapshot_since", "snapshot_since", "consume_positions",
        "consume_positions", "consume_snapshot", "consume_snapshot",
        "consume_seqs", "consume_all", "register", "advance", "gc",
        "unregister", "capacity", "retention", "import", "select",
    )),
    st.integers(0, 12),
    st.integers(0, 2 ** 16),
    st.integers(-1, 40),
)


def one_time_select(basket):
    """``select v, s, dc_time from`` the basket, as a one-time query."""
    catalog = Catalog()
    catalog.register(basket)
    compiled = compile_select(
        catalog, parse_statement(f"select v, s, {TIME_COLUMN} from m"))
    return MalInterpreter(catalog, MetricsRegistry(enabled=False)).run(
        compiled.program).rows()


def snapshot_rows(snap):
    columns = [b.python_list() for b in snap.bats]
    return list(zip(*columns)) if snap.count else []


def walk(ops):
    """Drive a basket and a :class:`BasketModel` through ``ops``, checking
    the whole observable state after every step; returns how often the
    walk reached each of the tombstone paths: a compaction, a stale
    snapshot consumed after one, a one-time select over dead rows."""
    basket = Basket("m", [("v", AtomType.INT), ("s", AtomType.STR)],
                    LogicalClock())
    model = BasketModel()
    reached = {"compaction": 0, "stale_after_compaction": 0,
               "select_over_dead": 0}
    compacted_at = -1  # the generation the last compaction left
    held = []  # snapshots kept across steps
    for step, (op, a, bits, c) in enumerate(ops):
        token = 0 if bits % 3 == 0 else step + 1
        generation, physical = basket.generation, basket._seq.count
        if op == "insert":
            values = [(c + i) % 50 for i in range(a + 1)]
            basket.insert_columns(
                {
                    "v": np.asarray(values, dtype=np.int32),
                    "s": np.asarray(
                        [None if v % 4 == 0 else f"s{v}" for v in values],
                        dtype=object,
                    ),
                },
                timestamp=float(step),
                trace_token=token,
            )
            model.insert(values, float(step), token=token)
            # ingest stamps "now": learn it from the newest run (the
            # batch's newest rows always survive shedding)
            newest = basket.snapshot().runs.stamps[-1]
            model.restamp(
                [r[0] for r in model.rows
                 if model.hidden[r[0]][0] is None], newest)
        elif op == "append":
            values = [(c + i) % 50 for i in range(a + 1)]
            basket.append_result(
                ResultSet(["v", "s"], [
                    bat_from_values(AtomType.INT, values),
                    bat_from_values(AtomType.STR, [
                        None if v % 4 == 0 else f"s{v}" for v in values]),
                ]),
                timestamp=float(step),
                mono=100.0 - step,  # factory output can be older
                trace_token=token,
            )
            model.insert(values, float(step), 100.0 - step, token)
        elif op in ("snapshot", "snapshot_since"):
            since = (
                None if op == "snapshot"
                else c % (model.next_seq + 1) - 1
            )
            snap = basket.snapshot(since_seq=since)
            expected = model.since(since)
            assert snap.seqs.tolist() == [r[0] for r in expected]
            assert snapshot_rows(snap) == [r[1:] for r in expected]
            assert expand(snap.runs) == model.expected_hidden(expected)
            held = (held + [snap])[-3:]
        elif op in ("consume_positions", "consume_snapshot") and held:
            # mostly the newest snapshot (the factory's case: nothing
            # changed since the cut), sometimes an older, stale one
            snap = held[-1] if a < 8 else held[a % len(held)]
            if op == "consume_snapshot" or not snap.count:
                positions = None
                doomed = snap.seqs.tolist()
            else:
                chosen = [
                    i for i in range(snap.count) if bits >> (i % 16) & 1
                ] or [a % snap.count]
                positions = np.asarray(chosen, dtype=np.int64)
                doomed = snap.seqs[positions].tolist()
            if snap.generation < compacted_at:
                reached["stale_after_compaction"] += 1
            removed = basket.consume_positions(snap, positions)
            assert removed == model.remove(doomed)
        elif op == "consume_seqs":
            seqs = [s for s in range(model.next_seq + 2)
                    if bits >> (s % 16) & 1]
            assert basket.consume_seqs(
                np.asarray(seqs, dtype=np.int64)) == model.remove(seqs)
        elif op == "consume_all":
            assert basket.consume_all() == model.remove(
                [r[0] for r in model.rows])
        elif op == "register":
            name = f"r{a % 3}"
            if name in model.readers:
                with pytest.raises(BasketError):
                    basket.register_reader(name)
            else:
                basket.register_reader(name)
                model.readers[name] = (
                    model.rows[0][0] - 1 if model.rows
                    else model.next_seq - 1
                )
        elif op == "advance" and model.readers:
            name = sorted(model.readers)[a % len(model.readers)]
            assert basket.read_new(name).seqs.tolist() == [
                r[0] for r in model.since(model.readers[name])]
            basket.advance_reader(name, c)
            model.readers[name] = max(model.readers[name], c)
        elif op == "gc":
            assert basket.gc_shared() == model.gc_shared()
        elif op == "unregister" and model.readers:
            name = sorted(model.readers)[a % len(model.readers)]
            basket.unregister_reader(name)
            del model.readers[name]
            model.gc_shared()
        elif op == "capacity":
            model.capacity = basket.capacity = (
                None if a % 3 == 0 else a + 2)
        elif op == "retention":
            model.retention = basket.retention = (
                None if a % 3 == 0 else a + 4)
        elif op == "import":
            basket.import_state(basket.export_state())
            runs = basket.snapshot().runs
            assert len(runs.ends) == (1 if model.rows else 0)
            if model.rows:
                model.restamp(
                    [r[0] for r in model.rows], runs.stamps[0], 0)
        elif op == "select":
            if basket.count < physical:
                reached["select_over_dead"] += 1
            assert one_time_select(basket) == [r[1:] for r in model.rows]
        # a compaction: positions moved while rows stayed live (capacity
        # and retention never shed a whole basket)
        if (op in ("insert", "append", "select") and basket.count
                and basket.generation != generation):
            reached["compaction"] += 1
            compacted_at = basket.generation
        # the whole observable state, after every step; nothing below
        # compacts, so tombstones outlive the step
        assert basket.count == len(model.rows)
        snap = basket.snapshot()
        assert snap.seqs.tolist() == [r[0] for r in model.rows]
        assert snapshot_rows(snap) == [r[1:] for r in model.rows]
        runs = snap.runs
        hidden = model.expected_hidden(model.rows)
        assert expand(runs) == hidden
        assert runs.first_token() == next(
            (t for _, t in hidden if t), 0)
        if hidden:
            assert runs.oldest() == min(stamp for stamp, _ in hidden)
        assert basket.frontier_seq() == model.next_seq - 1
        for name, cursor in model.readers.items():
            assert basket.unseen_count(name) == len(model.since(cursor))
        assert basket.state_digest() == model.digest()
        assert basket.total_in == basket.count + basket.total_out + \
            basket.total_shed + basket.total_trimmed
    return reached


class TestReferenceModel:
    """Random walks over ingest, factory output (``append_result`` with
    a given origin stamp and trace token), snapshots (whole and
    ``since_seq``), consumption by position / sequence / in bulk, shared
    readers with their GC, load shedding by the capacity watermark,
    retention trimming, a checkpoint round trip and one-time selects,
    checked against :class:`BasketModel` after every step — the hidden
    runs included: every snapshot's runs must expand to the model's
    per-row stamps and tokens.  Snapshots are kept across steps, so
    consuming one the basket has compacted since — the generation
    guard's stale path — is exercised as well as the tombstone fast
    path.  Seeded through ``DATACELL_SEED``."""

    @seed(current_seed())
    @settings(max_examples=500, deadline=None)
    @given(st.lists(OPS, min_size=12, max_size=60))
    def test_basket_matches_list_of_rows_model(self, ops):
        walk(ops)

    def test_walks_reach_every_tombstone_path(self):
        # a fixed walk: rows die by position, the next append compacts
        # (dead outnumber live), a snapshot cut before it is consumed
        # stale, and a one-time select reads over fresh tombstones
        ops = [
            ("insert", 7, 0, 0),
            ("snapshot", 0, 0, 0),
            ("snapshot", 0, 0, 0),
            ("consume_positions", 0, 0b00111111, 0),
            ("insert", 0, 0, 1),
            ("consume_positions", 9, 0b1, 0),
            ("snapshot_since", 0, 0, 4),
            ("consume_positions", 0, 0b1, 0),
            ("select", 0, 0, 0),
        ]
        assert walk(ops) == {"compaction": 2, "stale_after_compaction": 1,
                             "select_over_dead": 1}

    def test_whole_snapshot_consumed_in_full_is_consume_all(self):
        basket = Basket("w", [("v", AtomType.INT)], LogicalClock())
        basket.insert_rows([(1,), (2,), (3,)])
        snap = basket.snapshot()
        assert basket.consume_positions(snap) == 3
        assert basket.count == 0 and basket.total_out == 3

    def test_since_snapshot_positions_are_offset_by_its_start(self):
        basket = Basket("w", [("v", AtomType.INT)], LogicalClock())
        basket.insert_rows([(v,) for v in range(6)])
        snap = basket.snapshot(since_seq=2)
        assert (snap.start, snap.seqs.tolist()) == (3, [3, 4, 5])
        assert basket.consume_positions(snap, np.asarray([0, 2])) == 2
        assert [r[0] for r in basket.rows()] == [0, 1, 2, 4]
        snap = basket.snapshot(since_seq=1)
        assert basket.consume_positions(snap) == 2  # the whole suffix
        assert [r[0] for r in basket.rows()] == [0, 1]

    def test_stale_snapshot_falls_back_to_sequence_numbers(self):
        basket = Basket("w", [("v", AtomType.INT)], LogicalClock())
        basket.insert_rows([(1,), (2,), (3,)])
        snap = basket.snapshot()
        basket.consume_seqs(np.asarray([0]))  # positions shift by one
        basket.insert_rows([(4,)])
        assert basket.consume_positions(snap, np.asarray([1])) == 1
        assert [r[0] for r in basket.rows()] == [3, 4]
        # the whole (stale) snapshot: only its surviving rows go
        assert basket.consume_positions(snap) == 1
        assert [r[0] for r in basket.rows()] == [4]

    def test_seqs_ascend_through_every_mutation(self):
        basket = Basket("w", [("v", AtomType.INT)], LogicalClock())
        basket.capacity = 7
        for i in range(12):
            basket.insert_rows([(i,), (i + 1,)])
            snap = basket.snapshot()
            basket.consume_positions(snap, np.asarray([i % snap.count]))
            seqs = basket.snapshot().seqs
            assert (np.diff(seqs) > 0).all()


class TestTombstones:
    """A consume marks rows dead; nothing is copied until a compaction."""

    def test_plan_consume_of_part_of_a_batch_copies_nothing(self):
        cell = DataCell(clock=LogicalClock())
        cell.execute("create basket s (k int, v int)")
        query = cell.submit_continuous(
            "select t.k from [select * from s where s.v >= 100] as t")
        basket = cell.basket("s")
        basket.insert_columns({
            "k": np.arange(10, dtype=np.int32),
            "v": np.asarray([150, 5] * 5, dtype=np.int32),
        })
        columns = dict(basket._bats)
        generation = basket.generation
        cell.run_until_quiescent()
        assert sorted(r[0] for r in query.fetch()) == [0, 2, 4, 6, 8]
        assert basket.count == 5 and basket.total_out == 5
        # the same BATs, holding all ten rows: the five dead ones only
        # carry a tombstone
        assert all(basket._bats[name] is bat for name, bat in columns.items())
        assert all(bat.count == 10 for bat in columns.values())
        assert basket.generation == generation
        assert [r[0] for r in basket.rows()] == [1, 3, 5, 7, 9]

    def test_snapshot_view_refuses_writes(self, basket):
        basket.insert_rows([(1, "x"), (2, "y"), (3, "z")])
        snap = basket.snapshot(since_seq=0)
        tail = snap.column("v").tail
        assert not tail.flags.writeable and not snap.seqs.flags.writeable
        with pytest.raises(ValueError):
            tail[0] = 7  # an operator writing into its input fails loudly
        assert [r[0] for r in basket.rows()] == [1, 2, 3]

    def test_concurrent_consumers_remove_each_row_once(self):
        # more threads than cores, switching often: consumers race on
        # overlapping snapshots while a reader compacts; every row is
        # removed at most once, and exactly the rows someone took go
        basket = Basket("c", [("v", AtomType.INT)], LogicalClock())
        taken, removed = [], []
        record = threading.Lock()

        def consume(worker):
            rng = np.random.default_rng(worker)
            for _ in range(150):
                basket.insert_columns({"v": np.arange(8, dtype=np.int32)})
                snap = basket.snapshot()
                if not snap.count:
                    continue
                positions = np.flatnonzero(rng.random(snap.count) < 0.5)
                n = basket.consume_positions(snap, positions)
                with record:
                    taken.extend(snap.seqs[positions].tolist())
                    removed.append(n)

        def read():
            while any(t.is_alive() for t in threads[:-1]):
                basket.bats()  # a one-time reader: compacts dead rows

        threads = [threading.Thread(target=consume, args=(w,))
                   for w in range(4)] + [threading.Thread(target=read)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sum(removed) == basket.total_out == len(set(taken))
        assert basket.total_in == basket.count + basket.total_out
        left = set(basket.snapshot().seqs.tolist())
        assert left == set(range(basket.total_in)) - set(taken)

