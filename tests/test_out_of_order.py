"""Out-of-order and batching-flexibility tests (paper §2.2).

"There is no a priori order; a basket is simply a (multi-)set of events"
— the DataCell's answers for order-insensitive queries must not depend on
arrival order or batch boundaries.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DataCell, LogicalClock


class TestSelectionOrderInsensitive:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.integers(-50, 50), max_size=40),
        st.randoms(use_true_random=False),
    )
    def test_predicate_window_results_are_a_set(self, values, rng):
        """Same multiset in, same multiset out, any arrival order."""

        def run(ordered):
            cell = DataCell(clock=LogicalClock())
            cell.execute("create basket s (v int)")
            q = cell.submit_continuous(
                "select * from [select * from s where s.v > 0] as x"
            )
            for v in ordered:
                cell.insert("s", [(v,)])
            cell.run_until_quiescent()
            return sorted(q.fetch())

        shuffled = list(values)
        rng.shuffle(shuffled)
        assert run(values) == run(shuffled)

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from("abc"), st.integers(-9, 9)),
            max_size=40,
        ),
        st.integers(1, 40),
    )
    def test_grouped_aggregate_batch_invariant(self, rows, batch):
        """Group-by results do not depend on how arrivals were batched."""

        def run(batch_size):
            cell = DataCell(clock=LogicalClock())
            cell.execute("create basket s (k varchar(2), v int)")
            q = cell.submit_continuous(
                "select x.k, sum(x.v), count(*) from "
                "[select * from s] as x group by x.k"
            )
            for i in range(0, len(rows), batch_size):
                cell.insert("s", rows[i : i + batch_size])
                cell.run_until_quiescent()
            # per-batch group rows: aggregate them for comparison
            totals = {}
            for k, total, count in q.fetch():
                entry = totals.setdefault(k, [0, 0])
                entry[0] += total if total is not None else 0
                entry[1] += count
            return totals

        assert run(batch) == run(len(rows) or 1)

