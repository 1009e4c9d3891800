"""Direct unit tests for the text dashboard renderer."""

from repro.obs.dashboard import format_table, render_dashboard
from repro.obs.tracing import TraceLog


def _stats(
    transitions=None, baskets=None, queries=None, mal=None,
    iterations=3, firings=7,
):
    return {
        "scheduler": {
            "iterations": iterations,
            "firings": firings,
            "transitions": transitions or {},
        },
        "baskets": baskets or {},
        "queries": queries or {},
        "mal": mal or {},
    }


HIST = {"count": 2, "sum": 0.01, "min": 0.004, "max": 0.006,
        "p50": 0.005, "p95": 0.006, "p99": 0.006}


class TestFormatTable:
    def test_format_table(self):
        text = format_table("demo", ["a", "bb"], [[1, 2.5], ["xx", 12345.0]])
        assert "== demo ==" in text
        assert "a" in text and "bb" in text
        assert "12,345" in text

    def test_empty_table(self):
        assert "empty" in format_table("empty", ["col"], [])


class TestSectionPresence:
    def test_all_sections_rendered(self):
        text = render_dashboard(_stats(
            transitions={"q1": {
                "firings": 2, "idle_polls": 1, "activation_seconds": HIST,
            }},
            baskets={"sensors": {
                "depth": 1, "high_water": 4, "inserted": 5,
                "consumed": 4, "shed": 0,
            }},
            queries={"q1": {"delivered": 4, "latency": HIST}},
            mal={"algebra.thetaselect": {"calls": 2, "seconds": 0.003}},
        ))
        assert "scheduler: iterations=3 firings=7" in text
        assert "== Transitions ==" in text
        assert "== Baskets ==" in text
        assert "== Continuous queries (insert → emit latency) ==" in text
        assert "== MAL opcodes (top 15 by cumulative time) ==" in text

    def test_empty_sections_omitted(self):
        text = render_dashboard(_stats())
        assert "scheduler:" in text
        assert "Transitions" not in text
        assert "Baskets" not in text
        assert "MAL opcodes" not in text

    def test_trace_section_only_when_given(self):
        trace = TraceLog()
        trace.record("fire", "q1", tuples=3)
        without = render_dashboard(_stats())
        with_trace = render_dashboard(_stats(), trace=trace)
        assert "Trace" not in without
        assert "== Trace (last 10 of 1 buffered) ==" in with_trace
        assert "fire" in with_trace

    def test_empty_trace_omitted(self):
        text = render_dashboard(_stats(), trace=TraceLog())
        assert "Trace" not in text


class TestAlignment:
    def test_long_query_name_keeps_columns_aligned(self):
        long_name = "very_long_continuous_query_name_for_alignment"
        text = render_dashboard(_stats(
            queries={
                "q1": {"delivered": 4, "latency": HIST},
                long_name: {"delivered": 1, "latency": HIST},
            },
        ))
        lines = text.splitlines()
        header_idx = next(
            i for i, line in enumerate(lines) if line.startswith("query")
        )
        header = lines[header_idx]
        rule = lines[header_idx + 1]
        data = lines[header_idx + 2 : header_idx + 4]
        assert set(rule) == {"-"} and len(rule) == len(header)
        # the 'delivered' column must start at the same offset in the
        # header and in every data row, long name notwithstanding
        col = header.index("delivered")
        assert col > len(long_name)
        for row in data:
            value = row[col:].split()[0]
            assert value in {"4", "1"}

    def test_long_basket_name_widens_column(self):
        text = render_dashboard(_stats(
            baskets={
                "b" * 40: {"depth": 1, "high_water": 1, "inserted": 1,
                           "consumed": 0, "shed": 0},
            },
        ))
        header = next(
            line for line in text.splitlines() if line.startswith("basket")
        )
        assert header.index("depth") > 40


class TestEmptyRegistry:
    def test_all_empty_stats_still_renders(self):
        text = render_dashboard({
            "scheduler": {}, "baskets": {}, "queries": {}, "mal": {},
        })
        assert text == "scheduler: iterations=0 firings=0\n"

    def test_missing_sections_tolerated(self):
        # a partial stats dict (no 'mal', no 'queries') must not raise
        text = render_dashboard({"scheduler": {"iterations": 1}})
        assert "iterations=1" in text

    def test_none_valued_fields_render_as_zero(self):
        text = render_dashboard(_stats(
            baskets={"b": {"depth": None, "high_water": None,
                           "inserted": None, "consumed": None, "shed": None}},
        ))
        row = next(
            line for line in text.splitlines() if line.startswith("b ")
        )
        assert row.split()[1:] == ["0", "0", "0", "0", "0"]

class TestResourcesSection:
    def test_ranked_table_and_budgets(self):
        stats = _stats()
        stats["resources"] = {
            "queries": {
                "hot": {
                    "tenant": "team-a", "cpu_seconds": 0.02,
                    "plan_cpu_seconds": 0.01, "opcode_cpu_seconds": 0.009,
                    "memory_bytes": 4096, "queue_wait_seconds": 0.5,
                    "queue_wait_tuples": 10, "rows_in": 100, "rows_out": 40,
                },
                "cold": {
                    "tenant": "default", "cpu_seconds": 0.0,
                    "plan_cpu_seconds": 0.0, "opcode_cpu_seconds": 0.0,
                    "memory_bytes": 0, "queue_wait_seconds": 0.0,
                    "queue_wait_tuples": 0, "rows_in": 0, "rows_out": 0,
                },
            },
            "engine": {"memory_bytes": 8192, "accounts": 2},
            "budgets": {"cap": {"scope": "query:hot", "breaches": 3}},
        }
        text = render_dashboard(stats)
        assert "Top queries by CPU (engine memory=8192 B)" in text
        assert "== Resource budgets ==" in text
        assert "query:hot" in text
        # busy query ranks above the idle one
        assert text.index("hot") < text.index("cold")

    def test_section_omitted_without_accounting(self):
        assert "Top queries by CPU" not in render_dashboard(_stats())

    def test_zero_firings_account_renders(self):
        stats = _stats()
        stats["resources"] = {
            "queries": {
                "cold": {
                    "tenant": "default", "cpu_seconds": 0.0,
                    "plan_cpu_seconds": 0.0, "opcode_cpu_seconds": 0.0,
                    "memory_bytes": 0, "queue_wait_seconds": 0.0,
                    "queue_wait_tuples": 0, "rows_in": 0, "rows_out": 0,
                },
            },
            "engine": {"memory_bytes": 0, "accounts": 1},
            "budgets": {},
        }
        text = render_dashboard(stats)
        assert "cold" in text
        assert "Resource budgets" not in text
