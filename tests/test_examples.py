"""Integration tests: every example script runs clean and prints what its
docstring promises.  Examples are the library's contract with new users —
they must never rot."""

import os
import subprocess
import sys


EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")


def run_example(name: str) -> str:
    result = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, name)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, (
        f"{name} failed:\n{result.stdout}\n{result.stderr}"
    )
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "ALERT sensor=2 temp=45.2" in out
        assert "still buffered: [(1, 21.5)]" in out

    def test_network_monitoring(self):
        out = run_example("network_monitoring.py")
        assert "intrusion alerts:" in out
        assert "blocklist hits:" in out
        assert "busiest destinations" in out
        # predicate window left innocuous traffic buffered
        assert "still buffered" in out

    def test_financial_ticker(self):
        out = run_example("financial_ticker.py")
        assert "incremental == re-evaluation results: True" in out
        assert "large-trade alerts:" in out

    def test_linear_road_demo(self):
        out = run_example("linear_road_demo.py")
        assert "oracle validation    : PASS" in out
        assert "5-second deadline    : MET" in out
        assert "with non-zero toll" in out


def test_every_example_has_a_test():
    """``examples/x.py`` is run by ``TestExamples.test_x``: an example
    added without a test, or a test left behind by a deleted example,
    fails here instead of going unrun."""
    examples = {
        name[:-3] for name in os.listdir(EXAMPLES_DIR) if name.endswith(".py")
    }
    tested = {
        name[len("test_"):] for name in vars(TestExamples)
        if name.startswith("test_")
    }
    assert examples == tested
