"""Engine-invariant linter: rule firing, approved seams, suppression."""

import subprocess
import sys
from pathlib import Path

from repro.analysis.lint import RULES, lint_file, lint_paths

SRC = Path(__file__).resolve().parent.parent / "src"


def _lint_snippet(tmp_path, code, relname="repro/core/sample.py"):
    path = tmp_path / relname
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(code)
    return lint_file(path, tmp_path)


class TestWallClock:
    def test_time_time_flagged(self, tmp_path):
        findings = _lint_snippet(
            tmp_path, "import time\nstamp = time.time()\n"
        )
        assert [f.rule for f in findings] == ["wall-clock"]
        assert findings[0].line == 2

    def test_datetime_now_flagged(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "import datetime\nnow = datetime.datetime.now()\n",
        )
        assert [f.rule for f in findings] == ["wall-clock"]

    def test_monotonic_allowed(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "import time\na = time.monotonic()\nb = time.perf_counter()\n",
        )
        assert findings == []

    def test_clock_seam_approved(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "import time\nstamp = time.time()\n",
            relname="repro/core/clock.py",
        )
        assert findings == []

    def test_simtest_approved(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "import time\nstamp = time.time()\n",
            relname="repro/simtest/harness.py",
        )
        assert findings == []


class TestGlobalRandom:
    def test_module_level_random_flagged(self, tmp_path):
        findings = _lint_snippet(
            tmp_path, "import random\nx = random.randint(0, 3)\n"
        )
        assert [f.rule for f in findings] == ["global-random"]

    def test_seeded_instance_allowed(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "import random\nrng = random.Random(42)\nx = rng.randint(0, 3)\n",
        )
        assert findings == []

    def test_numpy_global_flagged_default_rng_allowed(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "import numpy as np\n"
            "bad = np.random.rand()\n"
            "ok = np.random.default_rng(7)\n",
        )
        assert [f.rule for f in findings] == ["global-random"]
        assert findings[0].line == 2


class TestBareLock:
    def test_bare_acquire_flagged(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "def f(basket):\n"
            "    basket.lock.acquire()\n"
            "    basket.lock.release()\n",
        )
        assert [f.rule for f in findings] == ["bare-lock", "bare-lock"]

    def test_with_statement_allowed(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "def f(basket):\n    with basket.lock:\n        pass\n",
        )
        assert findings == []

    def test_factory_approved(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "def f(b):\n    b.lock.acquire()\n",
            relname="repro/core/factory.py",
        )
        assert findings == []


class TestLockOrder:
    def test_unsorted_multi_acquire_flagged(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "def cut(baskets):\n"
            "    for b in baskets:\n"
            "        b.lock.acquire()\n",
            relname="repro/core/factory.py",  # bare-lock approved there
        )
        assert [f.rule for f in findings] == ["lock-order"]

    def test_sorted_iterable_allowed(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "def cut(baskets):\n"
            "    ordered = sorted(baskets, key=lambda b: b.name.lower())\n"
            "    for b in ordered:\n"
            "        b.lock.acquire()\n",
            relname="repro/core/factory.py",
        )
        assert findings == []

    def test_lock_order_helper_allowed(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "def cut(self):\n"
            "    for b in self._lock_order():\n"
            "        b.lock.acquire()\n",
            relname="repro/core/factory.py",
        )
        assert findings == []


class TestSysName:
    def test_reserved_name_flagged(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "def setup(cell):\n"
            "    cell.create_basket('sys.shadow', [])\n",
        )
        assert [f.rule for f in findings] == ["sys-name"]

    def test_sysstreams_module_approved(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "def setup(cell):\n"
            "    cell.create_basket('sys.metrics', [])\n",
            relname="repro/obs/sysstreams.py",
        )
        assert findings == []

    def test_ordinary_names_allowed(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "def setup(cell):\n    cell.create_basket('trades', [])\n",
        )
        assert findings == []


class TestSqlStructure:
    def test_clause_read_outside_resolver_flagged(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "def lower(stmt):\n"
            "    return stmt.group_by, stmt.where\n",
            relname="repro/core/lowering.py",
        )
        assert [f.rule for f in findings] == ["sql-structure"]
        assert findings[0].line == 2

    def test_every_clause_flagged(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "def f(s):\n"
            "    return s.sources, s.group_by, s.having, s.order_by\n",
            relname="repro/incremental/compile.py",
        )
        assert [f.rule for f in findings] == ["sql-structure"] * 4

    def test_resolver_and_parser_approved(self, tmp_path):
        code = "def f(stmt):\n    return stmt.sources, stmt.having\n"
        for relname in ("repro/sql/resolve.py", "repro/sql/parser.py",
                        "repro/sql/ast_nodes.py"):
            assert _lint_snippet(tmp_path, code, relname=relname) == []


class TestLrColumnar:
    PLAN = "repro/linearroad/queries.py"

    def test_python_list_flagged(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "def run(snap):\n"
            "    return snap.column('t').python_list()\n",
            relname=self.PLAN,
        )
        assert [(f.rule, f.line) for f in findings] == [("lr-columnar", 2)]

    def test_bat_from_values_call_and_import_flagged(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "from ..kernel.bat import BAT, bat_from_values\n"
            "def result(atom, rows):\n"
            "    return bat_from_values(atom, rows)\n",
            relname=self.PLAN,
        )
        assert [(f.rule, f.line) for f in findings] == [
            ("lr-columnar", 1), ("lr-columnar", 3)]

    def test_only_the_plans_are_covered(self, tmp_path):
        code = "def f(b):\n    return b.python_list()\n"
        for relname in ("repro/linearroad/validator.py",
                        "repro/linearroad/harness.py",
                        "repro/core/windows.py"):
            assert _lint_snippet(tmp_path, code, relname=relname) == []

    def test_columnar_reads_allowed(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "def run(snap):\n"
            "    return snap.column('t').tail.tolist()\n",
            relname=self.PLAN,
        )
        assert findings == []


class TestSuppression:
    def test_line_suppression(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "import time\n"
            "a = time.time()  # dc-lint: disable=wall-clock\n"
            "b = time.time()\n",
        )
        assert [(f.rule, f.line) for f in findings] == [("wall-clock", 3)]

    def test_line_suppression_is_rule_specific(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "import time\n"
            "a = time.time()  # dc-lint: disable=global-random\n",
        )
        assert [f.rule for f in findings] == ["wall-clock"]

    def test_file_suppression_one_rule(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "# dc-lint: disable-file=wall-clock\n"
            "import time, random\n"
            "a = time.time()\n"
            "b = random.random()\n",
        )
        assert [f.rule for f in findings] == ["global-random"]

    def test_file_suppression_all_rules(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "# dc-lint: disable-file\n"
            "import time\na = time.time()\n",
        )
        assert findings == []


class TestDriving:
    def test_src_tree_is_clean(self):
        """The shipped engine passes its own linter — the CI gate."""
        findings = lint_paths([str(SRC)])
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_select_filters_rules(self, tmp_path):
        path = tmp_path / "m.py"
        path.write_text("import time\na = time.time()\n")
        findings = lint_paths([str(path)], select={"global-random"})
        assert findings == []

    def test_cli_exit_codes(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\na = time.time()\n")
        env_src = str(SRC)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis.lint", str(bad)],
            capture_output=True, text=True,
            env={"PYTHONPATH": env_src, "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 1
        assert "wall-clock" in proc.stdout
        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis.lint", str(good)],
            capture_output=True, text=True,
            env={"PYTHONPATH": env_src, "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0

    def test_rules_all_registered(self):
        names = {rule.name for rule in RULES}
        assert {
            "wall-clock",
            "global-random",
            "bare-lock",
            "lock-order",
            "sys-name",
            "sql-structure",
            "lr-columnar",
        } <= names
