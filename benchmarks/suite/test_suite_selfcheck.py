"""Self-check of the benchmark suite: ``pytest benchmarks/suite -q``.

Not collected by tier-1 (``testpaths = ["tests"]``).  Everything runs in
``--quick`` mode through the same command line the driver uses, so what
is checked is the contract of BENCHMARK.json, not the numbers.
"""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
RUN = [sys.executable, str(SUITE / "run.py")]
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")

with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
    DECLARATION = json.load(handle)
WORKLOADS = [w["name"] for w in DECLARATION["workloads"]]


def drive(workload, trace, seed=3):
    done = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "10",
               "--trace", str(trace), "--quick"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return done.stdout, json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_emitted(workload, trace):
    _, line = drive(workload, trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    declared = DECLARATION["per_layer" if trace else "end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        got = line["metrics"][metric["name"]]
        assert NAME.match(metric["name"])
        assert got["unit"] == metric["unit"]
        assert math.isfinite(got["value"]), metric["name"]
        if not trace:
            assert got["value"] > 0, metric["name"]


def test_workload_flag_selects_one_workload():
    stdout, _ = drive("fig1_bulk", 0)
    headers = [line for line in stdout.splitlines() if line.startswith("== ")]
    assert len(headers) == 1 and "fig1_bulk" in headers[0]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_feeds_identical_inputs(workload):
    digests = []
    for _ in range(2):
        drive(workload, 0, seed=11)
        with open(SUITE / "out" / f"{workload}.seed11.json", encoding="utf-8") as f:
            digests.append(json.load(f)["input_digest"])
    assert digests[0] == digests[1]
    drive(workload, 0, seed=12)
    with open(SUITE / "out" / f"{workload}.seed12.json", encoding="utf-8") as f:
        assert json.load(f)["input_digest"] != digests[0]


def test_result_file_carries_provenance():
    drive("fig1_trickle", 0, seed=5)
    with open(SUITE / "out" / "fig1_trickle.seed5.json", encoding="utf-8") as f:
        document = json.load(f)
    assert {"commit", "seed", "nproc", "loadavg_start", "loadavg_end",
            "python", "numpy"} <= set(document["provenance"])
    assert document["rows_per_slice"] > 0


def test_compare_flags_a_regression(tmp_path):
    base = {"workloads": {"fig1_bulk": [{
        "failed_share": 0.0,
        "metrics": {"rows_per_s": {"value": 1000.0, "unit": "rows/s"}},
    }]}}
    slow = json.loads(json.dumps(base))
    slow["workloads"]["fig1_bulk"][0]["metrics"]["rows_per_s"]["value"] = 500.0
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(base))
    b.write_text(json.dumps(slow))
    compare = [sys.executable, str(SUITE / "compare.py")]
    same = subprocess.run(compare + [str(a), str(a)], capture_output=True, text=True)
    assert same.returncode == 0 and " same" in same.stdout
    worse = subprocess.run(compare + [str(a), str(b)], capture_output=True, text=True)
    assert worse.returncode == 1 and " worse" in worse.stdout


def test_refuses_a_tree_without_the_engine(tmp_path):
    bare = tmp_path / "benchmarks" / "suite"
    bare.mkdir(parents=True)
    for source in SUITE.glob("*.py"):
        (bare / source.name).write_text(source.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(DECLARATION))
    done = subprocess.run(
        [sys.executable, str(bare / "run.py"), "--workload", "fig1_bulk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
