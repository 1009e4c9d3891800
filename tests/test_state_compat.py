"""Saved aggregate states written by an earlier commit still restore.

``tests/data/saved_states/`` holds the checkpoint blobs that commit
``bb90233`` wrote, mid-stream, for three plans: a grouped COUNT window
over a VARCHAR key with a NULL key, a DOUBLE-keyed window with NaN keys,
and a two-key aggregate view.  Each one restores here, and the firings after
it deliver what an uninterrupted run delivers.  The blobs also pin the
format: this tree writes the same bytes at the same point.

To write the blobs again, run this module against the tree that should
write them::

    PYTHONPATH=<checkout>/src python tests/test_state_compat.py
"""

import math
import pathlib

from repro import DataCell
from repro.core.windows import WindowAggregatePlan, WindowMode, WindowSpec
from repro.kernel.bat import bat_from_values
from repro.kernel.types import AtomType

DATA = pathlib.Path(__file__).parent / "data" / "saved_states"
#: batches before the checkpoint; the rest are fired after it
CUT = 3

WORDS = ["x", None, "y", "x", "zz", None, "y", "w"]
WINDOW_CASES = {
    "window_str_nil": (AtomType.STR, [WORDS[i % 8] for i in range(40)]),
    "window_dbl_nan": (
        AtomType.DBL,
        [[0.5, math.nan, -0.0, 2.0, 0.0][i % 5] for i in range(40)],
    ),
}
VIEW_ROWS = [
    (i % 3 if i % 5 else None, ["a", None, "bc"][i % 4 % 3], float(i))
    for i in range(36)
]


class Snapshot:
    """The part of a basket snapshot a COUNT window reads."""

    def __init__(self, keys, values, atom):
        self.count = len(values)
        self._columns = {
            "g": bat_from_values(atom, keys),
            "v": bat_from_values(AtomType.DBL, values),
        }

    def column(self, name):
        return self._columns[name]


def window_plan(atom):
    return WindowAggregatePlan(
        "b", "v", ["count", "sum", "min"],
        WindowSpec(WindowMode.COUNT, 6, 2), "out",
        group_column="g", group_atom=atom,
    )


def window_batches(name):
    atom, keys = WINDOW_CASES[name]
    values = [float(i % 7) for i in range(len(keys))]
    cuts = [0, 5, 12, 13, 21, 30, 40]
    return [
        Snapshot(keys[a:b], values[a:b], atom) for a, b in zip(cuts, cuts[1:])
    ]


def window_rows(plan, batches):
    """``repr`` of each firing's rows, so NaN keys compare equal."""
    fired = []
    for snap in batches:
        out = plan.run({"b": snap}).results.get("out")
        fired.append(repr(out.rows() if out is not None else []))
    return fired


def view_cell():
    cell = DataCell()
    cell.execute("create basket b (k1 int, k2 varchar(2), v double)")
    view = cell.submit_continuous(
        "create view v as select x.k1, x.k2, count(*) as n, "
        "sum(x.v) as s, min(x.v) as lo from [select * from b] as x "
        "group by x.k1, x.k2"
    )
    cell.run_until_quiescent()
    view.fetch()  # the empty view's registration
    return cell, view


def view_batches():
    return [VIEW_ROWS[i : i + 6] for i in range(0, len(VIEW_ROWS), 6)]


def view_fire(cell, view, batches):
    fired = []
    for batch in batches:
        cell.insert("b", batch)
        cell.run_until_quiescent()
        fired.append(view.fetch())
    return fired


def written_blobs():
    """Each case's state after its first ``CUT`` batches."""
    blobs = {}
    for name, (atom, _) in WINDOW_CASES.items():
        plan = window_plan(atom)
        window_rows(plan, window_batches(name)[:CUT])
        blobs[name] = plan.export_state()
    cell, view = view_cell()
    view_fire(cell, view, view_batches()[:CUT])
    blobs["view_two_keys"] = view.factory.plan.export_state()
    return blobs


def test_this_tree_writes_the_committed_bytes():
    for name, blob in written_blobs().items():
        assert blob == (DATA / f"{name}.bin").read_bytes(), name


def test_a_committed_window_state_fires_as_an_uninterrupted_run():
    for name, (atom, _) in WINDOW_CASES.items():
        batches = window_batches(name)
        whole = window_plan(atom)
        window_rows(whole, batches[:CUT])
        restored = window_plan(atom)
        restored.import_state((DATA / f"{name}.bin").read_bytes())
        after = window_rows(restored, batches[CUT:])
        assert after == window_rows(whole, batches[CUT:]), name
        assert any(rows != "[]" for rows in after), name


def test_a_committed_view_state_fires_as_an_uninterrupted_run():
    batches = view_batches()
    whole, whole_view = view_cell()
    view_fire(whole, whole_view, batches[:CUT])
    restored, restored_view = view_cell()
    restored_view.factory.plan.import_state(
        (DATA / "view_two_keys.bin").read_bytes()
    )
    after = view_fire(restored, restored_view, batches[CUT:])
    assert after == view_fire(whole, whole_view, batches[CUT:])
    assert all(after)


if __name__ == "__main__":
    DATA.mkdir(parents=True, exist_ok=True)
    for name, blob in written_blobs().items():
        (DATA / f"{name}.bin").write_bytes(blob)
