"""Power-loss differential: what the engine promised survives the disk.

Under ``fsync="always"`` a row handed to a subscriber, an ACK, or a
return from ``run_until_quiescent`` promises that everything behind it
is on stable storage.  ``fsync_ledger`` records what each ``os.fsync``
made durable.  At seeded points of a Figure-1 chain run, the test takes
the image a power loss would leave — every WAL segment cut back to its
synced length — and recovers a fresh engine from it.  The points include
right after a direct insert, between a factory firing and its emitter,
inside a delivery, and after a synchronous drive returned.

From every image the recovered engine must:

* hold every input behind a row delivered before the loss;
* deliver none of those rows again;
* deliver every other qualifying recovered input exactly once.

An engine that hands a batch to subscribers before its records are
synced fails the first check at the in-delivery points.
"""

import random
from collections import Counter

import pytest

from repro import DataCell
from repro.durability import DurabilityConfig, list_segments

FIG1_SQL = (
    "select t.k, t.v from "
    "[select * from s where s.v >= 100 and s.v < 200] as t"
)


def _fig1(root):
    cell = DataCell(
        durability=DurabilityConfig(
            directory=root, fsync="always", segment_max_bytes=2048
        )
    )
    cell.execute("create basket s (k int, v int)")
    return cell, cell.submit_continuous(FIG1_SQL, name="q")


def _power_cut(ledger, wal_dir, image_root):
    """The WAL a power loss would leave now: segments cut to synced."""
    image = image_root / "wal"
    image.mkdir(parents=True)
    for _, path in list_segments(wal_dir):
        data = path.read_bytes()[: ledger.synced_length(path)]
        (image / path.name).write_bytes(data)


def _recover(image_root):
    """Recover a fresh engine from an image; returns (inputs replayed
    into ``s``, rows it delivered)."""
    cell, query = _fig1(image_root)
    basket = cell.basket("s")
    replayed = []
    insert_columns = basket.insert_columns

    def record_replay(columns, **kwargs):
        replayed.extend(columns["k"].tolist())
        return insert_columns(columns, **kwargs)

    basket.insert_columns = record_replay
    delivered = []
    query.subscribe(delivered.extend)
    try:
        cell.recover()
        cell.run_until_quiescent()
    finally:
        cell.durability.close()
    return replayed, delivered


@pytest.mark.parametrize("seed", range(4))
def test_power_loss_keeps_every_promise(tmp_path, fsync_ledger, seed):
    rng = random.Random(seed)
    cell, query = _fig1(tmp_path / "live")
    wal_dir = cell.durability.wal_dir
    inputs = {}  # k -> v, everything ever inserted
    delivered = []  # rows handed to the subscriber so far
    images = []  # (point kind, image root, rows delivered at the cut)

    def maybe_cut(kind):
        if rng.random() < 0.3:
            root = tmp_path / f"image-{len(images)}"
            _power_cut(fsync_ledger, wal_dir, root)
            images.append((kind, root, list(delivered)))

    def deliver(rows):
        delivered.extend(rows)
        maybe_cut("delivery")

    query.subscribe(deliver)
    factory = query.factory
    activate = factory.activate

    def fire():
        result = activate()
        maybe_cut("fired")  # output in q_out, emitter not yet run
        return result

    factory.activate = fire
    k = 0
    for _ in range(30):
        rows = []
        for _ in range(rng.randint(1, 40)):
            rows.append((k, rng.randrange(300)))
            inputs[k] = rows[-1][1]
            k += 1
        cell.insert("s", rows)
        maybe_cut("insert")
        cell.run_until_quiescent()
        maybe_cut("quiesced")
    cell.durability.close()
    assert {kind for kind, _, _ in images} >= {"fired", "delivery"}

    for kind, root, before in images:
        replayed, after = _recover(root)
        where = f"power lost at a {kind} point ({root.name})"
        assert set(replayed) <= set(inputs), where
        # every input behind a delivered row is in the recovered baskets
        assert {row[0] for row in before} <= set(replayed), where
        # nothing delivered twice ...
        assert not Counter(before) & Counter(after), where
        # ... and nothing lost: the qualifying recovered inputs are
        # delivered exactly once, before or after the loss
        expected = sorted(
            (key, inputs[key]) for key in replayed
            if 100 <= inputs[key] < 200
        )
        assert sorted(before + after) == expected, where
