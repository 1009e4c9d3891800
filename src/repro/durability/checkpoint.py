"""Atomic columnar checkpoints of the whole engine state.

A checkpoint is one directory ``ckpt-<id>/`` under ``checkpoints/``::

    ckpt-00000003/
        state.json     everything structural: per-basket schema order,
                       next-sequence frontiers, reader cursors, stats
                       counters, factory bindings + saved plan state,
                       emitter high-water marks, clock time, the WAL
                       segment the replay suffix starts at, and a
                       state_digest per basket for post-recovery checks
        columns.bin    magic + one CRC32 frame per column (basket order
                       and column order exactly as listed in state.json,
                       each basket's hidden seq column last)

Atomicity is write-temp-then-rename: the directory is materialized as
``.tmp-ckpt-<id>``, every file fsynced, then renamed into place and the
``MANIFEST.json`` (itself written temp + rename) repointed at it.  A
crash mid-checkpoint leaves either the old manifest (tmp dir garbage is
swept on the next attempt) or the new one — never a half checkpoint.
Loading walks newest-to-oldest and skips any checkpoint that fails
validation (bad JSON, bad frame CRC, wrong column count), so a torn or
corrupt latest falls back to its predecessor.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..errors import DurabilityError
from ..kernel.types import AtomType
from .serde import decode_column, encode_column, pack_frame, unpack_frame

__all__ = [
    "BasketState",
    "CheckpointSnapshot",
    "LoadedCheckpoint",
    "write_checkpoint",
    "load_latest_checkpoint",
    "list_checkpoints",
]

COLUMNS_MAGIC = b"DCCKPT1\n"
MANIFEST = "MANIFEST.json"


@dataclass
class BasketState:
    """One basket inside the consistency cut."""

    columns: List[Tuple[str, AtomType]]  # schema order, incl. dc_time
    arrays: List[np.ndarray]  # aligned with ``columns``
    seqs: np.ndarray  # hidden per-tuple sequence numbers
    next_seq: int
    readers: Dict[str, int]
    total_in: int = 0
    total_out: int = 0
    total_shed: int = 0
    digest: str = ""


@dataclass
class CheckpointSnapshot:
    """Everything a checkpoint persists, captured inside the cut."""

    checkpoint_id: int
    wal_start_segment: int
    clock_now: float
    baskets: Dict[str, BasketState] = field(default_factory=dict)
    factories: Dict[str, dict] = field(default_factory=dict)
    emitters: Dict[str, int] = field(default_factory=dict)


@dataclass
class LoadedCheckpoint:
    """A validated checkpoint read back from disk."""

    checkpoint_id: int
    wal_start_segment: int
    clock_now: float
    baskets: Dict[str, BasketState]
    factories: Dict[str, dict]
    emitters: Dict[str, int]
    path: Path


# ----------------------------------------------------------------------
def _ckpt_dir(root: Path, checkpoint_id: int) -> Path:
    return root / f"ckpt-{checkpoint_id:08d}"


def list_checkpoints(root: Union[str, Path]) -> List[Tuple[int, Path]]:
    """``(checkpoint_id, path)`` pairs, oldest first."""
    root = Path(root)
    if not root.is_dir():
        return []
    found = []
    for entry in root.iterdir():
        if entry.is_dir() and entry.name.startswith("ckpt-"):
            try:
                found.append((int(entry.name[5:]), entry))
            except ValueError:
                continue
    return sorted(found)


def _fsync_file(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _fsync_dir(path: Path) -> None:
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic filesystems
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


# ----------------------------------------------------------------------
# writing
# ----------------------------------------------------------------------
def write_checkpoint(
    root: Union[str, Path],
    snapshot: CheckpointSnapshot,
    keep: int = 2,
) -> Path:
    """Persist a snapshot atomically; prune to the ``keep`` newest."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    final_dir = _ckpt_dir(root, snapshot.checkpoint_id)
    tmp_dir = root / f".tmp-{final_dir.name}"
    if tmp_dir.exists():  # garbage from a crashed earlier attempt
        shutil.rmtree(tmp_dir)
    if final_dir.exists():
        raise DurabilityError(
            f"checkpoint {snapshot.checkpoint_id} already exists"
        )
    tmp_dir.mkdir(parents=True)

    basket_order = sorted(snapshot.baskets)
    state = {
        "format": 1,
        "checkpoint_id": snapshot.checkpoint_id,
        "wal_start_segment": snapshot.wal_start_segment,
        "clock_now": snapshot.clock_now,
        "emitters": dict(snapshot.emitters),
        "factories": snapshot.factories,
        "baskets": {
            name: {
                "columns": [
                    [n, a.value] for n, a in snapshot.baskets[name].columns
                ],
                "next_seq": snapshot.baskets[name].next_seq,
                "readers": snapshot.baskets[name].readers,
                "total_in": snapshot.baskets[name].total_in,
                "total_out": snapshot.baskets[name].total_out,
                "total_shed": snapshot.baskets[name].total_shed,
                "digest": snapshot.baskets[name].digest,
            }
            for name in basket_order
        },
    }
    state_path = tmp_dir / "state.json"
    state_path.write_text(json.dumps(state, indent=1, sort_keys=True))

    columns_path = tmp_dir / "columns.bin"
    with open(columns_path, "wb") as handle:
        handle.write(COLUMNS_MAGIC)
        for name in basket_order:
            basket = snapshot.baskets[name]
            for (_, atom), array in zip(basket.columns, basket.arrays):
                handle.write(pack_frame(encode_column(atom, array)))
            handle.write(
                pack_frame(encode_column(AtomType.LNG, basket.seqs))
            )
    _fsync_file(state_path)
    _fsync_file(columns_path)
    _fsync_dir(tmp_dir)
    os.rename(tmp_dir, final_dir)
    _fsync_dir(root)

    manifest_tmp = root / f".tmp-{MANIFEST}"
    manifest_tmp.write_text(
        json.dumps(
            {
                "latest": final_dir.name,
                "checkpoint_id": snapshot.checkpoint_id,
                "wal_start_segment": snapshot.wal_start_segment,
            }
        )
    )
    _fsync_file(manifest_tmp)
    os.rename(manifest_tmp, root / MANIFEST)
    _fsync_dir(root)

    for checkpoint_id, path in list_checkpoints(root)[:-keep]:
        shutil.rmtree(path, ignore_errors=True)
    return final_dir


# ----------------------------------------------------------------------
# loading
# ----------------------------------------------------------------------
def _load_one(path: Path) -> LoadedCheckpoint:
    state = json.loads((path / "state.json").read_text())
    if state.get("format") != 1:
        raise DurabilityError(f"unsupported checkpoint format in {path}")
    data = (path / "columns.bin").read_bytes()
    if not data.startswith(COLUMNS_MAGIC):
        raise DurabilityError(f"bad columns magic in {path}")
    offset = len(COLUMNS_MAGIC)
    baskets: Dict[str, BasketState] = {}
    for name in sorted(state["baskets"]):
        doc = state["baskets"][name]
        columns = [(n, AtomType(a)) for n, a in doc["columns"]]
        arrays: List[np.ndarray] = []
        for _, atom in columns:
            parsed = unpack_frame(data, offset)
            if parsed is None:
                raise DurabilityError(f"torn column frame in {path}")
            payload, offset = parsed
            arrays.append(decode_column(atom, payload))
        parsed = unpack_frame(data, offset)
        if parsed is None:
            raise DurabilityError(f"torn seq frame in {path}")
        payload, offset = parsed
        seqs = decode_column(AtomType.LNG, payload)
        counts = {len(a) for a in arrays} | {len(seqs)}
        if len(counts) != 1:
            raise DurabilityError(f"misaligned columns in {path}")
        baskets[name] = BasketState(
            columns=columns,
            arrays=arrays,
            seqs=seqs,
            next_seq=int(doc["next_seq"]),
            readers={k: int(v) for k, v in doc["readers"].items()},
            total_in=int(doc.get("total_in", 0)),
            total_out=int(doc.get("total_out", 0)),
            total_shed=int(doc.get("total_shed", 0)),
            digest=doc.get("digest", ""),
        )
    return LoadedCheckpoint(
        checkpoint_id=int(state["checkpoint_id"]),
        wal_start_segment=int(state["wal_start_segment"]),
        clock_now=float(state["clock_now"]),
        baskets=baskets,
        factories=state.get("factories", {}),
        emitters={
            k: int(v) for k, v in state.get("emitters", {}).items()
        },
        path=path,
    )


def load_latest_checkpoint(
    root: Union[str, Path],
) -> Optional[LoadedCheckpoint]:
    """Newest checkpoint that validates, or ``None``.

    The manifest is a hint, not an authority: if it is missing, stale,
    or points at a checkpoint that fails validation, the loader falls
    back to scanning every ``ckpt-*`` directory newest-first.
    """
    root = Path(root)
    candidates = [path for _, path in reversed(list_checkpoints(root))]
    manifest_path = root / MANIFEST
    if manifest_path.is_file():
        try:
            latest = root / json.loads(manifest_path.read_text())["latest"]
            if latest in candidates:
                candidates.remove(latest)
                candidates.insert(0, latest)
        except (ValueError, KeyError, OSError):
            pass
    for path in candidates:
        try:
            return _load_one(path)
        except (DurabilityError, ValueError, KeyError, OSError, json.JSONDecodeError):
            continue
    return None
