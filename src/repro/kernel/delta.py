"""Delta-aware columnar kernels: weighted (Z-set) column operations.

Views (``repro.incremental``) represent change streams as rows carrying
an integer weight column (+1 insert / −1 retract).  These kernels are
the columnar counterparts of the Z-set algebra — they operate on whole
weight-annotated relations at BAT granularity, so the MAL layer can
manipulate deltas without dropping to per-row python:

``canonicalize``
    combine duplicate rows by summing weights and drop zero-weight rows —
    the normal form every delta should be in before crossing an operator
    boundary.

``expand``
    turn a canonical positive delta back into a plain multiset relation
    (``np.repeat`` by weight); refuses negative weights, mirroring
    :meth:`repro.incremental.zset.ZSet.to_rows`.

``weighted_grouped_sum`` / ``weighted_grouped_count``
    per-group Σ(value·weight) and Σ(weight) via ``np.bincount`` — the
    delta-aggregate inner loop.

All are registered as MAL primitives under the ``delta.*`` module (see
:mod:`repro.kernel.interpreter`), making them first-class opcodes that
show up in opcode profiles and EXPLAIN ANALYZE like any other kernel
operation.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

from ..errors import KernelError
from .bat import BAT, bat_from_values
from .mal import ResultSet
from .types import AtomType

__all__ = [
    "canonicalize",
    "expand",
    "weighted_grouped_sum",
    "weighted_grouped_count",
]


def _weights_of(result: ResultSet) -> np.ndarray:
    """The weight column (last) of a delta ResultSet, as int64."""
    if not result.bats:
        raise KernelError("delta relation has no columns")
    wbat = result.bats[-1]
    if wbat.atom is not AtomType.LNG:
        raise KernelError(
            f"weight column must be LNG, got {wbat.atom}"
        )
    return wbat.tail.astype(np.int64)


def canonicalize(result: ResultSet) -> ResultSet:
    """Merge duplicate rows (summing weights), drop zero-weight rows.

    The last column is the weight.  Output rows appear in first-occurrence
    order of their key — deterministic, which the durability digests rely
    on.  NULLs participate in row identity (two NULL-keyed rows merge).
    """
    weights = _weights_of(result)
    key_cols: List[List[Any]] = [
        bat.python_list() for bat in result.bats[:-1]
    ]
    acc: Dict[Tuple[Any, ...], int] = {}
    for i in range(len(weights)):
        key = tuple(col[i] for col in key_cols)
        w = acc.get(key, 0) + int(weights[i])
        if w == 0:
            # keep the slot so first-occurrence order is stable even if
            # the row later reappears with non-zero net weight
            acc[key] = 0
        else:
            acc[key] = w
    rows = [(key, w) for key, w in acc.items() if w != 0]
    atoms = [bat.atom for bat in result.bats]
    out_bats = []
    for c, atom in enumerate(atoms[:-1]):
        out_bats.append(
            bat_from_values(atom, [key[c] for key, _ in rows])
        )
    out_bats.append(
        bat_from_values(AtomType.LNG, [w for _, w in rows])
    )
    return ResultSet(list(result.names), out_bats)


def expand(result: ResultSet) -> ResultSet:
    """Expand a positive delta into a plain relation (weight stripped).

    Each row is repeated ``weight`` times.  Negative weights are an
    error: a retraction cannot be represented in a non-weighted relation.
    """
    weights = _weights_of(result)
    if np.any(weights < 0):
        bad = int(weights[weights < 0][0])
        raise KernelError(
            f"cannot expand delta with negative weight {bad}"
        )
    positions = np.repeat(
        np.arange(len(weights), dtype=np.int64), weights
    )
    out_bats = []
    for bat in result.bats[:-1]:
        nb = BAT(bat.atom, capacity=max(len(positions), 1))
        nb.append_array(bat.tail[positions])
        out_bats.append(nb)
    return ResultSet(list(result.names[:-1]), out_bats)


def weighted_grouped_sum(
    values: np.ndarray,
    weights: np.ndarray,
    gids: np.ndarray,
    ngroups: int,
) -> np.ndarray:
    """Per-group Σ(value·weight) — the incremental SUM inner loop."""
    if not (len(values) == len(weights) == len(gids)):
        raise KernelError("weighted sum inputs not aligned")
    return np.bincount(
        gids,
        weights=values.astype(np.float64) * weights.astype(np.float64),
        minlength=ngroups,
    )


def weighted_grouped_count(
    weights: np.ndarray, gids: np.ndarray, ngroups: int
) -> np.ndarray:
    """Per-group Σ(weight) — the incremental COUNT inner loop."""
    if len(weights) != len(gids):
        raise KernelError("weighted count inputs not aligned")
    return np.bincount(
        gids, weights=weights.astype(np.float64), minlength=ngroups
    ).astype(np.int64)
