"""DBSP stream operators over Z-set deltas.

A *circuit* maps streams of Z-sets to streams of Z-sets, driven one
*step* (factory firing) at a time.  Its lift stages are compiled MAL
programs (``repro.incremental.compile``); the stateful operators, which
keep the integrated state, are here:

``IncrementalGroupAggregate``
    the incrementalized GROUP-BY aggregate: the delta folds into the
    kernel's per-group partials, whose cells the kernel's key map finds
    as it finds a window's, and the output delta retracts each changed
    group's previous result row and inserts the new one.

``IncrementalJoin``
    the bilinear equi-join incrementalized as
    ``d(L ⋈ R) = dL ⋈ z(I(R)) + I(L) ⋈ dR`` where ``I(L)`` already
    contains ``dL`` — the three classic delta-join terms folded into two
    probes against keyed integrated state.

A view's input is insert-only (a lift stage reads a basket), so a GROUP
BY's integral is a fold into partials that never answers a retraction.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import DataCellError
from ..kernel.aggregate import (
    IDENTITIES,
    MAX,
    MIN,
    NEEDS,
    PLANES,
    SUM,
    SUM_LIMIT,
    finalize,
    fold,
)
from ..kernel.bat import BAT, storage_array
from ..kernel.group import KeyMap
from ..kernel.types import AtomType
from .zset import Row, ZSet

__all__ = [
    "IncrementalGroupAggregate",
    "IncrementalJoin",
]

#: the layout of a saved aggregate state; the one before it, a python
#: summary per group, is read too
STATE_VERSION = 2


class IncrementalGroupAggregate:
    """The integral of a GROUP BY over an insert-only delta stream.

    Groups are the cells of ``(PLANES, capacity)`` partials over the
    value atom (:mod:`repro.kernel.aggregate`); the kernel's
    :class:`~repro.kernel.group.KeyMap` numbers them by first arrival
    and holds their keys.  Without GROUP BY its one cell 0 exists over
    no rows too, as in SQL.

    A step finds the delta's cells in the map, folds the delta into the
    partials in row order and finalizes the touched cells before and
    after.  Its output columns ``(*keys, *aggregates, weight)`` hold,
    per touched group whose row changed, in first-touch order, the old
    row (−1; a new group has none) and the new one (+1).
    """

    def __init__(
        self,
        aggregates: Sequence[str],
        key_atoms: Sequence[AtomType],
        value_atom: AtomType,
    ) -> None:
        self.aggregates = list(aggregates)
        self.key_atoms = list(key_atoms)
        self.value_atom = value_atom
        self._planes = sorted(set().union(*(NEEDS[a] for a in aggregates)))
        self._identity = IDENTITIES[value_atom]
        self.key_map = KeyMap(key_atoms)
        self._partials = self._identity[:, None].copy()  # fit grows it

    def result(self, cells: np.ndarray) -> List[BAT]:
        """Each aggregate's column over ``cells``."""
        partials = self._partials[:, cells]  # a copy finalize may write
        return [finalize(a, self.value_atom, partials) for a in self.aggregates]

    def step(self, keys: List[BAT], values: BAT) -> Optional[List[BAT]]:
        """Fold one delta, ``values`` keyed by ``keys``; the output
        delta's columns, None when no group's row changed."""
        if not values.count:
            return None
        cells, touched, new = self.key_map.lookup(keys, values.count)
        self._partials = self.key_map.fit(self._partials, self._identity)
        before = self.result(touched)
        self._partials = fold(
            self.value_atom, cells, values.tail, values.nil_positions(),
            self._planes, into=self._partials,
        )
        after = self.result(touched)
        changed = new.copy()
        for old, now in zip(before, after):
            o, n = old.tail, now.tail
            changed |= (o != n) & ((o == o) | (n == n))  # NULL (NaN) == NULL
        m = len(touched)
        # rows of before ++ after: per changed group, old then new
        rows = np.arange(2 * m).reshape(2, m).T[
            np.stack([changed & ~new, changed], axis=1)
        ]
        if not len(rows):
            return None
        columns = [
            BAT.adopt(atom, stored[touched[rows % m]])
            for atom, stored in zip(self.key_atoms, self.key_map.keys)
        ] + [
            BAT.adopt(old.atom, np.concatenate([old.tail, now.tail])[rows])
            for old, now in zip(before, after)
        ]
        weights = np.where(rows < m, -1, 1).astype(np.int64)
        return columns + [BAT.adopt(AtomType.LNG, weights)]

    # -- durability -----------------------------------------------------
    def export_state(self) -> Dict[str, Any]:
        return {
            "version": STATE_VERSION,
            "aggregates": self.aggregates,
            "keys": self.key_map.keys,
            "partials": self._partials[:, : self.key_map.size],
        }

    def import_state(self, state: Dict[str, Any], view: str) -> None:
        """Restore a saved state of ``view``, this layout or the one
        before it; any other raises."""
        if state.get("version") == STATE_VERSION:
            keys, partials = state["keys"], state["partials"]
        elif set(state) == {"aggregates", "groups"}:
            keys, partials = self._from_summaries(state["groups"])
        else:
            keys = partials = None
        fits = (self.aggregates, len(self.key_atoms))
        if keys is None or (state["aggregates"], len(keys)) != fits:
            raise DataCellError(
                f"view {view!r}: saved aggregate state has another layout"
            )
        self.key_map.restore(keys)
        self._partials = partials.copy()

    def _from_summaries(
        self, groups: Dict[Tuple[Any, ...], Dict[str, Any]]
    ) -> Tuple[List[np.ndarray], np.ndarray]:
        """Keys and partials of the per-group summaries a view saved
        before it folded into partials: ``star``, ``count``, an exact
        ``total`` and its values' weights."""
        ident = IDENTITIES[self.value_atom]
        partials = np.array([
            [blob["star"], blob["count"], blob["total"],
             min(blob["value_weights"], default=ident[MIN]),
             max(blob["value_weights"], default=ident[MAX])]
            for blob in groups.values()
        ], dtype=object).reshape(-1, PLANES).T
        if ident.dtype.kind != "i" or (abs(partials[SUM]) <= SUM_LIMIT).all():
            partials = partials.astype(ident.dtype)  # integral floats exact
        return [
            storage_array(atom, [key[i] for key in groups])
            for i, atom in enumerate(self.key_atoms)
        ], partials

    def nbytes(self) -> int:
        from ..obs.resources import estimate_nbytes

        keyed = 96 * self.key_map.size  # a dict slot and key tuple each
        return estimate_nbytes([self._partials, *self.key_map.keys]) + keyed


class IncrementalJoin:
    """Incremental equi-join: delta-probe against integrated state.

    Input rows carry their join key at ``key_index``; output rows are
    ``(*left_row, *right_row_without_key)`` — the key appears once, from
    the left side, matching the re-eval join's projection.

    Per step: ``d(L ⋈ R) = dL ⋈ I_old(R) + I_new(L) ⋈ dR`` where
    ``I_new(L)`` already includes ``dL``, so the ``dL ⋈ dR`` cross term
    is counted exactly once.  Output weights multiply (bilinearity).
    """

    def __init__(self, left_key: int, right_key: int) -> None:
        self.left_key = left_key
        self.right_key = right_key
        # key -> ZSet of rows with that key (integrated state per side)
        self.left_state: Dict[Hashable, ZSet] = {}
        self.right_state: Dict[Hashable, ZSet] = {}

    def _fold(
        self, state: Dict[Hashable, ZSet], key_index: int, delta: ZSet
    ) -> None:
        for row, weight in delta.items():
            key = row[key_index]
            bucket = state.get(key)
            if bucket is None:
                bucket = state[key] = ZSet()
            bucket.add(row, weight)
            if not bucket:
                del state[key]

    def _pair(self, left_row: Row, right_row: Row) -> Row:
        right = (
            right_row[: self.right_key] + right_row[self.right_key + 1 :]
        )
        return (*left_row, *right)

    def step_both(self, dleft: ZSet, dright: ZSet) -> ZSet:
        """Advance one step with deltas for both inputs."""
        out = ZSet()
        # dL ⋈ I_old(R): probe the right state before folding dR in
        for lrow, lweight in dleft.items():
            key = lrow[self.left_key]
            if key is None:
                continue
            bucket = self.right_state.get(key)
            if bucket:
                for rrow, rweight in bucket.items():
                    out.add(self._pair(lrow, rrow), lweight * rweight)
        self._fold(self.left_state, self.left_key, dleft)
        # I_new(L) ⋈ dR: left state now includes dL → dL⋈dR counted here
        for rrow, rweight in dright.items():
            key = rrow[self.right_key]
            if key is None:
                continue
            bucket = self.left_state.get(key)
            if bucket:
                for lrow, lweight in bucket.items():
                    out.add(self._pair(lrow, rrow), lweight * rweight)
        self._fold(self.right_state, self.right_key, dright)
        return out

    # -- durability -----------------------------------------------------
    def export_state(self) -> Dict[str, Any]:
        def side(state: Dict[Hashable, ZSet]) -> Dict[Hashable, List]:
            return {
                key: sorted(bucket.items(), key=repr)
                for key, bucket in sorted(state.items(), key=lambda kv: repr(kv[0]))
            }

        return {
            "left_key": self.left_key,
            "right_key": self.right_key,
            "left_state": side(self.left_state),
            "right_state": side(self.right_state),
        }

    def import_state(self, state: Dict[str, Any]) -> None:
        self.left_key = state["left_key"]
        self.right_key = state["right_key"]

        def side(blob: Dict[Hashable, List]) -> Dict[Hashable, ZSet]:
            out: Dict[Hashable, ZSet] = {}
            for key, entries in blob.items():
                zs = ZSet()
                for row, weight in entries:
                    zs.add(tuple(row), weight)
                out[key] = zs
            return out

        self.left_state = side(state["left_state"])
        self.right_state = side(state["right_state"])

    def nbytes(self) -> int:
        return 200 + sum(
            64 + bucket.nbytes()
            for state in (self.left_state, self.right_state)
            for bucket in state.values()
        )
