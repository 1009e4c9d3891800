"""Z-sets: weighted multisets, the value type of delta streams (DBSP).

A Z-set maps rows (hashable tuples) to integer weights.  A weight of
``+k`` means the row is present ``k`` times; ``-k`` means ``k``
retractions are pending.  Zero-weight entries are eliminated eagerly, so
``a + (-a) == ZSet()`` holds structurally — the cancellation law the
property suite pins.

Z-sets form an abelian group under :meth:`__add__`; streams of Z-sets
form a group pointwise, which is what makes the DBSP incremental
operators (:mod:`~repro.incremental.circuit`) compositional: a *linear*
operator is its own incremental version, and any operator can be
incrementalized as ``D ∘ lift(op) ∘ I``.

Rows with weight accumulation collapse duplicates: inserting the same
tuple twice yields one entry of weight 2.  :meth:`to_rows` expands
positive weights back into a plain multiset of rows (and refuses
negative ones — emitting a retraction as a plain row would corrupt a
non-weighted consumer).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from ..errors import DataCellError

__all__ = ["ZSet", "WEIGHT_COLUMN", "integrate_weighted_rows"]

#: Name of the visible weight column carried by delta-mode output baskets
#: (rows are ``(*user_columns, weight)`` with weight ``+1``/``-1``).
WEIGHT_COLUMN = "dc_weight"

Row = Tuple[Any, ...]


class ZSet:
    """A weighted multiset of rows with eager zero elimination."""

    __slots__ = ("_weights",)

    def __init__(
        self, weights: Optional[Dict[Row, int]] = None
    ) -> None:
        self._weights: Dict[Row, int] = {}
        if weights:
            for row, weight in weights.items():
                self.add(row, weight)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(cls, rows: Iterable[Row], weight: int = 1) -> "ZSet":
        """The Z-set of ``rows``, each carrying ``weight`` (default +1)."""
        out = cls()
        for row in rows:
            out.add(tuple(row), weight)
        return out

    def copy(self) -> "ZSet":
        out = ZSet()
        out._weights = dict(self._weights)
        return out

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add(self, row: Row, weight: int = 1) -> None:
        """Fold ``(row, weight)`` in, eliminating the entry at zero."""
        if weight == 0:
            return
        new = self._weights.get(row, 0) + weight
        if new == 0:
            del self._weights[row]
        else:
            self._weights[row] = new

    def merge(self, other: "ZSet") -> None:
        """In-place ``self += other``."""
        for row, weight in other._weights.items():
            self.add(row, weight)

    # ------------------------------------------------------------------
    # group algebra
    # ------------------------------------------------------------------
    def __add__(self, other: "ZSet") -> "ZSet":
        out = self.copy()
        out.merge(other)
        return out

    def __neg__(self) -> "ZSet":
        out = ZSet()
        out._weights = {row: -w for row, w in self._weights.items()}
        return out

    def __sub__(self, other: "ZSet") -> "ZSet":
        return self + (-other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ZSet):
            return NotImplemented
        return self._weights == other._weights

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def __bool__(self) -> bool:
        return bool(self._weights)

    def items(self) -> Iterator[Tuple[Row, int]]:
        return iter(self._weights.items())

    def is_positive(self) -> bool:
        """True when every weight is ≥ 0 (the Z-set is a plain multiset)."""
        return all(w > 0 for w in self._weights.values())

    def total_weight(self) -> int:
        return sum(self._weights.values())

    def to_rows(self) -> List[Row]:
        """Expand positive weights into a row multiset.

        Raises on negative weights: a retraction has no representation as
        a plain row and must flow through a weighted consumer instead.
        """
        out: List[Row] = []
        for row, weight in self._weights.items():
            if weight < 0:
                raise DataCellError(
                    f"cannot expand negative weight {weight} for row {row!r}"
                )
            out.extend([row] * weight)
        return out

    def to_weighted_rows(self) -> List[Row]:
        """Rows with the weight appended as a last column (insertion order)."""
        return [(*row, weight) for row, weight in self._weights.items()]

    def nbytes(self) -> int:
        """Rough per-entry estimate for resource accounting."""
        # dict slot + tuple header + per-field pointers; precision is not
        # the contract here (see obs.resources.estimate_nbytes)
        per_row = 96
        return 56 + sum(
            per_row + 8 * len(row) for row in self._weights
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(
            f"{row!r}: {w:+d}" for row, w in list(self._weights.items())[:8]
        )
        suffix = ", ..." if len(self._weights) > 8 else ""
        return f"ZSet({{{inner}{suffix}}})"


def integrate_weighted_rows(rows: Iterable[Row]) -> List[Row]:
    """Fold ``(*cols, weight)`` delta rows into the current multiset.

    This is how a client (or the differential oracle) turns the delta
    output of an incremental query back into ordinary rows: sum weights
    per distinct row prefix, then expand.  Raises if any row nets a
    negative weight — more retractions than insertions means the delta
    stream is corrupt.
    """
    acc = ZSet()
    for row in rows:
        acc.add(tuple(row[:-1]), int(row[-1]))
    return acc.to_rows()
