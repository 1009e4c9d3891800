"""Binary Association Tables (BATs) — the kernel's only collection type.

A BAT is a two-column structure ``(head, tail)``.  As in modern MonetDB the
head is *virtual*: a dense, ascending ``oid`` sequence starting at
``hseqbase`` that is never materialized.  The tail is a typed array.  A
relational table of ``k`` attributes is ``k`` BATs that share the same head
sequence — the *tuple-order alignment* the paper relies on for cheap tuple
reconstruction.

BATs are append-only at this level: a tail position, once written, is never
written again.  Deletion happens by deriving a new BAT that holds only the
surviving positions — a basket consumes tuples by swapping in such a BAT
per column (:mod:`repro.core.basket`).  Derivations (:meth:`BAT.slice`,
:meth:`BAT.take_positions`) *adopt* the array their indexing produced, so
deriving a BAT costs exactly one copy of the selected values.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from ..errors import AlignmentError, KernelError, TypeMismatchError
from .types import AtomType, coerce_scalar, nil_mask, numpy_dtype, python_values

__all__ = [
    "BAT", "bat_from_values", "empty_bat", "check_aligned", "storage_array",
]

_INITIAL_CAPACITY = 16
_DTYPES = {atom: numpy_dtype(atom) for atom in AtomType}
_STR_TYPES = frozenset((str, type(None)))
_BOOL_TYPES = frozenset((bool, np.bool_))


class BAT:
    """A single column: virtual dense head + typed tail.

    Parameters
    ----------
    atom:
        The tail's atom type.
    hseqbase:
        First head oid.  ``head[i] == hseqbase + i``.

    The tail grows amortized-O(1) via a capacity-doubling backing array, so
    receptors can append tuple batches cheaply.
    """

    # ``count`` is a plain slot, not a property: the per-firing path
    # reads it on every basket, snapshot and operator; only the BAT
    # itself writes it.  ``join_index`` is the equi-join index built on
    # this BAT's tail (:class:`repro.kernel.join.JoinIndex`, or ``None``):
    # it records the ``count`` it indexes, and an append moves ``count``
    # past it, so a stale index is never used.  ``histogram`` is the rows
    # per group id of a groups BAT that ``group.group``/``subgroup`` made
    # (``None`` on any other BAT); such a BAT is adopted, so an append
    # reallocates its tail, and a reallocation drops the histogram.
    __slots__ = ("atom", "hseqbase", "_data", "count", "join_index",
                 "histogram")

    def __init__(self, atom: AtomType, hseqbase: int = 0, capacity: int = 0):
        self.atom = atom
        self.hseqbase = int(hseqbase)
        self._data = np.empty(
            max(capacity, _INITIAL_CAPACITY), dtype=numpy_dtype(atom)
        )
        self.count = 0
        self.join_index = self.histogram = None

    @classmethod
    def adopt(cls, atom: AtomType, array: np.ndarray, hseqbase: int = 0) -> "BAT":
        """A BAT whose tail *is* ``array`` — no copy is made.

        ``array`` must already be in ``atom``'s storage dtype, and the
        caller hands it over: nothing else may write to it afterwards.
        Its length is both count and capacity, so the first append
        reallocates rather than writing into a shared buffer.
        """
        out = cls.__new__(cls)
        out.atom = atom
        out.hseqbase = int(hseqbase)
        out._data = array
        out.count = len(array)
        out.join_index = out.histogram = None
        return out

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.count

    @property
    def tail(self) -> np.ndarray:
        """A view of the valid portion of the tail array (do not mutate)."""
        return self._data[: self.count]

    @property
    def hseq_end(self) -> int:
        """One past the last head oid."""
        return self.hseqbase + self.count

    def element_nbytes(self) -> int:
        """Estimated bytes per tail element.

        Fixed-width atoms report the numpy itemsize exactly; object
        (string) tails use a flat per-element estimate because walking
        every python string would be O(n).
        """
        if self._data.dtype == object:
            from ..obs.resources import OBJECT_ELEMENT_BYTES

            return OBJECT_ELEMENT_BYTES
        return self._data.itemsize

    def nbytes(self) -> int:
        """Estimated tail-payload bytes, O(1) by contract.

        ``count * element_nbytes()``; spare capacity beyond ``count`` is
        not charged — it measures data held, not arena size.  See
        docs/observability.md, "Resource accounting".
        """
        return self.count * self.element_nbytes()

    def head_oids(self) -> np.ndarray:
        """Materialize the (normally virtual) head as an oid array."""
        return np.arange(
            self.hseqbase, self.hseqbase + self.count, dtype=np.int64
        )

    def value(self, position: int) -> Any:
        """Tail value at *position* (0-based, not oid)."""
        if not 0 <= position < self.count:
            raise KernelError(
                f"position {position} out of range [0, {self.count})"
            )
        return self._data[position]

    def value_at_oid(self, oid: int) -> Any:
        """Tail value for head oid ``oid``."""
        return self.value(int(oid) - self.hseqbase)

    def python_list(self) -> List[Any]:
        """Tail as plain python values (NULLs become ``None``)."""
        return python_values(self.atom, self.tail)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.tail)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        preview = ", ".join(repr(v) for v in self.tail[:5])
        suffix = ", ..." if self.count > 5 else ""
        return (
            f"BAT({self.atom.value}, hseqbase={self.hseqbase}, "
            f"count={self.count}, [{preview}{suffix}])"
        )

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def _reserve(self, extra: int) -> None:
        needed = self.count + extra
        if needed <= len(self._data):
            return
        new_cap = max(len(self._data) * 2, needed)
        grown = np.empty(new_cap, dtype=self._data.dtype)
        grown[: self.count] = self._data[: self.count]
        self._data = grown
        self.histogram = None

    def append(self, value: Any) -> None:
        """Append one (coerced) value to the tail."""
        self._reserve(1)
        self._data[self.count] = coerce_scalar(self.atom, value)
        self.count += 1

    def append_many(self, values: Iterable[Any]) -> None:
        """Append an iterable of python values, coercing each (see
        :func:`storage_array`)."""
        self.append_array(storage_array(self.atom, values))

    def append_array(self, array: np.ndarray) -> None:
        """Append a numpy array already in storage representation."""
        array = np.asarray(array)
        if array.dtype != self._data.dtype:
            try:
                array = array.astype(self._data.dtype)
            except (TypeError, ValueError) as exc:
                raise TypeMismatchError(
                    f"cannot append dtype {array.dtype} to {self.atom.value} BAT"
                ) from exc
        start = self.count
        stop = start + len(array)
        if stop > len(self._data):  # checked here: appends rarely grow
            self._reserve(len(array))
        self._data[start:stop] = array
        self.count = stop

    def append_fill(self, value: Any, n: int) -> None:
        """Append ``n`` copies of one storage-representation value."""
        start = self.count
        if start + n > len(self._data):
            self._reserve(n)
        self._data[start : start + n] = value
        self.count = start + n

    def append_bat(self, other: "BAT") -> None:
        """Append another BAT's tail (types must match)."""
        if other.atom is not self.atom:
            raise TypeMismatchError(
                f"cannot append {other.atom.value} BAT to {self.atom.value} BAT"
            )
        self.append_array(other.tail)

    # ------------------------------------------------------------------
    # derivation
    # ------------------------------------------------------------------
    def slice(self, start: int, stop: int, hseqbase: Optional[int] = None) -> "BAT":
        """New BAT holding tail positions ``[start, stop)``.

        The new head restarts at ``hseqbase`` (default: ``self.hseqbase +
        start``, preserving global oids).
        """
        start = max(0, start)
        stop = min(self.count, stop)
        if hseqbase is None:
            hseqbase = self.hseqbase + start
        return BAT.adopt(self.atom, self._data[start:stop].copy(), hseqbase)

    def view(self, start: int, stop: int) -> "BAT":
        """A read-only BAT over tail positions ``[start, stop)`` that
        shares this BAT's storage — no copy; the head restarts at 0.

        Sound only while the owner never rewrites those positions (a
        basket only appends past its count).  The view's tail refuses
        writes, so an operator that writes into its input fails loudly;
        an append to the view reallocates, as after :meth:`adopt`.
        """
        array = self._data[start:stop]
        array.flags.writeable = False
        return BAT.adopt(self.atom, array)

    def take_positions(self, positions: np.ndarray, hseqbase: int = 0) -> "BAT":
        """New BAT with the tail values at the given 0-based positions."""
        if not len(positions):  # also covers an untyped (float) empty list
            return BAT(self.atom, hseqbase=hseqbase)
        return BAT.adopt(self.atom, self.tail[positions], hseqbase)

    def take_oids(self, oids: np.ndarray, hseqbase: int = 0) -> "BAT":
        """New BAT with tail values for the given head oids (fetch join)."""
        positions = np.asarray(oids, dtype=np.int64)
        if not len(positions):
            return BAT(self.atom, hseqbase=hseqbase)
        if self.hseqbase:
            positions = positions - self.hseqbase
        # the extremes by position: argmin/argmax cost a fraction of
        # min/max's reduction on short candidate lists
        if (
            positions[positions.argmin()] < 0
            or positions[positions.argmax()] >= self.count
        ):
            raise KernelError("oid out of BAT head range")
        return BAT.adopt(self.atom, self._data[positions], hseqbase)

    def handed_over(self, atom: AtomType) -> "BAT":
        """A BAT (head 0) over this one's values that a new owner may
        append to: it shares the tail array when nothing can write it —
        a read-only view (a basket snapshot's) or an array holding
        exactly this BAT's values, which an append to this BAT would
        reallocate — and holds a copy of the tail otherwise.  ``atom``
        is the new owner's, which must be this BAT's."""
        if atom is not self.atom:
            raise TypeMismatchError(
                f"cannot append {self.atom.value} BAT to {atom.value} BAT"
            )
        data = self._data
        if data.flags.writeable and (
            data.base is not None or len(data) != self.count
        ):
            data = data[: self.count].copy()
        return BAT.adopt(atom, data)

    def copy(self) -> "BAT":
        """Deep copy (same head sequence)."""
        return BAT.adopt(self.atom, self.tail.copy(), self.hseqbase)

    def nil_positions(self) -> np.ndarray:
        """Boolean mask of NULL tail positions."""
        return nil_mask(self.atom, self.tail)


def storage_array(atom: AtomType, values: Iterable[Any]) -> np.ndarray:
    """``values`` in ``atom``'s storage dtype: the array
    ``[coerce_scalar(atom, v) for v in values]`` would fill, raising
    :class:`TypeMismatchError` where that would.

    The one conversion of a column on its way into a BAT.  An array
    already in the storage dtype is returned as is once its values are
    in the atom's domain (BOOL's -1/0/1; STR's object array once one
    pass over its value types finds only strings and ``None``); one
    that casts to it exactly is cast.  Python
    values go through one vectorised ``np.asarray`` — numpy converts
    each with ``int()``/``float()`` and checks the dtype's range, as
    :func:`coerce_scalar` does — or, for STR and BOOL, one check of
    their types; only a *dirty* column (NULLs in an integral or BOOL
    column, mixed types, out-of-range values) is coerced value by value.
    """
    dtype = _DTYPES[atom]
    if isinstance(values, np.ndarray):
        if values.ndim == 1:
            if values.dtype != dtype:
                if atom is not AtomType.STR and np.can_cast(
                    values.dtype, dtype, "safe"
                ):
                    return values.astype(dtype)
            elif atom is AtomType.STR:
                if set(map(type, values.tolist())) <= _STR_TYPES:
                    return values
            elif atom is not AtomType.BOOL or not (
                (values < -1) | (values > 1)
            ).any():
                return values
        if atom is AtomType.STR and values.dtype.kind != "U":
            values = list(values)  # str(float32(x)) is not str(float(x))
        else:
            values = values.tolist()
    elif not isinstance(values, (list, tuple)):
        values = list(values)
    if atom is AtomType.STR:
        if set(map(type, values)) <= _STR_TYPES:
            out = np.empty(len(values), dtype)
            out[:] = values
            return out
    elif atom is AtomType.BOOL:
        # only bools: BOOL's domain is -1/0/1, not int8's
        if set(map(type, values)) <= _BOOL_TYPES:
            return np.asarray(values, dtype=dtype)
    else:
        try:
            out = np.asarray(values, dtype=dtype)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if out.ndim == 1:
                return out
    out = np.empty(len(values), dtype)
    for i, value in enumerate(values):
        out[i] = coerce_scalar(atom, value)
    return out


def bat_from_values(
    atom: AtomType, values: Sequence[Any], hseqbase: int = 0
) -> BAT:
    """Build a BAT from python values (coercing, NULLs allowed)."""
    out = BAT(atom, hseqbase=hseqbase, capacity=max(len(values), 1))
    out.append_many(values)
    return out


def empty_bat(atom: AtomType, hseqbase: int = 0) -> BAT:
    """An empty BAT of the given type."""
    return BAT(atom, hseqbase=hseqbase)


def check_aligned(*bats: BAT) -> None:
    """Assert that all BATs share head sequence (same base and count).

    Tuple-order alignment is the invariant that makes column projection a
    positional lookup; operators that combine columns of one table call this
    before trusting positions.
    """
    if not bats:
        return
    base, count = bats[0].hseqbase, bats[0].count
    for bat in bats[1:]:
        if bat.hseqbase != base or bat.count != count:
            raise AlignmentError(
                "BATs are not tuple-order aligned: "
                f"({base},{count}) vs ({bat.hseqbase},{bat.count})"
            )
