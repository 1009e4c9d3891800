"""Atom types of the column-store kernel.

The kernel mirrors MonetDB's atom-type design: every column (BAT tail) is a
homogeneously typed array of *atoms*.  The supported atoms are:

========= =====================  =============================
atom       python / numpy dtype   NULL representation
========= =====================  =============================
``OID``    ``int64``              ``2**63 - 1`` (``OID_NIL``)
``BOOL``   ``int8`` (0/1)         ``-1``
``INT``    ``int32``              ``-2**31`` (``INT_NIL``)
``LNG``    ``int64``              ``-2**63`` (``LNG_NIL``)
``DBL``    ``float64``            ``nan``
``STR``    object (``str``)       ``None``
``TIMESTAMP`` ``float64`` seconds ``nan``
========= =====================  =============================

NULLs follow MonetDB's convention of in-domain sentinel values rather than a
separate validity bitmap; :func:`is_nil` and :func:`nil_mask` centralize the
sentinel logic so operators never hand-roll comparisons.
"""

from __future__ import annotations

import enum
import math
from typing import Any, Optional

import numpy as np

from ..errors import TypeMismatchError

__all__ = [
    "AtomType",
    "OID_NIL",
    "INT_NIL",
    "LNG_NIL",
    "BOOL_NIL",
    "nil_value",
    "is_nil",
    "nil_mask",
    "numpy_dtype",
    "coerce_scalar",
    "common_type",
    "compare_atom",
    "literal_atom",
    "atom_named",
    "python_value",
    "python_values",
    "parse_atom",
]


class AtomType(enum.Enum):
    """Enumeration of kernel atom types."""

    OID = "oid"
    BOOL = "bool"
    INT = "int"
    LNG = "lng"
    DBL = "dbl"
    STR = "str"
    TIMESTAMP = "timestamp"

    # members are singletons that compare by identity: hash them by
    # identity too, in C (``Enum.__hash__`` is a python call, paid on
    # every dict lookup keyed by an atom)
    __hash__ = object.__hash__

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AtomType.{self.name}"

    @property
    def is_numeric(self) -> bool:
        """Whether arithmetic is defined on this atom type."""
        return self in _NUMERIC

    @property
    def is_integral(self) -> bool:
        return self in (AtomType.INT, AtomType.LNG, AtomType.OID)


_NUMERIC = {
    AtomType.INT,
    AtomType.LNG,
    AtomType.DBL,
    AtomType.OID,
    AtomType.TIMESTAMP,
}

OID_NIL = np.int64(2**63 - 1)
LNG_NIL = np.int64(-(2**63))
INT_NIL = np.int32(-(2**31))
BOOL_NIL = np.int8(-1)

_DTYPES = {
    AtomType.OID: np.dtype(np.int64),
    AtomType.BOOL: np.dtype(np.int8),
    AtomType.INT: np.dtype(np.int32),
    AtomType.LNG: np.dtype(np.int64),
    AtomType.DBL: np.dtype(np.float64),
    AtomType.STR: np.dtype(object),
    AtomType.TIMESTAMP: np.dtype(np.float64),
}

_NILS = {
    AtomType.OID: OID_NIL,
    AtomType.BOOL: BOOL_NIL,
    AtomType.INT: INT_NIL,
    AtomType.LNG: LNG_NIL,
    AtomType.DBL: float("nan"),
    AtomType.STR: None,
    AtomType.TIMESTAMP: float("nan"),
}

# Widening lattice used by arithmetic and comparison type resolution.
_RANK = {
    AtomType.BOOL: 0,
    AtomType.INT: 1,
    AtomType.OID: 2,
    AtomType.LNG: 2,
    AtomType.TIMESTAMP: 3,
    AtomType.DBL: 3,
}


def numpy_dtype(atom: AtomType) -> np.dtype:
    """Return the numpy dtype used to store tails of this atom type."""
    return _DTYPES[atom]


def nil_value(atom: AtomType) -> Any:
    """Return the NULL sentinel for ``atom``."""
    return _NILS[atom]


def is_nil(atom: AtomType, value: Any) -> bool:
    """True when ``value`` is the NULL sentinel of ``atom``."""
    if value is None:
        return True
    if atom is AtomType.STR:
        return value is None
    if atom in (AtomType.DBL, AtomType.TIMESTAMP):
        try:
            return math.isnan(value)
        except TypeError:
            return False
    try:
        return int(value) == int(_NILS[atom])
    except (TypeError, ValueError, OverflowError):  # OverflowError: inf
        return False


def nil_mask(atom: AtomType, values: np.ndarray) -> np.ndarray:
    """Boolean mask of NULL positions in a tail array of type ``atom``."""
    if atom is AtomType.DBL or atom is AtomType.TIMESTAMP:
        return np.isnan(values)
    if atom is AtomType.STR:
        return np.fromiter(
            (v is None for v in values), dtype=bool, count=len(values)
        )
    return values == _NILS[atom]


def common_type(left: AtomType, right: AtomType) -> AtomType:
    """Resolve the result atom type for a binary numeric operation.

    Raises :class:`TypeMismatchError` when the atoms cannot be combined
    (e.g. ``STR`` with ``INT``).
    """
    if left is right:
        return left
    if left is AtomType.STR or right is AtomType.STR:
        raise TypeMismatchError(
            f"cannot combine {left.value} with {right.value}"
        )
    rank_l, rank_r = _RANK[left], _RANK[right]
    winner = left if rank_l >= rank_r else right
    # OID/LNG tie and TIMESTAMP/DBL tie: prefer the plain numeric type.
    if {left, right} == {AtomType.OID, AtomType.LNG}:
        return AtomType.LNG
    if {left, right} == {AtomType.TIMESTAMP, AtomType.DBL}:
        return AtomType.DBL
    if winner in (AtomType.OID, AtomType.TIMESTAMP) and rank_l != rank_r:
        return winner
    return winner


def compare_atom(
    left: Optional[AtomType], right: Optional[AtomType]
) -> AtomType:
    """Atom of comparing two operands: BOOL.

    Strings compare only with strings, so one STR side raises
    :class:`TypeMismatchError`; ``None`` (unknown) compares with anything.
    Comparisons, selections and joins all ask this rule.
    """
    if (
        left is not None
        and right is not None
        and (left is AtomType.STR) != (right is AtomType.STR)
    ):
        raise TypeMismatchError(
            f"cannot compare {left.value} with {right.value}"
        )
    return AtomType.BOOL


def literal_atom(value: Any) -> Optional[AtomType]:
    """Atom of a python literal; ``None`` for NULL and for non-literals.

    A NULL literal has no atom of its own: the operator it feeds decides
    (``calc.const_atom`` makes it DBL, a selection bound leaves the range
    open).  An integer BIGINT cannot hold (its NIL sentinel included) is
    a DBL literal, as SQL reads an oversized integer literal.
    """
    if isinstance(value, (bool, np.bool_)):
        return AtomType.BOOL
    if isinstance(value, (int, np.integer)):
        if -(2**63) < value < 2**63:
            return AtomType.LNG
        return AtomType.DBL
    if isinstance(value, (float, np.floating)):
        return AtomType.DBL
    if isinstance(value, str):
        return AtomType.STR
    return None


def atom_named(name: Any) -> AtomType:
    """The atom a MAL constant names (``"int"``, or an :class:`AtomType`)."""
    try:
        return AtomType(name)
    except ValueError:
        raise TypeMismatchError(f"unknown atom {name!r}") from None


def coerce_scalar(atom: AtomType, value: Any) -> Any:
    """Coerce a python scalar to the storage representation of ``atom``.

    ``None`` always maps to the type's NULL sentinel.  Raises
    :class:`TypeMismatchError` for values outside the atom's domain.
    """
    if value is None or is_nil(atom, value):
        return _NILS[atom]
    try:
        if atom is AtomType.STR:
            if not isinstance(value, str):
                return str(value)
            return value
        if atom is AtomType.BOOL:
            if isinstance(value, bool):
                return np.int8(1 if value else 0)
            iv = int(value)
            if iv not in (-1, 0, 1):
                raise ValueError(value)
            return np.int8(iv)
        if atom in (AtomType.DBL, AtomType.TIMESTAMP):
            return float(value)
        if atom is AtomType.INT:
            iv = int(value)
            if not (-(2**31) < iv < 2**31):
                raise ValueError(value)
            return np.int32(iv)
        # OID / LNG
        return np.int64(int(value))
    except (TypeError, ValueError, OverflowError) as exc:
        raise TypeMismatchError(
            f"cannot coerce {value!r} to {atom.value}"
        ) from exc


def python_value(atom: AtomType, value: Any) -> Optional[Any]:
    """Convert a storage atom back to a plain python value (NULL → None).

    The scalar definition; columns go through :func:`python_values`.
    """
    if is_nil(atom, value):
        return None
    if atom is AtomType.STR:
        return value
    if atom is AtomType.BOOL:
        return bool(value)
    if atom in (AtomType.DBL, AtomType.TIMESTAMP):
        return float(value)
    return int(value)


def python_values(atom: AtomType, tail: np.ndarray) -> list:
    """A whole tail as plain python values: ``[python_value(atom, v) for v
    in tail]``, in one ``tolist()`` plus a NIL patch.

    STR tails already hold ``None`` for NIL; every other atom is masked
    and the patch loop runs only over the NIL positions, if any.
    """
    if atom is AtomType.STR:
        return tail.tolist()
    if atom is AtomType.BOOL:
        values = (tail != 0).tolist()
        # BOOL_NIL (-1) is the only value with a 0xff byte: a memchr
        # proves "no NIL" for less than the mask costs on short tails
        if b"\xff" not in tail.tobytes():
            return values
    else:
        values = tail.tolist()
        if not values:
            return values
        # every other NIL is an extreme of its storage: INT/LNG's is the
        # smallest value, OID's the largest, and argmax finds a NaN
        # first — one arg-extremum proves "no NIL" for less than the mask
        if atom is AtomType.INT or atom is AtomType.LNG:
            nil = INT_NIL if atom is AtomType.INT else LNG_NIL
            if tail[tail.argmin()] != nil:
                return values
        elif atom is AtomType.OID:
            if tail[tail.argmax()] != OID_NIL:
                return values
        elif not math.isnan(tail[tail.argmax()]):
            return values
    for position in nil_mask(atom, tail).nonzero()[0].tolist():
        values[position] = None
    return values


def parse_atom(atom: AtomType, text: str) -> Any:
    """Parse the textual flat-tuple representation of one field.

    Used by receptors: the DataCell interchange format is textual flat
    relational tuples.  Empty strings and the literal ``null`` map to NULL.
    """
    stripped = text.strip()
    if stripped == "" or stripped.lower() == "null":
        return _NILS[atom]
    if atom is AtomType.STR:
        return stripped
    if atom is AtomType.BOOL:
        low = stripped.lower()
        if low in ("true", "t", "1"):
            return np.int8(1)
        if low in ("false", "f", "0"):
            return np.int8(0)
        raise TypeMismatchError(f"bad bool literal {text!r}")
    if atom in (AtomType.DBL, AtomType.TIMESTAMP):
        try:
            return float(stripped)
        except ValueError as exc:
            raise TypeMismatchError(f"bad {atom.value} literal {text!r}") from exc
    try:
        return coerce_scalar(atom, int(stripped))
    except ValueError as exc:
        raise TypeMismatchError(f"bad {atom.value} literal {text!r}") from exc
