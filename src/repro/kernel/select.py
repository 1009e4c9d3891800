"""Selection primitives: the kernel's ``select`` family.

Selections take a BAT (and an optional candidate list) and return a
*candidate list* of qualifying head oids — they never materialize values.
This mirrors MonetDB's ``algebra.select`` / ``algebra.thetaselect`` and is
what lets the DataCell evaluate predicate windows lazily.

NULL semantics: NULL tail values never qualify for any comparison except the
explicit :func:`select_nil` / inverse selections.  A bound must compare with
the column (:func:`~repro.kernel.types.compare_atom`): a STR column takes STR
bounds only, a numeric column numeric ones.

A selection's bounds are resolved against the column's atom once, by a
:class:`Range`, as SQL compares numbers: a bound is never truncated to the
column's type.  On an integral column (INT, BIGINT, OID, BOOL) a fractional
bound rounds toward the inside of the range (``v < 5.5`` is ``v <= 5``,
``v >= 5.1`` is ``v >= 6``), so ``= 5.5`` matches nothing and ``<> 5.5``
every non-NULL row; a bound beyond the atom's domain makes the range empty
or leaves that side unbounded.  A plan whose bounds are constants keeps its
:class:`Range` and resolves it only on its first column (the MAL
interpreter binds ``algebra.select``/``thetaselect`` steps this way).
"""

from __future__ import annotations

import math
import operator
from typing import Any, Optional

import numpy as np

from ..errors import KernelError
from .bat import BAT
from .types import (
    OID_NIL,
    AtomType,
    compare_atom,
    literal_atom,
    nil_mask,
    numpy_dtype,
)

__all__ = [
    "Range",
    "range_select",
    "theta_select",
    "select_nil",
    "select_non_nil",
    "check_bounds",
    "theta_check",
]

#: theta operator -> (low side?, high side?, inclusive, anti): the range
#: ``op value`` selects
_THETA_RANGES = {
    "==": (True, True, True, False),
    "=": (True, True, True, False),
    "!=": (True, True, True, True),
    "<>": (True, True, True, True),
    "<": (False, True, False, False),
    "<=": (False, True, True, False),
    ">": (True, False, False, False),
    ">=": (True, False, True, False),
}

#: the values an integral atom can hold besides its NIL, ``(min, max)``
_DOMAINS = {
    AtomType.INT: (-(2**31) + 1, 2**31 - 1),
    AtomType.LNG: (-(2**63) + 1, 2**63 - 1),
    AtomType.OID: (-(2**63), int(OID_NIL) - 1),
    AtomType.BOOL: (0, 1),
}


def check_bounds(atom: Optional[AtomType], *bounds: Any) -> None:
    """Raise :class:`TypeMismatchError` unless every non-NULL bound
    compares with a column of ``atom``."""
    for bound in bounds:
        if bound is not None:
            compare_atom(atom, literal_atom(bound))


def theta_check(atom: Optional[AtomType], op: str, value: Any) -> None:
    """What :func:`theta_select` accepts: a known operator and a bound
    that compares with the column."""
    if op not in _THETA_RANGES:
        raise KernelError(f"unknown theta operator {op!r}")
    check_bounds(atom, value)


def _masked_tail(bat: BAT, candidates: Optional[np.ndarray]):
    """``(positions, values)`` of the candidates; without a candidate
    list the positions are ``None`` and the values the whole tail (no
    identity gather).  A selection's oids are then
    ``(hits if positions is None else positions[hits]) + hseqbase``."""
    if candidates is None:
        return None, bat.tail
    positions = np.asarray(candidates, dtype=np.int64) - bat.hseqbase
    return positions, bat.tail[positions]


#: a resolved bound no value satisfies
_EMPTY = object()


def _integral_bound(value: Any, low: bool, inclusive: bool,
                    domain: tuple) -> Any:
    """An integral column's inclusive bound for ``value`` (exact python
    int arithmetic): ``None`` for a side every value satisfies and
    :data:`_EMPTY` for one none does."""
    if isinstance(value, (int, np.integer)):
        value = int(value)
        if not inclusive:
            value += 1 if low else -1
    else:
        value = float(value)
        if math.isnan(value):
            return _EMPTY
        if math.isinf(value):
            return None if (value < 0) == low else _EMPTY
        if low:
            value = math.ceil(value) if inclusive else math.floor(value) + 1
        else:
            value = math.floor(value) if inclusive else math.ceil(value) - 1
    smallest, largest = domain
    if low:
        return None if value <= smallest else _EMPTY if value > largest else value
    return None if value >= largest else _EMPTY if value < smallest else value


def _float_bound(value: Any, low: bool) -> Any:
    """A floating column's bound for ``value`` (``None``: unbounded,
    :data:`_EMPTY`: a NaN, which compares false)."""
    try:
        value = float(value)
    except OverflowError:  # an integer past the largest double
        value = math.inf if value > 0 else -math.inf
    if math.isnan(value):
        return _EMPTY
    if math.isinf(value) and (value < 0) == low:
        return None
    return value


class Range:
    """``low <= value <= high`` over one column (either side ``None``:
    unbounded; each side inclusive or not), or its complement with
    ``anti``; NULLs never qualify.

    The bounds are resolved against the atom of the first column the
    range selects from, and again only when a later column has another
    atom: the type check, the coercion to the column's storage and which
    side already rejects NIL are decided once.  A range is called with
    ``(bat, candidates)`` and returns the qualifying oids.
    """

    __slots__ = ("bounds", "never", "anti", "atom", "low", "high",
                 "low_inclusive", "high_inclusive", "empty", "nils")

    def __init__(
        self,
        low: Any = None,
        high: Any = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
        anti: bool = False,
    ):
        self.bounds = (low, high, bool(low_inclusive), bool(high_inclusive))
        self.never = False  # a comparison with NULL
        self.anti = bool(anti)
        self.atom: Optional[AtomType] = None

    @classmethod
    def theta(cls, op: str, value: Any) -> "Range":
        """The range ``column op value`` selects (``op`` one of ``== !=
        < <= > >=`` or the SQL spellings ``=``/``<>``).  Comparing with
        NULL selects nothing, ``<>`` included."""
        if op not in _THETA_RANGES:
            raise KernelError(f"unknown theta operator {op!r}")
        low, high, inclusive, anti = _THETA_RANGES[op]
        if value is None:
            rng = cls()
            rng.never = True
            return rng
        return cls(value if low else None, value if high else None,
                   inclusive, inclusive, anti)

    def resolve(self, atom: AtomType) -> "Range":
        """Resolve the bounds for a column of ``atom`` (see the class
        docstring); returns ``self``."""
        low, high, low_inclusive, high_inclusive = self.bounds
        check_bounds(atom, low, high)
        empty = self.never
        if atom is not AtomType.STR and not empty:
            domain = _DOMAINS.get(atom)
            if domain is not None:  # integral: inclusive int bounds
                if low is not None:
                    low = _integral_bound(low, True, low_inclusive, domain)
                if high is not None:
                    high = _integral_bound(high, False, high_inclusive, domain)
                low_inclusive = high_inclusive = True
                if (low is not None and high is not None
                        and low is not _EMPTY and high is not _EMPTY
                        and low > high):
                    low = _EMPTY
            else:
                if low is not None:
                    low = _float_bound(low, True)
                if high is not None:
                    high = _float_bound(high, False)
            empty = low is _EMPTY or high is _EMPTY
            if not empty:  # compared in the column's own dtype
                kind = numpy_dtype(atom).type
                low = None if low is None else kind(low)
                high = None if high is None else kind(high)
        self.low, self.high = low, high
        self.low_inclusive, self.high_inclusive = low_inclusive, high_inclusive
        self.empty = empty
        # whether the mask must drop NILs itself: numeric NILs fail the
        # comparisons of a bounded side (NaN always; INT/LNG/BOOL's NIL
        # is below every lower bound, OID's above every upper bound), a
        # STR comparison skips None
        if empty:
            self.nils = self.anti
        elif self.anti:
            self.nils = True
        elif atom in (AtomType.STR, AtomType.DBL, AtomType.TIMESTAMP):
            self.nils = low is None and high is None
        elif atom is AtomType.OID:
            self.nils = high is None
        else:
            self.nils = low is None
        # last: a caller that finds the atom resolved reads the rest
        self.atom = atom
        return self

    def __call__(
        self, bat: BAT, candidates: Optional[np.ndarray] = None
    ) -> np.ndarray:
        atom = bat.atom
        if atom is not self.atom:
            self.resolve(atom)
        base = bat.hseqbase
        if candidates is None:
            tail = bat.tail
        else:
            candidates = np.asarray(candidates, dtype=np.int64)
            tail = bat.tail[candidates - base if base else candidates]
        low, high = self.low, self.high
        if self.empty:
            mask = np.zeros(len(tail), dtype=bool)
        elif atom is AtomType.STR:
            mask = np.ones(len(tail), dtype=bool)
            if low is not None:
                cmp_lo = operator.ge if self.low_inclusive else operator.gt
                mask &= np.fromiter(
                    (v is not None and cmp_lo(v, low) for v in tail),
                    bool, count=len(tail),
                )
            if high is not None:
                cmp_hi = operator.le if self.high_inclusive else operator.lt
                mask &= np.fromiter(
                    (v is not None and cmp_hi(v, high) for v in tail),
                    bool, count=len(tail),
                )
        else:
            mask = None
            if low is not None:
                mask = (tail >= low) if self.low_inclusive else (tail > low)
            if high is not None:
                upper = (tail <= high) if self.high_inclusive else (tail < high)
                mask = upper if mask is None else mask & upper
            if mask is None:
                mask = np.ones(len(tail), dtype=bool)
        if self.anti:
            mask = ~mask
        if self.nils:
            mask &= ~nil_mask(atom, tail)
        hits = mask.nonzero()[0]
        if candidates is not None:
            return candidates[hits]
        return hits + base if base else hits


def range_select(
    bat: BAT,
    low: Any,
    high: Any,
    candidates: Optional[np.ndarray] = None,
    low_inclusive: bool = True,
    high_inclusive: bool = True,
    anti: bool = False,
) -> np.ndarray:
    """Oids of tuples with tail value in the range ``[low, high]``.

    ``None`` for either bound means unbounded on that side.  ``anti=True``
    inverts the range (but still never matches NULLs).
    """
    return Range(low, high, low_inclusive, high_inclusive, anti)(
        bat, candidates
    )


def theta_select(
    bat: BAT,
    op: str,
    value: Any,
    candidates: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Oids of tuples whose tail compares ``op`` against ``value``.

    ``op`` is one of ``== != < <= > >=`` (SQL spellings ``=`` and ``<>``
    accepted).  Comparing against NULL yields the empty candidate list.
    """
    return Range.theta(op, value)(bat, candidates)


def select_nil(
    bat: BAT, candidates: Optional[np.ndarray] = None
) -> np.ndarray:
    """Oids of tuples whose tail is NULL (``IS NULL``)."""
    positions, tail = _masked_tail(bat, candidates)
    hits = np.flatnonzero(nil_mask(bat.atom, tail))
    return (hits if positions is None else positions[hits]) + bat.hseqbase


def select_non_nil(
    bat: BAT, candidates: Optional[np.ndarray] = None
) -> np.ndarray:
    """Oids of tuples whose tail is not NULL (``IS NOT NULL``)."""
    positions, tail = _masked_tail(bat, candidates)
    hits = np.flatnonzero(~nil_mask(bat.atom, tail))
    return (hits if positions is None else positions[hits]) + bat.hseqbase
