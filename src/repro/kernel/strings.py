"""String primitives (``batstr``) and LIKE-pattern selection.

MonetDB ships a ``str``/``pcre`` module family; we provide the subset the
SQL layer exposes: case mapping, length, substring, trim, concat (in
calc), and SQL LIKE matching with ``%``/``_`` wildcards compiled to
python regexes.
"""

from __future__ import annotations

import re
from typing import Optional

import numpy as np

from ..errors import TypeMismatchError
from .bat import BAT
from .candidates import resolve_positions
from .types import BOOL_NIL, AtomType

__all__ = [
    "str_atom",
    "str_upper",
    "str_lower",
    "str_length",
    "str_substring",
    "str_trim",
    "like_pattern_to_regex",
    "like_select",
    "like_mask",
]


_RESULT_ATOMS = {"length": AtomType.INT, "like": AtomType.BOOL}


def str_atom(name: str, operand: Optional[AtomType]) -> AtomType:
    """Result atom of batstr ``name`` over a STR ``operand``: INT for
    ``length``, BOOL for ``like``, STR otherwise."""
    if operand is not None and operand is not AtomType.STR:
        raise TypeMismatchError(f"{name} requires a str column")
    return _RESULT_ATOMS.get(name, AtomType.STR)


def _map_str(name: str, bat: BAT, fn) -> BAT:
    """``fn`` over the non-NULL strings, typed by :func:`str_atom`."""
    out = BAT(
        str_atom(name, bat.atom),
        hseqbase=bat.hseqbase,
        capacity=max(bat.count, 1),
    )
    out.append_many(None if v is None else fn(v) for v in bat.tail)
    return out


def str_upper(bat: BAT) -> BAT:
    """UPPER(column) — NULL-preserving."""
    return _map_str("upper", bat, str.upper)


def str_lower(bat: BAT) -> BAT:
    """LOWER(column) — NULL-preserving."""
    return _map_str("lower", bat, str.lower)


def str_trim(bat: BAT) -> BAT:
    """TRIM(column) — strips ASCII whitespace, NULL-preserving."""
    return _map_str("trim", bat, str.strip)


def str_length(bat: BAT) -> BAT:
    """LENGTH(column) — an INT column; NULL for NULL input."""
    return _map_str("length", bat, len)


def str_substring(bat: BAT, start: int, length: Optional[int] = None) -> BAT:
    """SUBSTRING(column, start[, length]) — 1-based start, SQL style."""
    begin = max(0, int(start) - 1)
    if length is None:
        return _map_str("substring", bat, lambda v: v[begin:])
    stop = begin + max(0, int(length))
    return _map_str("substring", bat, lambda v: v[begin:stop])


def like_pattern_to_regex(pattern: str, escape: str = "\\") -> "re.Pattern":
    """Compile a SQL LIKE pattern to an anchored python regex.

    ``%`` matches any run (including empty), ``_`` any single character;
    ``escape`` (default backslash) escapes either wildcard.
    """
    out = []
    i = 0
    while i < len(pattern):
        ch = pattern[i]
        if ch == escape and i + 1 < len(pattern):
            out.append(re.escape(pattern[i + 1]))
            i += 2
            continue
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
        i += 1
    return re.compile("".join(out) + r"\Z", re.DOTALL)


def like_mask(bat: BAT, pattern: str, negated: bool = False) -> BAT:
    """Bool BAT: 1 where the tail matches the LIKE pattern.

    NULL inputs yield NULL (three-valued logic, as for any predicate).
    """
    out_atom = str_atom("like", bat.atom)
    regex = like_pattern_to_regex(pattern)

    stored = np.empty(bat.count, dtype=np.int8)
    for i, value in enumerate(bat.tail):
        if value is None:
            stored[i] = BOOL_NIL
        else:
            hit = regex.match(value) is not None
            stored[i] = np.int8((not hit) if negated else hit)
    out = BAT(out_atom, hseqbase=bat.hseqbase, capacity=max(bat.count, 1))
    out.append_array(stored)
    return out


def like_select(
    bat: BAT,
    pattern: str,
    candidates: Optional[np.ndarray] = None,
    negated: bool = False,
) -> np.ndarray:
    """Oids of tuples matching (or, negated, not matching) the pattern.

    NULLs never qualify either way.
    """
    str_atom("like", bat.atom)
    regex = like_pattern_to_regex(pattern)
    positions = resolve_positions(bat, candidates)
    hits = []
    for pos in positions:
        value = bat.tail[pos]
        if value is None:
            continue
        matched = regex.match(value) is not None
        if matched != negated:
            hits.append(pos)
    return np.asarray(hits, dtype=np.int64) + bat.hseqbase
