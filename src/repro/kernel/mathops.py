"""Numeric scalar functions (``batmath``): abs, floor, ceil, round, sqrt.

Element-wise over numeric BATs, NULL-preserving; sqrt of a negative value
yields NULL (SQL would raise — NULL keeps streams flowing, same policy as
division by zero in :mod:`repro.kernel.calc`).
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from ..errors import TypeMismatchError
from .bat import BAT
from .types import AtomType, nil_value, numpy_dtype

__all__ = ["math_unary", "math_atom", "MATH_FUNCTIONS"]

MATH_FUNCTIONS = ("abs", "floor", "ceil", "round", "sqrt")


def math_atom(
    name: str, operand: Optional[AtomType], digits: Any = 0
) -> Optional[AtomType]:
    """Result atom of batmath ``name`` over a numeric ``operand``.

    ``abs`` keeps the operand's atom; ``sqrt`` and ``round`` to
    ``digits > 0`` are DBL; ``floor``/``ceil``/``round`` are LNG for
    integral operands and DBL otherwise.
    """
    if name not in MATH_FUNCTIONS:
        raise TypeMismatchError(f"unknown math function {name!r}")
    if operand is not None and not operand.is_numeric:
        raise TypeMismatchError(f"{name} requires a numeric column")
    if name == "sqrt" or (name == "round" and int(digits)):
        return AtomType.DBL
    if operand is None or name == "abs":
        return operand
    return AtomType.LNG if operand.is_integral else AtomType.DBL


def math_unary(name: str, bat: BAT, digits: Any = 0) -> BAT:
    """Apply ``name`` element-wise, typed by :func:`math_atom`; see the
    module docstring for NULL rules."""
    out_atom = math_atom(name, bat.atom, digits)
    nils = bat.nil_positions()
    values = np.where(nils, 0.0, bat.tail.astype(np.float64))
    if name == "abs":
        result = np.abs(values)
    elif name == "floor":
        result = np.floor(values)
    elif name == "ceil":
        result = np.ceil(values)
    elif name == "round":
        result = np.round(values, int(digits))
    else:  # sqrt
        with np.errstate(invalid="ignore"):
            result = np.sqrt(values)
        nils = nils | (values < 0)
    out = BAT(out_atom, hseqbase=bat.hseqbase, capacity=max(bat.count, 1))
    if out_atom is AtomType.DBL:
        result = result.astype(np.float64)
        result[nils] = np.nan
        out.append_array(result)
    else:
        stored = np.where(nils, 0.0, result).astype(numpy_dtype(out_atom))
        stored[nils] = nil_value(out_atom)
        out.append_array(stored)
    return out
