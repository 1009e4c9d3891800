"""``batcalc``-style columnar arithmetic, comparison and boolean algebra.

All functions operate element-wise on whole BATs (or a BAT and a scalar) and
return new BATs aligned with the left input.  NULL propagates through
arithmetic; three-valued logic is used for AND/OR/NOT (NULL = unknown).

Each operator types its result with a rule defined next to it
(:func:`arith_atom`, :func:`logic_atom`, :func:`neg_atom`,
:func:`ifthenelse_atom`, :func:`const_atom`; comparisons ask
:func:`~repro.kernel.types.compare_atom`).  The interpreter registers the
same rules with the opcodes, so the verifier and the SQL compiler type a
plan exactly as these operators will.
"""

from __future__ import annotations

from typing import Any, Optional, Union

import numpy as np

from ..errors import KernelError, TypeMismatchError
from .bat import BAT, check_aligned
from .types import (
    AtomType,
    BOOL_NIL,
    atom_named,
    coerce_scalar,
    common_type,
    compare_atom,
    literal_atom,
    nil_mask,
    nil_value,
    numpy_dtype,
)

__all__ = [
    "ARITHMETIC",
    "COMPARISONS",
    "arith_atom",
    "logic_atom",
    "neg_atom",
    "ifthenelse_atom",
    "const_atom",
    "calc_binary",
    "calc_compare",
    "calc_and",
    "calc_or",
    "calc_not",
    "calc_isnil",
    "calc_ifthenelse",
    "calc_neg",
    "const_bat",
]

Operand = Union[BAT, int, float, str, None]

ARITHMETIC = ("+", "-", "*", "/", "%")
COMPARISONS = ("==", "!=", "<", "<=", ">", ">=")


def arith_atom(
    op: str, left: Optional[AtomType], right: Optional[AtomType]
) -> Optional[AtomType]:
    """Result atom of ``left op right``: the operands' ``common_type``,
    DBL for ``/`` and STR for ``str + str``; other STR operands raise."""
    if left is None or right is None:
        return None
    if left is AtomType.STR or right is AtomType.STR:
        if op == "+" and left is right:
            return AtomType.STR
        raise TypeMismatchError(
            f"cannot apply {op} to {left.value} and {right.value}"
        )
    return AtomType.DBL if op == "/" else common_type(left, right)


def logic_atom(*operands: Optional[AtomType]) -> AtomType:
    """Result atom of AND/OR/NOT: BOOL, over BOOL operands only."""
    for atom in operands:
        if atom is not None and atom is not AtomType.BOOL:
            raise TypeMismatchError(
                f"boolean algebra requires bool operands, got {atom.value}"
            )
    return AtomType.BOOL


def neg_atom(operand: Optional[AtomType]) -> Optional[AtomType]:
    """Result atom of negation: the operand's own (STR raises)."""
    if operand is AtomType.STR:
        raise TypeMismatchError("cannot negate a str column")
    return operand


def ifthenelse_atom(
    cond: Optional[AtomType],
    then: Optional[AtomType],
    otherwise: Optional[AtomType],
) -> Optional[AtomType]:
    """Result atom of ``CASE WHEN cond THEN then ELSE otherwise END``: the
    branches' ``common_type`` (a STR branch needs a STR partner)."""
    if cond is not None and cond is not AtomType.BOOL:
        raise TypeMismatchError("ifthenelse requires a bool condition")
    if then is None or otherwise is None:
        return None
    return then if then is otherwise else common_type(then, otherwise)


def const_atom(value: Any, atom: Any = None) -> AtomType:
    """Atom of a constant column of ``value``: ``atom`` (a name or an
    :class:`AtomType`) when given, else the literal's, DBL for an untyped
    NULL.  Raises when ``value`` cannot be stored as that atom."""
    out = atom_named(atom) if atom else (literal_atom(value) or AtomType.DBL)
    coerce_scalar(out, value)
    return out


def _broadcast(left: Operand, right: Operand):
    """Return (atom_l, tail_l, atom_r, tail_r, hseqbase, count)."""
    if isinstance(left, BAT) and isinstance(right, BAT):
        check_aligned(left, right)
        return (
            left.atom,
            left.tail,
            right.atom,
            right.tail,
            left.hseqbase,
            left.count,
        )
    if isinstance(left, BAT):
        atom_r = const_atom(right)
        return (
            left.atom,
            left.tail,
            atom_r,
            coerce_scalar(atom_r, right),
            left.hseqbase,
            left.count,
        )
    if isinstance(right, BAT):
        atom_l = const_atom(left)
        return (
            atom_l,
            coerce_scalar(atom_l, left),
            right.atom,
            right.tail,
            right.hseqbase,
            right.count,
        )
    raise KernelError("at least one operand of a batcalc op must be a BAT")


def _operand_nils(atom: AtomType, values) -> np.ndarray:
    if isinstance(values, np.ndarray):
        return nil_mask(atom, values)
    # scalar: broadcast nil-ness
    from .types import is_nil

    return np.bool_(is_nil(atom, values))


def _as_float(values):
    if isinstance(values, np.ndarray):
        return values.astype(np.float64)
    return float(values)


def calc_binary(op: str, left: Operand, right: Operand) -> BAT:
    """Element-wise arithmetic: ``op`` ∈ ``+ - * / %``.

    The result atom is :func:`arith_atom`'s.  An integer result is
    computed exactly in ``int64``; a row whose value falls outside the
    result atom's range yields NULL, as does division/modulo by zero (SQL
    would raise; NULL keeps streams flowing and is documented behavior).
    ``/`` is always DOUBLE and ``%`` is floored (the divisor's sign).
    """
    atom_l, vals_l, atom_r, vals_r, hseqbase, count = _broadcast(left, right)
    out_atom = arith_atom(op, atom_l, atom_r)
    if out_atom is AtomType.STR:
        return _concat_str(vals_l, vals_r, hseqbase, count)
    if op not in ARITHMETIC:
        raise KernelError(f"unknown arithmetic operator {op!r}")
    nils = _operand_nils(atom_l, vals_l) | _operand_nils(atom_r, vals_r)
    dtype = numpy_dtype(out_atom)
    if dtype.kind == "i":
        res, bad = _int_arith(op, vals_l, vals_r, nils)
        info = np.iinfo(dtype)
        nils = nils | bad | (res < info.min) | (res > info.max)
    else:
        lf = _as_float(vals_l)
        rf = _as_float(vals_r)
        with np.errstate(divide="ignore", invalid="ignore"):
            if op == "+":
                res = lf + rf
            elif op == "-":
                res = lf - rf
            elif op == "*":
                res = lf * rf
            elif op == "/":
                res = np.where(rf == 0, np.nan, lf) / np.where(rf == 0, 1, rf)
                nils = nils | (rf == 0)
            else:
                res = np.mod(lf, np.where(rf == 0, 1, rf))
                nils = nils | (rf == 0)
    res = np.broadcast_to(res, (count,)).copy()
    nils = np.broadcast_to(nils, (count,))
    out = BAT(out_atom, hseqbase=hseqbase, capacity=max(count, 1))
    if dtype.kind == "f":
        res[nils] = np.nan
        out.append_array(res)
    else:
        stored = np.where(nils, 0, res).astype(dtype)
        stored[nils] = nil_value(out_atom)
        out.append_array(stored)
    return out


def _int_arith(op: str, vals_l, vals_r, nils):
    """``vals_l op vals_r`` exactly in ``int64`` (``/`` excluded).

    Returns ``(result, bad)``: ``bad`` marks the rows whose true value
    does not fit ``int64`` and the rows ``%`` divides by zero.  NULL rows
    compute on zeros, so their sentinels never take part.
    """
    a = np.where(nils, 0, vals_l).astype(np.int64)
    b = np.where(nils, 0, vals_r).astype(np.int64)
    with np.errstate(over="ignore", divide="ignore"):
        if op == "%":
            zero = b == 0
            return np.mod(a, np.where(zero, 1, b)), zero
        if op == "+":
            res = a + b  # wraps on overflow; the sign test catches it
            return res, ((a ^ res) & (b ^ res)) < 0
        if op == "-":
            res = a - b
            return res, ((a ^ b) & (a ^ res)) < 0
        res = a * b
        # an exact product divides back; a wrapped one cannot, except
        # -1 * -2**63, whose quotient wraps too
        quotient = res // np.where(a == 0, 1, a)
        bad = (quotient != b) | ((a == -1) & (res == np.iinfo(np.int64).min))
        return res, bad & (a != 0)


def _concat_str(vals_l, vals_r, hseqbase: int, count: int) -> BAT:
    left_seq = vals_l if isinstance(vals_l, np.ndarray) else [vals_l] * count
    right_seq = vals_r if isinstance(vals_r, np.ndarray) else [vals_r] * count
    out = BAT(AtomType.STR, hseqbase=hseqbase, capacity=max(count, 1))
    out.append_many(
        None if (a is None or b is None) else a + b
        for a, b in zip(left_seq, right_seq)
    )
    return out


def calc_compare(op: str, left: Operand, right: Operand) -> BAT:
    """Element-wise comparison producing a ``bool`` BAT (NULL-aware).

    Any comparison involving NULL yields NULL (three-valued logic).
    """
    atom_l, vals_l, atom_r, vals_r, hseqbase, count = _broadcast(left, right)
    out_atom = compare_atom(atom_l, atom_r)
    nils = _operand_nils(atom_l, vals_l) | _operand_nils(atom_r, vals_r)
    if atom_l is AtomType.STR:
        left_seq = (
            vals_l if isinstance(vals_l, np.ndarray) else [vals_l] * count
        )
        right_seq = (
            vals_r if isinstance(vals_r, np.ndarray) else [vals_r] * count
        )
        import operator as _op

        fn = {
            "==": _op.eq,
            "!=": _op.ne,
            "<": _op.lt,
            "<=": _op.le,
            ">": _op.gt,
            ">=": _op.ge,
        }[op]
        raw = np.fromiter(
            (
                False if (a is None or b is None) else fn(a, b)
                for a, b in zip(left_seq, right_seq)
            ),
            bool,
            count=count,
        )
    else:
        lf = _as_float(vals_l)
        rf = _as_float(vals_r)
        with np.errstate(invalid="ignore"):
            if op == "==":
                raw = lf == rf
            elif op == "!=":
                raw = lf != rf
            elif op == "<":
                raw = lf < rf
            elif op == "<=":
                raw = lf <= rf
            elif op == ">":
                raw = lf > rf
            elif op == ">=":
                raw = lf >= rf
            else:
                raise KernelError(f"unknown comparison operator {op!r}")
        raw = np.broadcast_to(raw, (count,))
    nils = np.broadcast_to(nils, (count,))
    stored = raw.astype(np.int8).copy()
    stored[nils] = BOOL_NIL
    out = BAT(out_atom, hseqbase=hseqbase, capacity=max(count, 1))
    out.append_array(stored)
    return out


def _bool_tail(operand: Operand):
    if isinstance(operand, BAT):
        return operand.tail
    return BOOL_NIL if operand is None else np.int8(1 if operand else 0)


def _logic(left: Operand, right: Operand, dominant: int) -> BAT:
    """Three-valued AND (``dominant`` 0) or OR (``dominant`` 1): the
    dominant value wins over NULL, NULL wins over the other value."""
    ref = left if isinstance(left, BAT) else right
    if not isinstance(ref, BAT):
        raise KernelError("boolean op needs at least one BAT operand")
    out_atom = logic_atom(*(
        x.atom if isinstance(x, BAT) else literal_atom(x)
        for x in (left, right)
    ))
    if isinstance(left, BAT) and isinstance(right, BAT):
        check_aligned(left, right)
    lt = np.broadcast_to(_bool_tail(left), (ref.count,))
    rt = np.broadcast_to(_bool_tail(right), (ref.count,))
    res = np.full(ref.count, BOOL_NIL, dtype=np.int8)
    res[(lt == dominant) | (rt == dominant)] = dominant
    res[(lt == 1 - dominant) & (rt == 1 - dominant)] = 1 - dominant
    out = BAT(out_atom, hseqbase=ref.hseqbase, capacity=max(ref.count, 1))
    out.append_array(res)
    return out


def calc_and(left: Operand, right: Operand) -> BAT:
    """Three-valued AND over bool BATs (or a BAT and a bool/None)."""
    return _logic(left, right, 0)


def calc_or(left: Operand, right: Operand) -> BAT:
    """Three-valued OR over bool BATs (or a BAT and a bool/None)."""
    return _logic(left, right, 1)


def calc_not(operand: BAT) -> BAT:
    """Three-valued NOT over a bool BAT."""
    out_atom = logic_atom(operand.atom)
    tail = operand.tail
    res = np.full(operand.count, BOOL_NIL, dtype=np.int8)
    res[tail == 0] = 1
    res[tail == 1] = 0
    out = BAT(out_atom, hseqbase=operand.hseqbase, capacity=max(operand.count, 1))
    out.append_array(res)
    return out


def calc_isnil(operand: BAT) -> BAT:
    """Bool BAT: 1 where the input tail is NULL."""
    mask = operand.nil_positions()
    out = BAT(AtomType.BOOL, hseqbase=operand.hseqbase, capacity=max(operand.count, 1))
    out.append_array(mask.astype(np.int8))
    return out


def calc_neg(operand: BAT) -> BAT:
    """Arithmetic negation (NULL-preserving, atom-preserving).

    The zero constant is minted with :func:`neg_atom`'s atom: a bare
    ``const_bat(0, ...)`` would be LNG and ``common_type`` would widen
    an INT column to LNG, which the emitter-boundary ``append_bat``
    rejects against the compiler-declared (input-atom) output column.
    """
    zero = const_bat(0, operand, neg_atom(operand.atom))
    return calc_binary("-", zero, operand)


def calc_ifthenelse(cond: BAT, then_val: Operand, else_val: Operand) -> BAT:
    """Element-wise ``CASE WHEN cond THEN x ELSE y END``.

    NULL conditions select the else branch (SQL: non-true is false-like).
    A scalar branch is a constant column (:func:`const_atom`).
    """
    then_bat = (
        then_val
        if isinstance(then_val, BAT)
        else const_bat(then_val, cond)
    )
    else_bat = (
        else_val
        if isinstance(else_val, BAT)
        else const_bat(else_val, cond)
    )
    out_atom = ifthenelse_atom(cond.atom, then_bat.atom, else_bat.atom)
    check_aligned(cond, then_bat, else_bat)
    mask = cond.tail == 1
    out = BAT(out_atom, hseqbase=cond.hseqbase, capacity=max(cond.count, 1))
    if out_atom is AtomType.STR:
        out.append_many(
            t if m else e
            for m, t, e in zip(mask, then_bat.tail, else_bat.tail)
        )
    else:
        tv = then_bat.tail.astype(numpy_dtype(out_atom))
        ev = else_bat.tail.astype(numpy_dtype(out_atom))
        out.append_array(np.where(mask, tv, ev))
    return out


def const_bat(value: Any, like: BAT, atom: Any = None) -> BAT:
    """A constant column aligned with ``like``, typed by :func:`const_atom`."""
    atom = const_atom(value, atom)
    out = BAT(atom, hseqbase=like.hseqbase, capacity=max(like.count, 1))
    stored = coerce_scalar(atom, value)
    if atom is AtomType.STR:
        out.append_many([stored] * like.count)
    else:
        out.append_array(np.full(like.count, stored, dtype=numpy_dtype(atom)))
    return out
