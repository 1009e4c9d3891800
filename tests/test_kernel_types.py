"""Unit tests for the kernel atom-type system."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TypeMismatchError
from repro.kernel.types import (
    AtomType,
    BOOL_NIL,
    INT_NIL,
    LNG_NIL,
    OID_NIL,
    coerce_scalar,
    common_type,
    is_nil,
    nil_mask,
    nil_value,
    numpy_dtype,
    parse_atom,
    python_value,
    python_values,
)


class TestDtypes:
    def test_every_atom_has_a_dtype(self):
        for atom in AtomType:
            assert numpy_dtype(atom) is not None

    def test_int_is_32_bit(self):
        assert numpy_dtype(AtomType.INT).itemsize == 4

    def test_lng_and_oid_are_64_bit(self):
        assert numpy_dtype(AtomType.LNG).itemsize == 8
        assert numpy_dtype(AtomType.OID).itemsize == 8

    def test_str_is_object(self):
        assert numpy_dtype(AtomType.STR) == np.dtype(object)


class TestNil:
    def test_none_is_nil_for_every_atom(self):
        for atom in AtomType:
            assert is_nil(atom, None)

    def test_nil_value_roundtrips(self):
        for atom in AtomType:
            assert is_nil(atom, nil_value(atom))

    def test_nan_is_nil_for_dbl(self):
        assert is_nil(AtomType.DBL, float("nan"))

    def test_regular_values_are_not_nil(self):
        assert not is_nil(AtomType.INT, 0)
        assert not is_nil(AtomType.DBL, 0.0)
        assert not is_nil(AtomType.STR, "")
        assert not is_nil(AtomType.BOOL, 0)

    def test_sentinels(self):
        assert int(INT_NIL) == -(2**31)
        assert int(LNG_NIL) == -(2**63)
        assert int(OID_NIL) == 2**63 - 1
        assert int(BOOL_NIL) == -1

    def test_nil_mask_int(self):
        arr = np.array([1, int(INT_NIL), 3], dtype=np.int32)
        assert nil_mask(AtomType.INT, arr).tolist() == [False, True, False]

    def test_nil_mask_str(self):
        arr = np.array(["a", None, "b"], dtype=object)
        assert nil_mask(AtomType.STR, arr).tolist() == [False, True, False]

    def test_nil_mask_dbl(self):
        arr = np.array([1.0, float("nan")])
        assert nil_mask(AtomType.DBL, arr).tolist() == [False, True]


class TestCommonType:
    def test_same_type_is_identity(self):
        for atom in AtomType:
            if atom is AtomType.STR:
                continue
            assert common_type(atom, atom) is atom

    def test_int_widens_to_lng(self):
        assert common_type(AtomType.INT, AtomType.LNG) is AtomType.LNG

    def test_int_widens_to_dbl(self):
        assert common_type(AtomType.INT, AtomType.DBL) is AtomType.DBL

    def test_lng_dbl_gives_dbl(self):
        assert common_type(AtomType.LNG, AtomType.DBL) is AtomType.DBL

    def test_oid_lng_gives_lng(self):
        assert common_type(AtomType.OID, AtomType.LNG) is AtomType.LNG

    def test_timestamp_dbl_gives_dbl(self):
        assert common_type(AtomType.TIMESTAMP, AtomType.DBL) is AtomType.DBL

    def test_str_with_numeric_raises(self):
        with pytest.raises(TypeMismatchError):
            common_type(AtomType.STR, AtomType.INT)

    def test_symmetry(self):
        pairs = [
            (AtomType.INT, AtomType.DBL),
            (AtomType.BOOL, AtomType.INT),
            (AtomType.LNG, AtomType.TIMESTAMP),
        ]
        for a, b in pairs:
            assert common_type(a, b) is common_type(b, a)


class TestCoerce:
    def test_none_becomes_nil(self):
        for atom in AtomType:
            assert is_nil(atom, coerce_scalar(atom, None))

    def test_bool_accepts_python_bool(self):
        assert coerce_scalar(AtomType.BOOL, True) == 1
        assert coerce_scalar(AtomType.BOOL, False) == 0

    def test_bool_rejects_out_of_domain(self):
        with pytest.raises(TypeMismatchError):
            coerce_scalar(AtomType.BOOL, 7)

    def test_int_rejects_overflow(self):
        with pytest.raises(TypeMismatchError):
            coerce_scalar(AtomType.INT, 2**40)

    def test_str_coerces_numbers(self):
        assert coerce_scalar(AtomType.STR, 12) == "12"

    def test_int_rejects_garbage(self):
        with pytest.raises(TypeMismatchError):
            coerce_scalar(AtomType.INT, "twelve")

    def test_dbl_accepts_int(self):
        assert coerce_scalar(AtomType.DBL, 3) == 3.0

    @pytest.mark.parametrize(
        "atom", [AtomType.OID, AtomType.BOOL, AtomType.INT, AtomType.LNG])
    def test_integral_rejects_infinity(self, atom):
        # the NIL test must not overflow before the domain check
        assert not is_nil(atom, float("inf"))
        with pytest.raises(TypeMismatchError):
            coerce_scalar(atom, float("-inf"))


class TestPythonValue:
    def test_nil_becomes_none(self):
        for atom in AtomType:
            assert python_value(atom, nil_value(atom)) is None

    def test_bool_roundtrip(self):
        assert python_value(AtomType.BOOL, np.int8(1)) is True
        assert python_value(AtomType.BOOL, np.int8(0)) is False

    def test_int_returns_python_int(self):
        out = python_value(AtomType.INT, np.int32(5))
        assert out == 5 and isinstance(out, int)

    def test_dbl_returns_python_float(self):
        out = python_value(AtomType.DBL, np.float64(2.5))
        assert out == 2.5 and isinstance(out, float)


def _int_values(bits):
    low, high = -(2**(bits - 1)), 2**(bits - 1) - 1
    edges = [low, high, 0, -1, 1, 2**62, -(2**62)] if bits == 64 else [
        low, high, 0, -1, 1,
    ]
    return st.one_of(st.integers(low, high), st.sampled_from(edges))


_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), -0.0, 0.0, 2.0**62, -(2.0**62)]),
)

#: every atom with values covering its NIL sentinel and its edges
_TAILS = {
    AtomType.OID: _int_values(64),
    AtomType.LNG: _int_values(64),
    AtomType.INT: _int_values(32),
    AtomType.BOOL: st.sampled_from([-1, 0, 1]),
    AtomType.DBL: _FLOATS,
    AtomType.TIMESTAMP: _FLOATS,
    AtomType.STR: st.one_of(st.none(), st.just(""), st.text(max_size=8)),
}


@st.composite
def _atom_tail(draw):
    atom = draw(st.sampled_from(sorted(_TAILS, key=lambda a: a.value)))
    values = draw(st.lists(_TAILS[atom], max_size=40))
    tail = np.empty(len(values), dtype=numpy_dtype(atom))
    tail[:] = values
    view = draw(st.sampled_from(["whole", "strided", "positions"]))
    if view == "strided":
        tail = tail[::2]
    elif view == "positions":
        positions = draw(st.permutations(range(len(tail))))
        tail = tail[np.asarray(positions, dtype=np.int64)]
    return atom, tail


class TestPythonValues:
    """The vectorised converter is the scalar definition, column-wise."""

    @settings(max_examples=300, deadline=None)
    @given(_atom_tail())
    def test_matches_python_value(self, case):
        atom, tail = case
        got = python_values(atom, tail)
        expected = [python_value(atom, v) for v in tail]
        assert repr(got) == repr(expected)  # -0.0 keeps its sign
        assert [type(v) for v in got] == [type(v) for v in expected]
        json.dumps(got)  # /sys/<basket> and /stats serialise it

    def test_every_atom_is_covered(self):
        assert set(_TAILS) == set(AtomType)

    def test_nil_sentinels_become_none(self):
        for atom in AtomType:
            tail = np.array([nil_value(atom)] * 3, dtype=numpy_dtype(atom))
            assert python_values(atom, tail) == [None, None, None]


class TestParseAtom:
    def test_empty_and_null_map_to_nil(self):
        for atom in AtomType:
            assert is_nil(atom, parse_atom(atom, ""))
            assert is_nil(atom, parse_atom(atom, "null"))
            assert is_nil(atom, parse_atom(atom, "NULL"))

    def test_int_parsing(self):
        assert parse_atom(AtomType.INT, " 42 ") == 42

    def test_dbl_parsing(self):
        assert parse_atom(AtomType.DBL, "2.75") == 2.75

    def test_bool_spellings(self):
        for text in ("true", "T", "1"):
            assert parse_atom(AtomType.BOOL, text) == 1
        for text in ("false", "F", "0"):
            assert parse_atom(AtomType.BOOL, text) == 0

    def test_bool_garbage_raises(self):
        with pytest.raises(TypeMismatchError):
            parse_atom(AtomType.BOOL, "maybe")

    def test_int_garbage_raises(self):
        with pytest.raises(TypeMismatchError):
            parse_atom(AtomType.INT, "4.5x")

    def test_str_passthrough(self):
        assert parse_atom(AtomType.STR, " hello ") == "hello"
