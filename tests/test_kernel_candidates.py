"""Tests for candidate lists and the remaining MAL primitives."""

import numpy as np
import pytest

from repro.errors import KernelError
from repro.kernel.bat import bat_from_values
from repro.kernel.candidates import (
    all_candidates,
    from_mask,
    resolve_positions,
    validate,
)
from repro.kernel.catalog import Catalog
from repro.kernel.interpreter import MalInterpreter
from repro.kernel.mal import Const, Program, Var
from repro.kernel.types import AtomType


def cands(*values):
    return np.asarray(values, dtype=np.int64)


class TestCandidates:
    def test_all_candidates(self):
        b = bat_from_values(AtomType.INT, [1, 2, 3], hseqbase=10)
        assert all_candidates(b).tolist() == [10, 11, 12]

    def test_resolve_positions(self):
        b = bat_from_values(AtomType.INT, [1, 2, 3], hseqbase=5)
        assert resolve_positions(b, cands(6, 7)).tolist() == [1, 2]
        assert resolve_positions(b, None).tolist() == [0, 1, 2]

    def test_from_mask(self):
        b = bat_from_values(AtomType.INT, [1, 2, 3], hseqbase=4)
        mask = np.array([True, False, True])
        assert from_mask(b, mask).tolist() == [4, 6]

    def test_validate_in_range(self):
        b = bat_from_values(AtomType.INT, [1, 2], hseqbase=10)
        validate(b, cands(10, 11))
        validate(b, None)
        validate(b, cands())

    def test_validate_out_of_range(self):
        b = bat_from_values(AtomType.INT, [1, 2], hseqbase=10)
        with pytest.raises(KernelError):
            validate(b, cands(9))
        with pytest.raises(KernelError):
            validate(b, cands(12))


class TestMalStringMathPrimitives:
    """Exercise the batstr/batmath registry through MAL programs."""

    @pytest.fixture
    def catalog(self):
        cat = Catalog()
        t = cat.create_table(
            "w", [("s", AtomType.STR), ("x", AtomType.DBL)]
        )
        t.append_rows([("Hello", 4.0), (None, -9.0), ("bye", 2.25)])
        return cat

    def run(self, catalog, module, fn, args):
        p = Program()
        col = p.emit("sql", "bind", [Const("w"), Const(args[0])])
        rest = [Const(a) for a in args[1:]]
        p.output = p.emit(module, fn, [Var(col)] + rest)
        return MalInterpreter(catalog).run(p)

    def test_batstr_upper(self, catalog):
        out = self.run(catalog, "batstr", "upper", ["s"])
        assert out.python_list() == ["HELLO", None, "BYE"]

    def test_batstr_length(self, catalog):
        out = self.run(catalog, "batstr", "length", ["s"])
        assert out.python_list() == [5, None, 3]

    def test_batstr_substring(self, catalog):
        out = self.run(catalog, "batstr", "substring", ["s", 2, 2])
        assert out.python_list() == ["el", None, "ye"]

    def test_batstr_like(self, catalog):
        out = self.run(catalog, "batstr", "like", ["s", "%e%", False])
        assert out.python_list() == [True, None, True]

    def test_algebra_likeselect(self, catalog):
        p = Program()
        col = p.emit("sql", "bind", [Const("w"), Const("s")])
        p.output = p.emit(
            "algebra", "likeselect",
            [Var(col), Const(None), Const("b%"), Const(False)],
        )
        out = MalInterpreter(catalog).run(p)
        assert out.tolist() == [2]

    def test_batmath_sqrt(self, catalog):
        out = self.run(catalog, "batmath", "sqrt", ["x"])
        assert out.python_list() == [2.0, None, 1.5]

    def test_batmath_round_digits(self, catalog):
        out = self.run(catalog, "batmath", "round", ["x", 1])
        assert out.python_list() == [4.0, -9.0, 2.2]

    def test_bat_concat(self, catalog):
        p = Program()
        a = p.emit("sql", "bind", [Const("w"), Const("x")])
        p.output = p.emit("bat", "concat", [Var(a), Var(a)])
        out = MalInterpreter(catalog).run(p)
        assert out.count == 6

    def test_compose(self, catalog):
        p = Program()
        outer = p.emit("language", "pass", [Const(np.array([3, 7, 9]))])
        inner = p.emit("language", "pass", [Const(np.array([0, 2]))])
        p.output = p.emit("algebra", "compose", [Var(outer), Var(inner)])
        out = MalInterpreter(catalog).run(p)
        assert out.tolist() == [3, 9]
