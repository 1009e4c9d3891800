"""The key map that finds a stateful aggregate's cells.

``kernel.group.KeyMap`` numbers the key tuples of a stream of batches by
first arrival.  Over random batch splits of zero to three key columns of
every key atom, NILs, NaN and extremes included, it answers as a python
dict over ``python_value`` tuples (NIL ``None``) does: each row's cell,
the order of its keys, the touched cells and which are new.  A map
rebuilt from its ``keys`` answers the same.
"""

import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.errors import KernelError
from repro.kernel.bat import bat_from_values
from repro.kernel.group import KeyMap
from repro.kernel.types import AtomType, python_value, python_values
from repro.testing import current_seed

VALUES = {
    AtomType.INT: st.one_of(
        st.sampled_from([None, 2**31 - 1, -(2**31) + 1]), st.integers(-9, 9),
    ),
    AtomType.LNG: st.one_of(
        st.sampled_from([None, 2**63 - 1, -(2**63) + 1]),
        st.integers(-9, 9).map(lambda v: v * 10**12),
    ),
    AtomType.DBL: st.sampled_from([
        None, math.nan, 0.0, -0.0, 1.5, -2.25, math.inf, -math.inf,
        1.7976931348623157e308, 5e-324,
    ]),
    AtomType.STR: st.sampled_from([None, "", "a", "b", "ab", "é", "a\x00"]),
    AtomType.BOOL: st.sampled_from([None, True, False]),
    AtomType.TIMESTAMP: st.sampled_from([
        None, math.nan, 0.0, -1.0, 1.7e9, 1.7e9 + 0.5, 4e11,
    ]),
}


@st.composite
def batches(draw):
    """Key atoms, and rows cut into batches."""
    atoms = draw(st.lists(st.sampled_from(sorted(VALUES, key=str)),
                          max_size=3))
    rows = draw(st.lists(
        st.tuples(*(VALUES[atom] for atom in atoms)), min_size=1, max_size=40,
    ))
    cuts = sorted(set(draw(st.lists(st.integers(1, len(rows)), max_size=4))))
    bounds = zip([0] + cuts, cuts + [len(rows)])
    return atoms, [rows[lo:hi] for lo, hi in bounds if hi > lo]


def key_bats(atoms, batch):
    return [
        bat_from_values(atom, [row[i] for row in batch])
        for i, atom in enumerate(atoms)
    ]


class Reference:
    """Cells numbered by first arrival in a dict over python values."""

    def __init__(self, atoms):
        self.cells = {} if atoms else {(): 0}

    def lookup(self, bats, rows):
        size = len(self.cells)
        keys = zip(*(
            [python_value(bat.atom, v) for v in bat.tail] for bat in bats
        )) if bats else [()] * rows
        cells = [self.cells.setdefault(key, len(self.cells)) for key in keys]
        touched = list(dict.fromkeys(cells))
        return cells, touched, [cell >= size for cell in touched]


def stored_keys(key_map):
    """The map's keys as python tuples, in cell order."""
    if not key_map.atoms:
        return [()]
    return list(zip(*(
        python_values(atom, keys)
        for atom, keys in zip(key_map.atoms, key_map.keys)
    )))


def same_answer(got, want):
    assert [a.tolist() for a in got] == want


@seed(current_seed())
@settings(max_examples=300, deadline=None)
@given(batches(), st.data())
def test_the_key_map_answers_as_a_dict_over_python_values(batch, data):
    atoms, cut = batch
    key_map, reference = KeyMap(atoms), Reference(atoms)
    for part in cut:
        bats = key_bats(atoms, part)
        want = reference.lookup(bats, len(part))
        if data.draw(st.booleans()):
            same_answer(key_map.lookup(bats, len(part)), list(want))
        else:
            assert key_map.cells(bats, len(part)).tolist() == want[0]
        assert key_map.size == len(reference.cells)
        assert stored_keys(key_map) == list(reference.cells)
        assert [len(keys) for keys in key_map.keys] == (
            [key_map.size] * len(atoms)
        )

    twin = KeyMap(atoms)
    twin.restore(key_map.keys)
    assert twin.size == key_map.size
    assert stored_keys(twin) == stored_keys(key_map)
    for part in cut[::-1]:
        bats = key_bats(atoms, part)
        same_answer(
            twin.lookup(bats, len(part)), list(reference.lookup(bats, len(part)))
        )


def test_no_key_columns_is_one_cell():
    key_map = KeyMap([])
    assert key_map.size == 1 and key_map.keys == []
    same_answer(key_map.lookup([], 3), [[0, 0, 0], [0], [False]])


def test_nan_and_nil_are_one_key():
    key_map = KeyMap([AtomType.DBL])
    bat = bat_from_values(AtomType.DBL, [math.nan, None, 1.0, math.nan])
    same_answer(key_map.lookup([bat], 4), [[0, 0, 1, 0], [0, 1], [True, True]])
    assert np.isnan(key_map.keys[0][0])


def test_restoring_a_repeated_key_is_refused():
    for atom, keys in [(AtomType.STR, ["a", "a"]), (AtomType.INT, [3, 3])]:
        with pytest.raises(KernelError):
            KeyMap([atom]).restore([bat_from_values(atom, keys).tail])
