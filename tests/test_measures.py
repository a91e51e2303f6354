"""Point measures, sticks and the truncation operator."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chronoforest.measures import (
    EMPTY_SPINE,
    ZERO,
    PointMeasure,
    SpineSeq,
    Stick,
    sticks_from_json,
    sticks_to_json,
)

atoms_strategy = st.lists(
    st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
    min_size=0,
    max_size=12,
)


def test_atoms_sorted_descending():
    m = PointMeasure([0.5, 2.0, 1.0, 0.5])
    assert m.atoms == (2.0, 1.0, 0.5, 0.5)
    assert m.mass == 4
    assert m.sup_support == 2.0


def test_zero_measure():
    assert ZERO.mass == 0
    assert ZERO.sup_support == 0.0
    assert not ZERO
    assert PointMeasure([]) == ZERO


def test_nonpositive_atom_rejected():
    with pytest.raises(ValueError):
        PointMeasure([1.0, 0.0])
    with pytest.raises(ValueError):
        PointMeasure([-0.5])


def test_truncate_largest_drops_highest_atoms():
    m = PointMeasure([1.5, 0.5])
    assert m.truncate_largest(0) == m
    assert m.truncate_largest(1) == PointMeasure([0.5])
    assert m.truncate_largest(2) == ZERO
    assert m.truncate_largest(5) == ZERO
    with pytest.raises(ValueError):
        m.truncate_largest(-1)


def test_truncate_ties_remove_from_the_top():
    m = PointMeasure([1.0, 1.0, 0.5])
    assert m.truncate_largest(1).atoms == (1.0, 0.5)
    assert m.truncate_largest(2).atoms == (0.5,)


@given(atoms_strategy, st.integers(0, 6), st.integers(0, 6))
def test_truncation_composes_additively(atoms, j, k):
    m = PointMeasure(atoms)
    assert m.truncate_largest(k).truncate_largest(j) == m.truncate_largest(j + k)


@given(atoms_strategy, st.integers(0, 6))
def test_truncation_mass_arithmetic(atoms, k):
    m = PointMeasure(atoms)
    t = m.truncate_largest(k)
    assert t.mass == max(m.mass - k, 0)
    if t:
        # Whatever survives sits strictly below the removed atoms.
        assert t.sup_support <= m.sup_support


def test_stick_validation():
    with pytest.raises(ValueError):
        Stick(0.0)
    with pytest.raises(ValueError):
        Stick(1.0, PointMeasure([1.5]))  # birth age beyond the life length
    s = Stick(2.0, PointMeasure([2.0]))  # an atom exactly at death is fine
    assert s.births.mass == 1


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_nonfinite_values_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        Stick(bad)
    with pytest.raises(ValueError, match="finite"):
        PointMeasure([1.0, bad])


def test_stick_json_round_trip(reference_sticks):
    text = sticks_to_json(reference_sticks)
    back = sticks_from_json(text)
    assert back == reference_sticks
    assert sticks_from_json(sticks_to_json([])) == []
    # The payload is plain JSON: a list of {v, births} objects.
    payload = json.loads(text)
    assert payload[0]["v"] == 2.0
    assert payload[0]["births"] == [1.5, 0.5]


def test_spine_seq_rejects_zero_measure():
    with pytest.raises(ValueError):
        SpineSeq((PointMeasure([1.0]), ZERO))


def test_spine_seq_concat_and_mass():
    a = SpineSeq((PointMeasure([1.0]),))
    b = SpineSeq((PointMeasure([2.0, 0.5]),))
    joined = SpineSeq(a.elements + b.elements)
    assert len(joined) == 2
    assert joined.elements[0].atoms == (1.0,)
    assert SpineSeq(EMPTY_SPINE.elements + a.elements) == a
    assert joined.sup_support == pytest.approx(3.0)
    assert joined.length == 2


@given(st.lists(atoms_strategy.filter(lambda a: len(a) > 0), max_size=5))
def test_spine_height_adds_supremum_atoms(atom_lists):
    seq = SpineSeq(tuple(PointMeasure(a) for a in atom_lists))
    expected = 0.0
    for a in atom_lists:  # root first, one rounding per addition
        expected += max(a)
    assert seq.sup_support == expected
    assert seq.length == len(atom_lists)


def test_measures_hashable_and_equal():
    a = PointMeasure([1.0, 0.5])
    b = PointMeasure([0.5, 1.0])
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@given(atoms_strategy)
def test_atoms_round_trip_as_array(atoms):
    m = PointMeasure(atoms)
    arr = np.asarray(m.atoms)
    assert arr.shape == (len(atoms),)
    if len(atoms) > 1:
        assert np.all(np.diff(arr) <= 0)
