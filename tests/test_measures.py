"""Point measures, sticks and the truncation operator."""

import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from chronoforest.measures import (
    _STICK_BLOCK,
    ZERO,
    PointMeasure,
    Stick,
    StickBatch,
    sticks_from_json,
    write_sticks_json,
)
from chronoforest.spine import spine_height
from chronoforest.stochastic import GeometricUniformLaw

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


@settings(deadline=None)
@given(st.lists(st.integers(0, 5), max_size=20))
@example([])  # no sticks
@example([0, 0, 0])  # every stick childless
@example([0, 2, 0, 1, 0])  # childless first and last sticks
@example([4])  # a single stick
@example([0])
def test_sticks_for_is_the_repeat_of_stick_indices(counts):
    # the one stick index of the layout: stick k once per age of stick k
    c = np.array(counts, dtype=np.int64)
    got = StickBatch.sticks_for(StickBatch.offsets_for(c))
    want = np.repeat(np.arange(len(c)), c)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()


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


def sticks_to_json(batch: StickBatch) -> str:
    out = io.StringIO()
    write_sticks_json(batch, out)
    return out.getvalue()


def test_stick_json_round_trip(reference_sticks):
    text = sticks_to_json(StickBatch.from_sticks(reference_sticks))
    back = sticks_from_json(text)
    assert back.to_sticks() == reference_sticks
    assert sticks_from_json(sticks_to_json(StickBatch([], [], []))).n == 0
    # The payload is plain JSON: a list of {v, births} objects.
    payload = json.loads(text)
    assert payload[0]["v"] == 2.0
    assert payload[0]["births"] == [1.5, 0.5]


@given(st.lists(atoms_strategy.filter(lambda a: len(a) > 0), max_size=5))
@example([[1.0], [2.0, 0.5]])
def test_spine_height_adds_supremum_atoms(atom_lists):
    # a spine is a tuple of measures: it joins by concatenation, () the empty spine
    spine = tuple(PointMeasure(a) for a in atom_lists)
    expected = 0.0
    for a in atom_lists:  # root first, one rounding per addition
        expected += max(a)
    assert spine_height(spine) == expected
    assert spine_height(() + spine[:1] + spine[1:]) == expected
    assert spine_height(()) == 0.0


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


# The per-stick codec that ``StickBatch.from_json`` and ``to_json`` replace,
# kept as their oracle: one ``Stick`` per JSON object, checked by its
# constructors.


def _is_number(x) -> bool:
    # ``bool`` subclasses ``int``, but JSON's true and false are not numbers
    return isinstance(x, (int, float)) and not isinstance(x, bool)


JSON_TYPES = {dict: "object", list: "array", str: "string", bool: "boolean", int: "number", float: "number",
              type(None): "null"}


def _shown(x) -> str:
    # an error names an array or object by its JSON type and quotes a scalar,
    # a string of more than 20 characters by its first 10 and its length
    if isinstance(x, (list, dict)):
        return JSON_TYPES[type(x)]
    if isinstance(x, str) and len(x) > 20:
        return f"{x[:10]!r}… (string of {len(x)} characters)"
    return repr(x)


def oracle_stick_from_json(obj) -> Stick:
    if not isinstance(obj, dict):
        raise ValueError(f"stick must be an object with 'v' and 'births', got {JSON_TYPES[type(obj)]}")
    for key in ("v", "births"):
        if key not in obj:
            raise ValueError(f"missing key {key!r}")
    v, births = obj["v"], obj["births"]
    if not _is_number(v):
        raise ValueError(f"'v' must be a number, got {_shown(v)}")
    if not isinstance(births, list):
        raise ValueError(f"'births' must be an array of numbers, got {_shown(births)}")
    for k, age in enumerate(births):
        if not _is_number(age):
            raise ValueError(f"births[{k}] must be a number, got {_shown(age)}")
    return Stick(float(v), PointMeasure(births))


def oracle_sticks_from_json(text: str) -> list[Stick]:
    data = json.loads(text)
    if not isinstance(data, list):
        raise ValueError("stick file must contain a JSON array")
    sticks = []
    for i, obj in enumerate(data):
        try:
            sticks.append(oracle_stick_from_json(obj))
        except (ValueError, TypeError, OverflowError) as exc:  # an int too big for a float
            raise ValueError(f"stick {i}: {exc}") from exc
    return sticks


def oracle_sticks_to_json(sticks: list[Stick]) -> str:
    return json.dumps([{"v": s.v, "births": list(s.births.atoms)} for s in sticks])


@st.composite
def stick_objects(draw) -> dict:
    """A valid stick object: ``v`` an int or a float, births unsorted, some
    of them ints and exact ties on a lattice."""
    v = draw(st.one_of(st.integers(1, 4), st.floats(min_value=1e-3, max_value=1e3)))
    ages = st.floats(min_value=1e-3, max_value=v)  # an atom exactly at death is fine
    lattice = [a for a in (0.25, 0.5, 1, 1.5, 2, 3, 4) if a <= v]
    if lattice:
        ages = ages | st.sampled_from(lattice)
    return {"v": v, "births": draw(st.lists(ages, max_size=8))}


LONG_STICK = {"v": 2, "births": [(k * 7919) % 400 / 200 + 0.005 for k in range(10_000)] + [1, 2]}


@seed(2137)
@settings(max_examples=150, deadline=None)
@given(st.lists(stick_objects(), max_size=30))
@example([])
@example([{"v": 1, "births": []}, {"v": 2.5, "births": []}, {"v": 1e-3, "births": []}])
@example([{"v": 5, "births": [1, 3, 2, 5, 3]}, {"v": 1.0, "births": [0.5, 1, 0.25, 0.5]}])
@example([LONG_STICK])
def test_stick_codec_matches_the_per_stick_oracle(objs):
    text = json.dumps(objs)
    batch = sticks_from_json(text)
    sticks = oracle_sticks_from_json(text)
    expected = StickBatch.from_sticks(sticks)
    for name in ("counts", "v", "ages", "offsets"):
        got, want = getattr(batch, name), getattr(expected, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert sticks_to_json(batch) == oracle_sticks_to_json(sticks)
    assert batch.to_json() == json.loads(oracle_sticks_to_json(sticks))


BIG_INT = 10**400
BAD_STICK_OBJECTS = [
    {"v": 1, "births": [math.nan]},
    {"v": 2, "births": [1.0, math.nan, 0.5, 2.0, math.inf]},  # the sort sees nan
    {"v": 2, "births": [math.inf, 0.5]},
    {"v": 2, "births": [0.5, -math.inf]},
    {"v": 1, "births": [0.5, 0.0]},
    {"v": 1, "births": [-0.5]},
    {"v": 0, "births": []},
    {"v": -1.5, "births": [0.5]},
    {"v": math.inf, "births": []},
    {"v": math.nan, "births": [0.5]},
    {"v": 1, "births": [1.5, 0.5]},  # a birth after death
    {"v": 1, "births": [math.nan, 1.5]},
    {"v": True, "births": []},
    {"v": 1, "births": [0.5, False]},
    {"v": "2", "births": []},
    {"v": "x" * 20, "births": []},  # the longest string quoted whole
    {"v": "x" * 21, "births": []},
    {"v": 2, "births": ["1"]},
    {"v": 2, "births": [0.5, "'\"" * 300]},
    {"v": 2, "births": "12"},
    {"v": 2, "births": {"a": 1}},
    {"v": BIG_INT, "births": []},
    {"v": 2, "births": [0.5, BIG_INT]},
    {"v": 2, "births": [-BIG_INT]},
    {"v": 0, "births": [BIG_INT]},
    {"v": None, "births": []},
    {"v": [2], "births": []},
    {"v": 2, "births": [0.5, [1, 0.25]]},
    [2, [0.5]],
    3,
    True,
    "stick",
    None,
    {"births": [0.5]},
    {"v": 1},
    {},
]


@seed(2139)
@settings(max_examples=150, deadline=None)
@given(
    st.lists(stick_objects(), max_size=12),
    st.lists(st.tuples(st.integers(0, 12), st.sampled_from(BAD_STICK_OBJECTS)), min_size=1, max_size=2),
)
def test_stick_codec_errors_match_the_oracle(objs, bad):
    # one or two bad sticks among good ones: the error names the first bad
    # stick in file order, with the text the per-stick reader gives
    for i, obj in bad:
        objs.insert(i, obj)
    text = json.dumps(objs)
    with pytest.raises(ValueError) as want:
        oracle_sticks_from_json(text)
    with pytest.raises(ValueError) as got:
        sticks_from_json(text)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("text", ["{}", '{"v": 1, "births": []}', "3", '"sticks"', "null", "[1, 2"])
def test_stick_file_must_be_an_array(text):
    with pytest.raises(ValueError) as want:
        oracle_sticks_from_json(text)
    with pytest.raises(ValueError) as got:
        sticks_from_json(text)
    assert str(got.value) == str(want.value)


def test_too_deeply_nested_stick_file_is_a_value_error():
    with pytest.raises(ValueError, match="^stick file nests too deeply$"):
        sticks_from_json("[" * 100_000)


@pytest.mark.parametrize("n", [0, _STICK_BLOCK - 1, _STICK_BLOCK, _STICK_BLOCK + 1, 2 * _STICK_BLOCK + 1])
def test_stick_file_blocks_join_into_one_dump(n):
    # one stick short of a block, one block, one stick over, two blocks and
    # a stick, and no sticks (seed 3404)
    batch = GeometricUniformLaw(mean_offspring=1.0, v=1.0).sample_batch(np.random.default_rng(3404), n)
    assert sticks_to_json(batch) == json.dumps(batch.to_json()) == oracle_sticks_to_json(batch.to_sticks())


class _Discard:
    def write(self, text: str) -> None:
        pass


def test_stick_file_writer_holds_a_bounded_working_set():
    # 20 blocks of sticks take less than 1.5 times the memory of 2 blocks:
    # each block's objects and text are freed before the next (seed 3405)
    law = GeometricUniformLaw(mean_offspring=1.0, v=1.0)
    rng = np.random.default_rng(3405)
    peaks = []
    for blocks in (2, 20):
        batch = law.sample_batch(rng, blocks * _STICK_BLOCK)
        tracemalloc.start()
        try:
            write_sticks_json(batch, _Discard())
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0], peaks
