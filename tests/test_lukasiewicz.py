"""Walk, ladder decomposition and genealogy read off the walk."""

import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chronoforest.forest import build_forest
from chronoforest.lukasiewicz import (
    Walk,
    chi,
    dual_passage,
    ladder_decomp,
    max_drop,
    mrca,
    walk,
)
from chronoforest.measures import ZERO, PointMeasure, Stick
from chronoforest.spine import shifted_spine
from chronoforest.stochastic import GeometricUniformLaw

from conftest import REFERENCE_WALK


def unit_sticks(counts):
    """Sticks of life 1 with ``count`` births at age 1 each."""
    return [Stick(1.0, PointMeasure([1.0] * c)) for c in counts]


def test_reference_walk(reference_sticks):
    w = walk(reference_sticks)
    assert tuple(w.s) == REFERENCE_WALK
    assert w.births == tuple(s.births for s in reference_sticks)
    assert tuple(b.mass for b in w.births) == (2, 2, 1, 0, 0, 3, 0, 0, 1, 0)


def test_walk_from_counts():
    w = walk(unit_sticks([2, 0, 0]))
    assert tuple(w.s) == (0, 1, 0, -1)
    assert walk([]).n == 0 and tuple(walk([]).s) == (0,)


def test_max_drop(reference_sticks):
    w = walk(reference_sticks)
    # max over m < k <= n of S(m) - S(k), floored at 0
    assert max_drop(w, 0, 10) == 1
    assert max_drop(w, 1, 4) == 0
    assert max_drop(w, 2, 5) == 2
    assert max_drop(w, 4, 4) == 0


def test_chi_finds_children(reference_sticks):
    w = walk(reference_sticks)
    f = build_forest(reference_sticks)
    # chi(m, k) is the k-th child of m in exploration order.
    for m in range(10):
        kids = [i for i in range(10) if f.arrays.parent[i] == m]
        for k, kid in enumerate(kids):
            assert chi(w, m, k) == kid
    assert chi(w, 0) == 10  # past the last child: the walk's final passage
    assert chi(w, 3) == 4  # childless stick: its subtree closes immediately
    with pytest.raises(ValueError):
        chi(w, 3, 1)


def test_chi_rejects_a_walk_that_skips_down():
    # walk() only builds skip-free walks; a hand-made one that drops by 2
    # fails the passage check explicitly, also under ``python -O``
    w = Walk((PointMeasure([1.0]), ZERO), np.array([0, 0, -2]))
    with pytest.raises(RuntimeError, match="jumped below -1 at 2"):
        chi(w, 0)


def test_ladder_decomp_reference_n3(reference_sticks):
    dec = ladder_decomp(walk(reference_sticks), 3)
    assert dec.times == [1, 2, 3]
    assert dec.zetas == [0, 0, 0]
    assert [m.atoms for m in dec.measures] == [(0.9,), (1.2, 0.5), (1.5, 0.5)]
    assert dec.height == 3
    assert dec.height_sum() == pytest.approx(3.6)
    assert dec.stick_indices == [2, 1, 0]


def test_ladder_decomp_reference_n9(reference_sticks):
    dec = ladder_decomp(walk(reference_sticks), 9)
    assert dec.times == [1, 4, 9]
    assert dec.zetas == [0, 2, 1]
    assert [m.atoms for m in dec.measures] == [(1.0,), (1.0,), (0.5,)]
    assert dec.height == 3
    assert dec.height_sum() == pytest.approx(2.5)
    assert dec.count_upto(4) == 2
    assert dec.first_epoch_at_or_after(2) == 2
    assert dec.first_epoch_at_or_after(10) is None


def test_ladder_decomp_reads_only_the_first_n_sticks(reference_sticks):
    # Steps from n on are never read: padding the walk with sticks whose
    # births differ from the reference's changes nothing at focal index n.
    n = 9
    short = walk(reference_sticks[:n])
    padding = [Stick(2.0, PointMeasure([1.9, 0.3])), Stick(1.0, PointMeasure([0.8]))]
    padded = walk(reference_sticks[:n] + padding)

    def fields(dec):
        return dec.times, dec.zetas, dec.measures, dec.ages, dec.stick_indices

    for k in range(n + 1):
        dec, ref = ladder_decomp(padded, k), ladder_decomp(short, k)
        assert fields(dec) == fields(ref)
        for level in range(4):
            assert dec.D(level) == ref.D(level)
            assert dual_passage(padded, k, level) == dual_passage(short, k, level)
    dec = ladder_decomp(padded, n)
    assert dec.times == [1, 4, 9]
    assert dec.zetas == [0, 2, 1]
    assert ladder_decomp(padded, 0).times == []
    for bad in (-1, 12):
        with pytest.raises(ValueError, match="need 0 <= n <= 11"):
            ladder_decomp(padded, bad)


def test_ladder_matches_forest_everywhere(reference_sticks):
    f = build_forest(reference_sticks)
    w = walk(reference_sticks)
    for n in range(f.n_sticks + 1):
        dec = ladder_decomp(w, n)
        assert dec.height == f.arrays.depths[n]
        assert dec.height_sum() == f.arrays.heights[n]


def test_ancestors_are_the_dual_ladder_epochs(reference_sticks):
    f = build_forest(reference_sticks)
    w = walk(reference_sticks)
    for n in range(10):
        assert [n] + ladder_decomp(w, n).stick_indices == f.ancestors(n)


def test_mrca_from_walk(reference_sticks):
    w = walk(reference_sticks)
    f = build_forest(reference_sticks)
    for m in range(10):
        for n in range(m, 10):
            assert mrca(w, m, n) == f.mrca(m, n)
    assert mrca(w, 2, 4) == 1
    assert mrca(w, 3, 7) == 0


def test_mrca_disjoint():
    sticks = [Stick(1.0), Stick(1.0, PointMeasure([1.0]))]
    assert mrca(walk(sticks), 0, 1) is None


def test_dual_passage(reference_sticks):
    w = walk(reference_sticks)
    # From m = 0 no backward step exists, so every positive level is open.
    assert dual_passage(w, 0, 1) is None
    # Walking backward from 5, the walk first returns weakly below S(5) at
    # stick 0 (5 steps back); what survives of stick 0's births is the stub
    # stick 5 hangs from.
    assert dual_passage(w, 5, 0) == (5, PointMeasure([0.5]))
    assert dual_passage(w, 5, 1) is None
    # From 9 one step back suffices: stick 8's single atom carries node 9.
    assert dual_passage(w, 9, 0) == (1, PointMeasure([1.0]))
    assert dual_passage(w, 4, 0) == (3, PointMeasure([0.5]))


@pytest.mark.parametrize("m", [-2, -4, 9])
def test_dual_passage_checks_m(m):
    # a negative m used to index the walk from its end, and m past the
    # horizon raised a bare IndexError
    w = walk(unit_sticks([2, 0, 0, 1, 0]))
    with pytest.raises(ValueError, match=re.escape(f"need 0 <= m <= 5, got {m}")):
        dual_passage(w, m, 0)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda w, s: max_drop(w, 2, 1), "need 0 <= m <= n <= 3, got (2, 1)", id="max_drop"),
        pytest.param(lambda w, s: mrca(w, 0, 4), "need 0 <= m <= n <= 3, got (0, 4)", id="mrca"),
        pytest.param(lambda w, s: shifted_spine(s, 2, 1), "need 0 <= m <= n <= 3, got (2, 1)", id="shifted_spine"),
        pytest.param(lambda w, s: chi(w, 3), "need 0 <= m < 3, got 3", id="chi"),
        pytest.param(lambda w, s: ladder_decomp(w, 2).D(-1), "level must be >= 0", id="D"),
        pytest.param(lambda w, s: dual_passage(w, 1, -1), "level must be >= 0", id="dual_passage"),
    ],
)
def test_functionals_reject_arguments_out_of_range(call, message):
    sticks = unit_sticks([1, 1, 0])
    with pytest.raises(ValueError, match=re.escape(message)):
        call(walk(sticks), sticks)


def test_drop_functional(reference_sticks):
    w = walk(reference_sticks)
    assert ladder_decomp(w, 5).D(0) == 0.0
    assert ladder_decomp(w, 5).D(1) == pytest.approx(0.5)
    # Monotone in the level, bounded by the spine height.
    f = build_forest(reference_sticks)
    for n in range(1, 10):
        prev = 0.0
        for level in range(0, 4):
            d = ladder_decomp(w, n).D(level)
            assert d >= prev - 1e-12
            assert d <= f.arrays.heights[n] + 1e-12
            prev = d


@given(st.lists(st.integers(0, 3), min_size=1, max_size=30))
def test_walk_is_cumulative(counts):
    w = walk(unit_sticks(counts))
    assert w.s[0] == 0
    steps = np.diff(w.s)
    assert np.array_equal(steps, np.asarray(counts) - 1)


@given(st.lists(st.integers(0, 3), min_size=1, max_size=25), st.data())
def test_ladder_count_is_weak_ascent_count(counts, data):
    """Brute-force duality: the decomposition at n lists exactly the j where
    the reversed increments reach a new weak maximum."""
    n = data.draw(st.integers(0, len(counts)))
    w = walk(unit_sticks(counts))
    dual = [0]
    for j in range(1, n + 1):
        dual.append(w.s[n] - w.s[n - j])
    epochs = [j for j in range(1, n + 1) if dual[j] >= max(dual[:j])]
    dec = ladder_decomp(w, n)
    assert dec.times == epochs


@given(st.lists(st.integers(0, 3), min_size=1, max_size=25), st.data())
def test_dual_passage_is_the_first_level_passage(counts, data):
    """Brute-force passage: the first j >= 1 with S(m) - S(m - j) >= level,
    and the births of stick m - j less the undershoot-many largest atoms;
    the skip-free walk always leaves at least one atom."""
    sticks = [Stick(1.0, PointMeasure([0.1 * (a + 1) for a in range(c)])) for c in counts]
    w = walk(sticks)
    m = data.draw(st.integers(0, len(counts)))
    level = data.draw(st.integers(0, 4))
    hits = [j for j in range(1, m + 1) if w.s[m] - w.s[m - j] >= level]
    passage = dual_passage(w, m, level)
    if not hits:
        assert passage is None
        return
    j = hits[0]
    zeta = level - int(w.s[m] - w.s[m - j + 1])
    expected = PointMeasure(sorted(sticks[m - j].births.atoms)[: counts[m - j] - zeta])
    assert passage == (j, expected)
    assert passage[1].mass >= 1


def test_ladder_and_forest_agree_on_random_inputs(rng):
    law = GeometricUniformLaw(mean_offspring=0.9, v=1.0)
    for _ in range(15):
        sticks = law.sample_batch(rng, int(rng.integers(2, 60))).to_sticks()
        f = build_forest(sticks)
        w = walk(sticks)
        for n in range(len(sticks) + 1):
            dec = ladder_decomp(w, n)
            assert dec.height == f.arrays.depths[n]
            assert dec.height_sum() == f.arrays.heights[n]
