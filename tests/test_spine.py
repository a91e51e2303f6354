"""Spine recursion, height kernel and the cross-checking identity suite."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chronoforest.forest import build_forest, forest_arrays, graft_forest
from chronoforest.lukasiewicz import ladder_decomp, walk
from chronoforest.measures import (
    EMPTY_SPINE,
    ZERO,
    PointMeasure,
    SpineSeq,
    Stick,
    StickBatch,
)
from chronoforest.spine import (
    IdentityReport,
    height_profile_arrays,
    phi,
    shifted_spine,
    spine_states,
    verify_identities,
)
from chronoforest.stochastic import GeometricUniformLaw, parse_law, random_verification_law

IDENTITY_CHECKS = {
    "adjacent-shift-bound",
    "ancestor-line-from-walk",
    "child-step-spine",
    "contour-min-via-drop",
    "depth-is-ladder-count",
    "descent-level-literal",
    "first-child-passage",
    "genealogical-collapse-depth",
    "height-difference-drop",
    "height-is-ladder-age-sum",
    "kernel-forest-matches-graft",
    "mrca-at-m-iff-no-drop",
    "mrca-from-ladder-epochs",
    "mrca-measure-both-routes",
    "mrca-walk-matches-forest",
    "shifted-spine-at-mrca",
    "shifted-spine-from-ladder",
    "shifted-spine-is-height-drop",
    "spine-decomp-below-mrca",
    "spine-equals-ladder-measures",
    "spine-splice-at-ladder-epochs",
    "spine-splice-at-mrca",
    "subtree-preserves-spine-prefix",
    "time-change-gap-formula",
}


def test_phi_appends_nonzero_measures():
    y = SpineSeq((PointMeasure([1.5, 0.5]), PointMeasure([0.9])))
    out = phi(y, PointMeasure([2.0]))
    assert [m.atoms for m in out] == [(1.5, 0.5), (0.9,), (2.0,)]


def test_phi_backtracks_on_zero():
    # A childless step pops exhausted single-atom tail measures and then
    # consumes the largest atom of the deepest multi-atom measure.
    y = SpineSeq((PointMeasure([1.5, 0.5]), PointMeasure([0.9])))
    assert [m.atoms for m in phi(y, ZERO)] == [(0.5,)]
    assert phi(EMPTY_SPINE, ZERO) == EMPTY_SPINE
    assert phi(SpineSeq((PointMeasure([1.0]),)), ZERO) == EMPTY_SPINE


def test_spine_process_reference_values(reference_sticks):
    expected = [
        [],
        [(1.5, 0.5)],
        [(1.5, 0.5), (1.2, 0.5)],
        [(1.5, 0.5), (1.2, 0.5), (0.9,)],
        [(1.5, 0.5), (0.5,)],
        [(0.5,)],
        [(0.5,), (3.5, 2.5, 1.0)],
        [(0.5,), (2.5, 1.0)],
        [(0.5,), (1.0,)],
        [(0.5,), (1.0,), (1.0,)],
        [],
    ]
    states = spine_states(reference_sticks)
    assert len(states) == 11
    for n, want in enumerate(expected):
        assert [m.atoms for m in states[n]] == want
        assert shifted_spine(reference_sticks, 0, n) == states[n]
    assert states[5].sup_support == pytest.approx(0.5)
    assert states[9].sup_support == pytest.approx(2.5)
    assert states[9].length == 3


def test_spine_matches_forest_chronology(reference_sticks):
    f = build_forest(reference_sticks)
    for n, state in enumerate(spine_states(reference_sticks)):
        assert state.sup_support == f.arrays.heights[n]
        assert state.length == f.arrays.depths[n]


def test_shifted_spine_reference_values(reference_sticks):
    assert [m.atoms for m in shifted_spine(reference_sticks, 4, 9)] == [(1.0,), (1.0,)]
    assert shifted_spine(reference_sticks, 2, 4) == EMPTY_SPINE
    assert shifted_spine(reference_sticks, 5, 5) == EMPTY_SPINE
    # Shift by the root: the whole spine of n.
    full = shifted_spine(reference_sticks, 0, 9)
    assert full == spine_states(reference_sticks)[9]


def test_height_profile_equals_forest(reference_sticks):
    batch = StickBatch.from_sticks(reference_sticks)
    heights, depths = height_profile_arrays(batch.counts, batch.offsets, batch.ages)
    f = graft_forest(reference_sticks)
    assert np.array_equal(heights, f.arrays.heights)
    assert np.array_equal(depths, f.arrays.depths)


def test_height_profile_arrays_flat_layout():
    # Sticks (v irrelevant to the kernel): counts (2, 0, 1, 0), ages flat
    # and descending within each stick.
    counts = np.array([2, 0, 1, 0])
    offsets = np.array([0, 2, 2, 3, 3])
    ages = np.array([1.5, 0.5, 0.7])
    heights, depths = height_profile_arrays(counts, offsets, ages)
    assert heights == pytest.approx(np.array([0.0, 1.5, 0.5, 1.2, 0.0]))
    assert np.array_equal(depths, np.array([0, 1, 1, 2, 0]))


# Ages on a 0.1-lattice: ties inside a stick and across sticks are common.
lattice_stick = st.lists(st.integers(1, 6), max_size=3).map(
    lambda ks: Stick(1.0, PointMeasure([0.1 * k for k in ks]))
)


@given(st.lists(lattice_stick, max_size=40), st.booleans())
@example([], False)
@settings(max_examples=150, deadline=None)
def test_kernel_matches_forest_on_lattice_ties(sticks, all_leaves):
    if all_leaves:
        sticks = [Stick(s.v) for s in sticks]
    # Any prefix is a valid input, so the final tree is often incomplete.
    batch = StickBatch.from_sticks(sticks)
    heights, depths = height_profile_arrays(batch.counts, batch.offsets, batch.ages)
    f = graft_forest(sticks)
    assert np.array_equal(depths, f.arrays.depths)
    assert np.array_equal(heights, f.arrays.heights)
    assert np.all(heights[depths == 0] == 0.0)
    assert heights.dtype == float and len(heights) == len(sticks) + 1


@given(st.lists(lattice_stick, max_size=40), st.booleans())
@example([], False)
@example([Stick(1.0), Stick(1.0)], True)
@settings(max_examples=150, deadline=None)
def test_build_forest_matches_graft_forest_on_lattice_ties(sticks, all_leaves):
    if all_leaves:
        sticks = [Stick(s.v) for s in sticks]
    # Any prefix is a valid input, so the final tree is often incomplete.
    kernel = build_forest(StickBatch.from_sticks(sticks))
    graft = graft_forest(sticks)
    for name, k, g in zip(kernel.arrays._fields, kernel.arrays, graft.arrays):
        assert np.array_equal(k, g), name  # heights bit for bit, terminal entries included
    assert kernel.tree_count == graft.tree_count
    assert kernel.batch.to_sticks() == graft.batch.to_sticks() == sticks


def test_kernel_matches_ladder_ages_at_scale():
    # The kernel as the experiments run it: a critical forest of 2e5 sticks,
    # checked at sampled indices against the ladder decomposition's ages,
    # summed root first as grafting sums them.
    n = 200_000
    rng = np.random.default_rng(7)
    batch = parse_law("geo-uniform").sample_batch(rng, n)
    heights, depths = height_profile_arrays(batch.counts, batch.offsets, batch.ages)
    assert np.all(heights[depths == 0] == 0.0)
    roots = np.flatnonzero(depths == 0)
    assert len(roots) > 8
    picks = set(rng.choice(roots, 6, replace=False).tolist()) | {0, n}
    while len(picks) < 32:
        picks.add(int(rng.integers(1, n)))
    w = walk(batch.to_sticks())
    # the forest reads its parents and tree ids off the same first passages
    forest = forest_arrays(batch.counts, batch.offsets, batch.ages)
    assert np.array_equal(forest.heights, heights) and np.array_equal(forest.depths, depths)
    for j in sorted(picks):
        dec = ladder_decomp(w, j)
        assert depths[j] == dec.height, j
        h = 0.0
        for a in reversed(dec.ages):
            h += a
        assert heights[j] == h, j
        if j < n:
            assert forest.parent[j] == (dec.stick_indices[0] if dec.height else -1), j
            assert forest.tree_id[j] == np.count_nonzero(roots <= j) - 1, j


def test_single_child_chain_heights_are_sequential_sums():
    # one generation per stick, the most a forest can have: the generation
    # pass takes one step for each, and each height is the running sum
    n = 100_000
    batch = parse_law("const(v=1.0,ages=0.1)").sample_batch(np.random.default_rng(0), n)
    heights, depths = height_profile_arrays(batch.counts, batch.offsets, batch.ages)
    assert np.array_equal(depths, np.arange(n + 1))
    assert heights[0] == 0.0 and np.array_equal(heights[1:], np.cumsum(batch.ages))


def test_verify_identities_reference(reference_sticks):
    pairs = [(m, n) for m in range(11) for n in range(m, 11)]
    report = verify_identities(reference_sticks, pairs=pairs)
    assert report.ok
    assert report.pairs_checked == 66
    assert set(report.tallies) == IDENTITY_CHECKS
    for name, tally in report.tallies.items():
        assert tally.failures == 0, name
        assert tally.passes > 0, name


def test_kernel_forest_identity_catches_a_wrong_kernel(reference_sticks, monkeypatch):
    import chronoforest.spine as spine_module
    from chronoforest.forest import ChronForest

    def off_by_one(sticks):
        good = build_forest(sticks)
        return ChronForest(good.batch, good.arrays._replace(pending_stubs=1))

    monkeypatch.setattr(spine_module, "build_forest", off_by_one)
    report = verify_identities(reference_sticks, max_pairs=5, rng=np.random.default_rng(0))
    assert report.tallies["kernel-forest-matches-graft"].failures == 1
    assert [n for n, t in report.tallies.items() if t.failures] == ["kernel-forest-matches-graft"]


def test_one_ulp_on_a_ladder_age_fails_the_exact_identities(reference_sticks, monkeypatch):
    # An absolute tolerance of 1e-9 would let this bump pass unseen.  The
    # decomposition at index 1 has one epoch, the root's birth at 1.5, so
    # its height sum is that one age and its spine that one measure; the
    # splice at that epoch would restate the spine identity, so it is not
    # checked, and the pair (1, 1) reads none of the ladder.
    import chronoforest.spine as spine_module

    exact = spine_module.ladder_decomp

    def bumped(w, n):
        dec = exact(w, n)
        if n == 1:
            age = math.nextafter(dec.ages[-1], math.inf)
            dec.measures[-1] = PointMeasure((age,) + dec.measures[-1].atoms[1:])
            dec.ages[-1] = age
        return dec

    monkeypatch.setattr(spine_module, "ladder_decomp", bumped)
    report = verify_identities(reference_sticks, pairs=[(1, 1)])
    assert {n: t.failures for n, t in report.tallies.items() if t.failures} == {
        "height-is-ladder-age-sum": 1,
        "spine-equals-ladder-measures": 1,
    }


@pytest.mark.parametrize(
    "spec, seed",
    [
        ("geo-uniform(mean=1.0,v=1.0)", None),  # the ``rng`` fixture's stream
        ("two-point", 3117),  # fixed ages (1.0, 0.5): ties in every stick
        ("exp-uniform", 5281),
    ],
)
def test_time_change_gap_formula_agrees(spec, seed, rng):
    # the gap formula decides with an exact ``>=``: the drop functional sums
    # its ladder ages root first, as grafting does
    law = parse_law(spec)
    if seed is not None:
        rng = np.random.default_rng(seed)
    total = IdentityReport()
    for _ in range(25):
        total.merge(verify_identities(law.sample_batch(rng, 300).to_sticks(), pairs=[]))
    tally = total.tallies["time-change-gap-formula"]
    assert (tally.passes, tally.failures) == (75, 0), tally.examples
    assert total.ok


def test_gap_formula_identity_catches_an_off_by_one(reference_sticks, monkeypatch):
    import chronoforest.spine as spine_module

    exact = spine_module._gap_formula
    monkeypatch.setattr(spine_module, "_gap_formula", lambda *args: exact(*args) + 1)
    report = verify_identities(reference_sticks, max_pairs=5, rng=np.random.default_rng(0))
    tally = report.tallies["time-change-gap-formula"]
    assert (tally.passes, tally.failures) == (0, 3)  # raw times between visits 0-1, 5-6, 9-10
    assert [n for n, t in report.tallies.items() if t.failures] == ["time-change-gap-formula"]
    assert "raw_time" in tally.examples[0] and "formula=" in tally.examples[0]["detail"]


def test_contour_min_identity_reads_the_contour(reference_sticks, monkeypatch):
    from chronoforest.forest import ContourPath

    # the rounding bound of the subtractive identities, from the forest
    arrays = build_forest(reference_sticks).arrays
    depth, height = max(1, int(arrays.depths.max())), float(np.abs(arrays.heights).max())
    bound = depth * np.finfo(float).eps * height
    exact = ContourPath.min_on
    for scale, failures in [(2.0, 55), (0.5, 0)]:  # 55: every pair of the 10 sticks

        def shifted_min(path, a, b, d=scale * bound):
            return exact(path, a, b) + d

        monkeypatch.setattr(ContourPath, "min_on", shifted_min)
        report = verify_identities(reference_sticks, rng=np.random.default_rng(0))
        tally = report.tallies["contour-min-via-drop"]
        assert (tally.passes, tally.failures) == (55 - failures, failures), scale
        failing = [n for n, t in report.tallies.items() if t.failures]
        assert failing == (["contour-min-via-drop"] if failures else []), scale


def test_verify_identities_random_forests(rng):
    total = None
    for _ in range(8):
        law = random_verification_law(rng)
        sticks = law.sample_batch(rng, int(rng.integers(3, 80))).to_sticks()
        report = verify_identities(sticks, max_pairs=25, rng=rng)
        assert report.ok
        if total is None:
            total = report
        else:
            total.merge(report)
    assert total.forests == 8
    assert set(total.tallies) == IDENTITY_CHECKS


def test_identity_report_json(reference_sticks):
    report = verify_identities(reference_sticks, max_pairs=10, rng=np.random.default_rng(0))
    payload = report.to_json()
    assert payload["ok"] is True
    assert set(payload["checks"]) == IDENTITY_CHECKS
    json.dumps(payload)  # serialisable as-is


def test_incomplete_forest_identities(reference_sticks):
    # The suite also holds on prefixes, where the final tree is incomplete.
    report = verify_identities(reference_sticks[:7], max_pairs=30, rng=np.random.default_rng(1))
    assert report.ok


measure_strategy = st.lists(
    st.floats(min_value=0.05, max_value=4.0, allow_nan=False), min_size=1, max_size=4
).map(PointMeasure)


@given(st.lists(measure_strategy, max_size=5).map(lambda ms: SpineSeq(tuple(ms))),
       st.one_of(st.just(ZERO), measure_strategy))
@settings(max_examples=60)
def test_phi_output_never_contains_zero(seq, births):
    out = phi(seq, births)
    assert all(not m.is_zero for m in out)
    if births.is_zero:
        assert len(out) <= len(seq)
        assert out.sup_support <= seq.sup_support + 1e-12
    else:
        assert len(out) == len(seq) + 1
        assert out.elements[-1] == births


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_spine_recursion_tracks_forest_on_random_laws(seed):
    rng = np.random.default_rng(seed)
    law = GeometricUniformLaw(mean_offspring=float(rng.uniform(0.4, 1.0)), v=1.0)
    sticks = law.sample_batch(rng, int(rng.integers(1, 50))).to_sticks()
    f = build_forest(sticks)
    for n, state in enumerate(spine_states(sticks)):
        assert state.length == f.arrays.depths[n]
        assert state.sup_support == f.arrays.heights[n]
