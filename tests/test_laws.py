"""Stick laws: samplers, descriptors, parsing and batch layout."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import zeta

from chronoforest.stochastic import (
    ConstantStickLaw,
    ExponentialUniformLaw,
    GaltonWatsonUnitLaw,
    GeometricUniformLaw,
    StableFamilyLaw,
    StickBatch,
    TwoPointAgesLaw,
    parse_law,
    random_verification_law,
)
from chronoforest.stochastic.laws import _sort_ages_desc

DESCRIBE_KEYS = {"name", "mean_offspring", "mean_v", "mean_ystar", "arithmetic", "span"}


def test_geometric_uniform_describe_and_pmf():
    law = GeometricUniformLaw(mean_offspring=1.0, v=1.0)
    d = law.describe()
    assert set(d) >= DESCRIBE_KEYS
    assert d["mean_offspring"] == pytest.approx(1.0)
    assert d["mean_v"] == pytest.approx(1.0)
    assert d["mean_ystar"] == pytest.approx(0.5)  # E|P| * E(uniform age)
    assert law.count_pmf(5) == pytest.approx([0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625])


def test_two_point_law():
    law = TwoPointAgesLaw(ages=(1.0, 0.5), p2=0.5)
    d = law.describe()
    assert d["mean_offspring"] == pytest.approx(1.0)
    assert d["mean_ystar"] == pytest.approx(0.75)
    assert law.count_pmf(3) == pytest.approx([0.5, 0.0, 0.5, 0.0])


def test_gw_unit_law_is_geometric():
    law = GaltonWatsonUnitLaw(1.0)
    assert law.count_pmf(4) == pytest.approx([0.5, 0.25, 0.125, 0.0625, 0.03125])
    d = law.describe()
    assert d["mean_v"] == 1.0 and d["span"] == 1.0 and d["arithmetic"]


def test_family_descriptors():
    f1 = StableFamilyLaw("1", alpha=1.5)
    f2 = StableFamilyLaw("2", alpha=1.5)
    for law in (f1, f2):
        d = law.describe()
        assert d["mean_offspring"] == pytest.approx(1.0)
        assert d["mean_v"] == pytest.approx(2.0)
        assert d["arithmetic"] and d["span"] == 1.0
    # All of family 1's ages sit at 1, so the age integral is E(count) = 1.
    assert f1.describe()["mean_ystar"] == pytest.approx(1.0)
    # Family 2 puts one atom at age = count: the realizable age integral is
    # 1 + P(count = 0) = 2 - zeta(alpha+1)/zeta(alpha).
    assert f2.describe()["mean_ystar"] == pytest.approx(2.0 - zeta(2.5) / zeta(1.5), abs=1e-12)


def test_generalized_family_series_mean():
    law = StableFamilyLaw("generalized", alpha=1.5, age_map="sqrt")
    p0 = 1.0 - zeta(2.5) / zeta(1.5)
    expected = p0 + zeta(2.0) / zeta(1.5)
    assert law.describe()["mean_ystar"] == pytest.approx(expected, abs=1e-5)


def test_exponential_uniform_descriptors():
    law = ExponentialUniformLaw(rate=0.5, mean_offspring=1.0)
    d = law.describe()
    assert d["mean_v"] == pytest.approx(2.0)
    assert d["mean_ystar"] == pytest.approx(1.0)
    assert not d["arithmetic"]
    assert d["span"] is None


def test_batch_layout(rng):
    law = GeometricUniformLaw(mean_offspring=0.9, v=1.5)
    batch = law.sample_batch(rng, 100)
    assert batch.n == 100
    assert batch.counts.sum() == len(batch.ages)
    assert batch.offsets[0] == 0 and batch.offsets[-1] == len(batch.ages)
    assert np.array_equal(np.diff(batch.offsets), batch.counts)
    for i in range(batch.n):
        atoms = batch.ages[batch.offsets[i] : batch.offsets[i + 1]]
        assert np.all(np.diff(atoms) <= 0)  # descending within a stick
        if atoms.size:
            assert atoms.min() > 0.0
            assert atoms.max() <= batch.v[i] + 1e-12
        assert batch.measure(i).mass == batch.counts[i]


@pytest.mark.parametrize(
    "counts, v, ages, message",
    [
        # ascending ages within stick 0 would give wrong heights silently
        ([2, 0, 0], [2.0, 1.0, 1.0], [0.5, 1.5], "stick 0: birth ages must be non-increasing"),
        ([0, 1, 2], [1.0, 1.0, 1.0], [0.5, 0.2, 0.3], "stick 2: birth ages"),
        ([1, 0], [1.0], [0.5], "one life length per stick"),
        ([1, -1, 1], [1.0, 1.0, 1.0], [0.5], "counts must be >= 0"),
        ([2, 1], [1.0, 1.0], [0.5, 0.4], "counts sum to 3 births but 2 ages"),
    ],
)
def test_batch_rejects_bad_layout(counts, v, ages, message):
    with pytest.raises(ValueError, match=message):
        StickBatch(counts, v, ages)


def test_batch_layout_allows_ties_and_higher_next_stick():
    batch = StickBatch([2, 0, 2, 1], [1.0, 1.0, 2.0, 2.0], [0.5, 0.5, 1.5, 0.2, 1.9])
    assert np.array_equal(batch.offsets, [0, 2, 2, 4, 5])
    assert batch.counts.dtype == np.int64 and batch.ages.dtype == float


def test_batch_round_trip(rng):
    law = GeometricUniformLaw(mean_offspring=1.0, v=2.0, lattice=4)
    batch = law.sample_batch(rng, 40)
    sticks = batch.to_sticks()
    again = StickBatch.from_sticks(sticks)
    assert np.array_equal(again.counts, batch.counts)
    assert again.v == pytest.approx(batch.v)
    assert again.ages == pytest.approx(batch.ages)
    assert again.to_sticks() == sticks


def test_sample_stick_agrees_with_batch(rng):
    law = TwoPointAgesLaw()
    s = law.sample_stick(rng)
    assert s.v == 1.0
    assert s.births.mass in (0, 2)
    if s.births.mass:
        assert s.births.atoms == (1.0, 0.5)


def test_sizebiased_counts_mean(rng):
    # Size-biasing a mean-1 geometric count gives mean E(c^2)/E(c) = 3.
    law = GeometricUniformLaw(mean_offspring=1.0, v=1.0)
    draws = law.sample_sizebiased_counts(rng, 200_000)
    assert draws.min() >= 1
    assert draws.mean() == pytest.approx(3.0, abs=0.05)


def test_length_biased_v_exponential(rng):
    from scipy.stats import gamma, kstest

    law = ExponentialUniformLaw(rate=2.0)
    draws = law.sample_length_biased_v(rng, 20_000)
    # Length-biasing an Exp(rate) gives a Gamma(2, scale=1/rate).
    assert kstest(draws, gamma(a=2, scale=0.5).cdf).pvalue > 0.01


def test_parse_law_round_trips():
    for spec_str, name in [
        ("gw(mean=1.0)", "gw"),
        ("geo-uniform(mean=0.8,v=1.5)", "geo-uniform"),
        ("exp-uniform(rate=0.5)", "exp-uniform"),
        ("family1(alpha=1.5)", "family1"),
        ("family2(alpha=1.7)", "family2"),
        ("const(v=2.0,ages=0.7:0.2)", "const"),
    ]:
        law = parse_law(spec_str)
        assert law.describe()["name"] == name


def test_parse_law_rejects_junk():
    for bad in ("nosuchlaw(mean=1)", "gw(mean=1", "gw(bogus=3)", "", "exp-uniform(mean=-0.5)"):
        with pytest.raises(ValueError):
            parse_law(bad)


def test_const_law_validation():
    with pytest.raises(ValueError):
        ConstantStickLaw(1.0, [1.5])  # age beyond the life length
    law = ConstantStickLaw(2.0, [0.7, 0.2])
    rng = np.random.default_rng(1)
    s = law.sample_stick(rng)
    assert s.v == 2.0 and s.births.atoms == (0.7, 0.2)


def test_example_family_aliases():
    assert parse_law("family1").describe()["name"] == "family1"
    family2 = parse_law("family2(alpha=1.8)")
    assert family2.alpha == 1.8
    assert family2.describe()["mean_v"] == pytest.approx(2.0)


def test_random_verification_law_is_subcritical(rng):
    for _ in range(25):
        law = random_verification_law(rng)
        d = law.describe()
        assert 0.0 < d["mean_offspring"] < 1.0
        batch = law.sample_batch(rng, 50)
        assert batch.n == 50


def test_stable_family_counts_are_heavy_tailed(rng):
    law = StableFamilyLaw("2", alpha=1.5)
    counts = law.sample_counts(rng, 100_000)
    # P(count = k) = k^-(alpha+1)/zeta(alpha) for k >= 1.
    p1 = 1.0 / zeta(1.5)
    assert np.mean(counts == 1) == pytest.approx(p1, abs=0.01)
    assert np.mean(counts == 0) == pytest.approx(1.0 - zeta(2.5) / zeta(1.5), abs=0.01)
    assert counts.max() > 100  # the tail really is polynomial


def lexsort_ages_desc(ages, counts):
    """Reference sort: stable by stick, then by descending age."""
    ids = np.repeat(np.arange(len(counts)), counts)
    return ages[np.lexsort((-ages, ids))]


def assert_sorts_like_lexsort(ages, counts):
    ages = np.asarray(ages, dtype=float)
    counts = np.asarray(counts, dtype=np.int64)
    got = _sort_ages_desc(ages, counts)
    want = lexsort_ages_desc(ages, counts)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@st.composite
def flat_sticks(draw):
    counts = draw(st.lists(st.integers(0, 6), max_size=40))
    if draw(st.booleans()):
        age = st.integers(1, 10).map(lambda k: k / 10)  # lattice: many ties
    else:
        age = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
    ages = draw(st.lists(age, min_size=sum(counts), max_size=sum(counts)))
    return ages, counts


@given(flat_sticks())
def test_sort_ages_desc_matches_lexsort(case):
    assert_sorts_like_lexsort(*case)


def test_sort_ages_desc_seeded_cases(rng):
    assert_sorts_like_lexsort([], [])
    assert_sorts_like_lexsort([], [0, 0, 0])
    assert_sorts_like_lexsort(rng.random(50), np.ones(50, dtype=np.int64))
    # 0.1-lattice ties within a stick and across sticks
    counts = rng.integers(0, 8, 300)
    assert_sorts_like_lexsort(rng.integers(1, 11, counts.sum()) / 10, counts)
    assert_sorts_like_lexsort([0.3, 0.3, 0.7, 0.3, 0.7, 0.7, 0.3], [3, 4])
    # one stick with 1e4 atoms
    assert_sorts_like_lexsort(rng.random(10_000), [10_000])
    assert_sorts_like_lexsort(rng.integers(1, 11, 10_000) / 10, [10_000])


def test_sort_ages_desc_family_gen_layout(rng):
    # family-gen lays out log1p(count) first and age-1 atoms after it
    law = StableFamilyLaw("generalized", alpha=1.5, age_map="log1p")
    counts = law.sample_counts(rng, 2000)
    offsets = StickBatch.offsets_for(counts)
    ages = np.ones(counts.sum())
    ages[offsets[:-1][counts > 0]] = np.log1p(counts[counts > 0])
    assert_sorts_like_lexsort(ages, counts)
    batch = law.sample_batch(rng, 2000)
    assert np.all(batch.ages[batch.offsets[:-1][batch.counts > 0]] == np.log1p(batch.counts[batch.counts > 0]))
