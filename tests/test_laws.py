"""Stick laws: samplers, descriptors, parsing and batch layout."""

import dataclasses
import math
import pickle
import warnings
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import zeta

from chronoforest.measures import ZERO, PointMeasure, Stick
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
from chronoforest.stochastic import laws
from chronoforest.stochastic.laws import (
    StableCounts,
    _log1p_series,
    _sort_ages_desc,
    _zeta,
    _zeta_digits,
    _zeta_tail,
)

DESCRIBE_KEYS = {"name", "mean_offspring", "mean_v", "mean_ystar", "arithmetic", "span"}


def test_geometric_uniform_describe_and_pmf():
    law = GeometricUniformLaw(mean_offspring=1.0, v=1.0)
    d = law.describe()
    assert set(d) >= DESCRIBE_KEYS
    assert d["mean_offspring"] == pytest.approx(1.0)
    assert d["mean_v"] == pytest.approx(1.0)
    assert d["mean_ystar"] == pytest.approx(0.5)  # E|P| * E(uniform age)
    assert law.counts.pmf(5) == pytest.approx([0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625])


def test_two_point_law():
    law = TwoPointAgesLaw(ages=(1.0, 0.5), p2=0.5)
    d = law.describe()
    assert d["mean_offspring"] == pytest.approx(1.0)
    assert d["mean_ystar"] == pytest.approx(0.75)
    assert law.counts.pmf(3) == pytest.approx([0.5, 0.0, 0.5, 0.0])


def test_gw_unit_law_is_geometric():
    law = GaltonWatsonUnitLaw(1.0)
    assert law.counts.pmf(4) == pytest.approx([0.5, 0.25, 0.125, 0.0625, 0.03125])
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


def literal_sticks(batch: StickBatch) -> list[Stick]:
    """The stick-by-stick construction that ``to_sticks`` must equal."""
    o = batch.offsets
    return [Stick(float(batch.v[i]), PointMeasure(batch.ages[o[i] : o[i + 1]])) for i in range(batch.n)]


def _bits(xs) -> list[int]:
    return np.array(xs, dtype=float).view(np.uint64).tolist()


ROUND_TRIP_LAWS = [
    "geo-uniform(mean=1.0,v=2.0,lattice=4)",  # ties within and across sticks
    "geo-uniform(mean=0)",  # every stick a leaf
    "exp-uniform(rate=0.5)",
    "gw(mean=1.2)",
    "two-point",
    "const(v=1,ages=0.7:0.7)",
    "family1(alpha=1.5)",
    "family2(alpha=1.2)",
]
LATTICE = [0.25, 0.5, 1.0, 2.0]


@st.composite
def law_batches(draw):
    law = parse_law(draw(st.sampled_from(ROUND_TRIP_LAWS)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return law.sample_batch(rng, draw(st.integers(0, 60)))


@st.composite
def lattice_batches(draw):
    counts = draw(st.lists(st.integers(0, 3), max_size=12))
    v = [draw(st.sampled_from(LATTICE)) for _ in counts]
    ages = []
    for c, life in zip(counts, v):
        atoms = st.sampled_from([a for a in LATTICE if a <= life])
        ages += sorted(draw(st.lists(atoms, min_size=c, max_size=c)), reverse=True)
    return StickBatch(counts, v, ages)


@settings(max_examples=150, deadline=None)
@given(st.one_of(law_batches(), lattice_batches()))
def test_to_sticks_equals_literal_construction(batch):
    sticks = batch.to_sticks()
    expected = literal_sticks(batch)
    assert len(sticks) == len(expected) == batch.n
    for s, e in zip(sticks, expected):
        assert type(s.v) is float and _bits([s.v]) == _bits([e.v])
        assert all(type(a) is float for a in s.births.atoms)
        assert _bits(s.births.atoms) == _bits(e.births.atoms)
        # the trusted path makes sticks the checking constructor would
        assert type(s) is Stick and s == e and hash(s) == hash(e)
        assert pickle.loads(pickle.dumps(s)) == s
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.v = 1.0
        assert not hasattr(s, "__dict__")
        assert s.births.is_zero == (s.births is ZERO) == (not e.births.atoms)
    again = StickBatch.from_sticks(sticks)
    for name in ("counts", "v", "ages", "offsets"):
        a, b = getattr(again, name), getattr(batch, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize(
    "spec, n, seed",
    [("family2", 6_450, 28061), ("geo-uniform(mean=1.0)", 20_000, 28062)],
)
def test_to_sticks_equals_literal_construction_at_scale(spec, n, seed):
    # the sizes ``to_sticks`` runs at: a family batch of criterion 7's shape
    # at p = 25,000 (p/4 + 200 sticks), and a large critical batch
    batch = parse_law(spec).sample_batch(np.random.default_rng(seed), n)
    sticks, expected = batch.to_sticks(), literal_sticks(batch)
    assert len(sticks) == len(expected) == n
    assert {type(s) for s in sticks} == {Stick} and sticks == expected
    assert {type(s.births) for s in sticks} == {PointMeasure}
    assert {type(s.v) for s in sticks} == {float}
    assert _bits([s.v for s in sticks]) == _bits([e.v for e in expected])
    assert [s.births.mass for s in sticks] == [e.births.mass for e in expected]
    atoms = [a for s in sticks for a in s.births.atoms]
    assert {type(a) for a in atoms} == {float}
    assert _bits(atoms) == _bits([a for e in expected for a in e.births.atoms])
    childless = [not e.births.atoms for e in expected]
    assert 0 < sum(childless) < n
    assert [s.births is ZERO for s in sticks] == childless


nan, inf = math.nan, math.inf


@pytest.mark.parametrize(
    "counts, v, ages",
    [
        ([1, 2], [1.0, 1.0], [0.5, 0.3, nan]),
        ([3], [1.0], [0.3, nan, 0.5]),  # NaN hides the order from the layout check
        ([0, 2], [1.0, 1.0], [inf, 0.5]),
        ([2], [1.0], [0.5, 0.0]),
        ([2], [1.0], [0.5, -0.0]),
        ([1, 1], [1.0, 1.0], [0.5, -0.5]),
        ([0, 0], [1.0, 0.0], []),
        ([1], [inf], [0.5]),
        ([0], [nan], []),
        ([1], [-1.0], [0.5]),
        ([0, 1], [1.0, 1.0], [1.5]),
        ([0, 1, 1], [1.0, 1.0, 2.0], [1.0, 2.5]),
        ([0, 1], [0.0, 1.0], [nan]),  # early bad life, later bad atom
        ([0, 1], [inf, 1.0], [-0.5]),
        ([1, 0], [1.0, nan], [-0.5]),  # early bad atom, later bad life
        ([1, 0, 1], [1.0, 1.0, 1.0], [1.5, -1.0]),  # early age > v, later bad atom
    ],
)
def test_to_sticks_raises_the_literal_error(counts, v, ages):
    batch = StickBatch(counts, v, ages)
    with pytest.raises(ValueError) as want:
        literal_sticks(batch)
    with pytest.raises(ValueError) as got:
        batch.to_sticks()
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


def test_one_stick_of_a_batch(rng):
    law = TwoPointAgesLaw()
    s = law.sample_batch(rng, 1).stick(0)
    assert s.v == 1.0
    assert s.births.mass in (0, 2)
    if s.births.mass:
        assert s.births.atoms == (1.0, 0.5)


def test_sizebiased_counts_mean(rng):
    # Size-biasing a mean-1 geometric count gives mean E(c^2)/E(c) = 3.
    law = GeometricUniformLaw(mean_offspring=1.0, v=1.0)
    draws = law.counts.sizebiased(rng, 200_000)
    assert draws.min() >= 1
    assert draws.mean() == pytest.approx(3.0, abs=0.05)


def test_length_biased_v_exponential(rng):
    from scipy.stats import gamma, kstest

    law = ExponentialUniformLaw(rate=2.0)
    draws = law.life.length_biased(rng, 20_000)
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
        # two keys that set the entries of one tuple argument
        ("two-point(a1=0.9,a2=0.3)", "two-point"),
    ]:
        law = parse_law(spec_str)
        assert law.describe()["name"] == name


def test_parse_law_rejects_junk():
    for bad in ("nosuchlaw(mean=1)", "gw(mean=1", "gw(bogus=3)", "", "exp-uniform(mean=-0.5)"):
        with pytest.raises(ValueError):
            parse_law(bad)


@pytest.mark.parametrize(
    "make, message",
    [
        pytest.param(lambda: parse_law("gw(mean)"), "law argument 'mean' is not key=value", id="no-equals"),
        pytest.param(lambda: StableFamilyLaw("3"), "unknown variant '3'", id="family-variant"),
    ],
)
def test_malformed_law_arguments_are_named(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_const_law_validation():
    with pytest.raises(ValueError):
        ConstantStickLaw(1.0, [1.5])  # age beyond the life length
    law = ConstantStickLaw(2.0, [0.7, 0.2])
    rng = np.random.default_rng(1)
    s = law.sample_batch(rng, 1).stick(0)
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
    counts = law.counts.sample(rng, 100_000)
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
    counts = law.counts.sample(rng, 2000)
    offsets = StickBatch.offsets_for(counts)
    ages = np.ones(counts.sum())
    ages[offsets[:-1][counts > 0]] = np.log1p(counts[counts > 0])
    assert_sorts_like_lexsort(ages, counts)
    batch = law.sample_batch(rng, 2000)
    assert np.all(batch.ages[batch.offsets[:-1][batch.counts > 0]] == np.log1p(batch.counts[batch.counts > 0]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8, 2.0])
def test_stable_mean_of_exact_series(alpha):
    # sum k * k^-(alpha+1) / zeta(alpha) = 1, and with sqrt(k) the ratio
    # zeta(alpha + 1/2) / zeta(alpha)
    counts = StableCounts(alpha)
    assert abs(counts.mean_of(laws.identity) - 1.0) <= 1e-12
    assert abs(counts.mean_of(np.sqrt) - zeta(alpha + 0.5) / zeta(alpha)) <= 1e-12


def _quadrature_mean(counts: StableCounts, f) -> float:
    """E f(count) by quadrature, as ``StableCounts.mean_of`` computed it before
    its closed forms: the reference they are checked against."""
    # explicit terms below a cutoff c, then the rest of the series as
    # g(c) / 2 plus the integral of g over [c, inf) (Euler-Maclaurin,
    # g(x) = f(x) x^-(alpha+1); the next term, g'(c) / 12, is below
    # c^-(alpha+1) < 4e-15 for f growing at most linearly).  The integral
    # is taken in u = log(x / c), where even f(x) = x decays like
    # e^-(alpha-1)u, over u in [0, 600]: enough from alpha = 1.1 on.  Nearer
    # 1 a linearly growing f has a tail beyond u = 600 that the quadrature
    # cannot reach; it warns, and the warning becomes a ValueError here.
    from scipy.integrate import IntegrationWarning, quad

    def g(x):
        return f(x) * x ** -(counts.alpha + 1.0)

    cutoff = 1 << 22
    total = 0.0
    for k0 in range(1, cutoff, 1 << 20):
        k = np.arange(k0, min(k0 + (1 << 20), cutoff), dtype=float)
        total += float(np.sum(g(k)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        try:
            tail, _ = quad(
                lambda u: float(g(np.array([cutoff * math.exp(u)]))[0]) * cutoff * math.exp(u),
                0.0,
                600.0,
                epsabs=0.0,  # the tail is tiny: only a relative target means anything
                epsrel=1e-12,
            )
        except IntegrationWarning as exc:
            name = getattr(f, "__name__", repr(f))
            raise ValueError(
                f"E f(count) with f={name} at alpha={counts.alpha} does not converge numerically: "
                + str(exc).strip().splitlines()[0]
            ) from None
    return (total + 0.5 * float(g(np.array([float(cutoff)]))[0]) + tail) / counts.z_a


@pytest.mark.parametrize("alpha", [1.01, 1.1, 1.2, 1.5, 1.7, 1.8, 2.0])
def test_stable_mean_of_matches_quadrature(alpha):
    counts = StableCounts(alpha)
    for f in (np.sqrt, np.log1p):
        ref = _quadrature_mean(counts, f)
        assert abs(counts.mean_of(f) - ref) <= 1e-14 * ref, f.__name__


@pytest.mark.parametrize("alpha", [1.01, 1.02, 1.05, 1.061, 1.2, 2.0])
def test_stable_mean_of_identity_is_exactly_one(alpha):
    # the quadrature rejected these below alpha = 1.061 and returned
    # 1 - 2.5e-10 at 1.061
    assert StableCounts(alpha).mean_of(laws.identity) == 1.0


def test_stable_mean_of_rejects_other_maps():
    counts = StableCounts(1.5)
    for f in (lambda k: k, np.log, np.square):
        with pytest.raises(ValueError, match="no closed form"):
            counts.mean_of(f)


@pytest.mark.filterwarnings("error")
def test_family_gen_identity_is_family2():
    # one birth at age = count and the rest at age 1 is family 2
    for alpha in (1.2, 1.5):
        gen = parse_law(f"family-gen(alpha={alpha},f=identity)").describe()["mean_ystar"]
        fam2 = parse_law(f"family2(alpha={alpha})").describe()["mean_ystar"]
        assert gen == fam2


@pytest.mark.parametrize(
    "spec", ["family-gen(alpha=1.01,f=sqrt)", "family-gen(alpha=1.01,f=log1p)", "family-gen(alpha=1.2,f=identity)"]
)
def test_family_gen_near_one_builds_without_warnings(spec):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert 1.0 < parse_law(spec).describe()["mean_ystar"] < 2.0


@pytest.mark.parametrize("alpha", [1.01, 1.02, 1.05])
def test_family_gen_identity_near_one_is_family2(alpha):
    # the quadrature could not reach E count = 1 this close to alpha = 1 and
    # the law was rejected; the closed form builds it, and it is family 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gen = parse_law(f"family-gen(alpha={alpha},f=identity)").mean_ystar
    assert gen == parse_law(f"family2(alpha={alpha})").mean_ystar


# -- zeta ----------------------------------------------------------------

# 400 points on (1, 3] (the arguments alpha and alpha + 1 of the stable laws)
# and two just above the pole
ZETA_GRID = [float(s) for s in np.linspace(1.0, 3.0, 401)[1:]] + [1.0 + 1e-9, 1.0 + 1e-6]


def _even_bernoulli(m: int) -> list[Fraction]:
    """B_2, B_4, ..., B_2m by the Akiyama-Tanigawa recurrence."""
    a, out = [], []
    for i in range(2 * m + 1):
        a.append(Fraction(1, i + 1))
        for j in range(i, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        out.append(a[0])
    return out[2::2]


_B_REF = _even_bernoulli(24)
with localcontext(Context(prec=60)):
    _LOG_REF = [Decimal(k).ln() for k in range(1, 41)]


def _zeta_tail_reference(s) -> Decimal:
    # zeta(s, 40): Euler-Maclaurin at n = 40 with 24 Bernoulli terms in 60
    # digits, the power as exp(-s log n): the remainder (the B_50 term) is
    # below 1e-56 on (1, 3] and shrinks as s grows
    with localcontext(Context(prec=60)):
        s, n = Decimal(s), 40
        n_s = (-s * _LOG_REF[n - 1]).exp()
        total = n * n_s / (s - 1) + n_s / 2
        rising = Decimal(1)
        for j, b in enumerate(_B_REF, start=1):
            rising *= s + 2 * j - 2
            factor = Decimal(b.numerator) / (b.denominator * math.factorial(2 * j))
            total += factor * rising * n_s / n ** (2 * j - 1)
            rising *= s + 2 * j - 1
        return total


def _zeta_reference(s) -> Decimal:
    # the terms k < 40 as exp(-s log k), then zeta(s, 40)
    with localcontext(Context(prec=60)):
        s = Decimal(s)
        return sum((-s * log_k).exp() for log_k in _LOG_REF[:39]) + _zeta_tail_reference(s)


def _zeta_slope_reference(s) -> Decimal:
    # d/ds zeta(s, 40) by a central difference: step 1e-20 leaves a
    # truncation near 1e-40 and a rounding error near 1e-40 in 60 digits
    with localcontext(Context(prec=60)):
        s, h = Decimal(s), Decimal("1e-20")
        return (_zeta_tail_reference(s + h) - _zeta_tail_reference(s - h)) / (2 * h)


def _log1p_series_reference(s) -> Decimal:
    # the terms k < 40, then -d/ds zeta(s, 40) and 40 terms of
    # sum_j (-1)^(j+1) zeta(s+j, 40) / j (the next one is below 1e-66)
    with localcontext(Context(prec=60)):
        s = Decimal(s)
        total = sum(_LOG_REF[k] * (-s * _LOG_REF[k - 1]).exp() for k in range(1, 40)) - _zeta_slope_reference(s)
        return total + sum((-1) ** (j + 1) * _zeta_tail_reference(s + j) / j for j in range(1, 41))


def test_zeta_matches_a_60_digit_evaluation():
    for s in ZETA_GRID:
        ref = _zeta_reference(s)
        digits = _zeta_digits(s)
        with localcontext(Context(prec=60)):
            # the B_30 term, the first one left out, is under 2e-32 of zeta
            assert abs(digits - ref) <= Decimal("5e-32") * ref, s
        assert _zeta(s) == float(ref), s


@pytest.mark.parametrize("s", [2.0 + 1e-9, 2.01, 2.5, 2.7, 3.0, 12.5, 33.0])
def test_zeta_tail_and_slope_match_a_60_digit_evaluation(s):
    # zeta(s, 20) is zeta(s, 40) plus the terms 20..39, and so is its slope;
    # the log1p series takes both at s = alpha + 1 in (2, 3] and the tail up
    # to s = alpha + 31
    with localcontext(Context(prec=40)):
        tail, slope = _zeta_tail(Decimal(s))
    with localcontext(Context(prec=60)):
        d = Decimal(s)
        ref_tail = _zeta_tail_reference(d) + sum((-d * _LOG_REF[k - 1]).exp() for k in range(20, 40))
        ref_slope = _zeta_slope_reference(d) - sum(_LOG_REF[k - 1] * (-d * _LOG_REF[k - 1]).exp() for k in range(20, 40))
        assert abs(tail - ref_tail) <= Decimal("5e-32")
        assert abs(slope - ref_slope) <= Decimal("5e-32")


@pytest.mark.parametrize("alpha", [1.0 + 1e-9, 1.01, 1.061, 1.2, 1.5, 1.7, 2.0])
def test_stable_mean_of_matches_a_60_digit_evaluation(alpha):
    with localcontext(Context(prec=40)):
        series = _log1p_series(Decimal(alpha) + 1)
    with localcontext(Context(prec=60)):
        a = Decimal(alpha)
        ref = {np.sqrt: _zeta_reference(a + Decimal("0.5")), np.log1p: _log1p_series_reference(a + 1)}
        assert abs(series - ref[np.log1p]) <= Decimal("5e-32")
        z_a = _zeta_reference(a)
        counts = StableCounts(alpha)
        for f, total in ref.items():
            assert counts.mean_of(f) == float(total / z_a), f.__name__


def test_zeta_even_values_match_pi():
    pi = Decimal("3.141592653589793238462643383279502884197")
    with localcontext(Context(prec=40)):
        assert _zeta(2.0) == float(pi**2 / 6)
        assert _zeta(4.0) == float(pi**4 / 90)


def test_zeta_within_8_ulps_of_scipy():
    ulps = [abs(z - float(zeta(s))) / math.ulp(z) for s, z in zip(ZETA_GRID, map(_zeta, ZETA_GRID))]
    assert max(ulps) <= 8


@pytest.mark.parametrize("s", [1.0, 0.5, 0.0, -2.0, 1.0 - 1e-16, math.nan, math.inf, -math.inf])
def test_zeta_rejects_arguments_outside_its_domain(s):
    with pytest.raises(ValueError, match="needs a real s > 1"):
        _zeta(s)


def test_stable_counts_use_correctly_rounded_zeta():
    counts = StableCounts(1.3)
    assert counts.z_a == 3.9319492118095436  # scipy 1.17.1: ...445
    assert counts.z_a1 == _zeta(2.3)
