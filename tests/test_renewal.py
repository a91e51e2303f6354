"""Ladder-variable sampling, the passage-time DP and renewal limits."""

import itertools

import numpy as np
import pytest
from scipy.stats import expon, kstest

from chronoforest.forest import forest_arrays
from chronoforest.measures import StickBatch
from chronoforest.stochastic import (
    ConstantStickLaw,
    ExponentialUniformLaw,
    GaltonWatsonUnitLaw,
    GeometricUniformLaw,
    StableFamilyLaw,
    TwoPointAgesLaw,
    ladder_trio_pmf,
    mean_age_integral_mc,
    parse_law,
    sample_ladder_stats,
    sample_vhat,
    tau_minus_pmf,
)
from chronoforest.stochastic.renewal import mc_mean_se
from conftest import sample_covering_v

FAIR_02 = np.array([0.5, 0.0, 0.5])  # offspring 0 or 2, each with prob. 1/2


def test_tau_pmf_catalan_values():
    # First passage one level down for the fair {0,2} walk: the classical
    # ballot numbers P(tau = 2k+1) = Catalan(k) / 2^(2k+1).
    pmf = tau_minus_pmf(FAIR_02, 1, 9)
    catalan = [1, 1, 2, 5, 14]
    expected = np.zeros(10)
    for k, c in enumerate(catalan):
        expected[2 * k + 1] = c / 2.0 ** (2 * k + 1)
    assert pmf == pytest.approx(expected, abs=1e-15)


def test_tau_pmf_two_levels_is_a_convolution():
    # Skip-free descent: two levels down = two independent one-level descents.
    one = tau_minus_pmf(FAIR_02, 1, 40)
    two = tau_minus_pmf(FAIR_02, 2, 40)
    assert two == pytest.approx(np.convolve(one, one)[:41], abs=1e-12)
    assert two[0] == 0.0 and two[2] == pytest.approx(0.25)


def test_tau_pmf_trivial_law():
    # Counts identically 1: the walk never moves, passage never happens.
    pmf = tau_minus_pmf(np.array([0.0, 1.0]), 1, 20)
    assert pmf == pytest.approx(np.zeros(21))
    # Counts identically 0: passage in exactly one step per level.
    pmf0 = tau_minus_pmf(np.array([1.0]), 3, 20)
    assert pmf0[3] == 1.0 and pmf0.sum() == 1.0


def test_trio_pmf_fair_walk_exact():
    trio = ladder_trio_pmf(FAIR_02, 12)
    assert trio[(1, 0, 2)] == pytest.approx(0.5)
    assert trio[(2, 1, 1)] == pytest.approx(0.25)
    assert trio[(4, 1, 1)] == pytest.approx(1.0 / 16)
    assert trio[(6, 1, 1)] == pytest.approx(1.0 / 32)
    # The undershoot can only be 0 (at time 1) or 1, and then one child is left.
    assert all(x in (0, 1) for (_, x, _) in trio)
    # The epoch-time tail decays like t^(-1/2); at tmax = 40 roughly 6% of
    # the mass still sits beyond the horizon.
    big = ladder_trio_pmf(FAIR_02, 40)
    assert 0.93 < sum(big.values()) < 1.0 + 1e-12
    assert sum(trio.values()) < sum(big.values())


@pytest.mark.parametrize(
    "pmf",
    [FAIR_02, [0.35, 0.2, 0.25, 0.2], [0.5, 0.25, 0.0, 0.25], [0.6, 0.2, 0.2]],
)
def test_tau_pmf_matches_kemperman(pmf):
    # Kemperman's hitting-time formula, P(T_-x = t) = (x / t) P(S_t = -x),
    # with P(S_t = .) from the t-fold convolution of the count pmf: a
    # second oracle for the DP, which it shares nothing with
    p = np.asarray(pmf)
    tmax = 30
    for x in (1, 2, 3):
        want = np.zeros(tmax + 1)
        total = np.ones(1)  # pmf of the sum of t counts; S_t = -x at a sum of t - x
        for t in range(1, tmax + 1):
            total = np.convolve(total, p)
            if t >= x:
                want[t] = x / t * total[t - x]
        assert np.max(np.abs(tau_minus_pmf(p, x, tmax) - want)) <= 1e-16


def test_trio_pmf_matches_duality_formula():
    # P(t, x, q) = p(x + q) * P(tau-_x = t - 1) / mean, the bivariate renewal
    # law written without the DP's bookkeeping.
    p = np.array([0.35, 0.2, 0.25, 0.2])
    mean = float(np.dot(np.arange(4), p))
    trio = ladder_trio_pmf(p, 25)
    taus = {x: tau_minus_pmf(p, x, 25) for x in (0, 1, 2)}
    for (t, x, q), prob in trio.items():
        if t - 1 <= 25:
            want = p[x + q] * (taus[x][t - 1] if t >= 1 else 0.0) / mean
            assert prob == pytest.approx(want, abs=1e-12)


def test_ladder_stats_trivial_law(rng):
    law = ConstantStickLaw(2.0, [0.7])
    stats = sample_ladder_stats(law, rng, 500)
    assert np.all(stats.tau == 1)
    assert np.all(stats.zeta == 0)
    assert np.all(stats.jump_count == 1)
    assert np.all(stats.accepted)


def test_ladder_stats_match_trio_pmf(rng):
    law = TwoPointAgesLaw(ages=(1.0, 0.5), p2=0.5)
    n = 20_000
    stats = sample_ladder_stats(law, rng, n, step_cap=100_000)
    assert np.all(stats.jump_count[stats.accepted] > stats.zeta[stats.accepted])
    trio = ladder_trio_pmf(FAIR_02, 40)
    emp = {}
    kept = stats.accepted
    for t, x, c in zip(stats.tau[kept], stats.zeta[kept], stats.jump_count[kept]):
        key = (int(t), int(x), int(c - x))
        emp[key] = emp.get(key, 0) + 1
    total = kept.sum()
    tail_cells = sum(v for k, v in emp.items() if k[0] > 40) / total
    tv = 0.5 * sum(
        abs(emp.get(k, 0) / total - pk) for k, pk in trio.items()
    ) + 0.5 * abs(tail_cells - (1.0 - sum(trio.values())))
    assert tv < 0.05


def test_ladder_acceptance_probability_subcritical(rng):
    # The walk drifts down; a ladder epoch exists with probability E|P| < 1.
    law = GeometricUniformLaw(mean_offspring=0.6, v=1.0)
    stats = sample_ladder_stats(law, rng, 5000, step_cap=200_000)
    frac = stats.accepted.mean()
    se = np.sqrt(frac * (1 - frac) / 5000)
    assert abs(frac - 0.6) < 4 * se + 1e-3


def test_ladder_rejections_split_by_cause(rng):
    law = GeometricUniformLaw(mean_offspring=0.6, v=1.0)
    # a tiny step cap rejects finite epochs as well as the infinite ones
    stats = sample_ladder_stats(law, rng, 2000, step_cap=2)
    assert not stats.accepted[~stats.finite].any()
    assert (stats.finite & ~stats.accepted).any()
    assert np.all(stats.tau[stats.accepted] <= 2)
    for column in (stats.tau, stats.zeta, stats.jump_count):
        assert np.all(column[~stats.accepted] == -1)


def test_ladder_stats_match_trio_pmf_subcritical():
    # 200,000 draws against the DP over its 12,945 cells at t <= 30 (counts
    # up to 40; beyond them the geometric pmf holds 3e-15): an exact
    # sampler reads about 0.0125 +- 0.0007 on this many cells
    law = GeometricUniformLaw(mean_offspring=0.8, v=1.0)
    n = 200_000
    stats = sample_ladder_stats(law, np.random.default_rng(26011), n)
    kept = stats.accepted
    assert abs(kept.mean() - 0.8) <= 4 * np.sqrt(0.8 * 0.2 / n)
    trio = ladder_trio_pmf(law.counts.pmf(40), 30)
    emp = {}
    for t, x, c in zip(stats.tau[kept], stats.zeta[kept], stats.jump_count[kept]):
        key = (int(t), int(x), int(c - x))
        emp[key] = emp.get(key, 0) + 1
    total = kept.sum()
    inside = sum(emp.get(k, 0) for k in trio) / total
    tv = 0.5 * sum(abs(emp.get(k, 0) / total - pk) for k, pk in trio.items())
    tv += 0.5 * abs((1.0 - inside) - (1.0 - sum(trio.values())))
    assert tv < 0.016, tv


def test_ladder_stats_of_a_childless_law():
    # no epoch is finite, so no size-biased count is drawn (it would raise)
    law = GaltonWatsonUnitLaw(0.0)

    def refuse(rng, size):
        raise AssertionError("drew a size-biased count of a childless law")

    law.counts.sizebiased = refuse
    stats = sample_ladder_stats(law, np.random.default_rng(26012), 500)
    assert not stats.finite.any() and not stats.accepted.any()
    assert np.all(stats.tau == -1)


def test_ladder_stats_refuse_a_supercritical_law():
    # an ascent of a supercritical walk is finite with probability 1, not
    # its mean offspring: refused before any draw; criticality is compared exactly
    rng = np.random.default_rng(26013)
    state = rng.bit_generator.state
    for mean in (1.5, 1.0 + 1e-12):
        with pytest.raises(ValueError, match=r"^ladder epochs by duality need a \(sub\)critical law$"):
            sample_ladder_stats(GeometricUniformLaw(mean_offspring=mean, v=1.0), rng, 100)
    assert rng.bit_generator.state == state


def test_ystar_single_atom_law(rng):
    law = ConstantStickLaw(1.0, [0.7])
    ys = law.sample_ystars(rng, 1000)
    assert np.all(ys == 0.7)


def test_ystar_two_point_law(rng):
    law = TwoPointAgesLaw(ages=(1.0, 0.5), p2=0.5)
    ys = law.sample_ystars(rng, 40_000)
    assert set(np.unique(ys)) == {0.5, 1.0}
    assert ys.mean() == pytest.approx(0.75, abs=0.01)


def test_ystar_mean_matches_age_integral_subcritical(rng):
    # For a non-critical law the sampler mean is E(int u P) / E|P|.
    law = GeometricUniformLaw(mean_offspring=0.8, v=1.5)
    ys = law.sample_ystars(rng, 100_000)
    se = ys.std() / np.sqrt(len(ys))
    assert abs(ys.mean() - 0.6 / 0.8) < 4 * se
    direct, direct_se = mean_age_integral_mc(law, rng, 100_000)
    assert abs(direct - 0.6) < 4 * direct_se


def test_ystar_family2_heavy_tail(rng):
    law = StableFamilyLaw("2", alpha=1.5)
    ys = law.sample_ystars(rng, 200_000)
    target = law.describe()["mean_ystar"]
    # Heavy tails: the empirical s.e. understates the fluctuation, so keep a
    # generous absolute cushion on top of it.
    se = ys.std() / np.sqrt(len(ys))
    assert abs(ys.mean() - target) < 4 * se + 0.05


def test_vhat_degenerate_lattices(rng):
    # Life length == lattice span: the stationary overshoot is identically 0.
    for law in (ConstantStickLaw(2.0, [1.0]), GaltonWatsonUnitLaw(1.0),
                GeometricUniformLaw(1.0, v=1.5)):
        draws = sample_vhat(law, rng, size=200)
        assert np.all(draws == 0.0)


class _OffLatticeLaw(ConstantStickLaw):
    """Declares lattice span ``span``, but every life length is 2.0."""

    def __init__(self, span):
        super().__init__(2.0, [1.0])
        self.span = span


def test_vhat_rejects_lengths_off_the_span(rng):
    # 2.0 is not a whole multiple of 0.75, nor exactly of 2.0 * (1 + 1e-12)
    for span in (0.75, 2.0 * (1.0 + 1e-12)):
        with pytest.raises(ValueError, match="lattice"):
            sample_vhat(_OffLatticeLaw(span), rng, size=10)


def test_vhat_exponential_is_memoryless(rng):
    law = ExponentialUniformLaw(rate=2.0)
    draws = sample_vhat(law, rng, size=20_000)
    assert kstest(draws, expon(scale=0.5).cdf).pvalue > 0.01


def test_vhat_lattice_stationary_identity(rng):
    # On a unit lattice P(Vhat = j) = P(V >= j+1) / E(V); check family 2,
    # where V = 1 + count.
    law = StableFamilyLaw("2", alpha=1.5)
    draws = sample_vhat(law, rng, size=40_000)
    assert np.all(draws == np.rint(draws))
    counts = law.counts.pmf(4000)
    v_pmf = np.concatenate([[0.0], counts])  # V = 1 + count
    surv = np.concatenate([[1.0], 1.0 - np.cumsum(v_pmf)])  # surv[j] = P(V >= j)
    jmax = 25
    emp = np.array([(draws == j).mean() for j in range(jmax)])
    theory = surv[1 : jmax + 1] / 2.0  # P(Vhat = j) = P(V >= j + 1) / E(V)
    tv = 0.5 * np.abs(emp - theory).sum() + 0.5 * abs(
        (draws >= jmax).mean() - surv[jmax + 1 :].sum() / 2.0
    )
    assert tv < 0.02


def test_covering_stick_tends_to_length_biased(rng):
    # The interval covering time t is length-biased in the limit; the
    # total-variation gap to that limit shrinks as t grows.
    law = StableFamilyLaw("2", alpha=1.5)
    counts = law.counts.pmf(4000)
    v_pmf = np.concatenate([[0.0], counts])
    lb = v_pmf * np.arange(len(v_pmf)) / 2.0  # length-biased target
    jmax = 60

    def tv_at(t: float) -> float:
        draws = sample_covering_v(law, rng, t, 4000)
        emp = np.array([(draws == j).mean() for j in range(jmax)])
        return 0.5 * np.abs(emp - lb[:jmax]).sum() + 0.5 * abs(
            (draws >= jmax).mean() - lb[jmax:].sum()
        )

    tv_small, tv_big = tv_at(2.0), tv_at(300.0)
    assert tv_big < tv_small
    assert tv_big < 0.06


def test_mean_age_integral_mc_sums_each_stick_alone():
    # the totals are each stick's own sum, childless sticks 0.0: the mean
    # and error are those of the per-stick totals, bit for bit
    law = parse_law("geo-uniform(mean=0.8)")
    mean, se = mean_age_integral_mc(law, np.random.default_rng(3205), 500)
    batch = law.sample_batch(np.random.default_rng(3205), 500)
    totals = np.array([batch.ages[lo:hi].sum() for lo, hi in zip(batch.offsets[:-1], batch.offsets[1:])])
    assert np.count_nonzero(batch.counts == 0) > 100
    assert (mean, se) == mc_mean_se(totals)
    # a batch without children has every total 0
    assert mean_age_integral_mc(parse_law("geo-uniform(mean=0)"), np.random.default_rng(1), 50) == (0.0, 0.0)


def test_mean_age_integral_mc_geometric(rng):
    law = GeometricUniformLaw(mean_offspring=1.0, v=1.0)
    mean, se = mean_age_integral_mc(law, rng, 50_000)
    assert se > 0
    assert abs(mean - 0.5) < 4 * se


def _every_walk(pmf, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every count sequence of length n over the support of ``pmf``, one
    per row, and the probability of each."""
    support = np.flatnonzero(pmf)
    seqs = np.array(list(itertools.product(support, repeat=n)), dtype=np.int64)
    return seqs, np.prod(pmf[seqs], axis=1)


def _forest_law(pmf, ages_of: dict, n: int) -> list[dict]:
    """Joint law of (depth(k), H(k)) for k = 0..n: every forest of n sticks,
    read off ``forest_arrays``; ``heights[k]`` reads only sticks 0..k-1."""
    laws = [{} for _ in range(n + 1)]
    seqs, probs = _every_walk(pmf, n)
    for counts, prob in zip(seqs, probs):
        ages = np.array([a for c in counts for a in ages_of[c]])
        arrays = forest_arrays(counts, StickBatch.offsets_for(counts), ages)
        for k, law in enumerate(laws):
            key = (int(arrays.depths[k]), round(float(arrays.heights[k]), 9))
            law[key] = law.get(key, 0.0) + prob
    return laws


def _renewal_law(pmf, ages_of: dict, n: int) -> dict:
    """Joint law of (depth(n), H(n)) as a renewal sum: the dual walk read back
    from n has i.i.d. weak ascents (T, A), each finite with probability the
    mean count, with ``ladder_trio_pmf``'s law given that; A is the
    (zeta + 1)-th largest age of the jump stick, and depth(n) and H(n) are
    the number and the sum of the A's of the epochs done by time n."""
    mean = float(np.dot(np.arange(len(pmf)), pmf))
    epochs = {}  # (T, A): the probability of a finite first epoch with them
    for (t, x, q), prob in ladder_trio_pmf(pmf, n).items():
        key = (t, ages_of[x + q][x])
        epochs[key] = epochs.get(key, 0.0) + mean * prob
    # survive[m]: the probability of no epoch by time m
    survive = [1.0 - sum(p for (t, _), p in epochs.items() if t <= m) for m in range(n + 1)]
    law = {}
    level = {(0, 0.0): 1.0}  # (time taken, height) after `depth` epochs
    depth = 0
    while level:
        after = {}
        for (s, h), prob in level.items():
            key = (depth, round(h, 9))
            law[key] = law.get(key, 0.0) + prob * survive[n - s]
            for (t, a), p in epochs.items():
                if s + t <= n:
                    after[(s + t, h + a)] = after.get((s + t, h + a), 0.0) + prob * p
        level = after
        depth += 1
    return law


@pytest.mark.parametrize(
    "pmf, ages_of, n, tol",
    [
        # two-point ages: dyadic probabilities and heights, so exact
        ([0.5, 0.0, 0.5], {0: (), 2: (1.0, 0.5)}, 12, 0.0),
        # counts {0, 1, 3} with a tie among the ages, critical and subcritical;
        # the subcritical probabilities are sums of up to 3^7 rounded products
        ([0.5, 0.25, 0.0, 0.25], {0: (), 1: (0.7,), 3: (0.9, 0.4, 0.4)}, 7, 0.0),
        ([0.6, 0.2, 0.0, 0.2], {0: (), 1: (0.7,), 3: (0.9, 0.4, 0.4)}, 7, 1e-13),
    ],
)
def test_height_is_a_ladder_renewal_in_law(pmf, ages_of, n, tol):
    # the main theorem in law, by enumeration: the joint law of
    # (depth(k), H(k)) over every forest of k sticks is the renewal sum of
    # the ladder epochs of ``ladder_trio_pmf``, at every k <= n
    pmf = np.array(pmf)
    for k, forest in enumerate(_forest_law(pmf, ages_of, n)):
        renewal = _renewal_law(pmf, ages_of, k)
        assert set(forest) == set(renewal), k
        assert max(abs(forest[key] - renewal[key]) for key in forest) <= tol, k
    # and the trio law itself, against the first weak ascent of every walk
    # of length n: a walk with its ascent at t stands for all of its
    # continuations, so its probability sums to that of its first t counts
    seqs, probs = _every_walk(pmf, n)
    walk = np.cumsum(seqs - 1, axis=1)
    up = walk >= 0
    rows = np.flatnonzero(up.any(axis=1))
    tau = np.argmax(up[rows], axis=1) + 1
    before = np.where(tau > 1, walk[rows, np.maximum(tau - 2, 0)], 0)
    jump = seqs[rows, tau - 1]
    walks = {}
    for t, x, c, prob in zip(tau, -before, jump, probs[rows]):
        key = (int(t), int(x), int(c - x))
        walks[key] = walks.get(key, 0.0) + prob
    mean = float(np.dot(np.arange(len(pmf)), pmf))
    trio = {key: mean * prob for key, prob in ladder_trio_pmf(pmf, n).items()}
    assert set(walks) == set(trio)
    assert max(abs(walks[key] - trio[key]) for key in trio) <= tol


def test_reference_laws_validate_input(rng):
    with pytest.raises(ValueError, match="mean offspring must be positive"):
        ladder_trio_pmf(np.array([1.0]), 5)
    with pytest.raises(ValueError, match="t must be >= 0"):
        sample_covering_v(GaltonWatsonUnitLaw(1.0), rng, -1.0, 5)


def test_tau_pmf_validates_input():
    with pytest.raises(ValueError):
        tau_minus_pmf(np.array([0.5, 0.6]), 1, 10)  # not a pmf
    with pytest.raises(ValueError):
        tau_minus_pmf(np.array([0.5, 0.5 + 1e-10]), 1, 10)  # above 1 by more than rounding
    # this pmf's float sum is 1 + eps: within the len(p) * eps of rounding
    pmf = np.array([0.2, 0.4, 0.3, 0.1])
    assert pmf.sum() > 1.0 and tau_minus_pmf(pmf, 1, 3)[1] == 0.2
    with pytest.raises(ValueError):
        tau_minus_pmf(FAIR_02, -1, 10)
    with pytest.raises(ValueError):
        tau_minus_pmf(np.array([]), 1, 10)
    # Level 0 is already reached at time 0.
    zero = tau_minus_pmf(FAIR_02, 0, 5)
    assert zero[0] == 1.0 and zero.sum() == 1.0
