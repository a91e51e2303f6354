"""Ladder-variable sampling, the passage-time DP and renewal limits."""

import numpy as np
import pytest
from scipy.stats import expon, kstest

from chronoforest.stochastic import (
    ConstantStickLaw,
    ExponentialUniformLaw,
    GaltonWatsonUnitLaw,
    GeometricUniformLaw,
    StableFamilyLaw,
    TwoPointAgesLaw,
    ladder_trio_pmf,
    mean_age_integral_mc,
    sample_covering_v,
    sample_ladder_stats,
    sample_vhat,
    tau_minus_pmf,
)

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
    # a tiny envelope abandons every walk still below 0 after the first block
    stats = sample_ladder_stats(law, rng, 2000, envelope=0.5)
    assert np.array_equal(stats.abandoned, ~stats.accepted)
    assert stats.abandoned.any()
    # a tiny step cap rejects before the default envelope is ever reached
    stats = sample_ladder_stats(law, rng, 2000, step_cap=2)
    assert not stats.abandoned.any()
    assert (~stats.accepted).any()
    assert np.all(stats.tau[stats.accepted] <= 2)


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
    """Declares lattice span 0.75, but every life length is 2.0."""

    def __init__(self):
        super().__init__(2.0, [1.0])
        self.span = 0.75


def test_vhat_rejects_lengths_off_the_span(rng):
    law = _OffLatticeLaw()
    with pytest.raises(ValueError, match="lattice"):
        sample_vhat(law, rng, size=10)


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


def test_mean_age_integral_mc_geometric(rng):
    law = GeometricUniformLaw(mean_offspring=1.0, v=1.0)
    mean, se = mean_age_integral_mc(law, rng, 50_000)
    assert se > 0
    assert abs(mean - 0.5) < 4 * se


def test_reference_laws_validate_input(rng):
    with pytest.raises(ValueError, match="mean offspring must be positive"):
        ladder_trio_pmf(np.array([1.0]), 5)
    with pytest.raises(ValueError, match="t must be >= 0"):
        sample_covering_v(GaltonWatsonUnitLaw(1.0), rng, -1.0, 5)


def test_tau_pmf_validates_input():
    with pytest.raises(ValueError):
        tau_minus_pmf(np.array([0.5, 0.6]), 1, 10)  # not a pmf
    with pytest.raises(ValueError):
        tau_minus_pmf(FAIR_02, -1, 10)
    with pytest.raises(ValueError):
        tau_minus_pmf(np.array([]), 1, 10)
    # Level 0 is already reached at time 0.
    zero = tau_minus_pmf(FAIR_02, 0, 5)
    assert zero[0] == 1.0 and zero.sum() == 1.0
