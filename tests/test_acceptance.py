"""Acceptance suite: nine end-to-end checks, one test per criterion.

Each test prints a single summary line (visible with ``pytest -rA`` or
``-s``); the pytest verdict for ``test_criterion_N_*`` is the pass/fail
line for criterion N.  Numeric tolerances and runtime ceilings are stated
inline next to each assertion.  Everything is seeded, so reruns are exact.
"""

from __future__ import annotations

import io
import json
import os
import time

import numpy as np
import pytest
from scipy import stats as sps

from chronoforest.forest import build_forest, contour_path
from chronoforest.spine import IdentityReport, height_profile_arrays, verify_identities
from chronoforest.stochastic import (
    ConstantStickLaw,
    ExponentialUniformLaw,
    GaltonWatsonUnitLaw,
    GeometricUniformLaw,
    StableFamilyLaw,
    StickLaw,
    TwoPointAgesLaw,
    ladder_trio_pmf,
    parse_law,
    run_coupling_many,
    summarize_coupling,
)
from chronoforest.stochastic.experiments import (
    ExperimentConfig,
    max_rise_in_window,
    scaling_experiment,
)
from chronoforest.stochastic.laws import random_verification_law

# Shared desk-scale experiment for criteria 4-6: critical geometric
# offspring with uniform birth ages on (0, 1], eps_p = p^{-1/2}, observed
# at t = 1 over 200 replicates per population size.
SHARED_CONFIG = ExperimentConfig(
    law="geo-uniform(mean=1.0,v=1.0)",
    p_values=(1_000, 10_000, 100_000),
    times=(1.0,),
    replicates=200,
    seed=20250801,
    eps_rule="invsqrt",
    epsbar_rule="invsqrt",
    interval=(0.5, 1.0),
)
SHARED_LAW = parse_law(SHARED_CONFIG.law)
YSTAR_MEAN = SHARED_LAW.describe()["mean_ystar"]  # 0.5: mean age of a child
BETA_STAR = SHARED_LAW.describe()["mean_v"]  # 1.0: mean life length


@pytest.fixture(scope="module")
def shared_experiment():
    t0 = time.monotonic()
    result = scaling_experiment(SHARED_CONFIG, workers=min(4, os.cpu_count() or 1))
    return result, time.monotonic() - t0


def _column(rows: np.ndarray, p: int, name: str) -> np.ndarray:
    return rows[name][rows["p"] == p]


def test_criterion_1_identity_suite(reference_sticks):
    """Walk/spine/contour identities hold on the hand-built forest (every
    index pair) and on 1000 random subcritical forests: exactly (``==``),
    but for the four that subtract heights (height-difference-drop,
    contour-min-via-drop, shifted-spine-is-height-drop and
    adjacent-shift-bound), which allow each forest's rounding bound
    ``max(1, max depth) * eps * max|heights|``."""
    t0 = time.monotonic()

    report = verify_identities(reference_sticks)
    assert report.ok, report.to_json()
    assert report.pairs_checked == 55  # all (m, n) with 0 <= m < n <= 10
    assert all(c["failures"] == 0 for c in report.to_json()["checks"].values())

    rng = np.random.default_rng(np.random.SeedSequence(20250806))
    merged = IdentityReport()
    for _ in range(1000):
        law = random_verification_law(rng)
        n = int(rng.integers(1, 201))  # at most 200 sticks
        sticks = [law.sample_batch(rng, 1).stick(0) for _ in range(n)]
        rep = verify_identities(sticks, max_pairs=40, rng=rng)
        assert rep.ok, rep.to_json()
        merged.merge(rep)
    assert merged.ok and merged.forests == 1000
    assert all(c["failures"] == 0 for c in merged.to_json()["checks"].values())

    elapsed = time.monotonic() - t0
    assert elapsed <= 120.0  # runtime ceiling: 2 min
    print(
        f"criterion 1: PASS - fixture 55 pairs + 1000 random forests "
        f"({merged.pairs_checked} pairs), 0 failures, {elapsed:.1f}s"
    )


def forward_ladder(
    law: StickLaw, rng: np.random.Generator, n: int, step_cap: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(tau, zeta, jump count) of the first weak ascent of n count walks,
    each walked forward from 0 until S(k) >= 0 or ``step_cap`` steps: the
    oracle of ``sample_ladder_stats``, which draws by duality instead.  A
    walk still negative at the cap holds -1 in all three.

    The walks advance in blocks of steps: 64 first, each next one twice as
    long up to 2^22, and never more than 2^23 counts over all active walks.
    The blocks fix which count each walk reads, so criterion 2's numbers
    rest on them.
    """
    tau = np.full(n, -1, dtype=np.int64)
    zeta = np.full(n, -1, dtype=np.int64)
    jump = np.full(n, -1, dtype=np.int64)
    active = np.arange(n)
    s_active = np.zeros(n, dtype=np.int64)
    done = 0
    block = 64
    while active.size and done < step_cap:
        b = min(block, step_cap - done, max((1 << 23) // active.size, 1))
        counts = law.counts.sample(rng, (active.size, b))
        cum = np.cumsum(counts - 1, axis=1)
        cum += s_active[:, None]
        hit = cum >= 0
        any_hit = hit.any(axis=1)
        rows = np.nonzero(any_hit)[0]
        if rows.size:
            fi = np.argmax(hit[rows], axis=1)
            ai = active[rows]
            tau[ai] = done + fi + 1
            prev = np.where(fi > 0, cum[rows, np.maximum(fi - 1, 0)], s_active[rows])
            assert np.all(prev <= 0), "count walk ascended before its first weak ascent"
            zeta[ai] = -prev
            jump[ai] = counts[rows, fi]
        keep = ~any_hit
        active = active[keep]
        s_active = cum[keep, -1]
        done += b
        block = min(block * 2, 1 << 22)
    return tau, zeta, jump


def test_criterion_2_ladder_trio_oracle():
    """For offspring 0/2 with probability 1/2 each and deterministic birth
    ages, the (tau, zeta, jump) trio of forward-walked count walks matches
    the dynamic-programming law within total variation 0.01, and the share
    of walks that ascend agrees with mean offspring 1 to three standard
    errors.  The walks are the oracle of the duality sampler
    ``sample_ladder_stats``, which assumes that share rather than finding
    it."""
    t0 = time.monotonic()
    law = TwoPointAgesLaw(ages=(1.0, 0.5), p2=0.5)

    rng = np.random.default_rng(np.random.SeedSequence(20250802))
    tau, zeta, jump = forward_ladder(law, rng, 100_800, step_cap=1_000_000)
    acc = tau >= 0
    n = 100_000
    assert int(acc.sum()) >= n
    tau = tau[acc][:n]
    zeta = zeta[acc][:n]
    jump = jump[acc][:n]

    tmax = 60
    trio = ladder_trio_pmf(np.array([0.5, 0.0, 0.5]), tmax)
    emp: dict[tuple[int, int, int], int] = {}
    for t, x, c in zip(tau, zeta, jump):
        if t <= tmax:
            key = (int(t), int(x), int(c - x))
            emp[key] = emp.get(key, 0) + 1
    keys = set(trio) | set(emp)
    tv = 0.5 * sum(abs(emp.get(k, 0) / n - trio.get(k, 0.0)) for k in keys)
    # Everything beyond tmax goes into one shared tail bucket.
    tail_emp = 1.0 - sum(emp.values()) / n
    tail_dp = 1.0 - sum(trio.values())
    tv += 0.5 * abs(tail_emp - tail_dp)
    assert tv <= 0.01, f"trio total variation {tv:.4f}"

    rng2 = np.random.default_rng(np.random.SeedSequence(20250803))
    m = 20_000
    phat = (forward_ladder(law, rng2, m, step_cap=100_000_000)[0] >= 0).mean()
    se = np.sqrt(max(phat * (1.0 - phat), 1e-12) / m)
    assert abs(phat - 1.0) <= 3.0 * se, f"phat={phat} se={se}"

    elapsed = time.monotonic() - t0
    assert elapsed <= 60.0  # runtime ceiling: 1 min
    print(
        f"criterion 2: PASS - TV {tv:.4f} <= 0.01 over {n} accepted draws, "
        f"finiteness within 3 s.e. ({phat:.5f}), {elapsed:.1f}s"
    )


def test_criterion_3_ystar_mean_identity():
    """Monte-Carlo mean of the size-biased child-age draw agrees with the
    law's own mean-age descriptor within 3 s.e. for three laws."""
    t0 = time.monotonic()
    laws = [
        ("deterministic", ConstantStickLaw(1.0, (0.7,))),
        ("geometric", GeometricUniformLaw(1.0, 1.0)),
        ("family2", StableFamilyLaw("2")),
    ]
    n = 200_000
    lines = []
    for i, (name, law) in enumerate(laws):
        rng = np.random.default_rng(np.random.SeedSequence((20250804, i)))
        draws = law.sample_ystars(rng, n)
        mc = float(draws.mean())
        se = float(draws.std(ddof=1)) / np.sqrt(n)
        direct = law.describe()["mean_ystar"]
        # the +1e-12 floor covers the exactly-deterministic law (se == 0)
        assert abs(mc - direct) <= 3.0 * se + 1e-12, (name, mc, direct, se)
        lines.append(f"{name} {mc:.4f}~{direct:.4f}")

    elapsed = time.monotonic() - t0
    assert elapsed <= 60.0  # runtime ceiling: 1 min
    print(f"criterion 3: PASS - {', '.join(lines)}, {elapsed:.1f}s")


def test_criterion_4_height_scaling(shared_experiment):
    """mean|height gap| / mean(scaled genealogical height) shrinks with p
    and is at most 0.15 at p = 1e5."""
    result, elapsed = shared_experiment
    assert elapsed <= 600.0  # runtime ceiling: 10 min
    ratios = []
    for p in SHARED_CONFIG.p_values:
        num = float(np.abs(_column(result.rows, p, "deltaH")).mean())
        den = float((YSTAR_MEAN * _column(result.rows, p, "Hcalp")).mean())
        ratios.append(num / den)
    assert ratios[0] > ratios[1] > ratios[2], ratios
    assert ratios[2] <= 0.15, ratios
    print(
        "criterion 4: PASS - ratios "
        + "/".join(f"{r:.4f}" for r in ratios)
        + f" decreasing, final <= 0.15, experiment {elapsed:.1f}s"
    )


def test_criterion_5_time_change(shared_experiment):
    """The contour clock runs at rate 1/(2 beta*): median of phi_p(1) within
    5% of 0.5, the scaled clock gap does not grow from p = 1e4 to 1e5, and
    the contour-vs-height gap ratio is <= 0.2 at p = 1e5 and decreasing."""
    result, _ = shared_experiment
    rows = result.rows

    target = 1.0 / (2.0 * BETA_STAR)
    med_phi = float(np.median(_column(rows, 100_000, "phip")))
    assert abs(med_phi - target) <= 0.05 * target, med_phi

    med_delta = {
        p: float(np.median(_column(rows, p, "epsDelta"))) for p in (10_000, 100_000)
    }
    assert med_delta[100_000] <= med_delta[10_000] + 1e-9, med_delta

    ratios = []
    for p in SHARED_CONFIG.p_values:
        dc = _column(rows, p, "deltaC")
        cp = _column(rows, p, "Cp")
        den = float((cp - dc).mean())  # scaled height at the changed time
        ratios.append(float(np.abs(dc).mean()) / den)
    assert ratios[0] > ratios[1] > ratios[2], ratios
    assert ratios[2] <= 0.2, ratios
    print(
        f"criterion 5: PASS - median phi {med_phi:.4f} ~ {target}, "
        f"clock gap {med_delta[10_000]:.4f}->{med_delta[100_000]:.4f}, "
        "contour ratios " + "/".join(f"{r:.4f}" for r in ratios)
    )


def test_criterion_6_interval_minima(shared_experiment):
    """Interval minima over [0.5, 1]: the gap between the contour minimum
    and the rescaled genealogical minimum shrinks relative to the latter,
    ending at most 0.2 at p = 1e5."""
    result, _ = shared_experiment
    minima = {entry["p"]: entry for entry in result.summary()["interval_minima"]}
    ratios = []
    for p in SHARED_CONFIG.p_values:
        entry = minima[p]
        ratios.append(entry["abs_gap_mean"] / entry["scaled_gen_min_mean"])
    assert ratios[0] > ratios[1] > ratios[2], ratios
    assert ratios[2] <= 0.2, ratios
    print(
        "criterion 6: PASS - interval-min ratios "
        + "/".join(f"{r:.4f}" for r in ratios)
        + " decreasing, final <= 0.2"
    )


def test_criterion_7_example_families():
    """Family 1 has chronological = genealogical height everywhere (hard
    assertion on every sampled path); for families 1 and 2 the largest rise
    of the rescaled contour over width-eps_p windows grows with p."""
    t0 = time.monotonic()
    trends = []
    for fam in ("1", "2"):
        law = StableFamilyLaw(fam)
        stats = []
        for p in (1_000, 10_000, 100_000):
            eps = p ** (1.0 / law.alpha - 1.0)
            vals = []
            for rep in range(9):
                rng = np.random.default_rng(
                    np.random.SeedSequence((20250807, int(fam), p, rep))
                )
                n = int(p // 4 + 200)
                batch = law.sample_batch(rng, n)
                if fam == "1":
                    heights, depths = height_profile_arrays(
                        batch.counts, batch.offsets, batch.ages
                    )
                    assert np.array_equal(heights, depths.astype(float))
                path = contour_path(build_forest(batch))
                # window width eps_p in the rescaled clock = p * eps_p raw
                vals.append(eps * max_rise_in_window(path, p * eps))
            stats.append(float(np.median(vals)))
        assert stats[0] < stats[1] < stats[2], (fam, stats)
        trends.append(f"family {fam}: " + "<".join(f"{s:.2f}" for s in stats))

    elapsed = time.monotonic() - t0
    print(f"criterion 7: PASS - {'; '.join(trends)}, {elapsed:.1f}s")


def test_criterion_8_coupling_harness():
    """10^4 coupling replicas split between an arithmetic and a
    non-arithmetic law: no replica with a decided event violates the step
    and mark agreement, and the first-jump marginals fit their targets."""
    t0 = time.monotonic()

    gw = GaltonWatsonUnitLaw()
    rng_a = np.random.default_rng(np.random.SeedSequence(20250808))
    res_a = run_coupling_many(
        gw, 0.0, 16.0, 3, rng_a, 5000, meet_budget=20_000, walk_budget=20_000
    )
    sum_a = summarize_coupling(res_a)
    assert sum_a["violated"] == 0, sum_a
    assert sum_a["held"] > 0
    # arithmetic marginals are exact: V = 1 and the lattice residual is 0
    assert all(r.alpha == 2.0 for r in res_a)
    assert all(r.alpha_prime == 0.0 for r in res_a)
    assert all(r.first_step == 2.0 for r in res_a if not np.isnan(r.first_step))

    exp = ExponentialUniformLaw(rate=1.0)
    rng_b = np.random.default_rng(np.random.SeedSequence(20250809))
    res_b = run_coupling_many(
        exp, 0.5, 16.0, 3, rng_b, 5000, meet_budget=20_000, walk_budget=20_000
    )
    sum_b = summarize_coupling(res_b)
    assert sum_b["violated"] == 0, sum_b
    assert sum_b["held"] > 0
    # both walks step by twice an Exp(1) life: Exp(scale = 2) marginals
    alphas = np.array([r.alpha for r in res_b])
    alpha_primes = np.array([r.alpha_prime for r in res_b])
    p_alpha = sps.kstest(alphas, "expon", args=(0.0, 2.0)).pvalue
    p_prime = sps.kstest(alpha_primes, "expon", args=(0.0, 2.0)).pvalue
    assert p_alpha >= 0.01, p_alpha
    assert p_prime >= 0.01, p_prime

    assert sum_a["replicas"] + sum_b["replicas"] == 10_000
    elapsed = time.monotonic() - t0
    print(
        f"criterion 8: PASS - 0 violations in 10000 replicas "
        f"(held {sum_a['held']}+{sum_b['held']}), "
        f"GoF p = {p_alpha:.3f}/{p_prime:.3f}, {elapsed:.1f}s"
    )


def test_criterion_9_determinism():
    """Identical seed and config give byte-identical outputs, independent
    of the worker count."""
    cfg = ExperimentConfig(
        law="gw(mean=1.0)",
        p_values=(50, 200),
        times=(0.5, 1.0),
        replicates=4,
        seed=99,
        eps_rule="invsqrt",
        epsbar_rule="invsqrt",
        interval=(0.5, 1.0),
    )
    first = scaling_experiment(cfg, workers=1)
    again = scaling_experiment(cfg, workers=1)
    forked = scaling_experiment(cfg, workers=2)
    texts = []
    for res in (first, again, forked):
        buf = io.StringIO()
        res.write_csv(buf)
        texts.append(buf.getvalue())
    assert texts[0] == texts[1] == texts[2]
    s_first = json.dumps(first.summary(), sort_keys=True)
    s_again = json.dumps(again.summary(), sort_keys=True)
    s_forked = json.dumps(forked.summary(), sort_keys=True)
    assert s_first == s_again == s_forked
    print(
        "criterion 9: PASS - byte-identical CSV and summary across reruns "
        "and worker counts"
    )
