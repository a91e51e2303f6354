"""Renewal-theoretic samplers and exact reference distributions.

Covers the quantities attached to a single weak ascent of the dual walk:

* exact first-passage pmfs for the downward-skip-free walk (dynamic
  programming on the offspring pmf);
* the joint law of (ascent time, undershoot, jump count) and an exact
  rejection sampler for it;
* the age of a uniformly chosen atom of a size-biased stick;
* the stationary overshoot of the life-length renewal process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..measures import PointMeasure
from .laws import StickLaw

__all__ = [
    "tau_minus_pmf",
    "ladder_trio_pmf",
    "LadderStats",
    "sample_ladder_stats",
    "LadderPair",
    "sample_ladder_pair",
    "sample_ystars",
    "mean_age_integral_mc",
    "sample_vhat",
    "sample_covering_v",
]


def tau_minus_pmf(offspring_pmf, x: int, tmax: int) -> np.ndarray:
    """Pmf on 0..tmax of the first time the walk S(k) = sum(counts - 1)
    reaches -x.  Downward skips are single, so the level is hit exactly.

    ``offspring_pmf[k]`` is the probability of k children.  Probability mass
    of never reaching -x (or not by tmax) is simply missing from the result.
    """
    p = np.asarray(offspring_pmf, dtype=float)
    if p.ndim != 1 or len(p) == 0:
        raise ValueError("offspring pmf must be a non-empty 1-d array")
    if np.any(p < 0) or p.sum() > 1 + 1e-9:
        raise ValueError("offspring pmf entries must be a sub-probability vector")
    if x < 0:
        raise ValueError("x must be >= 0")
    pmf = np.zeros(tmax + 1)
    if x == 0:
        pmf[0] = 1.0
        return pmf
    kmax = len(p) - 1
    # alive[i] = P(walk currently at i - x, has not yet touched -x)
    size = x + 1 + tmax * max(kmax - 1, 0) + kmax + 1
    alive = np.zeros(size)
    alive[x] = 1.0
    for t in range(1, tmax + 1):
        stepped = np.convolve(alive, p)[1:]  # index shifts by count - 1
        if len(stepped) < size:  # kmax = 0: the support only shrinks
            stepped = np.pad(stepped, (0, size - len(stepped)))
        else:
            stepped = stepped[:size]
        pmf[t] = stepped[0]
        stepped[0] = 0.0
        alive = stepped
    return pmf


def ladder_trio_pmf(offspring_pmf, tmax: int) -> dict[tuple[int, int, int], float]:
    """Joint pmf of (ascent time, undershoot, measure mass) at the first
    weak ascending ladder epoch of the dual walk, conditioned on that epoch
    being finite.

    The walk steps by (count - 1); a first weak ascent at time t with
    undershoot x retaining mass q requires a count of x + q at the final
    step, preceded by a first passage to -x in t - 1 steps.  Conditioning on
    a finite epoch divides by the mean count.
    """
    p = np.asarray(offspring_pmf, dtype=float)
    mu = float(np.sum(np.arange(len(p)) * p))
    if mu <= 0:
        raise ValueError("mean offspring must be positive")
    kmax = len(p) - 1
    passage = {x: tau_minus_pmf(p, x, max(tmax - 1, 0)) for x in range(kmax)}
    out: dict[tuple[int, int, int], float] = {}
    for x in range(kmax):
        for q in range(1, kmax - x + 1):
            weight = p[x + q] / mu
            if weight == 0.0:
                continue
            for t in range(1, tmax + 1):
                prob = weight * passage[x][t - 1]
                if prob > 0.0:
                    out[(t, x, q)] = prob
    return out


@dataclass
class LadderStats:
    """Vectorized draws of the first weak ascent of the count walk.

    ``accepted[i]`` is False when walk i was rejected; those rows hold -1 in
    tau/zeta/jump_count.  A rejected walk either fell below the envelope and
    was abandoned early (``abandoned[i]``) or was still negative after
    ``step_cap`` steps.
    """

    tau: np.ndarray
    zeta: np.ndarray
    jump_count: np.ndarray
    accepted: np.ndarray
    abandoned: np.ndarray
    step_cap: int

    @property
    def n(self) -> int:
        return len(self.tau)

    def acceptance_rate(self) -> float:
        return float(self.accepted.mean())


def sample_ladder_stats(
    law: StickLaw,
    rng: np.random.Generator,
    n: int,
    step_cap: int = 1_000_000,
    first_block: int = 64,
    max_block: int = 1 << 22,
    max_slots: int = 1 << 23,
    envelope: Optional[float] = None,
) -> LadderStats:
    """Run n independent count walks until their first weak ascent.

    The walk S(k) = sum of (count - 1) starts at 0; the ascent happens at
    the first k >= 1 with S(k) >= 0, where zeta = -S(k-1) and jump_count is
    the count consumed at that step.  Walks still negative after
    ``step_cap`` steps are rejected.

    For strictly subcritical laws the walk drifts down linearly and the
    return probability from depth d decays like exp(-c d), so ``envelope``
    abandons walks below that depth early (counted as rejections).  The
    default 60 / (1 - mean) puts the abandonment bias far below Monte Carlo
    resolution.  Critical laws get no envelope: they return from any depth
    with full probability, so only the step cap may reject.
    """
    if envelope is None and law.mean_offspring < 1.0 - 1e-12:
        envelope = min(60.0 / (1.0 - law.mean_offspring), 1e4)
    tau = np.full(n, -1, dtype=np.int64)
    zeta = np.full(n, -1, dtype=np.int64)
    jump = np.full(n, -1, dtype=np.int64)
    abandoned = np.zeros(n, dtype=bool)
    active = np.arange(n)
    s_active = np.zeros(n, dtype=np.int64)
    done = 0
    block = first_block
    while active.size and done < step_cap:
        b = min(block, step_cap - done, max(max_slots // active.size, 1))
        counts = np.asarray(law.counts.sample(rng, (active.size, b)), dtype=np.int64)
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
            if np.any(prev > 0):
                raise RuntimeError("count walk ascended before its first weak ascent")
            zeta[ai] = -prev
            jump[ai] = counts[rows, fi]
        keep = ~any_hit
        active = active[keep]
        s_active = cum[keep, -1]
        if envelope is not None and active.size:
            shallow = s_active > -envelope
            abandoned[active[~shallow]] = True
            active = active[shallow]
            s_active = s_active[shallow]
        done += b
        block = min(block * 2, max_block)
    accepted = tau >= 0
    return LadderStats(tau, zeta, jump, accepted, abandoned, step_cap)


@dataclass
class LadderPair:
    """One draw of (ascent time, ladder measure) with its source stick."""

    tau: int
    zeta: int
    measure: PointMeasure
    stick_v: float
    accepted: bool


def sample_ladder_pair(
    law: StickLaw, rng: np.random.Generator, step_cap: int = 1_000_000
) -> LadderPair:
    """Draw the first (ascent time, retained measure) pair of the dual walk.

    The retained measure keeps the jump stick's ages after dropping its
    ``zeta`` largest atoms; the stick itself is drawn conditionally on its
    count, as in the forest construction.
    """
    stats = sample_ladder_stats(law, rng, 1, step_cap=step_cap)
    if not stats.accepted[0]:
        return LadderPair(-1, -1, PointMeasure(), math.nan, False)
    count = np.array([stats.jump_count[0]], dtype=np.int64)
    v = np.asarray(law.life.given(rng, count), dtype=float)
    ages = law.ages.sample(rng, count, v)
    measure = PointMeasure(ages).truncate_largest(int(stats.zeta[0]))
    if measure.mass < 1:
        raise RuntimeError(
            f"undershoot {int(stats.zeta[0])} removed all {int(count[0])} atoms of the jump stick"
        )
    return LadderPair(int(stats.tau[0]), int(stats.zeta[0]), measure, float(v[0]), True)


def sample_ystars(law: StickLaw, rng: np.random.Generator, n: int) -> np.ndarray:
    """Ages of a uniformly chosen atom of n independent size-biased sticks."""
    return np.asarray(law.sample_ystars(rng, n), dtype=float)


def mean_age_integral_mc(
    law: StickLaw, rng: np.random.Generator, n: int
) -> tuple[float, float]:
    """Monte Carlo mean and standard error of the per-stick total of ages."""
    batch = law.sample_batch(rng, n)
    cums = np.concatenate(([0.0], np.cumsum(batch.ages)))
    totals = np.diff(cums[batch.offsets])
    mean = float(totals.mean())
    se = float(totals.std(ddof=1) / math.sqrt(n)) if n > 1 else math.inf
    return mean, se


def sample_vhat(law: StickLaw, rng: np.random.Generator, size=None):
    """Stationary overshoot of the life-length renewal process.

    Draw a length-biased life length and place the inspection point
    uniformly inside it: uniform on [0, v) in the non-arithmetic case, and
    uniform on the lattice {0, h, ..., v - h} when lengths live on a span-h
    lattice.
    """
    v = np.asarray(law.life.length_biased(rng, size), dtype=float)
    if law.arithmetic:
        h = law.span
        if h is None or not h > 0:
            raise ValueError(f"law {law.name} is arithmetic but has span {h!r}")
        steps = np.rint(v / h).astype(np.int64)
        if not np.all(np.abs(steps * h - v) <= 1e-9 * np.maximum(v, 1.0)):
            raise ValueError(f"life lengths of law {law.name} stray off its span-{h} lattice")
        out = h * rng.integers(0, steps)
    else:
        out = rng.random(np.shape(v)) * v
    return float(out) if size is None else out


def sample_covering_v(
    law: StickLaw, rng: np.random.Generator, t: float, n: int
) -> np.ndarray:
    """Life length of the stick whose renewal interval covers time t.

    Lays i.i.d. life lengths end to end from 0 and returns, for each of n
    independent runs, the length of the interval containing t.  As t grows
    this converges to the length-biased law.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    cols = int(t / law.mean_v * 1.5) + 30
    out = np.empty(n)
    pending = np.arange(n)
    while pending.size:
        v = np.asarray(law.life.sample(rng, (pending.size, cols)), dtype=float)
        cs = np.cumsum(v, axis=1)
        covered = cs[:, -1] > t
        idx = (cs <= t).sum(axis=1)
        rows = np.nonzero(covered)[0]
        out[pending[rows]] = v[rows, idx[rows]]
        pending = pending[~covered]
        cols *= 2
    return out
