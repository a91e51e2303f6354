"""Renewal-theoretic samplers and exact reference distributions.

Covers the quantities attached to a single weak ascent of the dual walk:

* exact first-passage pmfs for the downward-skip-free walk (dynamic
  programming on the offspring pmf);
* the joint law of (ascent time, undershoot, jump count), and an exact
  sampler for it by duality: a finiteness coin, a size-biased jump count
  and a first passage of a fresh walk;
* the mean total age of a stick, against which the size-biased atom ages
  of ``StickLaw.sample_ystars`` are checked;
* the stationary overshoot of the life-length renewal process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .laws import StickLaw

__all__ = [
    "tau_minus_pmf",
    "ladder_trio_pmf",
    "LadderStats",
    "sample_ladder_stats",
    "mc_mean_se",
    "mean_age_integral_mc",
    "sample_vhat",
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
    # each entry and each of the len(p) - 1 additions rounds by at most eps/2 of the sum
    if np.any(p < 0) or p.sum() > 1 + len(p) * np.finfo(float).eps:
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

    ``finite[i]`` is the coin that made walk i's ascent epoch finite.
    ``accepted[i]`` is False when walk i was rejected, because its epoch is
    infinite or lies past the sampler's ``step_cap``; those rows hold -1 in
    tau/zeta/jump_count.
    """

    tau: np.ndarray
    zeta: np.ndarray
    jump_count: np.ndarray
    accepted: np.ndarray
    finite: np.ndarray


# The walks advance in blocks of steps: the first block is short, each next
# one twice as long up to _MAX_BLOCK, and a block never holds more than
# _MAX_SLOTS counts over all active walks.
_FIRST_BLOCK = 64
_MAX_BLOCK = 1 << 22
_MAX_SLOTS = 1 << 23


def sample_ladder_stats(
    law: StickLaw, rng: np.random.Generator, n: int, step_cap: int = 1_000_000
) -> LadderStats:
    """Draw the first weak ascent of n independent count walks, by duality.

    The walk S(k) = sum of (count - 1) starts at 0; the ascent happens at
    the first k >= 1 with S(k) >= 0, where zeta = -S(k-1) and jump_count is
    the count consumed at that step.  Read backwards from the ascent, the
    walk before it is a first passage to -zeta (``ladder_trio_pmf``), so for
    a (sub)critical law the draw is exact:

    * the epoch is finite with probability equal to the mean offspring;
    * given that it is, jump_count is size-biased and zeta uniform on
      {0, ..., jump_count - 1};
    * tau - 1 is the first passage time of a fresh walk from 0 to -zeta.

    A finite epoch whose passage takes more than ``step_cap - 1`` steps is
    rejected, like an infinite one.  A supercritical law raises ValueError:
    its ascent is finite with probability 1, not its mean offspring.
    """
    law.require_subcritical("ladder epochs by duality")
    finite = rng.random(n) < law.mean_offspring
    tau = np.full(n, -1, dtype=np.int64)
    zeta = np.full(n, -1, dtype=np.int64)
    jump = np.full(n, -1, dtype=np.int64)
    rows = np.flatnonzero(finite)
    if rows.size:  # a law without children has no size-biased count
        jump[rows] = law.counts.sizebiased(rng, rows.size)
        zeta[rows] = rng.integers(0, jump[rows])
    tau[zeta == 0] = 1
    # the walk steps down by at most 1: a passage to -zeta takes zeta steps or more
    active = np.flatnonzero((zeta > 0) & (zeta < step_cap))
    # each active walk's height above -zeta, which its passage brings to 0
    s_active = zeta[active]
    done = 0
    block = _FIRST_BLOCK
    while active.size and done < step_cap - 1:
        b = min(block, step_cap - 1 - done, max(_MAX_SLOTS // active.size, 1))
        counts = law.counts.sample(rng, (active.size, b))
        cum = np.cumsum(counts - 1, axis=1)
        cum += s_active[:, None]
        hit = cum <= 0
        any_hit = hit.any(axis=1)
        hit_rows = np.flatnonzero(any_hit)
        if hit_rows.size:
            fi = np.argmax(hit[hit_rows], axis=1)
            if np.any(cum[hit_rows, fi] != 0):
                raise RuntimeError("count walk stepped past its passage level")
            tau[active[hit_rows]] = done + fi + 2
        keep = ~any_hit
        active = active[keep]
        s_active = cum[keep, -1]
        done += b
        block = min(block * 2, _MAX_BLOCK)
    accepted = tau >= 0
    zeta[~accepted] = -1
    jump[~accepted] = -1
    return LadderStats(tau, zeta, jump, accepted, finite)


def mc_mean_se(values: np.ndarray) -> tuple[float, float]:
    """Monte Carlo mean and standard error of ``values`` (inf from fewer than two).

    Both are computed on the values scaled by a power of two that brings the
    largest below 1, so the squares stay finite for any finite values.  The
    scaling rounds nothing above the subnormal range, so wherever the plain
    formula is finite it gives the same floats.
    """
    n = len(values)
    _, e = np.frexp(np.max(np.abs(values), initial=0.0))
    scaled = np.ldexp(values, -e)
    mean = float(np.ldexp(scaled.mean(), e))
    se = float(np.ldexp(scaled.std(ddof=1) / math.sqrt(n), e)) if n > 1 else math.inf
    return mean, se


def mean_age_integral_mc(
    law: StickLaw, rng: np.random.Generator, n: int
) -> tuple[float, float]:
    """Monte Carlo mean and standard error of the per-stick total of ages.

    Each stick's ages are summed on their own, so a total is finite
    whenever that stick's ages add up to a float, whatever the other
    sticks hold."""
    batch = law.sample_batch(rng, n)
    totals = np.zeros(n)
    full = batch.counts > 0
    # ``reduceat`` gives an empty segment an element of its own, so only the
    # sticks with children get one: their starts increase strictly
    totals[full] = np.add.reduceat(batch.ages, batch.offsets[:-1][full])
    return mc_mean_se(totals)


def sample_vhat(law: StickLaw, rng: np.random.Generator, size) -> np.ndarray:
    """Stationary overshoot of the life-length renewal process: a float64
    array of shape ``size``, like every draw of the law parts.

    Draw a length-biased life length and place the inspection point
    uniformly inside it: uniform on [0, v) in the non-arithmetic case, and
    uniform on the lattice {0, h, ..., v - h} when lengths live on a span-h
    lattice.  Raises ``ValueError`` when an arithmetic law's life length is
    not exactly ``k * h`` for a whole k.
    """
    v = law.life.length_biased(rng, size)
    if law.arithmetic:
        h = law.span
        if h is None or not h > 0:
            raise ValueError(f"law {law.name} is arithmetic but has span {h!r}")
        steps = np.rint(v / h).astype(np.int64)
        if not np.all(steps * h == v):
            raise ValueError(f"life lengths of law {law.name} stray off its span-{h} lattice")
        return h * rng.integers(0, steps)
    return rng.random(size) * v
