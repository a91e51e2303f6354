"""The integer walk encoding of a stick sequence, and its ladder structure.

The walk starts at 0 and jumps by (number of births of stick k) - 1 at step
k; it is skip-free downward (only -1 down-steps).  The n-th tree of the
forest occupies the sticks between consecutive first passages of the walk to
new running minima.

For a *focal* index n, genealogy is read backward: the dual walk at n takes
j steps using sticks n-1, n-2, ..., n-j.  Its weak ascending ladder epochs
pick out exactly the ancestors of individual n, from parent (first epoch) to
root (last epoch within range).  At each epoch, removing the undershoot-many
largest atoms from the epoch stick's birth measure leaves that ancestor's
still-unexplored birth ages -- these are the spine segments, recovered here
by pure walk arithmetic with no tree in sight.

Everything in this module sees only sticks 0..n-1; first passages that do
not happen within that window are reported as "open" (``None``), never
extrapolated.  ``max_drop``, ``chi``, the dual passages and ``mrca`` take a
:class:`Walk`, which :func:`walk` builds from sticks or from child counts.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .measures import PointMeasure, Stick

__all__ = [
    "Walk",
    "walk",
    "max_drop",
    "chi",
    "LadderDecomp",
    "ladder_decomp",
    "forward_ladder",
    "dual_passage_time",
    "dual_passage_measure",
    "mrca",
]


@dataclass(frozen=True, eq=False)
class Walk:
    """Child counts and the walk's running values S(0..n), S(0) = 0."""

    counts: tuple[int, ...]
    s: np.ndarray

    @property
    def n(self) -> int:
        return len(self.counts)


def walk(sticks_or_counts) -> Walk:
    """Build the walk from sticks or from raw child counts."""
    seq = list(sticks_or_counts)
    if seq and isinstance(seq[0], Stick):
        counts = tuple(s.births.mass for s in seq)
    else:
        counts = tuple(int(c) for c in seq)
        if any(c < 0 for c in counts):
            raise ValueError("child counts must be >= 0")
    s = np.empty(len(counts) + 1, dtype=np.int64)
    s[0] = 0
    if counts:
        np.cumsum(np.asarray(counts, dtype=np.int64) - 1, out=s[1:])
    return Walk(counts, s)


def max_drop(w: Walk, m: int, n: int) -> int:
    """Largest descent of the walk below S(m) witnessed on [m, n].

    This is the ladder level separating m from the common ancestor of m and
    any n' >= n; it is 0 exactly when m is an ancestor of n.
    """
    if not 0 <= m <= n <= w.n:
        raise ValueError(f"need 0 <= m <= n <= {w.n}, got ({m}, {n})")
    return int(w.s[m] - w.s[m : n + 1].min())


def chi(w: Walk, m: int, k: Optional[int] = None) -> Optional[int]:
    """First index after m at which the walk returns to S(m+1) - k.

    With k equal to the full child count of stick m this is the index at
    which the subtree rooted at m has just been fully explored.  Smaller k
    picks out the individual grafted to the (k+1)-th largest birth atom of
    stick m.  None when the passage lies beyond the horizon.
    """
    if not 0 <= m < w.n:
        raise ValueError(f"need 0 <= m < {w.n}, got {m}")
    if k is None:
        k = w.counts[m]
    if not 0 <= k <= w.counts[m]:
        raise ValueError(f"need 0 <= k <= {w.counts[m]}, got {k}")
    target = w.s[m + 1] - k
    hits = np.nonzero(w.s[m + 1 :] <= target)[0]
    if hits.size == 0:
        return None
    out = m + 1 + int(hits[0])
    if w.s[out] != target:
        raise RuntimeError(f"skip-free walk jumped below {target} at {out}")
    return out


@dataclass
class LadderDecomp:
    """Weak ascending ladder decomposition of the dual walk at a focal index.

    ``times[k-1]`` is the k-th dual ladder epoch (number of steps walked
    backward from n); ``measures[k-1]`` the undershoot-truncated birth
    measure found there; ``ages[k-1]`` its largest atom; ``stick_indices``
    the real indices n - times[k], i.e. the ancestors of n from parent to
    root.  ``w`` is the walk of sticks 0..n-1 it was read from.
    """

    n: int
    times: list[int]
    zetas: list[int]
    measures: list[PointMeasure]
    ages: list[float]
    stick_indices: list[int]
    w: Walk

    @property
    def height(self) -> int:
        """Number of ladder epochs within range = generation of n."""
        return len(self.times)

    def height_sum(self) -> float:
        """Sum of the ladder atom ages = chronological birth time of n."""
        return math.fsum(self.ages)

    def count_upto(self, j: int) -> int:
        """Number of ladder epochs at dual time <= j."""
        return bisect.bisect_right(self.times, j)

    def first_epoch_at_or_after(self, j: int) -> Optional[int]:
        """Smallest k with T(k) >= j (T(0) = 0); None when open."""
        if j <= 0:
            return 0
        idx = bisect.bisect_left(self.times, j)
        return idx + 1 if idx < len(self.times) else None

    def D(self, level: int, sticks: Sequence[Stick]) -> float:
        """Drop functional: how much of the spine height at n survives as the
        running minimum once the walk has descended ``level`` below S(n).

        Level 0 contributes nothing.  Only dual times up to the level passage
        (at most n) matter, so the value is always determined by sticks
        0..n-1.
        """
        if level < 0:
            raise ValueError("level must be >= 0")
        if level == 0:
            return 0.0
        j = dual_passage_time(self.w, self.n, level)
        if j is None:
            return self.height_sum()
        total = math.fsum(self.ages[: self.count_upto(j)])
        return total - dual_passage_measure(sticks, self.w, self.n, level).sup_support


def ladder_decomp(sticks: Sequence[Stick], n: int) -> LadderDecomp:
    """Dual ladder decomposition at focal index n (uses sticks 0..n-1)."""
    if not 0 <= n <= len(sticks):
        raise ValueError(f"need 0 <= n <= {len(sticks)}, got {n}")
    w = walk(sticks[:n])
    dual = w.s[n] - w.s[n::-1]
    times: list[int] = []
    zetas: list[int] = []
    measures: list[PointMeasure] = []
    ages: list[float] = []
    stick_indices: list[int] = []
    if n > 0:
        rm = np.maximum.accumulate(dual)
        is_epoch = dual[1:] >= rm[:-1]
        for j in np.nonzero(is_epoch)[0]:
            j = int(j) + 1
            zeta = int(rm[j - 1] - dual[j - 1])
            m = sticks[n - j].births.truncate_largest(zeta)
            if m.mass < 1:
                raise RuntimeError(f"ladder measure at dual time {j} lost all its atoms")
            times.append(j)
            zetas.append(zeta)
            measures.append(m)
            ages.append(m.sup_support)
            stick_indices.append(n - j)
    return LadderDecomp(n, times, zetas, measures, ages, stick_indices, w)


def forward_ladder(sticks: Sequence[Stick]) -> list[tuple[int, int, int, PointMeasure]]:
    """Weak ascending ladder epochs of the forward walk.

    Returns (epoch time, gap since previous epoch, undershoot, truncated
    measure) tuples; the walk of a (sub)critical stick law has finitely many
    such epochs, i.i.d. in their increments up to the last one.
    """
    w = walk(sticks)
    out = []
    level = 0
    prev_t = 0
    for t in range(1, w.n + 1):
        if w.s[t] >= level:
            zeta = int(level - w.s[t - 1])
            meas = sticks[t - 1].births.truncate_largest(zeta)
            out.append((t, t - prev_t, zeta, meas))
            level = int(w.s[t])
            prev_t = t
    return out


def dual_passage_time(w: Walk, m: int, level: int) -> Optional[int]:
    """First j >= 1 with S(m) - S(m - j) >= level (dual walk at m)."""
    if not 0 <= m <= w.n:
        raise ValueError(f"need 0 <= m <= {w.n}, got {m}")
    if level < 0:
        raise ValueError("level must be >= 0")
    target = w.s[m] - level
    hits = np.nonzero(w.s[:m][::-1] <= target)[0]
    return int(hits[0]) + 1 if hits.size else None


def dual_passage_measure(
    sticks: Sequence[Stick], w: Walk, m: int, level: int
) -> Optional[PointMeasure]:
    """Undershoot-truncated measure at the dual level passage from m."""
    j = dual_passage_time(w, m, level)
    if j is None:
        return None
    zeta = int(level - (w.s[m] - w.s[m - j + 1]))
    return sticks[m - j].births.truncate_largest(zeta)


def mrca(w: Walk, m: int, n: int) -> Optional[int]:
    """Most recent common ancestor of m and n from the walk alone.

    None means the two individuals sit in disjoint trees.  The ladder level
    separating m from the common ancestor is the walk's descent below S(m)
    on [m, n]; the ancestor itself is found by the dual passage from m.
    """
    if not 0 <= m <= n <= w.n:
        raise ValueError(f"need 0 <= m <= n <= {w.n}, got ({m}, {n})")
    level = max_drop(w, m, n)
    if level == 0:
        return m
    j = dual_passage_time(w, m, level)
    return m - j if j is not None else None

