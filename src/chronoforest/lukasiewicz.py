"""The Lukasiewicz walk of a stick sequence, marked by its birth measures,
and its ladder structure.

The walk starts at 0 and jumps by (number of births of stick k) - 1 at step
k; it is skip-free downward (only -1 down-steps).  Each step carries its
stick's birth measure as a mark, so the marked walk holds everything the
genealogy needs.  The n-th tree of the forest occupies the sticks between
consecutive first passages of the walk to new running minima.

For a *focal* index n, genealogy is read backward: the dual walk at n takes
j steps using sticks n-1, n-2, ..., n-j.  Its weak ascending ladder epochs
pick out exactly the ancestors of individual n, from parent (first epoch) to
root (last epoch within range).  At each epoch, removing the undershoot-many
largest atoms from the epoch stick's birth measure leaves that ancestor's
still-unexplored birth ages -- these are the spine segments, recovered here
by pure walk arithmetic with no tree in sight.

Every functional here takes the marked :class:`Walk` that :func:`walk`
builds from sticks, and nothing else.  First passages that do not happen
within the walk's steps are reported as "open" (``None``), never
extrapolated; the dual walk at a focal index n reads only steps 0..n-1.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .measures import ZERO, PointMeasure, Stick, root_first_sum

__all__ = [
    "Walk",
    "walk",
    "max_drop",
    "chi",
    "LadderDecomp",
    "ladder_decomp",
    "dual_passage",
    "mrca",
]


@dataclass(frozen=True, eq=False)
class Walk:
    """The marked walk: the birth measure of each step's stick and the
    running values S(0..n), S(0) = 0, S(k+1) - S(k) = births[k].mass - 1."""

    births: tuple[PointMeasure, ...]
    s: np.ndarray

    @property
    def n(self) -> int:
        return len(self.births)


def walk(sticks: Sequence[Stick]) -> Walk:
    """The marked walk of a stick sequence."""
    births = tuple(stick.births for stick in sticks)
    s = np.zeros(len(births) + 1, dtype=np.int64)
    np.cumsum([b.mass - 1 for b in births], out=s[1:])
    return Walk(births, s)


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
    count = w.births[m].mass
    if k is None:
        k = count
    if not 0 <= k <= count:
        raise ValueError(f"need 0 <= k <= {count}, got {k}")
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
    root.  ``w`` is the whole marked walk it was read from; the
    decomposition at n reads only its first n steps.
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
        """Root-first sum of the ladder atom ages = grafted birth time of n."""
        return root_first_sum(reversed(self.ages))

    def count_upto(self, j: int) -> int:
        """Number of ladder epochs at dual time <= j."""
        return bisect.bisect_right(self.times, j)

    def first_epoch_at_or_after(self, j: int) -> Optional[int]:
        """Smallest k with T(k) >= j (T(0) = 0); None when open."""
        if j <= 0:
            return 0
        idx = bisect.bisect_left(self.times, j)
        return idx + 1 if idx < len(self.times) else None

    def D(self, level: int) -> float:
        """Drop functional: how much of the spine height at n survives as the
        running minimum once the walk has descended ``level`` below S(n).

        Level 0 contributes nothing.  Only dual times up to the level passage
        (at most n) matter, so the value is always determined by steps
        0..n-1.
        """
        if level < 0:
            raise ValueError("level must be >= 0")
        if level == 0:
            return 0.0
        # an open passage drops nothing: every epoch lies at dual time <= n
        j, measure = dual_passage(self.w, self.n, level) or (self.n, ZERO)
        return root_first_sum(reversed(self.ages[: self.count_upto(j)])) - measure.sup_support


def ladder_decomp(w: Walk, n: int) -> LadderDecomp:
    """Dual ladder decomposition at focal index n (reads steps 0..n-1)."""
    if not 0 <= n <= w.n:
        raise ValueError(f"need 0 <= n <= {w.n}, got {n}")
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
            m = w.births[n - j].truncate_largest(zeta)
            if m.mass < 1:
                raise RuntimeError(f"ladder measure at dual time {j} lost all its atoms")
            times.append(j)
            zetas.append(zeta)
            measures.append(m)
            ages.append(m.sup_support)
            stick_indices.append(n - j)
    return LadderDecomp(n, times, zetas, measures, ages, stick_indices, w)


def dual_passage(w: Walk, m: int, level: int) -> Optional[tuple[int, PointMeasure]]:
    """The dual level passage from m: the first j >= 1 with
    S(m) - S(m - j) >= level, and the birth measure of stick m - j with its
    undershoot-many largest atoms removed.  None when the passage is open.
    """
    if not 0 <= m <= w.n:
        raise ValueError(f"need 0 <= m <= {w.n}, got {m}")
    if level < 0:
        raise ValueError("level must be >= 0")
    target = w.s[m] - level
    hits = np.nonzero(w.s[:m][::-1] <= target)[0]
    if hits.size == 0:
        return None
    j = int(hits[0]) + 1
    zeta = int(level - (w.s[m] - w.s[m - j + 1]))
    return j, w.births[m - j].truncate_largest(zeta)


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
    passage = dual_passage(w, m, level)
    return m - passage[0] if passage is not None else None

