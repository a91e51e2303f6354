"""Spine recursion, the height/depth kernel, and the identity test-bench.

The spine of the n-th individual lists, ancestor by ancestor, the birth ages
that are still unexplored when n is grafted: a plain tuple of non-zero
``PointMeasure``s, the most ancient ancestor's first and the parent's last,
with ``()`` the empty spine.  It evolves by one deterministic move per stick:

* a stick with births appends its birth measure to the spine (we step to
  its first, highest-born child next);
* a childless stick backtracks: every trailing ancestor holding a single
  remaining atom is exhausted and dropped, and the deepest ancestor holding
  at least two atoms loses its largest one (that atom was the birth age of
  the branch just closed; the next largest is where the next stick grafts).

Its ``spine_height``, the largest atoms summed root first, is the birth time
of n, and its length the generation of n.  ``phi``, ``spine_states`` and
``forest.graft_forest`` are the literal oracles.  ``height_profile_arrays``
is the array kernel the experiments run: it returns the birth times and
generations of ``forest.forest_arrays``, which reads every parent and
generation off first passages of the Lukasiewicz walk and then sums the
birth ages with one numpy step per generation, the way grafting does.

``verify_identities`` cross-checks every walk/ladder formula in
:mod:`chronoforest.lukasiewicz`, the kernel's forest, the contour path and
result (2)'s index gap between the contour and length time changes against
the literal grafting of :mod:`chronoforest.forest` on a single stick
sequence, and reports per-identity tallies with minimal reproducers instead
of raising.  A check that another identity already implies is not
repeated.  Every identity holds with ``==`` (age sums run root
first, as grafting adds them) but the four that subtract heights,
``height-difference-drop``, ``contour-min-via-drop``,
``shifted-spine-is-height-drop`` and ``adjacent-shift-bound``: they allow
one rounding bound per forest, ``max(1, max depth) * eps * max|heights|``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import accumulate
from typing import Iterable, Optional, Sequence

import numpy as np

from .forest import (
    build_forest,
    contour_path,
    forest_arrays,
    genealogical_map,
    graft_forest,
)
from .lukasiewicz import (
    chi,
    dual_passage,
    ladder_decomp,
    max_drop,
    mrca,
    walk,
)
from .measures import PointMeasure, Stick, root_first_sum

__all__ = [
    "phi",
    "spine_height",
    "spine_states",
    "shifted_spine",
    "height_profile_arrays",
    "CheckTally",
    "IdentityReport",
    "verify_identities",
]


def phi(y: tuple[PointMeasure, ...], births: PointMeasure) -> tuple[PointMeasure, ...]:
    """One spine move: append a birth measure, or backtrack on a leaf."""
    if not births.is_zero:
        return y + (births,)
    k = len(y)
    while k and y[k - 1].mass == 1:
        k -= 1
    return y[: k - 1] + (y[k - 1].truncate_largest(1),) if k else ()


def spine_height(y: tuple[PointMeasure, ...]) -> float:
    """The spine's largest atoms summed root first: the birth time of its individual."""
    return root_first_sum(m.sup_support for m in y)


def spine_states(sticks: Sequence[Stick]) -> list[tuple[PointMeasure, ...]]:
    """All spines along the construction: entry n is individual n's."""
    return list(accumulate((s.births for s in sticks), phi, initial=()))


def shifted_spine(sticks: Sequence[Stick], m: int, n: int) -> tuple[PointMeasure, ...]:
    """Spine of n relative to the forest restarted at stick m.

    Runs the recursion on sticks m..n-1 from the empty spine; its
    ``spine_height`` is the height of n above the running minimum of the
    contour between the visits of m and n.
    """
    if not 0 <= m <= n <= len(sticks):
        raise ValueError(f"need 0 <= m <= n <= {len(sticks)}, got ({m}, {n})")
    return reduce(phi, (s.births for s in sticks[m:n]), ())


def height_profile_arrays(
    counts: np.ndarray, offsets: np.ndarray, ages: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Birth times and generations of individuals 0..n from flat arrays.

    ``ages`` holds each stick's birth ages in non-increasing order, stick k
    occupying ``ages[offsets[k]:offsets[k+1]]``; both arrays are those of
    ``forest.forest_arrays``.  Entry n is where stick n would be grafted,
    and every tree root is exactly 0.0.
    """
    forest = forest_arrays(counts, offsets, ages)
    return forest.heights, forest.depths


# --------------------------------------------------------------------------
# Identity verification


# Failure reproducers kept per identity; the tallies count every failure.
MAX_EXAMPLES = 3


@dataclass
class CheckTally:
    passes: int = 0
    failures: int = 0
    examples: list = field(default_factory=list)


@dataclass
class IdentityReport:
    """Per-identity pass/fail counts with minimal failure reproducers."""

    tallies: dict[str, CheckTally] = field(default_factory=dict)
    forests: int = 0
    pairs_checked: int = 0

    @property
    def ok(self) -> bool:
        return all(t.failures == 0 for t in self.tallies.values())

    def record(self, name: str, passed: bool, reproducer: Optional[dict] = None) -> None:
        tally = self.tallies.setdefault(name, CheckTally())
        if passed:
            tally.passes += 1
        else:
            tally.failures += 1
            if reproducer is not None and len(tally.examples) < MAX_EXAMPLES:
                tally.examples.append(reproducer)

    def merge(self, other: "IdentityReport") -> None:
        for name, t in other.tallies.items():
            mine = self.tallies.setdefault(name, CheckTally())
            mine.passes += t.passes
            mine.failures += t.failures
            for ex in t.examples:
                if len(mine.examples) < MAX_EXAMPLES:
                    mine.examples.append(ex)
        self.forests += other.forests
        self.pairs_checked += other.pairs_checked

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "forests": self.forests,
            "pairs_checked": self.pairs_checked,
            "checks": {
                name: {
                    "passes": t.passes,
                    "failures": t.failures,
                    "examples": t.examples,
                }
                for name, t in sorted(self.tallies.items())
            },
        }


class _Context:
    """Shared per-forest material for the identity checks."""

    def __init__(self, sticks: Sequence[Stick]):
        self.sticks = list(sticks)
        self.n_sticks = len(self.sticks)
        self.forest = graft_forest(self.sticks)
        self.batch = self.forest.batch
        self.path = contour_path(self.forest)
        self.w = walk(self.sticks)
        self.spines = spine_states(self.sticks)
        self.heights = self.forest.arrays.heights
        self.depths = self.forest.arrays.depths
        # rounding bound of the identities that subtract heights: a height
        # adds at most max-depth ages, each partial sum an ancestor's height
        depth, top = max(1, int(self.depths.max())), float(np.abs(self.heights).max())
        self.bound = depth * np.finfo(float).eps * top
        self._decomps: dict[int, object] = {}

    def decomp(self, j: int):
        if j not in self._decomps:
            self._decomps[j] = ladder_decomp(self.w, j)
        return self._decomps[j]

    def reproducer(self, **kw) -> dict:
        return {"sticks": self.batch.to_json(), **kw}


def _check_index(ctx: _Context, report: IdentityReport, j: int) -> None:
    dec = ctx.decomp(j)
    spine = ctx.spines[j]

    def rec(name: str, ok: bool, **kw) -> None:
        report.record(name, ok, None if ok else ctx.reproducer(n=j, check=name, **kw))

    rec(
        "depth-is-ladder-count",
        dec.height == len(spine) == int(ctx.depths[j]),
        detail=f"ladder={dec.height} spine={len(spine)} forest={int(ctx.depths[j])}",
    )
    rec(
        "height-is-ladder-age-sum",
        dec.height_sum() == spine_height(spine) == ctx.heights[j],
        detail=f"ladder={dec.height_sum()} spine={spine_height(spine)} forest={ctx.heights[j]}",
    )
    rec(
        "spine-equals-ladder-measures",
        tuple(reversed(dec.measures)) == spine,
    )
    if j < ctx.n_sticks:
        # the dual ladder epochs pick out the ancestors, parent first
        rec("ancestor-line-from-walk", [j] + dec.stick_indices == ctx.forest.ancestors(j))

    if dec.height:
        m0 = j - dec.times[0]
        i0 = dec.zetas[0]
        ok = 0 <= i0 < ctx.w.births[m0].mass and chi(ctx.w, m0, i0) == j
        rec("first-child-passage", ok, detail=f"m={m0} rank={i0}")
    else:
        rec("first-child-passage", True)

    # at k = height the base is the root, whose spine is empty: that splice
    # is spine-equals-ladder-measures
    for k in sorted({1, dec.height // 2} & set(range(1, dec.height))):
        base = j - dec.times[k - 1]
        rebuilt = ctx.spines[base] + tuple(reversed(dec.measures[:k]))
        rec(
            "spine-splice-at-ladder-epochs",
            rebuilt == spine,
            detail=f"k={k} base={base}",
        )


def _check_pair(ctx: _Context, report: IdentityReport, m: int, n: int) -> None:
    bound = ctx.bound
    sticks, w = ctx.sticks, ctx.w

    def rec(name: str, ok: bool, **kw) -> None:
        report.record(name, ok, None if ok else ctx.reproducer(m=m, n=n, check=name, **kw))

    dec_n = ctx.decomp(n)
    dec_m = ctx.decomp(m)
    shifted = shifted_spine(ctx.sticks, m, n)
    level = max_drop(w, m, n)
    r_walk = mrca(w, m, n)
    r_forest = ctx.forest.mrca(m, n) if n < ctx.n_sticks else None

    rec(
        "descent-level-literal",
        level == max(int(w.s[m] - w.s[m + k]) for k in range(n - m + 1)),
    )
    if n < ctx.n_sticks:
        rec("mrca-walk-matches-forest", r_walk == r_forest)
    rec("mrca-at-m-iff-no-drop", (r_walk == m) == (level == 0))

    c_weak = dec_n.count_upto(n - m)
    rec(
        "shifted-spine-from-ladder",
        tuple(reversed(dec_n.measures[:c_weak])) == shifted,
    )
    rec(
        "shifted-spine-is-height-drop",
        abs(spine_height(shifted) - (ctx.heights[n] - ctx.heights[m : n + 1].min())) <= bound,
    )

    k_strict = dec_n.first_epoch_at_or_after(n - m)
    if level > 0:
        passage = dual_passage(w, m, level)
        j_dual, mu_m = passage if passage is not None else (None, None)
        if r_walk is None:
            rec("mrca-from-ladder-epochs", k_strict is None and j_dual is None)
        else:
            ok = (
                k_strict is not None
                and j_dual is not None
                and n - dec_n.times[k_strict - 1] == r_walk == m - j_dual
            )
            rec("mrca-from-ladder-epochs", ok)
            if ok:
                rec("mrca-measure-both-routes", dec_n.measures[k_strict - 1] == mu_m)

    if r_walk is not None:
        above_mrca = (mu_m,) + shifted if level > 0 else shifted
        rec(
            "spine-splice-at-mrca",
            ctx.spines[r_walk] + above_mrca == ctx.spines[n],
        )
        if k_strict is not None:
            rec(
                "shifted-spine-at-mrca",
                tuple(reversed(dec_n.measures[:k_strict])) == above_mrca,
            )
        if level > 0 and r_walk < m:
            c_m = dec_m.count_upto(j_dual)
            rebuilt = ctx.spines[r_walk] + tuple(reversed(dec_m.measures[:c_m]))
            rec("spine-decomp-below-mrca", rebuilt == ctx.spines[m])

    drop = dec_m.D(level)
    rec(
        "height-difference-drop",
        abs((ctx.heights[n] - ctx.heights[m]) - (spine_height(shifted) - drop)) <= bound,
        detail=f"level={level} drop={drop}",
    )
    if n < ctx.n_sticks:
        visits = ctx.path.visit_times
        rec(
            "contour-min-via-drop",
            abs(ctx.path.min_on(visits[m], visits[n]) - (ctx.heights[m] - drop)) <= bound,
            detail=f"level={level} drop={drop}",
        )

    if m >= 1:
        gap = spine_height(shifted_spine(ctx.sticks, m - 1, n)) - spine_height(shifted)
        rec(
            "adjacent-shift-bound",
            -bound <= gap <= sticks[m - 1].births.sup_support + bound,
            detail=f"gap={gap}",
        )

    if n > m and m < ctx.n_sticks:
        x = chi(w, m)
        if x is None or n < x:
            dm = len(ctx.spines[m])
            rec(
                "subtree-preserves-spine-prefix",
                len(ctx.spines[n]) > dm and ctx.spines[n][:dm] == ctx.spines[m],
            )
        cnt = w.births[m].mass
        for k in sorted({0, cnt - 1}) if cnt else []:
            c = chi(w, m, k)
            if c is None or c > ctx.n_sticks:
                continue
            dm = len(ctx.spines[m])
            child_spine = ctx.spines[c]
            rec(
                "child-step-spine",
                len(child_spine) == dm + 1
                and child_spine[dm] == sticks[m].births.truncate_largest(k)
                and child_spine[:dm] == ctx.spines[m],
                detail=f"rank={k} child={c}",
            )


def _profile_checks(ctx: _Context, report: IdentityReport) -> None:
    kernel, graft = build_forest(ctx.batch).arrays, ctx.forest.arrays
    gen = build_forest(genealogical_map(ctx.sticks)).arrays
    checks = {
        "kernel-forest-matches-graft": all(np.array_equal(k, g) for k, g in zip(kernel, graft)),
        "genealogical-collapse-depth": np.array_equal(gen.heights.astype(np.int64), ctx.depths)
        and np.array_equal(gen.depths, ctx.depths),
    }
    for name, ok in checks.items():
        report.record(name, bool(ok), None if ok else ctx.reproducer(check=name))


def _gap_formula(ctx: _Context, vc2: np.ndarray, j0: int, raw_time: float) -> Optional[int]:
    """Result (2)'s index gap at ``raw_time``, rebuilt without the contour.

    The length time change (doubled length sums ``vc2``) passes ``raw_time``
    at j0.  The gap is the first offset d >= 0 at which the doubled extra
    length since j0 beats the height of the forest restarted at j0, minus
    the ladder ages at j0 recoverable below the running minimum of the
    restarted count walk, minus the length overshoot at j0; None if none.
    """
    b, s = ctx.batch, ctx.w.s
    tail = forest_arrays(b.counts[j0:], b.offsets[j0:] - b.offsets[j0], b.ages[b.offsets[j0] :])
    dec = ctx.decomp(j0)
    overshoot = vc2[j0] - raw_time
    run_min, drop = s[j0], 0.0
    for d, tail_height in enumerate(tail.heights):
        if s[j0 + d] < run_min:
            run_min = s[j0 + d]
            drop = dec.D(int(s[j0] - run_min))
        doubled_extra = vc2[j0 + d - 1] - vc2[j0] if d else -2.0 * b.v[j0]
        if doubled_extra - ctx.heights[j0] >= tail_height - drop - overshoot:
            return d
    return None


def _gap_checks(ctx: _Context, report: IdentityReport) -> None:
    """Result (2): the contour time change runs ahead of the length one by
    the index gap ``_gap_formula`` rebuilds, checked midway between the
    visits of j and j + 1, away from the ties at a visit time."""
    n, visits, name = ctx.n_sticks, ctx.path.visit_times, "time-change-gap-formula"
    vc2 = ctx.path.doubled_sums
    for j in sorted({0, n // 2, n - 1}) if n else []:
        raw_time = visits[j] / 2.0 + visits[j + 1] / 2.0  # halves: the sum may overflow
        j0 = int(np.searchsorted(vc2, raw_time, side="left"))
        direct = int(np.searchsorted(visits, raw_time, side="left")) - j0
        formula = _gap_formula(ctx, vc2, j0, raw_time)
        ok = formula == direct
        detail = f"direct={direct} formula={formula}"
        repro = None if ok else ctx.reproducer(raw_time=float(raw_time), check=name, detail=detail)
        report.record(name, ok, repro)


def _sample_pairs(
    n_sticks: int, max_pairs: int, rng: Optional[np.random.Generator]
) -> list[tuple[int, int]]:
    last = n_sticks - 1
    if n_sticks <= 0:
        return []
    if n_sticks <= 12 or max_pairs >= n_sticks * (n_sticks + 1) // 2:
        return [(m, n) for n in range(n_sticks) for m in range(n + 1)]
    if rng is None:
        rng = np.random.default_rng(0)
    pairs = {(0, 0), (0, last), (last, last), (last // 2, last // 2)}
    while len(pairs) < max_pairs:
        m, n = sorted(rng.integers(0, n_sticks, size=2).tolist())
        pairs.add((int(m), int(n)))
    return sorted(pairs)


def verify_identities(
    sticks: Sequence[Stick],
    *,
    pairs: Optional[Iterable[tuple[int, int]]] = None,
    max_pairs: int = 40,
    rng: Optional[np.random.Generator] = None,
) -> IdentityReport:
    """Cross-check the walk/ladder formulas against the literal forest.

    Every identity relating spines, ladder decompositions, first passages,
    common ancestors, the drop functional and the contour is evaluated on
    the given stick sequence: on all index pairs when there are at most 12
    sticks, otherwise on ``max_pairs`` sampled pairs (always including the
    corner cases m = n, m = 0 and the final index).  Every identity is
    exact but the four that subtract heights, which allow the forest's
    rounding bound ``max(1, max depth) * eps * max|heights|``.  Failures
    are recorded as data with a minimal reproducer; nothing raises.
    """
    report = IdentityReport()
    report.forests = 1
    ctx = _Context(sticks)
    if pairs is None:
        pair_list = _sample_pairs(ctx.n_sticks, max_pairs, rng)
    else:
        pair_list = sorted(set((int(m), int(n)) for m, n in pairs))
    _profile_checks(ctx, report)
    _gap_checks(ctx, report)
    for j in sorted({idx for mn in pair_list for idx in mn}):
        _check_index(ctx, report, j)
    for m, n in pair_list:
        _check_pair(ctx, report, m, n)
        report.pairs_checked += 1
    return report
