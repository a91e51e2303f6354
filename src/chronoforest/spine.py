"""Spine recursion, height/depth profiles, and the identity test-bench.

The spine of the n-th individual lists, ancestor by ancestor, the birth ages
that are still unexplored when n is grafted.  It evolves by one deterministic
move per stick:

* a stick with births appends its birth measure to the sequence (we step to
  its first, highest-born child next);
* a childless stick backtracks: every trailing ancestor holding a single
  remaining atom is exhausted and dropped, and the deepest ancestor holding
  at least two atoms loses its largest one (that atom was the birth age of
  the branch just closed; the next largest is where the next stick grafts).

The sequence's total of largest atoms is the birth time of n, its length the
generation of n.  ``phi``, ``spine_states`` and ``forest.graft_forest`` are
the literal oracles.  ``height_profile_arrays`` is the array kernel the
experiments run: it reads every birth time and generation off first passages
of the Lukasiewicz walk, with no per-stick step at all (each birth age
counts toward the individuals between its child and the end of that child's
subtree, two first passages of the walk).  It shares that computation,
``forest.first_passage_profile``, with ``forest.build_forest``.

``verify_identities`` cross-checks every walk/ladder
formula in :mod:`chronoforest.lukasiewicz`, and the kernel's forest, against
the literal grafting of :mod:`chronoforest.forest` on a single stick
sequence, and reports per-identity tallies with minimal reproducers instead
of raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .forest import (
    build_forest,
    first_passage_profile,
    genealogical_map,
    graft_forest,
    min_contour,
)
from .lukasiewicz import (
    chi,
    dual_passage_measure,
    dual_passage_time,
    ladder_decomp,
    max_drop,
    mrca,
    walk,
    ancestors_from_walk,
)
from .measures import EMPTY_SPINE, PointMeasure, SpineSeq, Stick, StickBatch

__all__ = [
    "phi",
    "spine_process",
    "spine_states",
    "shifted_spine",
    "height_profile",
    "height_profile_arrays",
    "CheckTally",
    "IdentityReport",
    "verify_identities",
]


def phi(y: SpineSeq, births: PointMeasure) -> SpineSeq:
    """One spine move: append a birth measure, or backtrack on a leaf."""
    if not births.is_zero:
        return SpineSeq(y.elements + (births,))
    elems = y.elements
    k = len(elems)
    while k and elems[k - 1].mass == 1:
        k -= 1
    if k == 0:
        return EMPTY_SPINE
    return SpineSeq(elems[: k - 1] + (elems[k - 1].truncate_largest(1),))


def spine_process(sticks: Sequence[Stick], n: Optional[int] = None) -> SpineSeq:
    """Spine sequence of individual n (default: one past the last stick).

    Its ``sup_support`` is n's birth time and its ``length`` n's generation.
    """
    if n is None:
        n = len(sticks)
    if not 0 <= n <= len(sticks):
        raise ValueError(f"need 0 <= n <= {len(sticks)}, got {n}")
    y = EMPTY_SPINE
    for i in range(n):
        y = phi(y, sticks[i].births)
    return y


def spine_states(sticks: Sequence[Stick]) -> list[SpineSeq]:
    """All spine sequences along the construction: entry n is individual n's."""
    out = [EMPTY_SPINE]
    y = EMPTY_SPINE
    for s in sticks:
        y = phi(y, s.births)
        out.append(y)
    return out


def shifted_spine(sticks: Sequence[Stick], m: int, n: int) -> SpineSeq:
    """Spine of n relative to the forest restarted at stick m.

    Runs the recursion on sticks m..n-1 from the empty sequence; its total
    of largest atoms is the height of n above the running minimum of the
    contour between the visits of m and n.
    """
    if not 0 <= m <= n <= len(sticks):
        raise ValueError(f"need 0 <= m <= n <= {len(sticks)}, got ({m}, {n})")
    y = EMPTY_SPINE
    for i in range(m, n):
        y = phi(y, sticks[i].births)
    return y


def height_profile_arrays(
    counts: np.ndarray, offsets: np.ndarray, ages: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Birth times and generations of individuals 0..n from flat arrays.

    ``ages`` holds each stick's birth ages in non-increasing order, stick k
    occupying ``ages[offsets[k]:offsets[k+1]]``; every birth time and
    generation is read off first passages of the walk (see
    ``forest.first_passage_profile``).  Entry n is where stick n would be
    grafted, and every tree root is exactly 0.0.  O((n + atoms) log n).
    """
    heights, depths, _, _ = first_passage_profile(counts, offsets, ages)
    return heights, depths


def height_profile(sticks: Sequence[Stick]) -> tuple[np.ndarray, np.ndarray]:
    """Birth times and generations of individuals 0..n for a stick sequence."""
    batch = StickBatch.from_sticks(sticks)
    return height_profile_arrays(batch.counts, batch.offsets, batch.ages)


# --------------------------------------------------------------------------
# Identity verification


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
    max_examples: int = 3

    @property
    def ok(self) -> bool:
        return all(t.failures == 0 for t in self.tallies.values())

    def record(self, name: str, passed: bool, reproducer: Optional[dict] = None) -> None:
        tally = self.tallies.setdefault(name, CheckTally())
        if passed:
            tally.passes += 1
        else:
            tally.failures += 1
            if reproducer is not None and len(tally.examples) < self.max_examples:
                tally.examples.append(reproducer)

    def merge(self, other: "IdentityReport") -> None:
        for name, t in other.tallies.items():
            mine = self.tallies.setdefault(name, CheckTally())
            mine.passes += t.passes
            mine.failures += t.failures
            for ex in t.examples:
                if len(mine.examples) < self.max_examples:
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

    def __init__(self, sticks: Sequence[Stick], tol: float):
        self.sticks = list(sticks)
        self.n_sticks = len(self.sticks)
        self.tol = tol
        self.forest = graft_forest(self.sticks)
        self.batch = self.forest.batch
        self.w = walk(self.sticks)
        self.spines = spine_states(self.sticks)
        self.heights = self.forest.birth_times()
        self.depths = self.forest.depths()
        self._decomps: dict[int, object] = {}
        self._shifted: dict[tuple[int, int], SpineSeq] = {}

    def decomp(self, j: int):
        if j not in self._decomps:
            self._decomps[j] = ladder_decomp(self.sticks, j)
        return self._decomps[j]

    def shifted(self, m: int, n: int) -> SpineSeq:
        key = (m, n)
        if key not in self._shifted:
            self._shifted[key] = shifted_spine(self.sticks, m, n)
        return self._shifted[key]

    def reproducer(self, **kw) -> dict:
        out = {"sticks": [s.to_json() for s in self.sticks]}
        out.update(kw)
        return out


def _seq_close(a: SpineSeq, b: SpineSeq, tol: float) -> bool:
    return a.isclose(b, tol)


def _check_index(ctx: _Context, report: IdentityReport, j: int) -> None:
    tol = ctx.tol
    dec = ctx.decomp(j)
    spine = ctx.spines[j]

    def rec(name: str, ok: bool, **kw) -> None:
        report.record(name, ok, None if ok else ctx.reproducer(n=j, check=name, **kw))

    rec(
        "depth-is-ladder-count",
        dec.height == spine.length == int(ctx.depths[j]),
        detail=f"ladder={dec.height} spine={spine.length} forest={int(ctx.depths[j])}",
    )
    rec(
        "height-is-ladder-age-sum",
        abs(dec.height_sum() - spine.sup_support) <= tol
        and abs(spine.sup_support - ctx.heights[j]) <= tol,
        detail=f"ladder={dec.height_sum()} spine={spine.sup_support} forest={ctx.heights[j]}",
    )
    rec(
        "spine-equals-ladder-measures",
        _seq_close(SpineSeq(tuple(reversed(dec.measures))), spine, tol),
    )
    if j < ctx.n_sticks:
        rec(
            "ancestor-line-from-walk",
            ancestors_from_walk(ctx.w, j) == ctx.forest.ancestors(j),
        )

    if dec.height:
        m0 = j - dec.times[0]
        i0 = dec.zetas[0]
        ok = 0 <= i0 < ctx.w.counts[m0] and chi(ctx.w, m0, i0) == j
        rec("first-child-passage", ok, detail=f"m={m0} rank={i0}")
    else:
        rec("first-child-passage", True)

    for k in sorted({1, dec.height, max(1, dec.height // 2)} & set(range(1, dec.height + 1))):
        base = j - dec.times[k - 1]
        rebuilt = SpineSeq(ctx.spines[base].elements + tuple(reversed(dec.measures[:k])))
        rec(
            "spine-splice-at-ladder-epochs",
            _seq_close(rebuilt, spine, tol),
            detail=f"k={k} base={base}",
        )


def _check_pair(ctx: _Context, report: IdentityReport, m: int, n: int) -> None:
    tol = ctx.tol
    sticks, w = ctx.sticks, ctx.w

    def rec(name: str, ok: bool, **kw) -> None:
        report.record(name, ok, None if ok else ctx.reproducer(m=m, n=n, check=name, **kw))

    dec_n = ctx.decomp(n)
    dec_m = ctx.decomp(m)
    shifted = ctx.shifted(m, n)
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
        _seq_close(SpineSeq(tuple(reversed(dec_n.measures[:c_weak]))), shifted, tol),
    )
    rec(
        "shifted-spine-age-sum",
        abs(shifted.sup_support - math.fsum(dec_n.ages[:c_weak])) <= tol,
    )
    rec(
        "shifted-spine-is-height-drop",
        abs(shifted.sup_support - (ctx.heights[n] - ctx.heights[m : n + 1].min())) <= tol,
    )

    if level > 0:
        k_strict = dec_n.first_epoch_at_or_after(n - m)
        j_dual = dual_passage_time(w, m, level)
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
                mu_m = dual_passage_measure(sticks, w, m, level)
                rec(
                    "mrca-measure-both-routes",
                    mu_m is not None
                    and dec_n.measures[k_strict - 1].isclose(mu_m, tol),
                )

    if r_walk is not None:
        parts = ctx.spines[r_walk].elements
        if level > 0:
            mu_m = dual_passage_measure(sticks, w, m, level)
            parts = parts + (mu_m,)
        rec(
            "spine-splice-at-mrca",
            _seq_close(SpineSeq(parts + shifted.elements), ctx.spines[n], tol),
        )
        k_strict = dec_n.first_epoch_at_or_after(n - m)
        if k_strict is not None:
            above_mrca = (
                SpineSeq((dual_passage_measure(sticks, w, m, level),) + shifted.elements)
                if level > 0
                else shifted
            )
            rec(
                "shifted-spine-at-mrca",
                _seq_close(
                    SpineSeq(tuple(reversed(dec_n.measures[:k_strict]))), above_mrca, tol
                ),
            )
        if level > 0 and r_walk < m:
            j_dual = dual_passage_time(w, m, level)
            c_m = dec_m.count_upto(j_dual)
            rebuilt = SpineSeq(
                ctx.spines[r_walk].elements + tuple(reversed(dec_m.measures[:c_m]))
            )
            rec("spine-decomp-below-mrca", _seq_close(rebuilt, ctx.spines[m], tol))

    drop = dec_m.D(level, sticks)
    rec(
        "height-difference-drop",
        abs((ctx.heights[n] - ctx.heights[m]) - (shifted.sup_support - drop)) <= tol,
        detail=f"level={level} drop={drop}",
    )
    if n < ctx.n_sticks:
        rec(
            "contour-min-via-drop",
            abs(min_contour(ctx.forest, m, n) - (ctx.heights[m] - drop)) <= tol,
            detail=f"level={level} drop={drop}",
        )

    if m >= 1:
        gap = ctx.shifted(m - 1, n).sup_support - shifted.sup_support
        rec(
            "adjacent-shift-bound",
            -tol <= gap <= sticks[m - 1].births.sup_support + tol,
            detail=f"gap={gap}",
        )

    if n > m and m < ctx.n_sticks:
        x = chi(w, m)
        if x is None or n < x:
            dm = ctx.spines[m].length
            rec(
                "subtree-preserves-spine-prefix",
                ctx.spines[n].length > dm
                and _seq_close(SpineSeq(ctx.spines[n].elements[:dm]), ctx.spines[m], tol),
            )
        cnt = w.counts[m]
        for k in sorted({0, cnt - 1}) if cnt else []:
            c = chi(w, m, k)
            if c is None or c > ctx.n_sticks:
                continue
            dm = ctx.spines[m].length
            child_spine = ctx.spines[c]
            rec(
                "child-step-spine",
                child_spine.length == dm + 1
                and child_spine.elements[dm].isclose(
                    sticks[m].births.truncate_largest(k), tol
                )
                and _seq_close(SpineSeq(child_spine.elements[:dm]), ctx.spines[m], tol),
                detail=f"rank={k} child={c}",
            )


def _profile_checks(ctx: _Context, report: IdentityReport) -> None:
    batch = ctx.batch
    h_fast, d_fast = height_profile_arrays(batch.counts, batch.offsets, batch.ages)
    ok = bool(
        np.allclose(h_fast, ctx.heights, atol=ctx.tol, rtol=0.0)
        and np.array_equal(d_fast, ctx.depths)
    )
    report.record(
        "kernel-profile-matches-forest",
        ok,
        None if ok else ctx.reproducer(check="kernel-profile-matches-forest"),
    )
    kernel, graft = build_forest(batch).arrays, ctx.forest.arrays
    ok = bool(
        np.array_equal(kernel.parent, graft.parent)
        and np.array_equal(kernel.birth_age, graft.birth_age)
        and np.array_equal(kernel.depths, graft.depths)
        and np.array_equal(kernel.tree_id, graft.tree_id)
        and kernel.pending_stubs == graft.pending_stubs
        and np.allclose(kernel.heights, graft.heights, atol=ctx.tol, rtol=0.0)
    )
    report.record(
        "kernel-forest-matches-graft",
        ok,
        None if ok else ctx.reproducer(check="kernel-forest-matches-graft"),
    )
    h_gen, d_gen = height_profile(genealogical_map(ctx.sticks))
    ok = bool(
        np.array_equal(h_gen.astype(np.int64), ctx.depths) and np.array_equal(d_gen, ctx.depths)
    )
    report.record(
        "genealogical-collapse-depth",
        ok,
        None if ok else ctx.reproducer(check="genealogical-collapse-depth"),
    )


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
    tol: float = 1e-9,
) -> IdentityReport:
    """Cross-check the walk/ladder formulas against the literal forest.

    Every identity relating spines, ladder decompositions, first passages,
    common ancestors, the drop functional and the contour is evaluated on
    the given stick sequence: on all index pairs when there are at most 12
    sticks, otherwise on ``max_pairs`` sampled pairs (always including the
    corner cases m = n, m = 0 and the final index).  Failures are recorded
    as data with a minimal reproducer; nothing raises.
    """
    report = IdentityReport()
    report.forests = 1
    ctx = _Context(sticks, tol)
    if pairs is None:
        pair_list = _sample_pairs(ctx.n_sticks, max_pairs, rng)
    else:
        pair_list = sorted(set((int(m), int(n)) for m, n in pairs))
    _profile_checks(ctx, report)
    for j in sorted({idx for mn in pair_list for idx in mn}):
        _check_index(ctx, report, j)
    for m, n in pair_list:
        _check_pair(ctx, report, m, n)
        report.pairs_checked += 1
    return report
