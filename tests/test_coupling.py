"""Coupled pair of stationary renewal walks and the agreement event."""

import dataclasses
import math
from typing import Optional

import numpy as np
import pytest

from chronoforest.measures import PointMeasure
from chronoforest.stochastic import (
    ExponentialUniformLaw,
    GaltonWatsonUnitLaw,
    GeometricUniformLaw,
    StickLaw,
    run_coupling,
    run_coupling_many,
    summarize_coupling,
)
from chronoforest.stochastic.coupling import CouplingResult
from chronoforest.stochastic.renewal import sample_vhat

# -- the literal replay: one stream element and one PointMeasure at a time --


class _Stream:
    """Lazy i.i.d. stream of (sign, doubled life length, mark)."""

    def __init__(self, law: StickLaw, rng: np.random.Generator, block: int = 256):
        self.law = law
        self.rng = rng
        self.block = block
        self._batch = None
        self._signs = None
        self._pos = 0
        self.used = 0

    def next(self) -> tuple[int, float, PointMeasure]:
        if self._batch is None or self._pos >= self._batch.n:
            self._batch = self.law.sample_batch(self.rng, self.block)
            self._signs = self.rng.integers(0, 2, self.block) * 2 - 1
            self._pos = 0
        i = self._pos
        self._pos += 1
        self.used += 1
        return int(self._signs[i]), 2.0 * float(self._batch.v[i]), self._batch.measure(i)


class _Walk:
    """One marked walk: values plus the (step, mark) history."""

    def __init__(self, start: float):
        self.values = [start]
        self.steps: list[float] = []
        self.marks: list[PointMeasure] = []
        self.running_max = start
        self.crossing: Optional[int] = None  # first index with value >= t
        self.crossing_element: Optional[int] = None  # its stream element

    def push(self, xi: float, mark: PointMeasure, t: float, element: int) -> None:
        val = self.values[-1] + xi
        self.values.append(val)
        self.steps.append(xi)
        self.marks.append(mark)
        if val > self.running_max:
            self.running_max = val
        if self.crossing is None and val >= t:
            self.crossing = len(self.values) - 1
            self.crossing_element = element


def literal_coupling(law, eps, t, m, rng, meet_budget, walk_budget):
    """Reference replica, element by element; returns the result, the
    number of stream elements it read and the stream elements at which the
    two walks crossed t."""
    alpha = 2.0 * float(law.life.sample(rng, 1)[0])
    alpha_prime = 2.0 * float(sample_vhat(law, rng, 1)[0])
    walk = _Walk(alpha)
    walk_prime = _Walk(alpha_prime)
    stream = _Stream(law, rng)

    diff = alpha_prime - alpha
    meet = None
    k = 0
    if 0.0 <= diff <= eps:
        meet = 0
    while meet is None and k < meet_budget:
        sign, xi, mark = stream.next()
        k += 1
        diff -= sign * xi
        if sign > 0:
            walk.push(xi, mark, t, stream.used - 1)
        else:
            walk_prime.push(xi, mark, t, stream.used - 1)
        if 0.0 <= diff <= eps:
            meet = k
    result = CouplingResult(
        status="undecided", eps=eps, t=t, m=m, alpha=alpha, alpha_prime=alpha_prime
    )

    def replay():
        return result, stream.used, (walk.crossing_element, walk_prime.crossing_element)

    if meet is None:
        result.undecided_reason = "meet_budget"
        return replay()

    result.meet_time = meet
    result.sigma = len(walk.steps)
    result.sigma_prime = len(walk_prime.steps)
    result.offset = diff
    result.gamma = max(walk.running_max, walk_prime.running_max)

    k = 0
    while (walk.crossing is None or walk_prime.crossing is None) and k < walk_budget:
        sign, xi, mark = stream.next()
        k += 1
        if sign > 0:
            walk.push(xi, mark, t, stream.used - 1)
            walk_prime.push(xi, mark, t, stream.used - 1)
    if walk.crossing is None or walk_prime.crossing is None:
        result.undecided_reason = "walk_budget"
        return replay()

    result.psi = walk.crossing
    result.psi_prime = walk_prime.crossing
    if walk.steps:
        result.first_step = walk.steps[0]
    if walk_prime.steps:
        result.first_step_prime = walk_prime.steps[0]

    event = (
        result.gamma < t
        and result.psi > result.sigma + m
        and walk_prime.values[result.psi_prime] >= t + 2.0 * eps
    )
    if not event:
        result.status = "no_event"
        return replay()

    mismatches = []
    for back in range(m + 1):
        i = result.psi - 1 - back
        j = result.psi_prime - 1 - back
        if j < 0:
            mismatches.append({"back": back, "reason": "second walk too short"})
            continue
        ok_step = walk.steps[i] == walk_prime.steps[j]
        ok_mark = walk.marks[i] == walk_prime.marks[j]
        if not (ok_step and ok_mark):
            mismatches.append(
                {"back": back, "step": (walk.steps[i], walk_prime.steps[j]), "marks_equal": ok_mark}
            )
    result.mismatches = mismatches
    result.status = "held" if not mismatches else "violated"
    return replay()


def _same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return type(a) is type(b) and a == b


# law, eps, t, m, meet budget, walk budget, replicas
ORACLE_CASES = {
    "gw": (GaltonWatsonUnitLaw(1.0), 0.0, 16.0, 3, 20_000, 20_000, 150),
    "exp-uniform": (ExponentialUniformLaw(rate=1.0), 0.5, 16.0, 3, 20_000, 20_000, 150),
    "tiny-budgets": (GeometricUniformLaw(mean_offspring=1.0, v=1.0), 0.0, 50.0, 2, 3, 3, 60),
    "no-walk-budget": (ExponentialUniformLaw(rate=1.0), 0.5, 16.0, 3, 20_000, 0, 60),
    "meet-at-start": (ExponentialUniformLaw(rate=1.0), 50.0, 16.0, 3, 20_000, 20_000, 60),
    "start-above-t": (GaltonWatsonUnitLaw(1.0), 0.0, 1.0, 3, 20_000, 20_000, 60),
    "m-zero": (ExponentialUniformLaw(rate=1.0), 0.5, 8.0, 0, 20_000, 20_000, 100),
    "mid-block-budgets": (GaltonWatsonUnitLaw(1.0), 0.0, 400.0, 3, 600, 410, 150),
    # walks a few elements apart cross t near the end of the first block
    "crossings-apart": (ExponentialUniformLaw(rate=1.0), 4.0, 240.0, 3, 200, 20_000, 600),
}

# each case's seed; a new case takes a seed of its own, so that adding it
# changes no other case's replicas
ORACLE_SEEDS = {
    "exp-uniform": 0,
    "gw": 1,
    "m-zero": 2,
    "meet-at-start": 3,
    "mid-block-budgets": 4,
    "no-walk-budget": 5,
    "start-above-t": 6,
    "tiny-budgets": 7,
    "crossings-apart": 8,
}


def _late_meeting_after_a_crossing(r) -> bool:
    return r.meet_time is not None and r.meet_time > 256 and r.gamma >= r.t


def _crossings_in_two_post_meeting_blocks(r, crossed) -> bool:
    e, e_prime = crossed
    return (
        e is not None
        and e_prime is not None
        and min(e, e_prime) >= r.meet_time
        and e // 256 != e_prime // 256
    )


# what each case must actually reach, given the results, the number of
# stream elements each replica read, and the elements where its walks crossed
ORACLE_COVERS = {
    "gw": lambda rs, used, crossed: (
        any(r.status == "held" for r in rs)
        and max(used) > 2 * 256
        and any(_late_meeting_after_a_crossing(r) for r in rs)
    ),
    "exp-uniform": lambda rs, used, crossed: any(r.status == "held" for r in rs) and max(used) > 2 * 256,
    "tiny-budgets": lambda rs, used, crossed: any(r.status == "undecided" for r in rs),
    "no-walk-budget": lambda rs, used, crossed: any(r.undecided_reason == "walk_budget" for r in rs),
    "meet-at-start": lambda rs, used, crossed: any(r.meet_time == 0 for r in rs),
    "start-above-t": lambda rs, used, crossed: any(r.psi is not None for r in rs),
    "m-zero": lambda rs, used, crossed: any(r.status == "held" for r in rs),
    "mid-block-budgets": lambda rs, used, crossed: (
        {r.undecided_reason for r, u in zip(rs, used) if u % 256} >= {"meet_budget", "walk_budget"}
        and max(used) > 2 * 256
    ),
    "crossings-apart": lambda rs, used, crossed: any(
        _crossings_in_two_post_meeting_blocks(r, c) for r, c in zip(rs, crossed)
    ),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_block_replay_matches_literal_replay(case):
    law, eps, t, m, meet_budget, walk_budget, n = ORACLE_CASES[case]
    seed = np.random.SeedSequence([2024, ORACLE_SEEDS[case]])
    rng_fast, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    results, used, crossed = [], [], []
    for _ in range(n):
        got = run_coupling(law, eps, t, m, rng_fast, meet_budget, walk_budget)
        want, elements, crossings = literal_coupling(law, eps, t, m, rng_ref, meet_budget, walk_budget)
        for f in dataclasses.fields(CouplingResult):
            a, b = getattr(got, f.name), getattr(want, f.name)
            assert _same(a, b), (case, f.name, a, b)
        results.append(want)
        used.append(elements)
        crossed.append(crossings)
    # both replays drew the same blocks, so the generators are still in lockstep
    assert rng_fast.random() == rng_ref.random()
    assert ORACLE_COVERS[case](results, used, crossed)


def test_unit_lattice_coupling_never_violates(rng):
    law = GaltonWatsonUnitLaw(1.0)
    results = run_coupling_many(law, 0.0, 12.0, 3, rng, 300)
    summary = summarize_coupling(results)
    assert summary["replicas"] == 300
    assert summary["violated"] == 0
    assert summary["held"] > 0


def test_nonarithmetic_coupling_never_violates(rng):
    law = ExponentialUniformLaw(rate=1.0)
    results = run_coupling_many(
        law, 0.5, 10.0, 3, rng, 300, meet_budget=20_000, walk_budget=20_000
    )
    summary = summarize_coupling(results)
    assert summary["violated"] == 0
    assert summary["held"] > 0
    for r in results:
        if r.status == "violated":
            raise AssertionError(r.mismatches)


def test_coupling_alignment_invariants(rng):
    # After the walks meet, both consume the same plus-signed stream, so the
    # crossing indices stay in lockstep and the residual gap is within eps.
    law = GaltonWatsonUnitLaw(1.0)
    held = [r for r in run_coupling_many(law, 0.0, 12.0, 3, rng, 400) if r.status == "held"]
    assert held
    for r in held:
        assert r.sigma + r.sigma_prime == r.meet_time
        assert r.psi - r.sigma == r.psi_prime - r.sigma_prime
        assert 0.0 <= r.offset <= r.eps + 1e-12
        assert r.event


def test_unit_lattice_marginals(rng):
    # With V identically 1, the age pair is degenerate: the time-zero stick
    # of the stationary walk contributes 2V = 2 and its twin starts fresh.
    law = GaltonWatsonUnitLaw(1.0)
    results = run_coupling_many(law, 0.0, 8.0, 2, rng, 200)
    for r in results:
        assert r.alpha == 2.0
        assert r.alpha_prime == 0.0
        if not np.isnan(r.first_step):
            assert r.first_step == 2.0


def test_exponential_marginals(rng):
    from scipy.stats import expon, kstest

    # Memorylessness: both the length-biased age 2V and the overshoot 2Vhat
    # are Exp(scale = 2/rate) for exponential life lengths.
    law = ExponentialUniformLaw(rate=1.0)
    results = run_coupling_many(
        law, 0.5, 6.0, 2, rng, 600, meet_budget=5_000, walk_budget=5_000
    )
    alpha = np.array([r.alpha for r in results])
    alpha_prime = np.array([r.alpha_prime for r in results])
    assert kstest(alpha, expon(scale=2.0).cdf).pvalue > 0.01
    assert kstest(alpha_prime, expon(scale=2.0).cdf).pvalue > 0.01


def test_eps_zero_requires_lattice(rng):
    with pytest.raises(ValueError):
        run_coupling(ExponentialUniformLaw(rate=1.0), 0.0, 4.0, 1, rng)
    with pytest.raises(ValueError):
        run_coupling(GaltonWatsonUnitLaw(1.0), -0.5, 4.0, 1, rng)
    for law, eps, t, m in (
        (ExponentialUniformLaw(rate=1.0), 0.0, 4.0, 1),
        (GaltonWatsonUnitLaw(1.0), -0.5, 4.0, 1),
        (GaltonWatsonUnitLaw(1.0), 0.0, -5.0, 1),
        (GaltonWatsonUnitLaw(1.0), 0.0, 4.0, -1),
    ):
        with pytest.raises(ValueError):
            run_coupling_many(law, eps, t, m, rng, 0)


def test_tiny_budget_yields_undecided(rng):
    law = GeometricUniformLaw(mean_offspring=1.0, v=1.0)
    results = run_coupling_many(law, 0.0, 50.0, 2, rng, 60, meet_budget=3, walk_budget=3)
    statuses = {r.status for r in results}
    assert statuses <= {"undecided", "no_event", "held", "violated"}
    assert "undecided" in statuses
    assert not any(r.status == "violated" for r in results)


def test_summary_counts_are_consistent(rng):
    law = GaltonWatsonUnitLaw(1.0)
    results = run_coupling_many(law, 0.0, 10.0, 2, rng, 120)
    s = summarize_coupling(results)
    assert s["held"] + s["violated"] + s["no_event"] + s["undecided"] == s["replicas"]
    assert s["event_rate"] == pytest.approx((s["held"] + s["violated"]) / s["replicas"])


def test_undecided_reason_names_the_budget(rng):
    law = GaltonWatsonUnitLaw(1.0)
    # GW starts at a gap of -2, so no budget at all cannot meet
    no_meet = run_coupling_many(law, 0.0, 16.0, 3, rng, 20, meet_budget=0, walk_budget=0)
    assert {r.undecided_reason for r in no_meet} == {"meet_budget"}
    # the walks need a few hundred steps to reach 400; 5 are not enough
    results = run_coupling_many(law, 0.0, 400.0, 3, rng, 60, meet_budget=5, walk_budget=5)
    reasons = {r.undecided_reason for r in results}
    assert reasons == {"meet_budget", "walk_budget"}
    for r in results:
        assert r.status == "undecided"
        assert r.event is None
        assert (r.meet_time is None) == (r.undecided_reason == "meet_budget")
    decided = run_coupling_many(law, 0.0, 16.0, 3, rng, 60, meet_budget=20_000, walk_budget=20_000)
    assert all(r.undecided_reason is None for r in decided if r.status != "undecided")
    s = summarize_coupling(results + no_meet + decided)
    assert s["undecided_meet_budget"] + s["undecided_walk_budget"] == s["undecided"]
    assert s["undecided_meet_budget"] >= 20
    assert s["undecided_walk_budget"] > 0


@pytest.mark.parametrize(
    "eps, t, meet_budget, walk_budget",
    [
        (float("nan"), 4.0, 10, 10),
        (0.5, float("nan"), 10, 10),
        (float("inf"), 4.0, 10, 10),
        (0.5, float("inf"), 10, 10),
        (0.5, 4.0, -1, 10),
        (0.5, 4.0, 10, -5),
    ],
)
def test_rejects_non_finite_levels_and_negative_budgets(rng, eps, t, meet_budget, walk_budget):
    law = ExponentialUniformLaw(rate=1.0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError):
        run_coupling(law, eps, t, 1, rng, meet_budget=meet_budget, walk_budget=walk_budget)
    assert rng.bit_generator.state == state  # rejected before any draw
    # with no replicas to run, the arguments are still checked
    with pytest.raises(ValueError):
        run_coupling_many(law, eps, t, 1, rng, 0, meet_budget=meet_budget, walk_budget=walk_budget)
    assert rng.bit_generator.state == state


def test_walks_are_summed_once_before_the_meeting_and_never_past_their_crossing(monkeypatch, rng):
    from chronoforest.stochastic import coupling

    walks, pushes = [], []
    init, push = coupling._WalkState.__init__, coupling._WalkState.push

    def recording_init(self, start):
        init(self, start)
        walks.append(self)

    def counting_push(self, steps, t):
        n, crossed = self.n, self.crossing is not None
        push(self, steps, t)
        pushes.append((self, n, self.n, crossed))

    monkeypatch.setattr(coupling._WalkState, "__init__", recording_init)
    monkeypatch.setattr(coupling._WalkState, "push", counting_push)
    seen = set()
    for law, eps in ((GaltonWatsonUnitLaw(1.0), 0.0), (ExponentialUniformLaw(rate=1.0), 0.5)):
        for _ in range(150):
            walks.clear()
            pushes.clear()
            r = run_coupling(law, eps, 16.0, 3, rng, meet_budget=600, walk_budget=20_000)
            assert not any(crossed for *_, crossed in pushes)
            if r.undecided_reason == "meet_budget":
                assert pushes == []
                seen.add("no meeting")
                continue
            if r.meet_time == 0:
                continue
            # the first push of each walk takes all its pre-meeting steps,
            # and every later one starts after them
            sigmas = (r.sigma, r.sigma_prime)
            for walk, sigma in zip(walks, sigmas):
                counts = [(n, n_after) for w, n, n_after, _ in pushes if w is walk]
                assert counts[0] == (0, sigma)
                assert all(n >= sigma for n, _ in counts[1:])
            if r.meet_time > 256:
                seen.add("meeting after the first block")
            early = [w.crossing is not None and w.crossing <= s for w, s in zip(walks, sigmas)]
            if early[0] != early[1]:
                seen.add("one walk crossed before the meeting, the other after")
    assert seen == {
        "no meeting",
        "meeting after the first block",
        "one walk crossed before the meeting, the other after",
    }


def test_only_blocks_whose_marks_are_read_are_laid_out(monkeypatch, rng):
    from chronoforest.stochastic import coupling

    draws, layouts, marked = [], [], []
    draw, layout, mark = StickLaw.draw, StickLaw.layout, coupling._Blocks.mark

    def counting_draw(self, rng, n):
        draws.append(n)
        return draw(self, rng, n)

    def counting_layout(self, counts, v, ages):
        layouts.append(len(counts))
        return layout(self, counts, v, ages)

    def recording_mark(self, e):
        marked.append(e)
        return mark(self, e)

    monkeypatch.setattr(StickLaw, "draw", counting_draw)
    monkeypatch.setattr(StickLaw, "layout", counting_layout)
    monkeypatch.setattr(coupling._Blocks, "mark", recording_mark)
    m, seen = 3, set()
    for law, eps in ((GaltonWatsonUnitLaw(1.0), 0.0), (ExponentialUniformLaw(rate=1.0), 0.5)):
        for _ in range(150):
            draws.clear()
            layouts.clear()
            marked.clear()
            r = run_coupling(law, eps, 16.0, m, rng, meet_budget=600, walk_budget=20_000)
            seen.add(r.undecided_reason or r.status)
            # a block is laid out once, on the first read of one of its marks
            assert len(layouts) == len({e // 256 for e in marked}) <= len(draws)
            if r.status == "held":
                assert len(marked) == 2 * (m + 1)
            elif r.status != "violated":
                assert layouts == [] and marked == []
            if r.undecided_reason == "meet_budget":
                assert len(draws) == 3  # 600 elements drawn, none laid out
    assert seen >= {"meet_budget", "held", "no_event"}


def test_a_changed_mark_is_a_recorded_violation(monkeypatch):
    # the first compared mark gets one extra atom: the first replica that
    # reaches its event turns from held to violated at back 0, and no other
    # replica changes (laying a block out draws nothing)
    from chronoforest.stochastic import coupling

    law = GaltonWatsonUnitLaw(1.0)

    def replay():
        return run_coupling_many(law, 0.0, 16.0, 3, np.random.default_rng(2417), 20)

    honest = replay()
    first = next(i for i, r in enumerate(honest) if r.event)
    assert honest[first].status == "held"
    mark, changed = coupling._Blocks.mark, []

    def changed_once(self, e):
        out = mark(self, e)
        if not changed:
            changed.append(e)
            out = np.append(out, -1.0)
        return out

    monkeypatch.setattr(coupling._Blocks, "mark", changed_once)
    results = replay()
    assert [r.status for r in results] == [
        "violated" if i == first else r.status for i, r in enumerate(honest)
    ]
    assert results[first].mismatches == [{"back": 0, "step": (2.0, 2.0), "marks_equal": False}]
    summary = summarize_coupling(results)
    assert summary["violated"] == 1
    assert summary["held"] == summarize_coupling(honest)["held"] - 1
