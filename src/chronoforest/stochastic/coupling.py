"""Coupling of the doubled life-length walk with its stationary shift.

Two marked renewal walks are built from one stream of sticks and one
stream of fair signs.  The first walk starts at a doubled life length
2V, the second at a doubled stationary overshoot; each stream element
carries the doubled life length 2V as step size and the stick's birth
measure as mark.  Until the signed difference walk first enters [0, eps],
the plus signs feed the first walk and the minus signs feed the second;
afterwards plus-signed elements feed both.

On the event that (i) neither walk has passed level t using pre-meeting
steps only, and (ii) the second walk clears t + 2 eps at its crossing,
the last m + 1 steps before the two crossings must agree exactly -- same
step sizes, same marks -- because from the meeting time on the walks are
parallel with offset inside [0, eps].  ``run_coupling`` replays one
replica block by block.  Until the meeting, a block is one cumsum of the
difference walk, which alone decides when to stop drawing; at the meeting
each walk sums all its pre-meeting steps at once, and a replica that never
meets sums no walk at all.  After the meeting, a block's plus-signed steps
are summed by each walk that has not yet crossed t.  A cumsum is a left
fold, so one sum over a run of steps gives the same floats as step by
step.  The step/mark check stays literal: it compares the step sizes and
the flat age slices of the stream elements behind the last m + 1 steps.
Only that check reads marks, so a block keeps its stick draw as drawn and
is laid out (its ages arranged and its ``StickBatch`` checked) the first
time one of its marks is read: a replica that ends undecided or without
the event lays out no block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..measures import StickBatch
from .laws import StickLaw
from .renewal import sample_vhat

__all__ = ["CouplingResult", "run_coupling", "run_coupling_many", "summarize_coupling"]


@dataclass
class CouplingResult:
    """Outcome of one coupling replica.

    status is "held" (event occurred, all m+1 step comparisons passed),
    "violated" (event occurred, some comparison failed), "no_event" (the
    qualifying event did not occur), or "undecided" (a budget ran out
    before the event could be evaluated).  undecided_reason names that
    budget, "meet_budget" or "walk_budget", and is None otherwise.
    """

    status: str
    eps: float
    t: float
    m: int
    meet_time: Optional[int] = None  # steps of the difference walk
    sigma: Optional[int] = None  # plus signs among them
    sigma_prime: Optional[int] = None
    gamma: Optional[float] = None  # max of both walks up to the meeting
    psi: Optional[int] = None  # crossing steps of the walks
    psi_prime: Optional[int] = None
    offset: Optional[float] = None  # walk difference after the meeting
    alpha: float = math.nan  # starting points, for marginal checks
    alpha_prime: float = math.nan
    first_step: float = math.nan
    first_step_prime: float = math.nan
    mismatches: list = field(default_factory=list)
    undecided_reason: Optional[str] = None

    @property
    def event(self) -> Optional[bool]:
        if self.status == "undecided":
            return None
        return self.status in ("held", "violated")


_BLOCK = 256  # stream elements drawn at a time


class _Blocks:
    """The i.i.d. stream of (sign, doubled life length 2V, mark), drawn
    lazily in blocks of ``_BLOCK`` elements: one ``law.draw`` and then one
    block of fair signs, each time an element beyond the drawn ones is
    needed.  Element e is position e % _BLOCK of block e // _BLOCK; its mark
    is the flat age slice of its stick in that block's ``StickBatch``, which
    ``law.layout`` makes from the block's draw when a mark of the block is
    first read and which then replaces the draw."""

    def __init__(self, law: StickLaw, rng: np.random.Generator):
        self.law = law
        self.rng = rng
        self.blocks: list = []  # each block's draw, or its StickBatch once laid out
        self.signs: list[np.ndarray] = []
        self.steps: list[np.ndarray] = []

    def segment(self, pos: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """Signs and steps of elements pos..stop-1, all inside one block;
        draws that block if it is the next one."""
        b = pos // _BLOCK
        if b == len(self.blocks):
            counts, v, ages = self.law.draw(self.rng, _BLOCK)
            self.blocks.append((counts, v, ages))
            self.signs.append(self.rng.integers(0, 2, _BLOCK) * 2 - 1)
            self.steps.append(2.0 * v)
        lo, hi = pos - b * _BLOCK, stop - b * _BLOCK
        return self.signs[b][lo:hi], self.steps[b][lo:hi]

    def block_end(self, pos: int) -> int:
        return (pos // _BLOCK + 1) * _BLOCK

    def step(self, e: int) -> float:
        return float(self.steps[e // _BLOCK][e % _BLOCK])

    def mark(self, e: int) -> np.ndarray:
        b, i = divmod(e, _BLOCK)
        batch = self.blocks[b]
        if not isinstance(batch, StickBatch):
            batch = self.blocks[b] = self.law.layout(*batch)
        return batch.ages[batch.offsets[i] : batch.offsets[i + 1]]


class _WalkState:
    """Where one marked walk stands: its last value, its number of steps,
    its running maximum and its first pushed index at or above t."""

    def __init__(self, start: float):
        self.last = start
        self.n = 0
        self.running_max = start
        self.crossing: Optional[int] = None
        self.crossing_value = math.nan

    def push(self, steps: np.ndarray, t: float) -> None:
        """Take the steps in order; the start value is never a crossing."""
        if not len(steps):
            return
        values = np.cumsum(np.concatenate(([self.last], steps)))[1:]
        if self.crossing is None:
            above = values >= t
            if above.any():
                hit = int(above.argmax())
                self.crossing = self.n + hit + 1
                self.crossing_value = float(values[hit])
        self.running_max = max(self.running_max, float(values.max()))
        self.last = float(values[-1])
        self.n += len(steps)


def _check_arguments(
    law: StickLaw, eps: float, t: float, m: int, meet_budget: int, walk_budget: int
) -> None:
    """Reject a replica's arguments before anything is drawn."""
    if not math.isfinite(eps) or not math.isfinite(t):
        raise ValueError(f"eps and t must be finite, got eps={eps!r}, t={t!r}")
    if eps < 0:
        raise ValueError("eps must be >= 0")
    if eps == 0 and not law.arithmetic:
        raise ValueError("eps = 0 requires an arithmetic life-length law")
    if m < 0 or t <= 0:
        raise ValueError("need m >= 0 and t > 0")
    if meet_budget < 0 or walk_budget < 0:
        raise ValueError(f"budgets must be >= 0, got {meet_budget} and {walk_budget}")


def run_coupling(
    law: StickLaw,
    eps: float,
    t: float,
    m: int,
    rng: np.random.Generator,
    meet_budget: int = 200_000,
    walk_budget: int = 200_000,
) -> CouplingResult:
    """Run one replica of the coupling and check the step agreement.

    eps = 0 demands an exact meeting of the difference walk and is only
    feasible when life lengths are arithmetic.
    """
    _check_arguments(law, eps, t, m, meet_budget, walk_budget)
    alpha = 2.0 * float(law.life.sample(rng, 1)[0])
    alpha_prime = 2.0 * float(sample_vhat(law, rng, 1)[0])
    walk = _WalkState(alpha)
    walk_prime = _WalkState(alpha_prime)
    stream = _Blocks(law, rng)
    result = CouplingResult(
        status="undecided",
        eps=eps,
        t=t,
        m=m,
        alpha=alpha,
        alpha_prime=alpha_prime,
    )

    # diff tracks (second walk) - (first walk) over the partial sums: a
    # plus-signed element feeds the first walk, so it lowers the gap.  Only
    # the gaps decide when to stop drawing, so a block before the meeting is
    # one cumsum of them, in the same order as step-by-step sums.
    diff = alpha_prime - alpha
    meet: Optional[int] = 0 if 0.0 <= diff <= eps else None
    pos = 0
    while meet is None and pos < meet_budget:
        stop = min(stream.block_end(pos), meet_budget)
        signs, steps = stream.segment(pos, stop)
        gaps = np.cumsum(np.concatenate(([diff], -signs * steps)))[1:]
        inside = (gaps >= 0.0) & (gaps <= eps)
        if inside.any():
            stop = pos + int(inside.argmax()) + 1
            meet = stop
        diff = float(gaps[stop - pos - 1])
        pos = stop
    if meet is None:
        result.undecided_reason = "meet_budget"
        return result

    # Each walk sums its pre-meeting steps in one push: the plus signs feed
    # the first walk, the minus signs the second.
    if meet:
        signs = np.concatenate(stream.signs)[:meet]
        steps = np.concatenate(stream.steps)[:meet]
        walk.push(steps[signs > 0], t)
        walk_prime.push(steps[signs < 0], t)

    result.meet_time = meet
    result.sigma = walk.n
    result.sigma_prime = walk_prime.n
    result.offset = diff
    result.gamma = max(walk.running_max, walk_prime.running_max)

    # After the meeting, plus-signed stream elements drive both walks.  A
    # block is pushed whole to each walk that has not crossed yet: nothing
    # reads a walk past its crossing, and no further block is drawn once
    # both walks have crossed.
    end = pos + walk_budget
    while (walk.crossing is None or walk_prime.crossing is None) and pos < end:
        stop = min(stream.block_end(pos), end)
        signs, steps = stream.segment(pos, stop)
        plus_steps = steps[signs > 0]
        for w in (walk, walk_prime):
            if w.crossing is None:
                w.push(plus_steps, t)
        pos = stop
    if walk.crossing is None or walk_prime.crossing is None:
        result.undecided_reason = "walk_budget"
        return result

    # Step s of the first walk is the s-th plus-signed element; the second
    # walk takes the minus-signed elements before the meeting, then the
    # plus-signed ones from the meeting on.
    signs = np.concatenate(stream.signs)
    plus = np.flatnonzero(signs > 0)
    minus = np.flatnonzero(signs[:meet] < 0)

    def element_prime(s: int) -> int:
        if s < result.sigma_prime:
            return int(minus[s])
        return int(plus[result.sigma + s - result.sigma_prime])

    result.psi = walk.crossing
    result.psi_prime = walk_prime.crossing
    result.first_step = stream.step(int(plus[0]))
    result.first_step_prime = stream.step(element_prime(0))

    event = (
        result.gamma < t
        and result.psi > result.sigma + m
        and walk_prime.crossing_value >= t + 2.0 * eps
    )
    if not event:
        result.status = "no_event"
        return result

    # The claim: counted back from the crossings, the last m+1 steps of the
    # two walks carry identical step sizes and marks.
    mismatches = []
    for back in range(m + 1):
        i = result.psi - 1 - back
        j = result.psi_prime - 1 - back
        if j < 0:
            mismatches.append({"back": back, "reason": "second walk too short"})
            continue
        e, e_prime = int(plus[i]), element_prime(j)
        step, step_prime = stream.step(e), stream.step(e_prime)
        ok_mark = bool(np.array_equal(stream.mark(e), stream.mark(e_prime)))
        if not (step == step_prime and ok_mark):
            mismatches.append(
                {
                    "back": back,
                    "step": (step, step_prime),
                    "marks_equal": ok_mark,
                }
            )
    result.mismatches = mismatches
    result.status = "held" if not mismatches else "violated"
    return result


def run_coupling_many(
    law: StickLaw,
    eps: float,
    t: float,
    m: int,
    rng: np.random.Generator,
    n: int,
    meet_budget: int = 200_000,
    walk_budget: int = 200_000,
) -> list[CouplingResult]:
    _check_arguments(law, eps, t, m, meet_budget, walk_budget)
    return [
        run_coupling(law, eps, t, m, rng, meet_budget=meet_budget, walk_budget=walk_budget)
        for _ in range(n)
    ]


def summarize_coupling(results: list[CouplingResult]) -> dict:
    counts = {"held": 0, "violated": 0, "no_event": 0, "undecided": 0}
    reasons = {"meet_budget": 0, "walk_budget": 0}
    for r in results:
        counts[r.status] += 1
        if r.undecided_reason is not None:
            reasons[r.undecided_reason] += 1
    return {
        "replicas": len(results),
        **counts,
        "undecided_meet_budget": reasons["meet_budget"],
        "undecided_walk_budget": reasons["walk_budget"],
        "event_rate": (counts["held"] + counts["violated"]) / max(len(results), 1),
    }
