"""Sequential construction of chronological forests and their contours.

A forest is grown from a sequence of sticks by two rules applied stick by
stick.  Each grafted stick leaves one *stub* per birth age: a point on the
stick, at chronological height birth-time-of-the-stick + age, where a future
child will be attached.

* Rule 1: the next stick is grafted to the **highest** pending stub (its
  chronological height, not its tree depth), which always sits on the
  right-most path of the current tree.
* Rule 2: if no stub is pending anywhere, the next stick starts a new tree,
  rooted at chronological height 0.

This module is deliberately literal: ``build_forest`` searches every open
node for the highest stub instead of trusting the stack discipline, and
asserts that the two agree.  It is the ground-truth oracle against which the
walk/ladder/spine formulas elsewhere in the package are tested.

The *contour* of the forest is the piecewise-linear excursion traced by
exploring sticks depth-first at slope +-1: it climbs from the n-th
individual's birth time up its full stick and descends to the birth time of
individual n+1.  Individual n is visited at time ``K(n) = 2 * total life
length of sticks 0..n-1 - birth_time(n)``; ``ContourPath.from_heights``
is the one place that clock is computed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import IO, Optional, Sequence

import numpy as np

from .measures import PointMeasure, Stick

__all__ = [
    "ForestNode",
    "ChronForest",
    "build_forest",
    "genealogical_map",
    "ContourPath",
    "contour_path",
    "min_contour",
    "write_forest_csv",
    "write_contour_csv",
]


@dataclass(frozen=True)
class ForestNode:
    """One grafted stick: its position in the forest and in time."""

    index: int
    stick: Stick
    parent: Optional[int]  # None for roots
    birth_age: float  # age on the parent stick at which this node was born
    birth_time: float  # chronological height of the graft point
    depth: int  # genealogical generation (roots have depth 0)
    tree_id: int


class ChronForest:
    """A chronological forest, with per-node chronology and genealogy."""

    def __init__(
        self,
        nodes: list[ForestNode],
        pending_stubs: int,
        terminal_height: float,
        terminal_depth: int = 0,
    ):
        self.nodes = nodes
        #: number of stubs still waiting for a child after the last stick
        self.pending_stubs = pending_stubs
        #: height at which stick ``n_sticks`` would be grafted (0.0 if the
        #: last tree is complete and the next stick starts a new tree)
        self.terminal_height = terminal_height
        #: depth at which stick ``n_sticks`` would sit
        self.terminal_depth = terminal_depth

    @property
    def n_sticks(self) -> int:
        return len(self.nodes)

    @property
    def final_tree_incomplete(self) -> bool:
        """True when the last tree still has pending stubs."""
        return self.pending_stubs > 0

    @property
    def tree_count(self) -> int:
        return self.nodes[-1].tree_id + 1 if self.nodes else 0

    def birth_times(self) -> np.ndarray:
        """Birth times of individuals 0..n-1 plus the terminal graft height.

        Entry ``n`` (the last) is where the *next* stick would be born, so
        the array has length ``n_sticks + 1`` and entry 0 is 0.0.
        """
        out = np.empty(self.n_sticks + 1)
        for i, node in enumerate(self.nodes):
            out[i] = node.birth_time
        out[self.n_sticks] = self.terminal_height
        return out

    def depths(self) -> np.ndarray:
        out = np.empty(self.n_sticks + 1, dtype=np.int64)
        for i, node in enumerate(self.nodes):
            out[i] = node.depth
        out[self.n_sticks] = self.terminal_depth
        return out

    def ancestors(self, n: int) -> list[int]:
        """Ancestor line of individual ``n``: [n, parent, ..., root]."""
        line = [n]
        while self.nodes[line[-1]].parent is not None:
            line.append(self.nodes[line[-1]].parent)
        return line

    def mrca(self, m: int, n: int) -> Optional[int]:
        """Most recent common ancestor, or None when in different trees."""
        a, b = self.nodes[m], self.nodes[n]
        if a.tree_id != b.tree_id:
            return None
        i, j = m, n
        while self.nodes[i].depth > self.nodes[j].depth:
            i = self.nodes[i].parent
        while self.nodes[j].depth > self.nodes[i].depth:
            j = self.nodes[j].parent
        while i != j:
            i, j = self.nodes[i].parent, self.nodes[j].parent
        return i


def build_forest(sticks: Sequence[Stick]) -> ChronForest:
    """Grow a forest by grafting each stick at the highest pending stub.

    Works on incomplete inputs: the returned forest flags whether the final
    tree still has pending stubs.
    """
    nodes: list[ForestNode] = []
    # Open nodes along the right-most path.  Each entry is
    # [node index, atom tuple (ages, largest first), cursor of next stub].
    stack: list[list] = []
    tree_id = -1
    for i, stick in enumerate(sticks):
        # Literal Rule 1: scan *every* open node for the highest stub.
        # Walking from the deepest entry with a strict comparison makes ties
        # (which the spine recursion resolves toward the deepest node) explicit.
        best_pos = -1
        best_height = float("-inf")
        for pos in range(len(stack) - 1, -1, -1):
            entry = stack[pos]
            if entry[2] < len(entry[1]):
                h = nodes[entry[0]].birth_time + entry[1][entry[2]]
                if h > best_height:
                    best_pos, best_height = pos, h
        if best_pos < 0:
            # Rule 2: nothing pending anywhere -- start a new tree.
            tree_id += 1
            stack.clear()
            node = ForestNode(i, stick, None, 0.0, 0.0, 0, tree_id)
        else:
            # The stub discipline: everything below the graft point has no
            # stubs left, otherwise the "highest stub" rule would have found
            # a higher one there.
            assert all(e[2] >= len(e[1]) for e in stack[best_pos + 1 :]), (
                "open node below the highest stub still has stubs"
            )
            del stack[best_pos + 1 :]
            entry = stack[best_pos]
            age = entry[1][entry[2]]
            entry[2] += 1
            parent = nodes[entry[0]]
            node = ForestNode(
                i, stick, parent.index, age, parent.birth_time + age, parent.depth + 1, tree_id
            )
        nodes.append(node)
        stack.append([i, stick.births.atoms, 0])

    pending = sum(len(e[1]) - e[2] for e in stack)
    terminal_height = 0.0
    terminal_depth = 0
    if pending:
        for pos in range(len(stack) - 1, -1, -1):
            entry = stack[pos]
            if entry[2] < len(entry[1]):
                terminal_height = nodes[entry[0]].birth_time + entry[1][entry[2]]
                terminal_depth = nodes[entry[0]].depth + 1
                break
    return ChronForest(nodes, pending, terminal_height, terminal_depth)


def genealogical_map(sticks: Sequence[Stick]) -> list[Stick]:
    """Collapse chronology: each stick becomes (1, mass x unit atom at 1).

    Applying the map twice gives the same result as applying it once; the
    forest built from the image has the same genealogy (parents, depths,
    tree ids) with all birth ages equal to 1.
    """
    return [Stick(1.0, PointMeasure([1.0] * s.births.mass)) for s in sticks]


class ContourPath:
    """The exploration contour as arrays, with exact evaluation.

    ``visit_times[n]`` is the time K(n) at which individual ``n``'s birth
    point is visited; ``heights[n]`` its birth time; ``v[n]`` its life
    length.  The path climbs at slope +1 from (K(n), heights[n]) for v[n]
    time units, then descends at slope -1 down to heights[n+1].  The arrays
    carry one trailing entry: ``visit_times[n_sticks]`` closes the path at
    the terminal graft height.
    """

    def __init__(self, visit_times: np.ndarray, heights: np.ndarray, v: np.ndarray):
        self.visit_times = visit_times
        self.heights = heights
        self.v = v

    @classmethod
    def from_heights(cls, heights: np.ndarray, v: np.ndarray) -> "ContourPath":
        """The contour of individuals with birth times ``heights`` (length
        n+1, entry 0 being 0) and life lengths ``v`` (length n).

        Visit times follow the clock K(n) = 2 * (v[0] + ... + v[n-1]) -
        heights[n].  Raises ``ValueError`` when the path would descend
        above a peak, i.e. when some heights[n+1] exceeds heights[n] + v[n]
        beyond rounding: no forest has such heights.
        """
        visit_times = np.empty(len(heights))
        visit_times[0] = 0.0
        visit_times[1:] = 2.0 * np.cumsum(v) - heights[1:]
        descents = visit_times[1:] - visit_times[:-1] - v
        # each descent carries a few ulps of rounding of the visit times
        tol = 1e-9 + 8.0 * np.finfo(float).eps * float(np.abs(visit_times).max())
        if descents.size and descents.min() < -tol:
            n = int(np.argmin(descents))
            raise ValueError(
                f"contour would descend above its peak after individual {n}:"
                f" height {heights[n + 1]!r} exceeds {heights[n]!r} + {v[n]!r}"
            )
        return cls(visit_times, heights, v)

    @property
    def end_time(self) -> float:
        return float(self.visit_times[-1])

    def eval(self, t) -> np.ndarray | float:
        """Contour height at time(s) ``t`` in ``[0, end_time]``."""
        t_arr = np.asarray(t, dtype=float)
        if t_arr.size and (t_arr.min() < 0.0 or t_arr.max() > self.end_time):
            raise ValueError(
                f"time out of range [0, {self.end_time}]: {t_arr.min()}..{t_arr.max()}"
            )
        n = np.searchsorted(self.visit_times, t_arr, side="right") - 1
        n = np.minimum(np.maximum(n, 0), len(self.v) - 1)
        k, h, v = self.visit_times[n], self.heights[n], self.v[n]
        rise = t_arr - k
        out = np.where(rise <= v, h + rise, h + 2.0 * v - rise)
        return float(out) if np.isscalar(t) or out.ndim == 0 else out

    def min_on(self, a: float, b: float) -> float:
        """Exact minimum of the contour over ``[a, b]``.

        Interior local minima sit exactly at visit times, so the minimum is
        the smaller of the endpoint values and the visited birth times
        falling inside the window.
        """
        if not (0.0 <= a <= b <= self.end_time):
            raise ValueError(f"need 0 <= a <= b <= {self.end_time}, got [{a}, {b}]")
        lo = float(min(self.eval(a), self.eval(b)))
        i = int(np.searchsorted(self.visit_times, a, side="left"))
        j = int(np.searchsorted(self.visit_times, b, side="right"))
        if i < j:
            lo = min(lo, float(self.heights[i:j].min()))
        return lo

    def vertices(self) -> tuple[np.ndarray, np.ndarray]:
        """Breakpoints (times, values) of the piecewise-linear path."""
        n = len(self.v)
        times = np.empty(2 * n + 1)
        values = np.empty(2 * n + 1)
        times[0:2 * n:2] = self.visit_times[:-1]
        values[0:2 * n:2] = self.heights[:-1]
        times[1:2 * n:2] = self.visit_times[:-1] + self.v
        values[1:2 * n:2] = self.heights[:-1] + self.v
        times[2 * n] = self.visit_times[-1]
        values[2 * n] = self.heights[-1]
        return times, values


def contour_path(forest: ChronForest) -> ContourPath:
    """Contour of a built forest.

    The forest may be incomplete (pending stubs); the path then ends at the
    terminal graft height instead of 0.
    """
    v = np.array([node.stick.v for node in forest.nodes])
    return ContourPath.from_heights(forest.birth_times(), v)


def min_contour(forest: ChronForest, m: int, n: int) -> float:
    """Minimum of the contour between the visits of individuals m and n.

    Equals the smallest birth time among individuals m..n: the contour's
    local minima on that stretch are exactly the visited birth points.
    """
    if not (0 <= m <= n <= forest.n_sticks):
        raise ValueError(f"need 0 <= m <= n <= {forest.n_sticks}, got ({m}, {n})")
    heights = forest.birth_times()
    return float(heights[m : n + 1].min())


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def write_forest_csv(forest: ChronForest, fp: IO[str]) -> None:
    w = csv.writer(fp)
    w.writerow(["index", "parent", "birth_time", "depth", "v", "tree_id"])
    for node in forest.nodes:
        w.writerow(
            [
                node.index,
                -1 if node.parent is None else node.parent,
                _fmt(node.birth_time),
                node.depth,
                _fmt(node.stick.v),
                node.tree_id,
            ]
        )


def write_contour_csv(path: ContourPath, fp: IO[str]) -> None:
    w = csv.writer(fp)
    w.writerow(["time", "value"])
    times, values = path.vertices()
    for t, x in zip(times, values):
        w.writerow([_fmt(t), _fmt(x)])
