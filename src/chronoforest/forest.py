"""Chronological forests: the first-passage construction, the literal
grafting oracle, and contours.

A forest is grown from a sequence of sticks by two rules applied stick by
stick.  Each grafted stick leaves one *stub* per birth age: a point on the
stick, at chronological height birth-time-of-the-stick + age, where a future
child will be attached.

* Rule 1: the next stick is grafted to the **highest** pending stub (its
  chronological height, not its tree depth), which always sits on the
  right-most path of the current tree.
* Rule 2: if no stub is pending anywhere, the next stick starts a new tree,
  rooted at chronological height 0.

``build_forest`` does not apply the rules stick by stick.  The stub of
atom i of stick m receives the individual at a first passage of the
Lukasiewicz walk (``first_passage_profile``), so ``forest_arrays`` reads
every parent, birth age, birth time, generation and tree id off flat
arrays; this is what the ``build`` command and the experiments run.
``graft_forest`` is the literal construction: it searches every open node
for the highest stub instead of trusting the stack discipline, and asserts
that the two agree.  It is the ground-truth oracle against which the
kernel and the walk/ladder/spine formulas elsewhere in the package are
tested.

The *contour* of the forest is the piecewise-linear excursion traced by
exploring sticks depth-first at slope +-1: it climbs from the n-th
individual's birth time up its full stick and descends to the birth time of
individual n+1.  Individual n is visited at time ``K(n) = 2 * total life
length of sticks 0..n-1 - birth_time(n)``; ``ContourPath.from_heights``
is the one place that clock is computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import IO, NamedTuple, Optional, Sequence, Union

import numpy as np

from .measures import PointMeasure, Stick, StickBatch

__all__ = [
    "first_passage_profile",
    "ForestArrays",
    "forest_arrays",
    "ForestNode",
    "ChronForest",
    "build_forest",
    "graft_forest",
    "genealogical_map",
    "ContourPath",
    "contour_path",
    "min_contour",
    "write_forest_csv",
    "write_contour_csv",
]


def first_passage_profile(
    counts: np.ndarray, offsets: np.ndarray, ages: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Birth times and generations of individuals 0..n, and where each atom's
    child sits, from flat arrays.

    ``ages`` holds each stick's birth ages in non-increasing order, stick k
    occupying ``ages[offsets[k]:offsets[k+1]]`` (``StickBatch`` checks this
    layout).  The height of n is the sum of the ages on its ancestral line,
    so each birth age counts toward exactly the individuals of the subtree
    it roots, and that subtree lies between two first passages of the walk
    S(k+1) = S(k) + counts[k] - 1, S(0) = 0.  Atom i (the (i+1)-th largest
    age) of stick m has its child at the first k >= m+1 with
    S(k) = S(m+1) - i, and its subtree ends at the first k >= m+1 with
    S(k) = S(m+1) - i - 1, which is the child of atom i+1.  The walk steps
    down by at most 1, so "first k with S(k) = L" is also "first k with
    S(k) <= L", and one ``searchsorted`` on the (S(k), k) pairs in
    lexicographic order finds every passage.  A passage beyond the horizon
    is put past the terminal entry, so it adds nothing.

    Heights and depths are cumulative sums of the ages (resp. ones) added
    at each child and removed at each subtree end.  The value at the latest
    root is subtracted, so every tree starts at exactly 0.0 and rounding
    does not carry from one tree to the next.  O((n + atoms) log n).

    Returns ``(heights, depths, stick, child)``: heights and depths have
    n + 1 entries, entry n being where stick n would be grafted; per atom,
    ``stick`` is the stick it sits on and ``child`` the individual born at
    it, n for the terminal graft and n + 1 when that child lies further out.
    """
    n = len(counts)
    span = n + 1  # walk indices 0..n; index span means "never"
    s = np.zeros(span, dtype=np.int64)
    np.cumsum(counts - 1, out=s[1:])
    lo = int(s.min())
    # the pair (S(k), k) packed as one integer, in lexicographic order
    keys = np.sort((s - lo) * span + np.arange(span))

    stick = np.repeat(np.arange(n), counts)
    start = stick + 1
    rank = np.arange(len(stick)) - offsets[stick]
    level = (s[start] - rank - 1 - lo) * span
    # every target level lies below S(start), so some key is >= the query;
    # it is the passage when it sits on the target level
    hit = keys[np.searchsorted(keys, level + start)]
    end = np.where(hit < level + span, hit - level, span)
    child = np.empty_like(end)
    child[1:] = end[:-1]
    first = rank == 0
    child[first] = start[first]

    size = span + 1
    depths = np.cumsum(
        (np.bincount(child, minlength=size) - np.bincount(end, minlength=size))[:span]
    )
    raw = np.cumsum(
        (
            np.bincount(child, weights=ages, minlength=size)
            - np.bincount(end, weights=ages, minlength=size)
        )[:span],
        dtype=float,  # bincount of no atoms is integer-typed
    )
    latest_root = np.maximum.accumulate(np.where(depths == 0, np.arange(span), 0))
    return raw - raw[latest_root], depths, stick, child


class ForestArrays(NamedTuple):
    """A forest of n individuals as flat arrays."""

    heights: np.ndarray  # birth times, n + 1 entries (entry n: terminal graft height)
    depths: np.ndarray  # generations, n + 1 entries (entry n: terminal depth)
    parent: np.ndarray  # parent index, -1 for roots
    birth_age: np.ndarray  # age on the parent's stick, 0.0 for roots
    tree_id: np.ndarray
    pending_stubs: int  # stubs still waiting for a child after the last stick


def forest_arrays(counts: np.ndarray, offsets: np.ndarray, ages: np.ndarray) -> ForestArrays:
    """The whole forest of a flat stick layout, read off first passages.

    Atom a's child ``child[a]``, when it is one of the n individuals, has
    parent ``stick[a]`` and birth age ``ages[a]``; a tree starts at every
    individual of depth 0; an atom whose child lies at n or beyond is a
    pending stub.
    """
    heights, depths, stick, child = first_passage_profile(counts, offsets, ages)
    n = len(counts)
    born = child < n
    parent = np.full(n, -1, dtype=np.int64)
    parent[child[born]] = stick[born]
    birth_age = np.zeros(n)
    birth_age[child[born]] = ages[born]
    tree_id = np.cumsum(depths[:n] == 0) - 1
    pending = len(child) - int(np.count_nonzero(born))
    return ForestArrays(heights, depths, parent, birth_age, tree_id, pending)


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
    """A chronological forest held as arrays, with its stick batch.

    ``arrays`` carries every individual's parent, birth age, birth time,
    generation and tree id (read-only).  ``birth_times()`` and ``depths()``
    return the cached arrays; ``nodes`` builds ``ForestNode``s only when
    asked for.
    """

    def __init__(
        self,
        batch: StickBatch,
        arrays: ForestArrays,
        nodes: Optional[list[ForestNode]] = None,
    ):
        for a in arrays[:-1]:
            a.flags.writeable = False
        self.batch = batch
        self.arrays = arrays
        self._nodes = nodes
        #: number of stubs still waiting for a child after the last stick
        self.pending_stubs = arrays.pending_stubs
        #: height at which stick ``n_sticks`` would be grafted (0.0 if the
        #: last tree is complete and the next stick starts a new tree)
        self.terminal_height = float(arrays.heights[-1])
        #: depth at which stick ``n_sticks`` would sit
        self.terminal_depth = int(arrays.depths[-1])

    @property
    def n_sticks(self) -> int:
        return len(self.arrays.parent)

    @property
    def final_tree_incomplete(self) -> bool:
        """True when the last tree still has pending stubs."""
        return self.pending_stubs > 0

    @property
    def tree_count(self) -> int:
        return int(self.arrays.tree_id[-1]) + 1 if self.n_sticks else 0

    @property
    def nodes(self) -> list[ForestNode]:
        if self._nodes is None:
            a = self.arrays
            rows = zip(
                a.parent.tolist(),
                a.birth_age.tolist(),
                a.heights.tolist(),
                a.depths.tolist(),
                a.tree_id.tolist(),
            )
            self._nodes = [
                ForestNode(i, self.batch.stick(i), None if p < 0 else p, age, h, d, t)
                for i, (p, age, h, d, t) in enumerate(rows)
            ]
        return self._nodes

    def birth_times(self) -> np.ndarray:
        """Birth times of individuals 0..n-1 plus the terminal graft height.

        Entry ``n`` (the last) is where the *next* stick would be born, so
        the array has length ``n_sticks + 1`` and entry 0 is 0.0.
        """
        return self.arrays.heights

    def depths(self) -> np.ndarray:
        return self.arrays.depths

    def ancestors(self, n: int) -> list[int]:
        """Ancestor line of individual ``n``: [n, parent, ..., root]."""
        parent = self.arrays.parent
        line = [n]
        while parent[line[-1]] >= 0:
            line.append(int(parent[line[-1]]))
        return line

    def mrca(self, m: int, n: int) -> Optional[int]:
        """Most recent common ancestor, or None when in different trees."""
        parent, depth = self.arrays.parent, self.arrays.depths
        if self.arrays.tree_id[m] != self.arrays.tree_id[n]:
            return None
        i, j = m, n
        while depth[i] > depth[j]:
            i = int(parent[i])
        while depth[j] > depth[i]:
            j = int(parent[j])
        while i != j:
            i, j = int(parent[i]), int(parent[j])
        return i


def build_forest(sticks: Union[StickBatch, Sequence[Stick]]) -> ChronForest:
    """The forest of a stick batch (or stick sequence), from first passages.

    Works on incomplete inputs: the returned forest flags whether the final
    tree still has pending stubs.  ``graft_forest`` grows the same forest
    stick by stick.
    """
    batch = sticks if isinstance(sticks, StickBatch) else StickBatch.from_sticks(sticks)
    return ChronForest(batch, forest_arrays(batch.counts, batch.offsets, batch.ages))


def graft_forest(sticks: Sequence[Stick]) -> ChronForest:
    """Grow a forest by grafting each stick at the highest pending stub.

    The literal oracle of ``build_forest``.  Works on incomplete inputs: the
    returned forest flags whether the final tree still has pending stubs.
    """
    sticks = list(sticks)
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
    arrays = ForestArrays(
        np.array([node.birth_time for node in nodes] + [terminal_height]),
        np.array([node.depth for node in nodes] + [terminal_depth], dtype=np.int64),
        np.array([-1 if node.parent is None else node.parent for node in nodes], dtype=np.int64),
        np.array([node.birth_age for node in nodes], dtype=float),
        np.array([node.tree_id for node in nodes], dtype=np.int64),
        pending,
    )
    return ChronForest(StickBatch.from_sticks(sticks), arrays, nodes)


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
    return ContourPath.from_heights(forest.birth_times(), forest.batch.v)


def min_contour(forest: ChronForest, m: int, n: int) -> float:
    """Minimum of the contour between the visits of individuals m and n.

    Equals the smallest birth time among individuals m..n: the contour's
    local minima on that stretch are exactly the visited birth points.
    """
    if not (0 <= m <= n <= forest.n_sticks):
        raise ValueError(f"need 0 <= m <= n <= {forest.n_sticks}, got ({m}, {n})")
    heights = forest.birth_times()
    return float(heights[m : n + 1].min())


# rows formatted into one string per write, which bounds its memory
_CSV_BLOCK = 1 << 16


def _write_rows(fp: IO[str], header: Sequence[str], row: str, columns: Sequence[np.ndarray]):
    """A header line, then one line per entry of the columns, formatted by
    the %-format ``row``.

    The bytes are those of ``csv.writer``'s default dialect: no field here
    ever needs quoting, every line ends in "\r\n", and ``"%.12g" % x``
    equals ``format(x, ".12g")``.  Each block of rows is one ``%`` over a
    flat tuple of its fields, with no Python step per row.
    """
    fp.write(",".join(header) + "\r\n")
    line = row + "\r\n"
    n = len(columns[0])
    for lo in range(0, n, _CSV_BLOCK):
        fields = zip(*(c[lo : lo + _CSV_BLOCK].tolist() for c in columns))
        fp.write((line * min(_CSV_BLOCK, n - lo)) % tuple(chain.from_iterable(fields)))


def write_forest_csv(forest: ChronForest, fp: IO[str]) -> None:
    a, n = forest.arrays, forest.n_sticks
    _write_rows(
        fp,
        ["index", "parent", "birth_time", "depth", "v", "tree_id"],
        "%d,%d,%.12g,%d,%.12g,%d",
        [np.arange(n), a.parent, a.heights[:n], a.depths[:n], forest.batch.v, a.tree_id],
    )


def write_contour_csv(path: ContourPath, fp: IO[str]) -> None:
    _write_rows(fp, ["time", "value"], "%.12g,%.12g", path.vertices())
