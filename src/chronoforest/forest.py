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
Lukasiewicz walk, so ``forest_arrays`` reads every parent, birth age,
generation and tree id off flat arrays, then sums the birth times one
generation at a time as grafting does (parent's birth time plus birth
age); this is what the ``build`` command and the experiments run.  A
``ChronForest`` is those arrays and its stick batch, nothing more.
``graft_forest`` is the literal construction: it searches every open node
for the highest stub instead of trusting the stack discipline, and asserts
that the two agree.  It is the ground-truth oracle against which the
kernel and the walk/ladder/spine formulas elsewhere in the package are
tested, and it yields the same arrays, bit for bit.

The *contour* of the forest is the piecewise-linear excursion traced by
exploring sticks depth-first at slope +-1: it climbs from the n-th
individual's birth time up its full stick and descends to the birth time of
individual n+1.  Individual n is visited at time ``K(n) = 2 * total life
length of sticks 0..n-1 - birth_time(n)``; ``ContourPath(heights, v)``
is the one place that clock is computed.
"""

from __future__ import annotations

from itertools import chain
from typing import IO, NamedTuple, Optional, Sequence, Union

import numpy as np

from ._parallel import pair_for
from .measures import PointMeasure, Stick, StickBatch

__all__ = [
    "ForestArrays",
    "forest_arrays",
    "ChronForest",
    "build_forest",
    "graft_forest",
    "genealogical_map",
    "ContourPath",
    "contour_path",
    "write_rows",
    "write_forest_csv",
    "write_contour_csv",
]


def _clock_overflow(v: np.ndarray) -> ValueError:
    """The error for sticks of life lengths ``v`` whose doubled total 2 *
    sum(v) overflows a float, as it does whenever a birth time does (each
    is at most the total life length of its ancestors)."""
    return ValueError(
        "the doubled total life length 2 * sum(v) overflows a float"
        f" (largest v: {float(v.max())!r})"
    )


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

    ``ages`` holds each stick's birth ages in non-increasing order, stick k
    occupying ``ages[offsets[k]:offsets[k+1]]`` (``StickBatch`` checks this
    layout).  Atom i (the (i+1)-th largest age) of stick m has its child at
    the first k >= m+1 with S(k) = S(m+1) - i on the walk
    S(k+1) = S(k) + counts[k] - 1, S(0) = 0, and the subtree of that child
    ends at the first k >= m+1 with S(k) = S(m+1) - i - 1, which is the
    child of atom i+1.  The walk steps down by at most 1, so "first k with
    S(k) = L" is also "first k with S(k) <= L", and one ``searchsorted`` on
    the (S(k), k) pairs in lexicographic order finds every passage.  A
    passage beyond the horizon is put past the terminal entry.

    Atom a's child, when it is one of individuals 0..n, has parent the
    atom's stick and birth age ``ages[a]``; entry n is the terminal graft,
    where stick n would go.  A tree starts at every individual of depth 0,
    and an atom whose child lies at n or beyond is a pending stub.  Heights
    are then filled one generation at a time with grafting's own sum,
    ``height[parent] + birth_age``, so they equal the grafted birth times
    bit for bit.  O((n + atoms) log n) plus one numpy step per generation.

    From ``_parallel.TWO_CORE_AGES`` ages on, and given a second CPU, the
    work goes in pairs to two threads (``_parallel.pair_for``): the sorted
    keys with the sorted queries, the two halves of the search, and the
    generations with the parents.  Either way the same numpy calls make
    every array, so the forest is the same bit for bit.  Nothing here calls
    ``np.repeat``, which holds the GIL: a stick index is a ``cumsum`` over
    the stick starts, and one gather spreads a per-stick value over atoms.
    """
    n, m = len(counts), len(ages)
    span = n + 1  # walk indices 0..n; index span means "never"
    s = np.zeros(span, dtype=np.int64)
    np.cumsum(counts - 1, out=s[1:])
    s -= s.min() - 1  # levels from 1, so every target level below is >= 0
    # levels fit a small integer type, whose stable sort is a radix sort
    small = np.min_scalar_type(int(s.max()))

    def sorted_keys() -> np.ndarray:
        # the pair (S(k), k) packed as one integer, in lexicographic order
        order = np.argsort(s.astype(small), kind="stable")
        keys = s[order]
        keys *= span
        keys += order
        return keys

    def sorted_queries() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        # the stick of each atom: one more at each start of sticks 1..n-1
        stick = np.cumsum(np.bincount(offsets[1:-1], minlength=m + 1)[:m])
        # the level that atom a of stick m waits for: S(m+1) - (a - offsets[m]) - 1
        level = (s[1:] + offsets[:-1] - 1)[stick]
        level -= np.arange(m)
        # atoms come in order of stick, so sorting by level sorts the queries,
        # which makes the search faster
        perm = np.argsort(level.astype(small), kind="stable")
        level *= span
        query = level + stick
        query += 1
        return stick, level, perm, query[perm]

    pair = pair_for(m)
    keys, (stick, level, perm, query) = pair(sorted_keys, sorted_queries)
    # every target level lies below S(m+1), so some key is >= the query;
    # it is the passage when it sits on the target level, and otherwise it
    # lies a level higher, at least span past the query's level: "never"
    found = np.empty(m, dtype=np.int64)

    def search(lo: int, hi: int) -> None:
        np.take(keys, np.searchsorted(keys, query[lo:hi]), out=found[lo:hi])

    pair(lambda: search(0, m // 2), lambda: search(m // 2, m))
    end = np.empty_like(found)
    end[perm] = found
    del keys, perm, query, found
    end -= level
    np.minimum(end, span, out=end)
    del level
    has = counts > 0

    def generations() -> tuple[np.ndarray, np.ndarray, list]:
        # one generation more after each stick with children, one less where
        # the subtree of its last child ends
        step = np.zeros(span + 1, dtype=np.int64)
        step[1:span] = has
        step -= np.bincount(end[offsets[1:][has] - 1], minlength=span + 1)
        depths = np.cumsum(step[:span])
        by_depth = depths.astype(np.min_scalar_type(int(depths.max())))
        return depths, np.argsort(by_depth, kind="stable"), np.cumsum(np.bincount(by_depth)).tolist()

    def parents() -> tuple[np.ndarray, np.ndarray]:
        child = np.empty_like(end)
        child[1:] = end[:-1]
        child[offsets[:-1][has]] = np.flatnonzero(has) + 1
        # entry span collects the atoms whose child lies beyond the horizon
        parent = np.full(span + 1, -1, dtype=np.int64)
        parent[child] = stick
        birth_age = np.zeros(span + 1)
        birth_age[child] = ages
        return parent, birth_age

    (depths, order, bounds), (parent, birth_age) = pair(generations, parents)
    del end, stick
    heights = np.zeros(span)
    # a sum past the largest float is inf, which ``ChronForest`` and the
    # contour reject with the overflow error
    with np.errstate(over="ignore"):
        for lo, hi in zip(bounds, bounds[1:]):  # generations 1, 2, ...
            idx = order[lo:hi]
            heights[idx] = heights[parent[idx]] + birth_age[idx]

    roots = depths[:n] == 0
    pending = m - n + int(np.count_nonzero(roots))
    return ForestArrays(
        heights, depths, parent[:n], birth_age[:n], np.cumsum(roots) - 1, pending
    )


class ChronForest:
    """A chronological forest held as arrays, with its stick batch.

    ``arrays`` carries every individual's parent, birth age, birth time,
    generation and tree id (read-only), and the terminal entries and
    pending stubs; ``batch.to_sticks()`` gives its sticks back.  Raises
    ``ValueError`` when a birth time is not finite.
    """

    def __init__(self, batch: StickBatch, arrays: ForestArrays):
        if not np.isfinite(arrays.heights).all():
            raise _clock_overflow(batch.v)
        for a in arrays[:-1]:
            a.flags.writeable = False
        self.batch = batch
        self.arrays = arrays

    @property
    def n_sticks(self) -> int:
        return len(self.arrays.parent)

    @property
    def tree_count(self) -> int:
        return int(self.arrays.tree_id[-1]) + 1 if self.n_sticks else 0

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

    Works on incomplete inputs: ``arrays.pending_stubs`` counts the stubs
    the final tree still has open.  ``graft_forest`` grows the same forest
    stick by stick.
    """
    batch = sticks if isinstance(sticks, StickBatch) else StickBatch.from_sticks(sticks)
    return ChronForest(batch, forest_arrays(batch.counts, batch.offsets, batch.ages))


def graft_forest(sticks: Sequence[Stick]) -> ChronForest:
    """Grow a forest by grafting each stick at the highest pending stub.

    The literal oracle of ``build_forest``.  Works on incomplete inputs:
    ``arrays.pending_stubs`` counts the stubs the final tree still has open.
    """
    sticks = list(sticks)
    # per individual 0..n, n being where a next stick would be grafted:
    # parent (-1 for roots), age on the parent's stick, birth time,
    # generation and tree id
    parent, birth_age, birth_time, depth, tree = [], [], [], [], []
    # Open nodes along the right-most path.  Each entry is
    # [node index, atom tuple (ages, largest first), cursor of next stub].
    stack: list[list] = []
    tree_id = -1
    for i in range(len(sticks) + 1):
        # Literal Rule 1: scan *every* open node for the highest stub.
        # Walking from the deepest entry with a strict comparison makes ties
        # (which the spine recursion resolves toward the deepest node) explicit.
        best_pos = -1
        best_height = float("-inf")
        pending = 0
        for pos in range(len(stack) - 1, -1, -1):
            entry = stack[pos]
            if entry[2] < len(entry[1]):
                pending += len(entry[1]) - entry[2]
                h = birth_time[entry[0]] + entry[1][entry[2]]
                if h > best_height:
                    best_pos, best_height = pos, h
        if best_pos < 0:
            # Rule 2: nothing pending anywhere -- start a new tree.
            tree_id += 1
            stack.clear()
            up, age, h, d = -1, 0.0, 0.0, 0
        else:
            # The stub discipline: everything below the graft point has no
            # stubs left, otherwise the "highest stub" rule would have found
            # a higher one there.
            if not all(e[2] >= len(e[1]) for e in stack[best_pos + 1 :]):
                raise AssertionError("open node below the highest stub still has stubs")
            del stack[best_pos + 1 :]
            entry = stack[best_pos]
            age = entry[1][entry[2]]
            entry[2] += 1
            up = entry[0]
            h, d = birth_time[up] + age, depth[up] + 1
        parent.append(up)
        birth_age.append(age)
        birth_time.append(h)
        depth.append(d)
        tree.append(tree_id)
        if i < len(sticks):
            stack.append([i, sticks[i].births.atoms, 0])

    arrays = ForestArrays(
        np.array(birth_time),
        np.array(depth, dtype=np.int64),
        np.array(parent[:-1], dtype=np.int64),
        np.array(birth_age[:-1], dtype=float),
        np.array(tree[:-1], dtype=np.int64),
        pending,  # counted before the last pass placed individual n
    )
    return ChronForest(StickBatch.from_sticks(sticks), arrays)


def genealogical_map(sticks: Sequence[Stick]) -> list[Stick]:
    """Collapse chronology: each stick becomes (1, mass x unit atom at 1).

    Applying the map twice gives the same result as applying it once; the
    forest built from the image has the same genealogy (parents, depths,
    tree ids) with all birth ages equal to 1.
    """
    return [Stick(1.0, PointMeasure([1.0] * s.births.mass)) for s in sticks]


class ContourPath:
    """The exploration contour as arrays, with exact evaluation.

    ``ContourPath(heights, v)`` is the contour of individuals with birth
    times ``heights`` (length n+1, entry 0 being 0) and life lengths ``v``
    (length n).  ``visit_times[n]`` is the time K(n) = 2 * (v[0] + ... +
    v[n-1]) - heights[n] at which individual ``n``'s birth point is visited.
    The path climbs at slope +1 from (K(n), heights[n]) for v[n] time units,
    then descends at slope -1 down to heights[n+1].  The arrays carry one
    trailing entry: ``visit_times[n_sticks]`` closes the path at the
    terminal graft height.

    Raises ``ValueError`` when the doubled total life length overflows, or
    when the path would descend above a peak, i.e. when some
    ``heights[n+1] > heights[n] + v[n]`` as floats.  No forest has such
    heights: individual n+1 is born on the highest pending stub, which sits
    at most ``v[n]`` above ``heights[n]``, and its birth time is the same
    float sum as the stub's height.
    """

    def __init__(self, heights: np.ndarray, v: np.ndarray):
        visit_times = np.empty(len(heights))
        visit_times[0] = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            visit_times[1:] = 2.0 * np.cumsum(v) - heights[1:]
        # the doubled sums only grow, and a forest's heights stay below them,
        # so the clock is finite throughout exactly when its last entry is
        if not np.isfinite(visit_times[-1]):
            raise _clock_overflow(v)
        above = heights[1:] > heights[:-1] + v
        if above.any():
            n = int(np.argmax(above))
            raise ValueError(
                f"contour would descend above its peak after individual {n}:"
                f" height {float(heights[n + 1])!r} exceeds {float(heights[n])!r} + {float(v[n])!r}"
            )
        self.visit_times = visit_times
        self.heights = heights
        self.v = v

    @property
    def end_time(self) -> float:
        return float(self.visit_times[-1])

    def eval(self, t) -> np.ndarray:
        """Contour heights at times ``t`` in ``[0, end_time]``: a float64
        array of shape ``np.shape(t)``."""
        t_arr = np.asarray(t, dtype=float)
        if t_arr.size and not (t_arr.min() >= 0.0 and t_arr.max() <= self.end_time):  # NaN fails
            raise ValueError(
                f"time out of range [0, {self.end_time}]: {t_arr.min()}..{t_arr.max()}"
            )
        if not len(self.v):  # no sticks: the path is the one point (0, heights[0])
            return np.full(t_arr.shape, self.heights[0])
        n = np.searchsorted(self.visit_times, t_arr, side="right") - 1
        n = np.minimum(np.maximum(n, 0), len(self.v) - 1)
        k, h, v = self.visit_times[n], self.heights[n], self.v[n]
        rise = t_arr - k
        return np.where(rise <= v, h + rise, h + 2.0 * v - rise)

    def min_on(self, a: float, b: float) -> float:
        """Exact minimum of the contour over ``[a, b]``.

        Interior local minima sit exactly at visit times, so the minimum is
        the smaller of the endpoint values and the visited birth times
        falling inside the window.
        """
        if not (0.0 <= a <= b <= self.end_time):
            raise ValueError(f"need 0 <= a <= b <= {self.end_time}, got [{a}, {b}]")
        lo = min(self.eval([a, b]).tolist())
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
    return ContourPath(forest.arrays.heights, forest.batch.v)


# rows formatted into one string per write, which bounds its memory
_CSV_BLOCK = 1 << 16


def write_rows(
    fp: IO[str], header: Sequence[str], row: str, columns: Sequence[np.ndarray], line_end: str
) -> None:
    """A header line, then one line per entry of the columns, formatted by
    the %-format ``row``; every line ends in ``line_end``.

    The bytes are those of ``csv.writer`` with that line terminator: no
    field here ever needs quoting, and ``"%.12g" % x`` equals
    ``format(x, ".12g")``.  Each block of rows is one ``%`` over a flat
    tuple of its fields, with no Python step per row.
    """
    fp.write(",".join(header) + line_end)
    line = row + line_end
    n = len(columns[0])
    for lo in range(0, n, _CSV_BLOCK):
        fields = zip(*(c[lo : lo + _CSV_BLOCK].tolist() for c in columns))
        fp.write((line * min(_CSV_BLOCK, n - lo)) % tuple(chain.from_iterable(fields)))


def write_forest_csv(forest: ChronForest, fp: IO[str]) -> None:
    a, n = forest.arrays, forest.n_sticks
    write_rows(
        fp,
        ["index", "parent", "birth_time", "depth", "v", "tree_id"],
        "%d,%d,%.12g,%d,%.12g,%d",
        [np.arange(n), a.parent, a.heights[:n], a.depths[:n], forest.batch.v, a.tree_id],
        "\r\n",
    )


def write_contour_csv(path: ContourPath, fp: IO[str]) -> None:
    write_rows(fp, ["time", "value"], "%.12g,%.12g", path.vertices(), "\r\n")
