"""Finite point measures of birth ages, sticks, and stick batches.

The elementary datum of the whole package is a *stick*: a life length ``v``
together with a finite point measure of birth ages supported on ``(0, v]``.
A forest is grown from a sequence of sticks, and every functional downstream
(spines, ladder decompositions, contours) is built out of three
``PointMeasure`` operations:

* ``mass`` -- number of atoms, counted with multiplicity;
* ``sup_support`` -- the largest atom (0 for the zero measure);
* ``truncate_largest`` -- remove the ``k`` largest atoms.

Atoms are kept sorted in non-increasing order.  The sort is stable, so equal
ages keep their insertion order; that pins down a deterministic answer for
``truncate_largest`` under ties.  Ages along a line of descent are summed
root first, as grafting sums birth times (``root_first_sum``).

A *stick batch* is the flat-array form of a stick sequence that the samplers,
the height kernel and stick files work on; ``StickBatch`` owns its layout and
its JSON form.  ``Stick`` and ``PointMeasure`` are the oracle's per-stick
types: ``StickBatch.to_sticks`` checks a whole batch once, in arrays, and the
first bad stick raises their constructors' error.  That array check replaces
the per-stick constructor checks: ``to_sticks`` makes the objects with
``object.__new__`` and fills their slots through the module-private slot
setters (``_set_atoms``, ``_set_stick_v``, ``_set_stick_births``), all in
C-level ``map`` calls, without running ``__init__``.
"""

from __future__ import annotations

import json
import math
import operator
from collections import deque
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, repeat
from typing import IO, Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "PointMeasure",
    "ZERO",
    "Stick",
    "StickBatch",
    "sticks_from_json",
    "write_sticks_json",
]


class PointMeasure:
    """A finite point measure on ``(0, inf)``; atoms stored largest-first.

    Instances are immutable and compare by their atom tuples.
    """

    __slots__ = ("_atoms",)

    def __init__(self, ages: Iterable[float] = ()):
        atoms = tuple(sorted((float(a) for a in ages), reverse=True))
        if not all(map(math.isfinite, atoms)):
            bad = next(a for a in atoms if not math.isfinite(a))
            raise ValueError(f"atoms must be finite, got {bad!r}")
        if atoms and not atoms[-1] > 0.0:
            raise ValueError(f"atoms must be strictly positive, got {atoms[-1]!r}")
        self._atoms = atoms

    @property
    def atoms(self) -> tuple[float, ...]:
        """Atom ages in non-increasing order."""
        return self._atoms

    @property
    def mass(self) -> int:
        """Total number of atoms (multiplicity counted)."""
        return len(self._atoms)

    @property
    def sup_support(self) -> float:
        """Largest atom; 0.0 for the zero measure."""
        return self._atoms[0] if self._atoms else 0.0

    @property
    def is_zero(self) -> bool:
        return not self._atoms

    def truncate_largest(self, k: int) -> "PointMeasure":
        """Remove the ``k`` largest atoms (all of them if ``k >= mass``)."""
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        tail = object.__new__(PointMeasure)
        _set_atoms(tail, self._atoms[k:])  # a tail of checked atoms is checked
        return tail

    def __bool__(self) -> bool:
        return bool(self._atoms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PointMeasure):
            return self._atoms == other._atoms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._atoms)

    def __repr__(self) -> str:
        return f"PointMeasure({list(self._atoms)!r})"


#: The zero measure (no atoms).
ZERO = PointMeasure()

_set_atoms = PointMeasure._atoms.__set__


@dataclass(frozen=True, slots=True)
class Stick:
    """A life length together with the point measure of birth ages.

    Every birth age must lie in ``(0, v]``: an individual gives birth during
    its own lifetime, ages being counted from its birth.
    """

    v: float
    births: PointMeasure = ZERO

    def __post_init__(self):
        if not 0.0 < self.v < math.inf:
            raise ValueError(f"life length must be positive and finite, got {self.v!r}")
        if self.births.sup_support > self.v:
            raise ValueError(
                f"birth age {self.births.sup_support!r} exceeds life length {self.v!r}"
            )


_set_stick_v, _set_stick_births = Stick.v.__set__, Stick.births.__set__


def _drain(it) -> None:
    # run an iterator of side effects to its end in C
    deque(it, maxlen=0)


def _all_of(kind, values) -> bool:
    # ``all(isinstance(x, kind) for x in values)``, one test per distinct type;
    # ``bool`` subclasses ``int``, but JSON's true and false are not numbers
    return all(issubclass(t, kind) and t is not bool for t in set(map(type, values)))


_JSON_TYPES = {dict: "object", list: "array", str: "string", int: "number", float: "number", bool: "boolean"}


def _json_type(x) -> str:
    return _JSON_TYPES.get(type(x), "null" if x is None else type(x).__name__)


def _shown(x) -> str:
    # a scalar as it is, a long string clipped with its length, an array or
    # object by its JSON type: an error line never quotes a whole stick, its
    # births or a long string
    if isinstance(x, (list, dict)):
        return _json_type(x)
    if isinstance(x, str) and len(x) > 20:
        return f"{x[:10]!r}… (string of {len(x)} characters)"
    return repr(x)


@dataclass
class StickBatch:
    """A batch of sticks in flat-array form.

    ``ages[offsets[k]:offsets[k+1]]`` are stick k's birth ages in
    non-increasing order.  ``offsets`` (length n+1, starting at 0) is derived
    from ``counts`` on construction, and the layout is checked once: one
    life length per stick, non-negative counts, exactly ``sum(counts)``
    ages, non-increasing within each stick (the height kernel relies on
    it).  A violation raises ``ValueError``.
    """

    counts: np.ndarray
    v: np.ndarray
    ages: np.ndarray
    offsets: np.ndarray = field(init=False)

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        self.v = np.asarray(self.v, dtype=float)
        self.ages = np.asarray(self.ages, dtype=float)
        if len(self.v) != len(self.counts):
            raise ValueError(
                f"need one life length per stick: {len(self.v)} for {len(self.counts)} sticks"
            )
        if (self.counts < 0).any():
            raise ValueError("child counts must be >= 0")
        self.offsets = self.offsets_for(self.counts)
        total = int(self.offsets[-1])
        if len(self.ages) != total:
            raise ValueError(f"counts sum to {total} births but {len(self.ages)} ages given")
        # rises[j]: ages[j] is above ages[j-1] without starting a new stick
        rises = np.zeros(total + 1, dtype=bool)
        np.greater(self.ages[1:], self.ages[:-1], out=rises[1:total])
        rises[self.offsets] = False
        if rises.any():
            k = int(np.searchsorted(self.offsets, rises.argmax(), side="right")) - 1
            raise ValueError(f"stick {k}: birth ages must be non-increasing")

    @staticmethod
    def offsets_for(counts: np.ndarray) -> np.ndarray:
        """Start of each stick's ages in the flat array, then the total."""
        offsets = np.zeros(len(counts) + 1, dtype=np.int64)
        counts.cumsum(out=offsets[1:])  # the method skips np.cumsum's dispatch, 1 µs on a 2-core Xeon
        return offsets

    @staticmethod
    def sticks_for(offsets: np.ndarray) -> np.ndarray:
        """The stick of each age: one more at each start of sticks 1..n-1."""
        m = int(offsets[-1])
        return np.bincount(offsets[1:-1], minlength=m + 1)[:m].cumsum()

    def __len__(self) -> int:
        return len(self.counts)

    n = property(__len__)

    def measure(self, i: int) -> PointMeasure:
        return PointMeasure(self.ages[self.offsets[i] : self.offsets[i + 1]])

    def stick(self, i: int) -> Stick:
        return Stick(float(self.v[i]), self.measure(i))

    def _first_bad_stick(self) -> int:
        """The first stick (or -1) that breaks a rule of ``PointMeasure`` or ``Stick``: ages
        finite and positive, ``0 < v < inf``, each stick's first (largest) age at most its ``v``."""
        v, ages, offsets = self.v, self.ages, self.offsets
        bad = ~((v > 0.0) & (v < math.inf))
        full = self.counts > 0
        bad[full] |= ages[offsets[:-1][full]] > v[full]
        bad_ages = np.flatnonzero(~(np.isfinite(ages) & (ages > 0.0)))
        bad[np.searchsorted(offsets, bad_ages, side="right") - 1] = True
        return int(bad.argmax()) if bad.any() else -1

    def to_sticks(self) -> list[Stick]:
        """``[self.stick(k) for k in range(self.n)]``, checked once in arrays by
        ``_first_bad_stick``; that stick is rebuilt by ``stick(k)``, so the
        constructors raise their own error.  Once the batch passes, the array
        check replaces the per-stick constructor checks: no Python function
        runs per stick.  Each atom tuple is a slice of one tuple of the
        non-increasing layout, each measure and stick is an ``object.__new__``
        whose slots the module's setters fill, every childless stick shares
        ``ZERO``, and each step is a ``map`` drained in C."""
        k = self._first_bad_stick()
        if k >= 0:
            self.stick(k)  # raises the constructors' error
        flat = tuple(self.ages.tolist())
        full = np.flatnonzero(self.counts)
        starts, stops = self.offsets[full].tolist(), self.offsets[full + 1].tolist()
        measures = list(map(object.__new__, repeat(PointMeasure, len(full))))
        _drain(map(_set_atoms, measures, map(flat.__getitem__, map(slice, starts, stops))))
        births = [ZERO] * self.n
        _drain(map(births.__setitem__, full.tolist(), measures))
        sticks = list(map(object.__new__, repeat(Stick, self.n)))
        _drain(map(_set_stick_v, sticks, self.v.tolist()))
        _drain(map(_set_stick_births, sticks, births))
        return sticks

    def to_json(self, lo: int = 0, hi: Optional[int] = None) -> list[dict]:
        """One ``{"v": number, "births": [number, ...]}`` object per stick of
        ``lo:hi`` (every stick by default), births largest first."""
        hi = self.n if hi is None else hi
        bounds = self.offsets[lo : hi + 1]
        flat = self.ages[bounds[0] : bounds[-1]].tolist()
        bounds = (bounds - bounds[0]).tolist()
        return [{"v": life, "births": flat[a:b]} for life, a, b in zip(self.v[lo:hi].tolist(), bounds, bounds[1:])]

    @classmethod
    def from_json(cls, data) -> "StickBatch":
        """The checked batch of ``[{"v": number, "births": [number, ...]}, ...]``, births sorted
        as ``PointMeasure`` sorts them.  Types are checked per distinct type and the stick rules
        in arrays; if either fails, the first bad stick in file order raises its own error."""
        if not isinstance(data, list):
            raise ValueError("stick file must contain a JSON array")
        try:
            v, births = [obj["v"] for obj in data], [obj["births"] for obj in data]
            typed = _all_of(dict, data) and _all_of((int, float), v) and _all_of(list, births)
            if typed and _all_of((int, float), chain.from_iterable(births)):
                births = [sorted(map(float, b), reverse=True) for b in births]
                batch = cls(list(map(len, births)), list(map(float, v)), list(chain.from_iterable(births)))
                if batch._first_bad_stick() < 0:
                    return batch
        except (KeyError, TypeError, OverflowError, ValueError):  # a non-object, a missing key, a big int, a nan
            pass
        for i, obj in enumerate(data):  # reached only when some stick is bad
            try:
                if not isinstance(obj, dict):
                    raise ValueError(f"stick must be an object with 'v' and 'births', got {_json_type(obj)}")
                for key in ("v", "births"):
                    if key not in obj:
                        raise ValueError(f"missing key {key!r}")
                v, births = obj["v"], obj["births"]
                if not _all_of((int, float), [v]):
                    raise ValueError(f"'v' must be a number, got {_shown(v)}")
                if not isinstance(births, list):
                    raise ValueError(f"'births' must be an array of numbers, got {_shown(births)}")
                for k, age in enumerate(births):
                    if not _all_of((int, float), [age]):
                        raise ValueError(f"births[{k}] must be a number, got {_shown(age)}")
                Stick(float(v), PointMeasure(births))  # the constructors raise their own error
            except (ValueError, OverflowError) as exc:  # an int too big for a float
                raise ValueError(f"stick {i}: {exc}") from exc

    @classmethod
    def from_sticks(cls, sticks: Sequence[Stick]) -> "StickBatch":
        n = len(sticks)
        atoms = list(map(operator.attrgetter("births._atoms"), sticks))
        counts = np.fromiter(map(len, atoms), dtype=np.int64, count=n)
        v = np.fromiter(map(operator.attrgetter("v"), sticks), dtype=float, count=n)
        ages = np.fromiter(chain.from_iterable(atoms), dtype=float, count=int(counts.sum()))
        return cls(counts, v, ages)


def root_first_sum(ages: Iterable[float]) -> float:
    """``((0.0 + ages[0]) + ages[1]) + ...``, grafting's order for ages given
    root first (builtin ``sum`` compensates float sums from Python 3.12)."""
    return reduce(operator.add, ages, 0.0)


# sticks per block of a stick file: one block's objects and text are made
# and freed before the next, so writing holds a few megabytes at most
_STICK_BLOCK = 4096


def write_sticks_json(batch: StickBatch, fp: IO[str]) -> None:
    """Write ``json.dumps(batch.to_json())`` to ``fp``, ``_STICK_BLOCK``
    sticks at a time: each block is ``json.dumps`` of its sticks' objects
    without the brackets, and the blocks join with ``", "`` as list items
    do, so the bytes are the same."""
    fp.write("[")
    for lo in range(0, batch.n, _STICK_BLOCK):
        fp.write((", " if lo else "") + json.dumps(batch.to_json(lo, lo + _STICK_BLOCK))[1:-1])
    fp.write("]")


def sticks_from_json(text: str) -> StickBatch:
    """``StickBatch.from_json`` of a JSON text (syntax errors carry the json module's line and column)."""
    try:
        return StickBatch.from_json(json.loads(text))
    except RecursionError:
        raise ValueError("stick file nests too deeply") from None
