"""Finite point measures of birth ages, sticks, and spine sequences.

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
``truncate_largest`` under ties.

A *spine sequence* is a finite sequence of non-zero point measures.  It
records, for a focal individual, the unexplored birth ages carried by each of
its ancestors, from the most ancient (element 0) down to its parent (last
element).  The zero measure acts as the neutral element for concatenation,
and the ``sup_support`` functional extends additively to sequences.

A *stick batch* is the flat-array form of a stick sequence that the samplers
and the height kernel work on; ``StickBatch`` owns its layout.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "PointMeasure",
    "ZERO",
    "Stick",
    "StickBatch",
    "SpineSeq",
    "EMPTY_SPINE",
    "sticks_to_json",
    "sticks_from_json",
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

    @classmethod
    def _from_sorted(cls, atoms: tuple[float, ...]) -> "PointMeasure":
        # Internal fast path: ``atoms`` is already non-increasing and positive.
        m = cls.__new__(cls)
        m._atoms = atoms
        return m

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
        return PointMeasure._from_sorted(self._atoms[k:])

    def age_integral(self) -> float:
        """Sum of all atom ages, i.e. the integral of the identity."""
        return math.fsum(self._atoms)

    def isclose(self, other: "PointMeasure", tol: float = 1e-9) -> bool:
        """Same atom multiset up to an absolute tolerance per atom."""
        if len(self._atoms) != len(other._atoms):
            return False
        return all(abs(a - b) <= tol for a, b in zip(self._atoms, other._atoms))

    def __iter__(self) -> Iterator[float]:
        return iter(self._atoms)

    def __len__(self) -> int:
        return len(self._atoms)

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


@dataclass(frozen=True)
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

    @property
    def offspring(self) -> int:
        """Number of children (mass of the birth measure)."""
        return self.births.mass

    def to_json(self) -> dict:
        return {"v": self.v, "births": list(self.births.atoms)}

    @classmethod
    def from_json(cls, obj: dict) -> "Stick":
        if not isinstance(obj, dict) or "v" not in obj or "births" not in obj:
            raise ValueError(f"stick must be an object with 'v' and 'births', got {obj!r}")
        return cls(float(obj["v"]), PointMeasure(obj["births"]))


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
        np.cumsum(counts, out=offsets[1:])
        return offsets

    @property
    def n(self) -> int:
        return len(self.counts)

    def measure(self, i: int) -> PointMeasure:
        return PointMeasure(self.ages[self.offsets[i] : self.offsets[i + 1]])

    def stick(self, i: int) -> Stick:
        return Stick(float(self.v[i]), self.measure(i))

    def to_sticks(self) -> list[Stick]:
        return [self.stick(i) for i in range(self.n)]

    @classmethod
    def from_sticks(cls, sticks: Sequence[Stick]) -> "StickBatch":
        counts = np.array([s.births.mass for s in sticks], dtype=np.int64)
        v = np.array([s.v for s in sticks], dtype=float)
        ages = np.array([a for s in sticks for a in s.births.atoms], dtype=float)
        return cls(counts, v, ages)


@dataclass(frozen=True)
class SpineSeq:
    """A finite sequence of non-zero point measures.

    Element 0 belongs to the most ancient ancestor on the spine, the last
    element to the parent of the focal individual.  The empty sequence plays
    the role of the zero measure.
    """

    elements: tuple[PointMeasure, ...] = ()

    def __post_init__(self):
        if any(m.is_zero for m in self.elements):
            raise ValueError("spine sequences may not contain the zero measure")

    @property
    def length(self) -> int:
        return len(self.elements)

    @property
    def is_zero(self) -> bool:
        return not self.elements

    @property
    def sup_support(self) -> float:
        """Sum of the elements' largest atoms (additive extension)."""
        return math.fsum(m.sup_support for m in self.elements)

    def isclose(self, other: "SpineSeq", tol: float = 1e-9) -> bool:
        if len(self.elements) != len(other.elements):
            return False
        return all(a.isclose(b, tol) for a, b in zip(self.elements, other.elements))

    def __iter__(self) -> Iterator[PointMeasure]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __bool__(self) -> bool:
        return bool(self.elements)

    def __getitem__(self, k):
        return self.elements[k]

    def __repr__(self) -> str:
        return f"SpineSeq({[list(m.atoms) for m in self.elements]!r})"


#: The empty spine sequence.
EMPTY_SPINE = SpineSeq()

def sticks_to_json(sticks: Sequence[Stick]) -> str:
    return json.dumps([s.to_json() for s in sticks])


def sticks_from_json(text: str) -> list[Stick]:
    """Parse a JSON array of ``{"v": ..., "births": [...]}`` objects.

    Errors carry the offending stick index (JSON syntax errors already carry
    line/column information from the json module).
    """
    data = json.loads(text)
    if not isinstance(data, list):
        raise ValueError("stick file must contain a JSON array")
    sticks = []
    for i, obj in enumerate(data):
        try:
            sticks.append(Stick.from_json(obj))
        except (ValueError, TypeError) as exc:
            raise ValueError(f"stick {i}: {exc}") from exc
    return sticks
