"""Stick laws: samplers for (life length, birth-age measure) pairs.

A law provides vectorized draws of child counts, life lengths and birth
ages, plus the biased variants the renewal theory needs:

* counts biased by their own size (for the uniformly-picked-atom age);
* life lengths biased by their length (the stick covering a stationary
  inspection time).

Descriptor attributes expose the means that the scaling limits are built
from: ``mean_offspring``, ``mean_v`` and ``mean_ystar`` (the expected total
of birth ages per stick, which for a critical law equals the mean age of a
uniformly chosen atom of the size-biased stick).  ``arithmetic`` says
whether life lengths live on a lattice (with ``span`` the mesh).
"""

from __future__ import annotations

import re
from typing import Callable, Optional, Sequence

import numpy as np

from ..measures import PointMeasure, Stick, StickBatch

__all__ = [
    "StickBatch",
    "StickLaw",
    "ConstantStickLaw",
    "GeometricUniformLaw",
    "TwoPointAgesLaw",
    "GaltonWatsonUnitLaw",
    "ExponentialUniformLaw",
    "StableFamilyLaw",
    "AGE_MAPS",
    "parse_law",
    "random_verification_law",
]


def _sort_ages_desc(ages: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sort a flat age array descending within each stick."""
    # NumPy sorts complex numbers lexicographically, by real part and then by
    # imaginary part, so one direct sort of (stick index) + 1j * (-age) orders
    # by stick and then by descending age.  Stick indices are exact floats
    # below 2**53.  Only the sorted values come back and tied ages are equal
    # floats, so the unstable sort gives the stable lexsort's result bit for
    # bit (ages are positive, so no -0.0 ties with 0.0 can be reordered).
    keys = np.empty(len(ages), dtype=complex)
    keys.real = np.repeat(np.arange(len(counts), dtype=float), counts)
    np.negative(ages, out=keys.imag)
    keys.sort()
    return -keys.imag


class StickLaw:
    """Base class; subclasses fill in the samplers and descriptors."""

    name: str = "stick-law"
    mean_offspring: float
    mean_v: float
    mean_ystar: Optional[float]  # E of the total of birth ages per stick
    arithmetic: bool
    span: Optional[float]
    eps_rule: str = "invsqrt"

    # -- core samplers -------------------------------------------------
    def sample_counts(self, rng: np.random.Generator, size=None) -> np.ndarray:
        raise NotImplementedError

    def sample_v(self, rng: np.random.Generator, size=None):
        """Life lengths, marginally (independent of counts by default)."""
        raise NotImplementedError

    def sample_v_given_counts(self, rng: np.random.Generator, counts: np.ndarray):
        return self.sample_v(rng, np.shape(counts) if np.ndim(counts) else None)

    def sample_ages_flat(
        self, rng: np.random.Generator, counts: np.ndarray, v: np.ndarray
    ) -> np.ndarray:
        """Flat array of birth ages, non-increasing within each stick."""
        raise NotImplementedError

    # -- biased variants ------------------------------------------------
    def sample_sizebiased_counts(self, rng: np.random.Generator, size=None) -> np.ndarray:
        raise NotImplementedError

    def sample_length_biased_v(self, rng: np.random.Generator, size=None):
        raise NotImplementedError

    def count_pmf(self, kmax: int) -> Optional[np.ndarray]:
        """Offspring pmf on 0..kmax, or None when not available in closed form."""
        return None

    # -- assembled draws -------------------------------------------------
    def sample_batch(self, rng: np.random.Generator, n: int) -> StickBatch:
        counts = self.sample_counts(rng, n)
        v = np.asarray(self.sample_v_given_counts(rng, counts), dtype=float)
        ages = self.sample_ages_flat(rng, counts, v)
        return StickBatch(counts, v, ages)

    def sample_stick(self, rng: np.random.Generator) -> Stick:
        return self.sample_batch(rng, 1).stick(0)

    def sample_ystars(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Ages of a uniformly chosen atom of size-biased sticks.

        Default: materialize the size-biased sticks and pick one atom each.
        Laws with heavy-tailed size-biased counts override this with an
        equivalent draw that avoids materializing huge sticks.
        """
        counts = self.sample_sizebiased_counts(rng, n)
        if np.any(counts < 1):
            raise ValueError("size-biased counts must be >= 1")
        v = np.asarray(self.sample_v_given_counts(rng, counts), dtype=float)
        ages = self.sample_ages_flat(rng, counts, v)
        offsets = StickBatch.offsets_for(counts)
        picks = offsets[:-1] + rng.integers(0, counts)
        return ages[picks]

    def describe(self) -> dict:
        return {
            "name": self.name,
            "mean_offspring": self.mean_offspring,
            "mean_v": self.mean_v,
            "mean_ystar": self.mean_ystar,
            "arithmetic": self.arithmetic,
            "span": self.span,
        }


def _uniform_ages(rng, counts, v) -> np.ndarray:
    """I.i.d. ages uniform on (0, v], flattened and sorted descending."""
    reps = np.repeat(np.asarray(v, dtype=float), counts)
    ages = reps * (1.0 - rng.random(reps.shape))
    return _sort_ages_desc(ages, counts)


class ConstantStickLaw(StickLaw):
    """Every stick identical: fixed life length and fixed birth ages."""

    def __init__(self, v: float = 1.0, ages: Sequence[float] = (), arithmetic: bool = True):
        self.fixed = Stick(float(v), PointMeasure(ages))
        self.name = "const"
        self.mean_offspring = float(self.fixed.births.mass)
        self.mean_v = float(v)
        self.mean_ystar = self.fixed.births.age_integral()
        self.arithmetic = bool(arithmetic)
        self.span = float(v) if arithmetic else None

    def sample_counts(self, rng, size=None):
        return np.full(size if size is not None else (), self.fixed.births.mass, dtype=np.int64)

    def sample_v(self, rng, size=None):
        return np.full(size, self.fixed.v) if size is not None else self.fixed.v

    def sample_ages_flat(self, rng, counts, v):
        return np.tile(np.asarray(self.fixed.births.atoms), int(np.size(counts)))

    def sample_sizebiased_counts(self, rng, size=None):
        if self.fixed.births.mass == 0:
            raise ValueError("size-biased count undefined: offspring is always 0")
        return self.sample_counts(rng, size)

    def sample_length_biased_v(self, rng, size=None):
        return self.sample_v(rng, size)

    def count_pmf(self, kmax):
        pmf = np.zeros(kmax + 1)
        if self.fixed.births.mass <= kmax:
            pmf[self.fixed.births.mass] = 1.0
        return pmf


class _GeometricCountLaw(StickLaw):
    """Shared offspring part of the geometric laws.

    Counts have pmf q(1-q)^k on k >= 0 with q = 1/(1+mean); subclasses
    supply the life lengths and birth ages.
    """

    def __init__(self, mean_offspring: float):
        if mean_offspring < 0:
            raise ValueError("mean offspring must be >= 0")
        self.mean_offspring = float(mean_offspring)
        self.q = 1.0 / (1.0 + self.mean_offspring)

    def sample_counts(self, rng, size=None):
        return rng.geometric(self.q, size=size) - 1

    def sample_sizebiased_counts(self, rng, size=None):
        # k * q(1-q)^k / mean == (j+1) q^2 (1-q)^j at k = j+1: negative
        # binomial with 2 successes, shifted by one.
        if self.mean_offspring == 0:
            raise ValueError("size-biased count undefined: offspring is always 0")
        return 1 + rng.negative_binomial(2, self.q, size=size)

    def count_pmf(self, kmax):
        k = np.arange(kmax + 1)
        return self.q * (1.0 - self.q) ** k


class GeometricUniformLaw(_GeometricCountLaw):
    """Geometric offspring counts, constant life length v, uniform ages.

    Ages are i.i.d. uniform on (0, v]; with ``lattice=L`` they are instead
    uniform on {v/L, 2v/L, ..., v}, which creates plenty of ties.
    """

    def __init__(self, mean_offspring: float = 1.0, v: float = 1.0, lattice: Optional[int] = None):
        super().__init__(mean_offspring)
        self.name = "geo-uniform" if lattice is None else "geo-lattice"
        self.vconst = float(v)
        self.lattice = lattice
        self.mean_v = float(v)
        if lattice is None:
            mean_age = v / 2.0
        else:
            mean_age = v * (lattice + 1) / (2.0 * lattice)
        self.mean_ystar = self.mean_offspring * mean_age
        self.arithmetic = True  # V is constant
        self.span = float(v)

    def sample_v(self, rng, size=None):
        return np.full(size, self.vconst) if size is not None else self.vconst

    def sample_ages_flat(self, rng, counts, v):
        if self.lattice is None:
            return _uniform_ages(rng, counts, v)
        total = int(np.sum(counts))
        ages = self.vconst * rng.integers(1, self.lattice + 1, size=total) / self.lattice
        return _sort_ages_desc(ages, counts)

    def sample_length_biased_v(self, rng, size=None):
        return self.sample_v(rng, size)


class TwoPointAgesLaw(StickLaw):
    """Either no children, or exactly two at fixed ages.

    The classical binary-splitting example: counts are 0 or 2, the two birth
    ages are deterministic.
    """

    def __init__(self, ages: tuple[float, float] = (1.0, 0.5), p2: float = 0.5, v: Optional[float] = None):
        if not 0 <= p2 <= 1:
            raise ValueError("p2 must be in [0, 1]")
        self.pair = tuple(sorted((float(ages[0]), float(ages[1])), reverse=True))
        self.p2 = float(p2)
        self.vconst = float(v) if v is not None else max(self.pair)
        if self.pair[0] > self.vconst:
            raise ValueError("ages must fit inside the life length")
        self.name = "two-point"
        self.mean_offspring = 2.0 * p2
        self.mean_v = self.vconst
        self.mean_ystar = p2 * (self.pair[0] + self.pair[1])
        self.arithmetic = True
        self.span = self.vconst

    def sample_counts(self, rng, size=None):
        return 2 * (rng.random(size) < self.p2).astype(np.int64)

    def sample_v(self, rng, size=None):
        return np.full(size, self.vconst) if size is not None else self.vconst

    def sample_ages_flat(self, rng, counts, v):
        n2 = int(np.sum(np.asarray(counts) == 2))
        return np.tile(np.asarray(self.pair), n2)

    def sample_sizebiased_counts(self, rng, size=None):
        if self.p2 == 0:
            raise ValueError("size-biased count undefined: offspring is always 0")
        return np.full(size if size is not None else (), 2, dtype=np.int64)

    def sample_length_biased_v(self, rng, size=None):
        return self.sample_v(rng, size)

    def count_pmf(self, kmax):
        pmf = np.zeros(kmax + 1)
        pmf[0] = 1.0 - self.p2
        if kmax >= 2:
            pmf[2] = self.p2
        return pmf


class GaltonWatsonUnitLaw(_GeometricCountLaw):
    """Unit life lengths, all births at age 1: the image of the
    genealogical collapse.  Offspring counts are geometric with the given
    mean.  Chronological height and generation coincide exactly on these
    forests."""

    def __init__(self, mean_offspring: float = 1.0):
        super().__init__(mean_offspring)
        self.name = "gw"
        self.mean_v = 1.0
        self.mean_ystar = self.mean_offspring
        self.arithmetic = True
        self.span = 1.0

    def sample_v(self, rng, size=None):
        return np.ones(size) if size is not None else 1.0

    def sample_ages_flat(self, rng, counts, v):
        return np.ones(int(np.sum(counts)))

    def sample_length_biased_v(self, rng, size=None):
        return self.sample_v(rng, size)


class ExponentialUniformLaw(_GeometricCountLaw):
    """Exponential life lengths, geometric counts, uniform ages.

    The non-arithmetic workhorse: the stationary overshoot of an
    exponential life length is again exponential.
    """

    def __init__(self, rate: float = 1.0, mean_offspring: float = 1.0):
        if rate <= 0:
            raise ValueError("rate must be positive")
        super().__init__(mean_offspring)
        self.name = "exp-uniform"
        self.rate = float(rate)
        self.mean_v = 1.0 / rate
        self.mean_ystar = self.mean_offspring * self.mean_v / 2.0
        self.arithmetic = False
        self.span = None

    def sample_v(self, rng, size=None):
        return rng.exponential(1.0 / self.rate, size=size)

    def sample_ages_flat(self, rng, counts, v):
        return _uniform_ages(rng, counts, v)

    def sample_length_biased_v(self, rng, size=None):
        # density v * rate * exp(-rate v) / E V = Gamma(2, 1/rate)
        return rng.gamma(2.0, 1.0 / self.rate, size=size)


def _age_map_identity(k: np.ndarray) -> np.ndarray:
    return k.astype(float)


def _age_map_sqrt(k: np.ndarray) -> np.ndarray:
    return np.sqrt(k)


def _age_map_log1p(k: np.ndarray) -> np.ndarray:
    return np.log1p(k)


AGE_MAPS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "identity": _age_map_identity,
    "sqrt": _age_map_sqrt,
    "log1p": _age_map_log1p,
}


class StableFamilyLaw(StickLaw):
    """Critical heavy-tailed examples with life length 1 + count.

    Offspring counts have pmf k^-(alpha+1) / zeta(alpha) on k >= 1 and the
    complementary mass at 0; the count mean is exactly 1 for every alpha in
    (1, 2].  Three variants share the counts and life lengths and differ in
    the ages:

    * variant 1 -- all births at age 1;
    * variant 2 -- one birth at age = count, the rest at age 1;
    * variant "generalized" -- one birth at age ``age_map(count)``, the rest
      at age 1.

    A childless stick carries the zero measure (variant 2's formal "atom at
    age 0" is not realizable, which shifts the mean total age to
    1 + P(count = 0) instead of the idealized 1).
    """

    def __init__(self, variant: str = "1", alpha: float = 1.5, age_map: Optional[str] = None):
        if not 1.0 < alpha <= 2.0:
            raise ValueError("alpha must be in (1, 2]")
        variant = str(variant)
        if variant not in {"1", "2", "generalized"}:
            raise ValueError(f"unknown variant {variant!r}")
        if variant == "generalized":
            if age_map is None:
                age_map = "sqrt"
            if age_map not in AGE_MAPS:
                raise ValueError(f"unknown age map {age_map!r}; options: {sorted(AGE_MAPS)}")
        self.variant = variant
        self.alpha = float(alpha)
        self.age_map_name = age_map
        self.name = f"family{variant}" if variant != "generalized" else f"family-gen-{age_map}"
        from scipy.special import zeta

        self.z_a = float(zeta(alpha))
        self.z_a1 = float(zeta(alpha + 1.0))
        self.p0 = 1.0 - self.z_a1 / self.z_a
        self.mean_offspring = 1.0
        self.mean_v = 2.0
        if variant == "1":
            self.mean_ystar = 1.0
        elif variant == "2":
            self.mean_ystar = 1.0 + self.p0
        else:
            self.mean_ystar = self.p0 + self._series_mean_mapped_age()
        self.arithmetic = True
        self.span = 1.0
        self.eps_rule = f"stable:{alpha}"

    def _series_mean_mapped_age(self) -> float:
        # sum f(k) k^-(alpha+1) / zeta(alpha) over k >= 1: explicit terms up
        # to a cutoff, then an integral tail (the summand is decreasing out
        # there, so the swap error is below the last term, ~ cutoff^-2).
        from scipy.integrate import quad

        f = AGE_MAPS[self.age_map_name]
        cutoff = 1 << 22
        total = 0.0
        for k0 in range(1, cutoff, 1 << 20):
            k = np.arange(k0, min(k0 + (1 << 20), cutoff), dtype=float)
            total += float(np.sum(f(k) * k ** -(self.alpha + 1.0)))
        tail, _ = quad(
            lambda x: float(f(np.array([x]))[0]) * x ** -(self.alpha + 1.0),
            cutoff,
            np.inf,
        )
        return (total + tail) / self.z_a

    def sample_counts(self, rng, size=None):
        nonzero = rng.random(size) < self.z_a1 / self.z_a
        z = rng.zipf(self.alpha + 1.0, size=size)
        return np.where(nonzero, z, 0).astype(np.int64)

    def sample_v(self, rng, size=None):
        return 1.0 + self.sample_counts(rng, size)

    def sample_v_given_counts(self, rng, counts):
        return 1.0 + np.asarray(counts, dtype=float)

    def _first_atom(self, counts: np.ndarray) -> np.ndarray:
        k = np.asarray(counts, dtype=float)
        if self.variant == "1":
            return np.ones_like(k)
        if self.variant == "2":
            return k
        return AGE_MAPS[self.age_map_name](k)

    def sample_ages_flat(self, rng, counts, v):
        counts = np.asarray(counts)
        total = int(counts.sum())
        ages = np.ones(total)
        nz = counts > 0
        first_idx = StickBatch.offsets_for(counts)[:-1][nz]
        ages[first_idx] = self._first_atom(counts[nz])
        if self.variant == "generalized":
            ages = _sort_ages_desc(ages, counts)
        return ages

    def sample_sizebiased_counts(self, rng, size=None):
        # k * p_k has pmf k^-alpha / zeta(alpha): a plain Zipf(alpha) draw.
        return rng.zipf(self.alpha, size=size)

    def sample_length_biased_v(self, rng, size=None):
        # (1+k) p_k / 2 splits into thirds: zero counts, a Zipf(alpha+1)
        # part, and a Zipf(alpha) part.
        scalar = size is None
        u = rng.random(size if size is not None else 1)
        za, za1 = self.z_a, self.z_a1
        w_zero = self.p0 / 2.0
        w_z1 = za1 / (2.0 * za)
        k = np.where(
            u < w_zero,
            0,
            np.where(u < w_zero + w_z1, rng.zipf(self.alpha + 1.0, np.shape(u)), rng.zipf(self.alpha, np.shape(u))),
        )
        out = 1.0 + k
        return float(out[0]) if scalar else out

    def sample_ystars(self, rng, n):
        # A uniformly chosen atom of the size-biased stick is the special
        # first atom with probability 1/count, else an age-1 atom; no need
        # to materialize heavy-tailed sticks.
        k = self.sample_sizebiased_counts(rng, n)
        picked_first = rng.integers(0, k) == 0
        return np.where(picked_first, self._first_atom(k), 1.0)

    def count_pmf(self, kmax):
        k = np.arange(1, kmax + 1, dtype=float)
        pmf = np.zeros(kmax + 1)
        pmf[0] = self.p0
        pmf[1:] = k ** -(self.alpha + 1.0) / self.z_a
        return pmf


_LAW_RE = re.compile(r"^([a-z0-9_-]+)(?:\((.*)\))?$")


def parse_law(spec: str) -> StickLaw:
    """Parse a law spec like ``gw``, ``geo-uniform(mean=1,v=2)``,
    ``family2(alpha=1.5)`` or ``const(v=1,ages=0.7:0.3)``."""
    m = _LAW_RE.match(spec.strip())
    if not m:
        raise ValueError(f"cannot parse law spec {spec!r}")
    name, argstr = m.group(1), m.group(2) or ""
    kwargs: dict[str, str] = {}
    for part in filter(None, (p.strip() for p in argstr.split(","))):
        if "=" not in part:
            raise ValueError(f"law argument {part!r} is not key=value")
        key, val = part.split("=", 1)
        kwargs[key.strip()] = val.strip()

    def fnum(key: str, default: float) -> float:
        return float(kwargs.pop(key)) if key in kwargs else default

    try:
        if name == "gw":
            law: StickLaw = GaltonWatsonUnitLaw(fnum("mean", 1.0))
        elif name == "geo-uniform":
            lattice = kwargs.pop("lattice", None)
            law = GeometricUniformLaw(
                fnum("mean", 1.0), fnum("v", 1.0), int(lattice) if lattice else None
            )
        elif name == "two-point":
            law = TwoPointAgesLaw(
                (fnum("a1", 1.0), fnum("a2", 0.5)), fnum("p", 0.5),
                fnum("v", 0.0) or None,
            )
        elif name == "const":
            ages = kwargs.pop("ages", "")
            age_list = [float(a) for a in ages.split(":") if a]
            law = ConstantStickLaw(
                fnum("v", 1.0), age_list, arithmetic=fnum("arithmetic", 1.0) != 0.0
            )
        elif name == "exp-uniform":
            law = ExponentialUniformLaw(fnum("rate", 1.0), fnum("mean", 1.0))
        elif name in {"family1", "family2"}:
            law = StableFamilyLaw(name[-1], fnum("alpha", 1.5))
        elif name in {"family-gen", "generalized"}:
            law = StableFamilyLaw("generalized", fnum("alpha", 1.5), kwargs.pop("f", "sqrt"))
        else:
            raise ValueError(f"unknown law {name!r}")
    except TypeError as exc:
        raise ValueError(f"bad arguments for law {name!r}: {exc}") from exc
    if kwargs:
        raise ValueError(f"unknown arguments for law {name!r}: {sorted(kwargs)}")
    return law


def random_verification_law(rng: np.random.Generator) -> StickLaw:
    """A random subcritical law for identity fuzzing.

    Alternates between continuous uniform ages and a coarse age lattice
    (the latter exercising tie handling in truncations and graft choices).
    """
    mean = float(rng.uniform(0.3, 1.0))
    v = float(rng.uniform(0.5, 2.0))
    if rng.random() < 0.5:
        return GeometricUniformLaw(mean, v)
    return GeometricUniformLaw(mean, v, lattice=4)
