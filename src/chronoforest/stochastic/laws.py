"""Stick laws: samplers for (life length, birth-age measure) pairs.

An individual lives for an arbitrary duration and gives birth at arbitrary
times during its life, so a stick law is three parts, each owning its
draws, its means and its parameter checks:

* a count part (geometric, fixed or two-point, stable family): child
  counts, their pmf and the counts biased by their own size (for the
  uniformly-picked-atom age);
* a life part (constant, exponential, 1 + count): life lengths given the
  counts, and lengths biased by their length (the stick covering a
  stationary inspection time);
* an age part (uniform or lattice on (0, v], fixed atoms, one first atom
  then ones): birth ages given counts and lives, and their arrangement
  non-increasing within each stick.

Every draw of a count or life part takes ``(rng, size)`` and returns an
``ndarray`` of shape ``size``: ``int64`` counts, ``float64`` lengths.

A batch is made in two steps.  ``StickLaw.draw`` makes every generator
call: the counts, then the lives, then the ages in draw order.
``StickLaw.layout`` makes none: the age part's ``arrange`` puts each
stick's ages in non-increasing order (a sort for uniform ages, nothing for
parts that draw them in that order), and ``StickBatch`` checks the layout.
``sample_batch`` is the two in a row; a caller that reads only some
batches, such as the coupling stream, keeps the draws and lays a batch out
when it first reads it.

``StickLaw(name, counts, life, ages)`` assembles the draws and derives the
descriptors the scaling limits are built from: ``mean_offspring``,
``mean_v``, ``mean_ystar`` (the expected total of birth ages per stick)
and ``mean_atom_age`` (``mean_ystar / mean_offspring``, the mean age of a
uniformly chosen atom of the size-biased stick, which for a critical law
is ``mean_ystar`` itself).  ``arithmetic`` says whether life lengths live on a
lattice (with ``span`` the mesh).  The named laws only choose their parts.
"""

from __future__ import annotations

import inspect
import math
import re
from typing import Optional, Sequence

import numpy as np

from .._parallel import both, two_cores
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
    "parse_law",
    "random_verification_law",
]


def _sort_ages_desc(ages: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sort a flat age array descending within each stick.

    NumPy sorts complex numbers lexicographically, by real part and then by
    imaginary part, so one direct sort of (stick index) + 1j * (-age) orders
    by stick and then by descending age.  Stick indices are exact floats
    below 2**53.  Only the sorted values come back and tied ages are equal
    floats, so the unstable sort gives the stable lexsort's result bit for
    bit (ages are positive, so no -0.0 ties with 0.0 can be reordered).  A
    large batch sorts its first half of sticks and its second half on two
    threads: each half sorts within its own sticks, so the halves join end
    to end into the same array.
    """
    keys = np.empty(len(ages), dtype=complex)
    if two_cores(len(ages)):
        half = len(counts) // 2
        cut = int(counts[:half].sum())
        both(
            lambda: _sort_keys(ages[:cut], counts[:half], keys[:cut]),
            lambda: _sort_keys(ages[cut:], counts[half:], keys[cut:]),
        )
    else:
        _sort_keys(ages, counts, keys)
    return -keys.imag


def _sort_keys(ages: np.ndarray, counts: np.ndarray, keys: np.ndarray) -> None:
    """Fill ``keys`` with the complex keys of a run of sticks and sort them."""
    # the stick index: one more at each start of sticks 1, 2, ... (np.repeat
    # would hold the GIL while the other half sorts)
    starts = np.bincount(counts[:-1].cumsum(), minlength=len(ages) + 1)
    keys.real = starts[: len(ages)].cumsum()
    np.negative(ages, out=keys.imag)
    keys.sort()


def _positive_finite(what: str, x: float) -> float:
    x = float(x)
    if not 0.0 < x < math.inf:
        raise ValueError(f"{what} must be positive and finite, got {x!r}")
    return x


def _no_children() -> ValueError:
    return ValueError("size-biased count undefined: offspring is always 0")


# -- count parts ---------------------------------------------------------


class GeometricCounts:
    """Counts with pmf q(1-q)^k on k >= 0, where q = 1/(1+mean)."""

    eps_rule = "invsqrt"

    def __init__(self, mean: float):
        if not 0.0 <= mean < math.inf:
            raise ValueError(f"mean offspring must be >= 0 and finite, got {mean!r}")
        self.mean = float(mean)
        self.q = 1.0 / (1.0 + self.mean)

    def sample(self, rng, size):
        return rng.geometric(self.q, size=size) - 1

    def sizebiased(self, rng, size):
        # k * q(1-q)^k / mean == (j+1) q^2 (1-q)^j at k = j+1: negative
        # binomial with 2 successes, shifted by one.
        if self.mean == 0:
            raise _no_children()
        return 1 + rng.negative_binomial(2, self.q, size=size)

    def pmf(self, kmax: int) -> np.ndarray:
        return self.q * (1.0 - self.q) ** np.arange(kmax + 1)


class FixedCounts:
    """Always k children; given ``p``, k children with probability p and
    none otherwise (one uniform draw per stick)."""

    eps_rule = "invsqrt"

    def __init__(self, k: int, p: Optional[float] = None):
        if p is not None and not 0 <= p <= 1:
            raise ValueError(f"p must be in [0, 1], got {p!r}")
        self.k = int(k)
        self.coin = p is not None
        self.p = float(p) if self.coin else 1.0
        self.mean = self.k * self.p

    def sample(self, rng, size):
        if self.coin:
            return self.k * (rng.random(size) < self.p).astype(np.int64)
        return np.full(size, self.k, dtype=np.int64)

    def sizebiased(self, rng, size):
        # biased by its size, a count of k or 0 is always k
        if self.mean == 0:
            raise _no_children()
        return FixedCounts(self.k).sample(rng, size)

    def pmf(self, kmax: int) -> np.ndarray:
        pmf = np.zeros(kmax + 1)
        pmf[0] = 1.0 - self.p
        if self.k <= kmax:
            pmf[self.k] = self.p
        return pmf


# B_2, B_4, ..., B_28 as (numerator, denominator)
_BERNOULLI = (
    (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6),
    (-3617, 510), (43867, 798), (-174611, 330), (854513, 138),
    (-236364091, 2730), (8553103, 6), (-23749461029, 870),
)


def _zeta_tail(s):
    """zeta(s, 20) = the sum over k >= 20 of k^-s, and its derivative in s,
    for a ``Decimal`` s in the current (40-digit) context.  Euler-Maclaurin
    at n = 20: n^(1-s) / (s-1) + n^-s / 2 + the sum over j = 1..14 of
    B_2j / (2j)! * s (s+1) ... (s+2j-2) * n^(-s-2j+1).  For real s > 1 the
    remainder is below the first omitted (B_30) term, under 2e-32 of zeta(s).
    Every term carries n^-s, so the derivative is -log(n) times the sum plus
    the derivatives of the other factors."""
    from decimal import Decimal
    n = Decimal(20)
    power = n**-s
    total = n * power / (s - 1) + power / 2
    slope = -n * power / (s - 1) ** 2
    rising, d_rising, power = s, Decimal(1), power / n  # s (s+1) ... (s+2j-2), its derivative, n^(-s-2j+1)
    for j, (num, den) in enumerate(_BERNOULLI, start=1):
        coeff = Decimal(num) / (den * math.factorial(2 * j))
        total += coeff * rising * power
        slope += coeff * d_rising * power
        a, b = s + 2 * j - 1, s + 2 * j
        rising, d_rising = rising * a * b, d_rising * a * b + rising * (a + b)
        power /= n * n
    return total, slope - n.ln() * total


def _zeta_digits(s):
    """zeta(s) for real s > 1 as a 40-digit ``Decimal``: 19 terms, prime
    k^-s as powers and composite ones as products, then ``_zeta_tail``."""
    if not 1.0 < float(s) < math.inf:
        raise ValueError(f"zeta(s) needs a real s > 1, got {s!r}")
    from decimal import Context, Decimal, localcontext
    with localcontext(Context(prec=40)):
        s, power = Decimal(s), [0, 1]  # power[k] = k^-s for k >= 1
        for k in range(2, 20):
            d = next((d for d in range(2, k) if k % d == 0), k)
            power.append(Decimal(k) ** -s if d == k else power[d] * power[k // d])
        return sum(power) + _zeta_tail(s)[0]


def _log1p_series(s):
    """The sum over k >= 1 of log(1 + k) k^-s for a ``Decimal`` s > 1, in the
    current (40-digit) context: the terms k <= 19, then, from
    log(1 + k) = log k + log(1 + 1/k), -d/ds zeta(s, 20) plus the sum over
    j = 1..30 of (-1)^(j+1) zeta(s+j, 20) / j (the next term is below 1e-41)."""
    from decimal import Decimal
    logs = [Decimal(k).ln() for k in range(1, 21)]
    total = sum(logs[k] * (-s * logs[k - 1]).exp() for k in range(1, 20)) - _zeta_tail(s)[1]
    return total + sum((-1) ** (j + 1) * _zeta_tail(s + j)[0] / j for j in range(1, 31))


def _zeta(s: float) -> float:
    """zeta(s) for real s > 1, rounded once from within 2e-32 of it (see
    ``_zeta_tail``): the nearest float unless zeta(s) is that close to a
    midpoint between two floats."""
    return float(_zeta_digits(s))


class StableCounts:
    """Counts with pmf k^-(alpha+1) / zeta(alpha) on k >= 1 and the
    complementary mass ``p0`` at 0; the mean is exactly 1 for every alpha
    in (1, 2].  zeta(alpha) and zeta(alpha + 1) come from ``_zeta``, so the
    laws need no special-function library.
    """

    mean = 1.0

    def __init__(self, alpha: float):
        if not 1.0 < alpha <= 2.0:
            raise ValueError(f"alpha must be in (1, 2], got {alpha!r}")
        self.alpha = float(alpha)
        self.eps_rule = f"stable:{alpha}"
        self.z_a = _zeta(self.alpha)
        self.z_a1 = _zeta(self.alpha + 1.0)
        self.p0 = 1.0 - self.z_a1 / self.z_a

    def sample(self, rng, size):
        nonzero = rng.random(size) < self.z_a1 / self.z_a
        z = rng.zipf(self.alpha + 1.0, size=size)
        return np.where(nonzero, z, 0).astype(np.int64)

    def sizebiased(self, rng, size):
        # k * p_k has pmf k^-alpha / zeta(alpha): a plain Zipf(alpha) draw.
        return rng.zipf(self.alpha, size=size)

    def pmf(self, kmax: int) -> np.ndarray:
        k = np.arange(1, kmax + 1, dtype=float)
        pmf = np.zeros(kmax + 1)
        pmf[0] = self.p0
        pmf[1:] = k ** -(self.alpha + 1.0) / self.z_a
        return pmf

    def mean_of(self, f) -> float:
        """E f(count) over counts >= 1 (childless sticks carry no atom) for
        f = ``identity`` (exactly 1), ``np.sqrt`` (zeta(alpha + 1/2) /
        zeta(alpha)) and ``np.log1p`` (``_log1p_series(alpha + 1)`` /
        zeta(alpha)), divided in 40 digits and rounded once."""
        if f is identity:
            return 1.0
        from decimal import Context, Decimal, localcontext
        with localcontext(Context(prec=40)):
            alpha = Decimal(self.alpha)
            if f is np.sqrt:
                total = _zeta_digits(alpha + Decimal("0.5"))
            elif f is np.log1p:
                total = _log1p_series(alpha + 1)
            else:
                raise ValueError(f"E f(count) has no closed form here for f={f!r}; maps: {sorted(_AGE_MAPS)}")
            return float(total / _zeta_digits(alpha))


# -- life parts ----------------------------------------------------------


class _Life:
    def given(self, rng, counts):
        """Life lengths given the counts (independent of them here)."""
        return self.sample(rng, np.shape(counts))


class ConstantLife(_Life):
    """Every life has length v."""

    def __init__(self, v: float, arithmetic: bool = True):
        self.v = self.mean = _positive_finite("life length v", v)
        self.arithmetic = bool(arithmetic)
        self.span = self.v if arithmetic else None

    def sample(self, rng, size):
        return np.full(size, self.v)

    length_biased = sample


class ExponentialLife(_Life):
    """Exponential lives: the stationary overshoot is again exponential."""

    arithmetic = False
    span = None

    def __init__(self, rate: float):
        self.rate = _positive_finite("rate", rate)
        self.mean = 1.0 / self.rate

    def sample(self, rng, size):
        return rng.exponential(1.0 / self.rate, size=size)

    def length_biased(self, rng, size):
        # density v * rate * exp(-rate v) / E V = Gamma(2, 1/rate)
        return rng.gamma(2.0, 1.0 / self.rate, size=size)


class OnePlusCountLife(_Life):
    """Life length 1 + count, for stable-family counts."""

    arithmetic = True
    span = 1.0

    def __init__(self, counts: StableCounts):
        self.counts = counts
        self.mean = 1.0 + counts.mean

    def sample(self, rng, size):
        return 1.0 + self.counts.sample(rng, size)

    def given(self, rng, counts):
        return 1.0 + counts

    def length_biased(self, rng, size):
        # (1+k) p_k / 2 splits into thirds: zero counts, a Zipf(alpha+1)
        # part, and a Zipf(alpha) part.
        c = self.counts
        u = rng.random(size)
        w_zero = c.p0 / 2.0
        w_z1 = c.z_a1 / (2.0 * c.z_a)
        k = np.where(
            u < w_zero,
            0,
            np.where(u < w_zero + w_z1, rng.zipf(c.alpha + 1.0, size), rng.zipf(c.alpha, size)),
        )
        return 1.0 + k


# -- age parts -----------------------------------------------------------


class _Ages:
    def arrange(self, ages, counts):
        """Each stick's drawn ages in non-increasing order; here they are
        drawn in that order already."""
        return ages

    def pick(self, rng, counts, v):
        """Age of one uniformly chosen atom per stick (counts >= 1)."""
        ages = self.arrange(self.sample(rng, counts, v), counts)
        return ages[StickBatch.offsets_for(counts)[:-1] + rng.integers(0, counts)]


class UniformAges(_Ages):
    """I.i.d. ages uniform on (0, v]; with ``lattice=L`` uniform on
    {v/L, 2v/L, ..., v} instead, which creates plenty of ties."""

    def __init__(self, lattice: Optional[int] = None):
        if lattice is not None and not (float(lattice).is_integer() and lattice >= 1):
            raise ValueError(f"lattice must be an integer >= 1, got {lattice!r}")
        self.lattice = None if lattice is None else int(lattice)

    def sample(self, rng, counts, v):
        reps = np.repeat(np.asarray(v, dtype=float), counts)
        if self.lattice is None:
            return reps * (1.0 - rng.random(reps.shape))
        return reps * rng.integers(1, self.lattice + 1, size=len(reps)) / self.lattice

    def arrange(self, ages, counts):
        # i.i.d. draws come in any order: sort them within each stick
        return _sort_ages_desc(ages, counts)

    def mean_total(self, counts, life) -> float:
        if self.lattice is None:
            return counts.mean * (life.mean / 2.0)
        return counts.mean * (life.mean * (self.lattice + 1) / (2.0 * self.lattice))


class FixedAges(_Ages):
    """The same atoms on every stick with children; they must lie in (0, v]."""

    def __init__(self, atoms: Sequence[float], v: float):
        self.atoms = np.asarray(Stick(float(v), PointMeasure(atoms)).births.atoms, dtype=float)

    def sample(self, rng, counts, v):
        return np.tile(self.atoms, np.count_nonzero(counts))

    def mean_total(self, counts: FixedCounts, life) -> float:
        return counts.p * math.fsum(self.atoms)


def identity(k: np.ndarray) -> np.ndarray:
    return k


# module-level maps (not lambdas), so that laws pickle for the worker pool
_AGE_MAPS = {"identity": identity, "sqrt": np.sqrt, "log1p": np.log1p}


class FirstAtomAges(_Ages):
    """One atom at age ``first(count)`` and the others at age 1 (every atom
    at age 1 when ``first`` is None).

    Every map here keeps the first atom on top (``first(k) >= 1`` for
    k >= 2), so the ages come out non-increasing without a sort.  With a
    mean-one count law the expected total age is P(count = 0) plus
    E first(count) over counts >= 1 (``StableCounts.mean_of``).
    """

    def __init__(self, first=None):
        self.first = first

    def sample(self, rng, counts, v):
        ages = np.ones(int(np.sum(counts)))
        if self.first is not None:
            nz = counts > 0
            ages[StickBatch.offsets_for(counts)[:-1][nz]] = self.first(counts[nz].astype(float))
        return ages

    def pick(self, rng, counts, v):
        # A uniformly chosen atom is the first one with probability 1/count,
        # else an age-1 atom; no need to materialize heavy-tailed sticks.
        picked_first = rng.integers(0, counts) == 0
        first = 1.0 if self.first is None else self.first(np.asarray(counts, dtype=float))
        return np.where(picked_first, first, 1.0)

    def mean_total(self, counts, life) -> float:
        if self.first is None:
            return counts.mean
        return counts.p0 + counts.mean_of(self.first)


# -- assembled laws ------------------------------------------------------


class StickLaw:
    """A count, a life and an age part, and the draws assembled from them."""

    def __init__(self, name: str, counts, life, ages):
        self.name = name
        self.counts = counts
        self.life = life
        self.ages = ages
        self.mean_offspring = counts.mean
        self.mean_v = life.mean
        self.mean_ystar = ages.mean_total(counts, life)
        # E A, the mean age of a uniformly chosen atom of the size-biased
        # stick: the constant that stretches generation into height (every
        # depth of a childless law is 0, so its constant never matters)
        self.mean_atom_age = self.mean_ystar / self.mean_offspring if self.mean_offspring else 0.0
        self.arithmetic = life.arithmetic
        self.span = life.span
        self.eps_rule = counts.eps_rule

    def draw(self, rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Counts, life lengths and flat ages of n sticks, each stick's
        ages in draw order: every generator call of ``sample_batch``."""
        counts = self.counts.sample(rng, n)
        v = self.life.given(rng, counts)
        return counts, v, self.ages.sample(rng, counts, v)

    def layout(self, counts: np.ndarray, v: np.ndarray, ages: np.ndarray) -> StickBatch:
        """The checked ``StickBatch`` of a ``draw``; no generator call."""
        return StickBatch(counts, v, self.ages.arrange(ages, counts))

    def sample_batch(self, rng: np.random.Generator, n: int) -> StickBatch:
        return self.layout(*self.draw(rng, n))

    def require_subcritical(self, what: str) -> None:
        """Refuse a supercritical law: ``what`` needs mean offspring <= 1,
        compared exactly (every critical named law has a mean of exactly 1.0)."""
        if not 0.0 <= self.mean_offspring <= 1.0:
            raise ValueError(f"{what} need a (sub)critical law")

    def sample_ystars(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Ages of a uniformly chosen atom of n size-biased sticks."""
        counts = self.counts.sizebiased(rng, n)
        if np.any(counts < 1):
            raise ValueError("size-biased counts must be >= 1")
        v = self.life.given(rng, counts)
        return self.ages.pick(rng, counts, v)

    def describe(self) -> dict:
        return {
            "name": self.name,
            "mean_offspring": self.mean_offspring,
            "mean_v": self.mean_v,
            "mean_ystar": self.mean_ystar,
            "arithmetic": self.arithmetic,
            "span": self.span,
        }


class ConstantStickLaw(StickLaw):
    """Every stick identical: fixed life length and fixed birth ages."""

    def __init__(self, v: float = 1.0, ages: Sequence[float] = (), arithmetic: bool = True):
        life = ConstantLife(v, arithmetic)
        fixed = FixedAges(ages, v)
        super().__init__("const", FixedCounts(len(fixed.atoms)), life, fixed)


class GeometricUniformLaw(StickLaw):
    """Geometric offspring counts, constant life length v, uniform ages
    (on a lattice of ``lattice`` steps when given)."""

    def __init__(self, mean_offspring: float = 1.0, v: float = 1.0, lattice: Optional[int] = None):
        super().__init__(
            "geo-uniform" if lattice is None else "geo-lattice",
            GeometricCounts(mean_offspring),
            ConstantLife(v),
            UniformAges(lattice),
        )


class TwoPointAgesLaw(StickLaw):
    """Either no children, or exactly two at fixed ages.

    The classical binary-splitting example: counts are 0 or 2, the two birth
    ages are deterministic; the life length defaults to the older age.
    """

    def __init__(self, ages: tuple[float, float] = (1.0, 0.5), p2: float = 0.5, v: Optional[float] = None):
        counts = FixedCounts(len(ages), p2)
        life = ConstantLife(max(ages) if v is None else v)
        super().__init__("two-point", counts, life, FixedAges(ages, life.v))


class GaltonWatsonUnitLaw(StickLaw):
    """Unit life lengths, all births at age 1: the image of the
    genealogical collapse.  Offspring counts are geometric with the given
    mean.  Chronological height and generation coincide exactly on these
    forests."""

    def __init__(self, mean_offspring: float = 1.0):
        super().__init__("gw", GeometricCounts(mean_offspring), ConstantLife(1.0), FirstAtomAges())


class ExponentialUniformLaw(StickLaw):
    """Exponential life lengths, geometric counts, uniform ages: the
    non-arithmetic workhorse."""

    def __init__(self, rate: float = 1.0, mean_offspring: float = 1.0):
        life = ExponentialLife(rate)
        super().__init__("exp-uniform", GeometricCounts(mean_offspring), life, UniformAges())


class StableFamilyLaw(StickLaw):
    """Critical heavy-tailed examples: stable counts, life length 1 + count.

    Three variants differ in the ages:

    * variant 1 -- all births at age 1;
    * variant 2 -- one birth at age = count, the rest at age 1;
    * variant "generalized" -- one birth at age ``age_map(count)``
      (identity, sqrt or log1p), the rest at age 1.

    A childless stick carries the zero measure (variant 2's formal "atom at
    age 0" is not realizable, which shifts the mean total age to
    1 + P(count = 0) instead of the idealized 1).
    """

    def __init__(self, variant: str = "1", alpha: float = 1.5, age_map: Optional[str] = None):
        counts = StableCounts(alpha)
        variant = str(variant)
        if variant == "1":
            ages = FirstAtomAges()
        elif variant == "2":
            ages = FirstAtomAges(identity)
        elif variant == "generalized":
            age_map = "sqrt" if age_map is None else age_map
            if age_map not in _AGE_MAPS:
                raise ValueError(f"unknown age map {age_map!r}; options: {sorted(_AGE_MAPS)}")
            ages = FirstAtomAges(_AGE_MAPS[age_map])
        else:
            raise ValueError(f"unknown variant {variant!r}")
        name = f"family-gen-{age_map}" if variant == "generalized" else f"family{variant}"
        super().__init__(name, counts, OnePlusCountLife(counts), ages)
        self.variant = variant
        self.alpha = counts.alpha


def _floats(text: str) -> list[float]:
    return [float(a) for a in text.split(":") if a]


def _flag(text: str) -> bool:
    return float(text) != 0.0


_MEAN = {"mean": ("mean_offspring", float)}
_ALPHA = {"alpha": ("alpha", float)}
_GENERALIZED = (StableFamilyLaw, {"variant": "generalized"}, {**_ALPHA, "f": ("age_map", str)})

# spec name -> (constructor, fixed arguments, {key: (argument, parser)}); an
# argument ("ages", i) sets item i of a tuple argument, the other items
# keeping the constructor's default
_LAWS = {
    "gw": (GaltonWatsonUnitLaw, {}, _MEAN),
    "geo-uniform": (GeometricUniformLaw, {}, {**_MEAN, "v": ("v", float), "lattice": ("lattice", int)}),
    "two-point": (
        TwoPointAgesLaw,
        {},
        {"a1": (("ages", 0), float), "a2": (("ages", 1), float), "p": ("p2", float), "v": ("v", float)},
    ),
    "const": (
        ConstantStickLaw,
        {},
        {"v": ("v", float), "ages": ("ages", _floats), "arithmetic": ("arithmetic", _flag)},
    ),
    "exp-uniform": (ExponentialUniformLaw, {}, {"rate": ("rate", float), **_MEAN}),
    "family1": (StableFamilyLaw, {"variant": "1"}, _ALPHA),
    "family2": (StableFamilyLaw, {"variant": "2"}, _ALPHA),
    "family-gen": _GENERALIZED,
    "generalized": _GENERALIZED,
}

_LAW_RE = re.compile(r"^([a-z0-9_-]+)(?:\((.*)\))?$")


def parse_law(spec: str) -> StickLaw:
    """Parse a law spec like ``gw``, ``geo-uniform(mean=1,v=2)``,
    ``family2(alpha=1.5)`` or ``const(v=1,ages=0.7:0.3)``."""
    m = _LAW_RE.match(spec.strip())
    if not m:
        raise ValueError(f"cannot parse law spec {spec!r}")
    name, argstr = m.group(1), m.group(2) or ""
    if name not in _LAWS:
        raise ValueError(f"unknown law {name!r}")
    make, fixed, keys = _LAWS[name]
    kwargs = dict(fixed)
    unknown = []
    seen = set()
    for part in filter(None, (p.strip() for p in argstr.split(","))):
        if "=" not in part:
            raise ValueError(f"law argument {part!r} is not key=value")
        key, text = (s.strip() for s in part.split("=", 1))
        if key in seen:
            raise ValueError(f"law {name!r}: key {key!r} given twice")
        seen.add(key)
        if key not in keys:
            unknown.append(key)
            continue
        arg, parse = keys[key]
        try:
            value = parse(text)
        except ValueError as exc:
            raise ValueError(f"law {name!r}: bad value for {key}: {exc}") from exc
        if isinstance(arg, tuple):
            arg, i = arg
            items = list(kwargs.get(arg, inspect.signature(make).parameters[arg].default))
            items[i] = value
            value = tuple(items)
        kwargs[arg] = value
    if unknown:
        raise ValueError(f"unknown arguments for law {name!r}: {sorted(unknown)}")
    return make(**kwargs)


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
