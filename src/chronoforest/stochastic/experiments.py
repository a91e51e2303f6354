"""Scaling experiments on simulated forests.

One replicate at population scale p simulates enough sticks to cover raw
chronological time p * t_max, then records the rescaled functionals at the
requested times t:

* Hp      -- eps_p * (chronological height at index [pt]);
* Hcalp   -- eps_p * (generation depth at index [pt]);
* Cp      -- eps_p * (contour value at raw time pt);
* Sp      -- count walk at [pt], over p * eps_p;
* phip    -- first index whose contour visit time passes pt, over p;
* phibarp -- first index whose doubled length sum passes pt, over p;
* deltaH  -- Hp minus (mean atom age of the size-biased stick) * Hcalp;
* deltaC  -- Cp minus eps_p * height at index [pt / (2 mean_v)];
* epsDelta-- eps_p * (raw index gap between the two time changes; its
  exact formula is the identity ``time-change-gap-formula`` of
  ``spine.verify_identities``).

One call of ``simulate_replicate`` is one replicate: it seeds itself from
(p index, replicate) and returns its rows, a ``ROW_DTYPE`` structured array
with exactly these columns as fields (written to CSV by
``forest.write_rows``), and one ``REPLICATE_DTYPE`` record: the window
minima of the two contours over a fixed scaled interval and the life
length at phibar, which the summary averages per p.
"""

from __future__ import annotations

import functools
import itertools
import math
import multiprocessing
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .._parallel import pair_for, share_cpus
from ..forest import ContourPath, write_rows
from ..measures import StickBatch
from ..spine import height_profile_arrays
from .laws import StickLaw, parse_law

__all__ = [
    "ExperimentConfig",
    "CONFIG_KEYS",
    "parse_config",
    "resolve_scale",
    "CSV_COLUMNS",
    "ROW_DTYPE",
    "REPLICATE_DTYPE",
    "simulate_replicate",
    "ExperimentResult",
    "scaling_experiment",
    "max_rise_in_window",
]

CSV_COLUMNS = [
    "p",
    "t",
    "replicate",
    "Hp",
    "Hcalp",
    "Cp",
    "Sp",
    "phip",
    "phibarp",
    "deltaH",
    "deltaC",
    "epsDelta",
]

# one field per CSV column: the integer keys p and replicate, the rest floats
ROW_DTYPE = np.dtype(
    [(c, np.int64 if c in ("p", "replicate") else np.float64) for c in CSV_COLUMNS]
)

# one record per replicate: its keys, its contours' window minima, its life at phibar
REPLICATE_DTYPE = np.dtype(
    [("p", np.int64), ("replicate", np.int64)]
    + [(f, np.float64) for f in ("min_contour", "min_gen_contour", "v_at_phibar")]
)


@dataclass
class ExperimentConfig:
    law: str = "gw"
    p_values: tuple[int, ...] = (1000, 10000)
    times: tuple[float, ...] = (0.5, 1.0)
    replicates: int = 20
    seed: int = 0
    eps_rule: Optional[str] = None  # default: the law's own rule
    epsbar_rule: Optional[str] = None  # default: same as eps_rule
    interval: tuple[float, float] = (0.5, 1.0)

    def __post_init__(self):
        if not self.p_values or any(p <= 0 for p in self.p_values):
            raise ValueError(f"p must be positive, got {self.p_values!r}")
        if not self.times or not all(0.0 < t < math.inf for t in self.times):
            raise ValueError(f"times must be positive and finite, got {self.times!r}")
        for key, values in (("p", self.p_values), ("times", self.times)):
            if len(set(values)) < len(values):
                raise ValueError(f"{key} must not repeat a value, got {values!r}")
        if self.replicates <= 0:
            raise ValueError(f"replicates must be positive, got {self.replicates}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        u, v = self.interval
        if not 0 <= u < v < math.inf:
            raise ValueError(f"interval must satisfy 0 <= u < v < inf, got {self.interval!r}")
        # p is an int64 field, and [p * t] (t up to the interval's end) a stick index
        p_max = max(self.p_values)
        if p_max >= 2**63:
            raise ValueError(f"p must be below 2**63, got {p_max}")
        for key, name, t in (("times", "t", max(self.times)), ("interval", "v", v)):
            if p_max * t >= 2**63:
                raise ValueError(f"{key} must keep p * {name} below 2**63, got p={p_max}, {name}={t!r}")
        # a rule that fails at some p must fail here, not once sampling has begun
        for key, rule in (("eps", self.eps_rule), ("epsbar", self.epsbar_rule)):
            for p in self.p_values if rule is not None else ():
                try:
                    resolve_scale(rule, p)
                except ValueError as exc:
                    raise ValueError(f"{key}: {exc}") from None


def _values(kind: type, what: str, count: Optional[int] = None):
    """A parser of ``count`` (a bare value when 1; any number when None)
    comma-separated values of type ``kind``."""

    def parse(text: str):
        try:
            values = tuple(kind(x) for x in text.split(","))
        except ValueError:
            values = ()
        if not values or count not in (None, len(values)):
            raise ValueError(f"expected {what}, got {text!r}")
        return values[0] if count == 1 else values

    return parse


# config key -> (ExperimentConfig field, parser of the value text); the
# ``scale`` command's --p and --times flags use the same parsers
CONFIG_KEYS = {
    "law": ("law", str),
    "p": ("p_values", _values(int, "comma-separated integers")),
    "times": ("times", _values(float, "comma-separated numbers")),
    "replicates": ("replicates", _values(int, "an integer", 1)),
    "seed": ("seed", _values(int, "an integer", 1)),
    "eps": ("eps_rule", str),
    "epsbar": ("epsbar_rule", str),
    "interval": ("interval", _values(float, "two numbers u,v", 2)),
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse ``key = value`` lines (# comments allowed) into a config."""
    fields: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value, got {raw!r}")
        key, val = line.split("=", 1)
        key = key.strip().lower()
        if key in fields:
            raise ValueError(f"line {lineno}: config key {key!r} given twice")
        fields[key] = val.strip()
    unknown = sorted(set(fields) - set(CONFIG_KEYS))
    if unknown:
        raise ValueError(f"unknown config keys: {unknown}")
    kwargs: dict = {}
    for key, text in fields.items():
        name, parse = CONFIG_KEYS[key]
        try:
            kwargs[name] = parse(text)
        except ValueError as exc:
            raise ValueError(f"config key {key!r}: {exc}") from None
    return ExperimentConfig(**kwargs)


def resolve_scale(rule: str, p: int) -> float:
    """Scale factor for population size p under a named rule.

    ``invsqrt`` is 1/sqrt(p); ``stable:a`` is p^-(1 - 1/a); ``pow:x`` is
    p^-x; a bare number is a constant.  Raises ``ValueError`` unless the
    scale is positive and finite: every scaled column divides or multiplies
    by it.
    """
    rule = rule.strip()
    if rule == "invsqrt":
        return float(p) ** -0.5
    kind, _, arg = rule.rpartition(":")
    try:
        x = float(arg)
    except ValueError:
        raise ValueError(f"unknown scale rule {rule!r}") from None
    if kind == "stable":
        if not 1.0 < x <= 2.0:
            raise ValueError(f"scale rule {rule!r}: stable index must be in (1, 2]")
        scale = float(p) ** -(1.0 - 1.0 / x)
    elif kind == "pow":
        try:
            scale = float(p) ** -x
        except OverflowError:
            scale = math.inf
    elif kind == "":
        scale = x
    else:
        raise ValueError(f"unknown scale rule {rule!r}")
    if not 0.0 < scale < math.inf:
        raise ValueError(
            f"scale rule {rule!r} gives {scale!r} at p={p}; it must be positive and finite"
        )
    return scale


def _simulate_population(
    law: StickLaw, rng: np.random.Generator, min_sticks: int, raw_time: float, raw_gen_time: float
) -> tuple[StickBatch, ContourPath, ContourPath]:
    """Sample at least ``min_sticks`` sticks, and more until both contours reach their times;
    return the batch, its contour and its generation contour (depths as floats, exact below 2^53)."""
    # cushion: the contour visit times lag the doubled length sums by the
    # running height, which for a critical forest grows like sqrt(n)
    base = max(min_sticks, 64)
    chunk = base + int(6.0 * math.sqrt(base)) + 64
    batch = law.sample_batch(rng, chunk)
    while True:
        heights, depths = height_profile_arrays(batch.counts, batch.offsets, batch.ages)
        # the two contours at once on a large batch (as many sticks as ages
        # for a critical law)
        path, gen_path = pair_for(batch.n)(
            lambda: ContourPath(heights, batch.v),
            lambda: ContourPath(depths.astype(float), np.ones(batch.n)),
        )
        if path.end_time >= raw_time and gen_path.end_time >= raw_gen_time:
            return batch, path, gen_path
        chunk = max(chunk // 2, 256)
        more = law.sample_batch(rng, chunk)
        batch = StickBatch(
            np.concatenate([batch.counts, more.counts]),
            np.concatenate([batch.v, more.v]),
            np.concatenate([batch.ages, more.ages]),
        )


def simulate_replicate(
    law: StickLaw, config: ExperimentConfig, p_idx: int, rep: int
) -> tuple[np.ndarray, np.void]:
    """Replicate ``rep`` at ``p = config.p_values[p_idx]``: its rows and its record.

    The rows are a ``ROW_DTYPE`` array, one entry per requested time in the
    given order, all computed at once; the record is one ``REPLICATE_DTYPE``
    entry.  The Philox generator is keyed by (p index, replicate), so the
    replicate draws the same sticks in any process and in any order.
    """
    p, times, (u, w) = config.p_values[p_idx], config.times, config.interval
    eps_rule = config.eps_rule or law.eps_rule
    eps = resolve_scale(eps_rule, p)
    epsbar = resolve_scale(config.epsbar_rule or eps_rule, p)
    seq = np.random.SeedSequence(config.seed, spawn_key=(p_idx, rep))
    rng = np.random.Generator(np.random.Philox(seq))
    t_max = max(*times, w)
    beta = law.mean_v
    min_sticks = int(math.floor(p * t_max * max(1.0, 1.0 / (2.0 * beta)))) + 2
    batch, path, gen_path = _simulate_population(law, rng, min_sticks, p * t_max, p * w / beta)
    t = np.asarray(times, dtype=float)
    s_raw = p * t
    j = np.floor(s_raw).astype(np.int64)
    phi = np.searchsorted(path.visit_times, s_raw, side="left")
    phibar = np.searchsorted(path.doubled_sums, s_raw, side="left")
    ahead = np.flatnonzero(phi < phibar)
    if ahead.size:
        k = ahead[0]
        raise RuntimeError(
            f"contour time change {phi[k]} ran ahead of the length one {phibar[k]} at t={t[k]}"
        )
    hp = eps * path.heights[j]
    hcalp = eps * gen_path.heights[j]
    cp = eps * path.eval(s_raw)
    j_slow = np.floor(s_raw / (2.0 * beta)).astype(np.int64)
    rows = np.empty(len(t), dtype=ROW_DTYPE)
    rows["p"], rows["t"], rows["replicate"] = p, t, rep
    rows["Hp"], rows["Hcalp"], rows["Cp"] = hp, hcalp, cp
    rows["Sp"] = (batch.offsets[j] - j) / (p * eps)  # the count walk at j
    rows["phip"], rows["phibarp"] = phi / p, phibar / p
    rows["deltaH"] = hp - law.mean_atom_age * hcalp
    rows["deltaC"] = cp - eps * path.heights[j_slow]
    rows["epsDelta"] = eps * (phi - phibar)
    min_contour = eps * path.min_on(p * u, p * w)
    min_gen_contour = epsbar * gen_path.min_on(p * u / beta, p * w / beta)
    v_at_phibar = path.v[min(phibar[t.argmax()], len(path.v) - 1)]
    record = np.array((p, rep, min_contour, min_gen_contour, v_at_phibar), dtype=REPLICATE_DTYPE)
    return rows, record[()]


@dataclass
class ExperimentResult:
    """A scaling grid's results: ``rows`` is one ``ROW_DTYPE`` array ordered
    by p index, then replicate, then requested time; ``replicates`` is one
    ``REPLICATE_DTYPE`` array ordered by p index, then replicate."""

    config: ExperimentConfig
    law: StickLaw  # parsed once from ``config.law``
    rows: np.ndarray
    replicates: np.ndarray

    def write_csv(self, fp) -> None:
        columns = [self.rows[c] for c in CSV_COLUMNS]
        write_rows(fp, CSV_COLUMNS, "%d,%.12g,%d" + ",%.12g" * 9, columns, "\n")

    def summary(self) -> dict:
        out: dict = {
            "law": self.law.describe(),
            "config": {
                "p": list(self.config.p_values),
                "times": list(self.config.times),
                "replicates": self.config.replicates,
                "seed": self.config.seed,
                "interval": list(self.config.interval),
            },
            "cells": [],
            "interval_minima": [],
        }
        quantiles = [0.1, 0.25, 0.5, 0.75, 0.9]
        columns = CSV_COLUMNS[3:]
        for p in self.config.p_values:
            for t in self.config.times:
                sel = (self.rows["p"] == p) & (self.rows["t"] == t)
                # one C-contiguous row per column: reducing along rows sums
                # each row in the same pairwise order as a 1-d array would
                vals = np.array([self.rows[col][sel] for col in columns])
                qs = np.quantile(vals, quantiles, axis=1)
                means = vals.mean(axis=1)
                abs_means = np.abs(vals).mean(axis=1)
                cell: dict = {"p": p, "t": t, "n": vals.shape[1]}
                for i, col in enumerate(columns):
                    cell[col] = {
                        "mean": float(means[i]),
                        "abs_mean": float(abs_means[i]),
                        "quantiles": {
                            format(q, "g"): float(x) for q, x in zip(quantiles, qs[:, i])
                        },
                    }
                out["cells"].append(cell)
        by_p = self.replicates.reshape(len(self.config.p_values), self.config.replicates)
        for p, records in zip(self.config.p_values, by_p):
            mc = records["min_contour"]
            target = self.law.mean_atom_age * records["min_gen_contour"]
            out["interval_minima"].append(
                {
                    "p": p,
                    "min_contour_mean": float(mc.mean()),
                    "scaled_gen_min_mean": float(target.mean()),
                    "abs_gap_mean": float(np.abs(mc - target).mean()),
                    "v_at_phibar_mean": float(records["v_at_phibar"].mean()),
                }
            )
        return out


def scaling_experiment(config: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """Run ``simulate_replicate`` over the full grid of (p index, replicate).

    Each replicate seeds itself, so the result is byte-identical for any
    worker count.  The law is parsed once and handed to every replicate
    (pickled for the worker pool).
    """
    law = parse_law(config.law)
    law.require_subcritical("scaling experiments")
    # a replicate draws [p * t / (2 mean_v)] sticks or more, t up to the
    # interval's end: a count no array can hold must fail before any draw
    p_max, t_max = max(config.p_values), max(*config.times, config.interval[1])
    if not p_max * t_max / (2.0 * law.mean_v) < 2**63:
        raise ValueError(
            f"the law's mean life length {law.mean_v!r} is too short: p * t / (2 * mean_v)"
            f" must stay below 2**63, got p={p_max}, t={t_max!r}"
        )
    # bound here, so a wrapper set on the module's simulate_replicate runs
    replicate = functools.partial(simulate_replicate, law, config)
    grid = [(p_idx, rep) for p_idx in range(len(config.p_values)) for rep in range(config.replicates)]
    if workers > 1:
        # each worker starts helper threads only if the pool leaves it a CPU
        with multiprocessing.get_context("fork").Pool(workers, share_cpus, (workers,)) as pool:
            results = pool.starmap(replicate, grid)
    else:
        results = list(itertools.starmap(replicate, grid))
    rows = np.concatenate([rows for rows, _ in results])
    replicates = np.array([record for _, record in results], dtype=REPLICATE_DTYPE)
    return ExperimentResult(config, law, rows, replicates)


def _range_min(values: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``values[lo[q]:hi[q] + 1].min()`` for every query q (lo <= hi).

    A sparse table: level j holds the minima of all runs of 2^j values, and
    a run of length L is covered by two runs of the largest 2^j <= L.
    O((n + queries) log n).
    """
    level = np.frexp(hi - lo + 1)[1] - 1  # floor(log2(length))
    out = np.empty(len(lo))
    table = values
    for j in range(int(level.max(initial=0)) + 1):
        if j:
            half = 1 << (j - 1)
            table = np.minimum(table[:-half], table[half:])
        q = level == j
        out[q] = np.minimum(table[lo[q]], table[hi[q] - (1 << j) + 1])
    return out


def max_rise_in_window(path: ContourPath, width: float) -> float:
    """Largest rise of the contour over any window of the given width.

    The optimal window ends at a peak apex (on a climb the value gains at
    unit rate while the trailing minimum cannot gain faster).  For each
    stick's apex the window minimum combines the contour value at the left
    edge with the local minima (visited birth times) whose visit times fall
    inside the window, found by one range-minimum query per apex.
    """
    if not width > 0:  # NaN fails
        raise ValueError("width must be positive")
    heights = path.heights
    v = path.v
    n = len(v)
    apex_times = path.visit_times[:n] + v
    left_edges = np.clip(apex_times - width, 0.0, None)
    window_min = path.eval(left_edges)
    lo = np.searchsorted(path.visit_times, left_edges, side="left")
    hi = np.arange(n)
    inside = lo <= hi  # else the window holds no visit, only its left edge
    window_min[inside] = np.minimum(
        window_min[inside], _range_min(heights, lo[inside], hi[inside])
    )
    rise = heights[:n] + v - window_min
    return float(rise.max(initial=0.0))
