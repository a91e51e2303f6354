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

The rows are one structured array with exactly these columns as fields,
written to CSV by ``forest.write_rows``; window minima of the two contours
over a fixed scaled interval are aggregated in the summary.
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

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


@dataclass
class _Population:
    """Raw simulated arrays for one replicate, long enough for all asks."""

    s: np.ndarray  # count walk, length n+1
    vc2: np.ndarray  # doubled cumulative life lengths, length n
    path: ContourPath  # the contour: chronological heights and life lengths
    gen_path: ContourPath  # the generation contour: depths as floats (exact below 2^53)


def _simulate_population(
    law: StickLaw, rng: np.random.Generator, min_sticks: int, raw_time: float, raw_gen_time: float
) -> _Population:
    """Sample sticks until index, contour and generation-contour coverage."""
    # cushion: the contour visit times lag the doubled length sums by the
    # running height, which for a critical forest grows like sqrt(n)
    base = max(min_sticks, int(raw_time / (2.0 * law.mean_v)) + 1, 64)
    chunk = base + int(6.0 * math.sqrt(base)) + 64
    batch = law.sample_batch(rng, chunk)
    while True:
        heights, depths = height_profile_arrays(batch.counts, batch.offsets, batch.ages)
        n = batch.n
        path = ContourPath.from_heights(heights, batch.v)
        gen_path = ContourPath.from_heights(depths.astype(float), np.ones(n))
        if n >= min_sticks and path.end_time >= raw_time and gen_path.end_time >= raw_gen_time:
            s = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(batch.counts - 1, out=s[1:])
            vc2 = 2.0 * np.cumsum(batch.v)
            return _Population(s, vc2, path, gen_path)
        chunk = max(chunk // 2, 256)
        more = law.sample_batch(rng, chunk)
        batch = StickBatch(
            np.concatenate([batch.counts, more.counts]),
            np.concatenate([batch.v, more.v]),
            np.concatenate([batch.ages, more.ages]),
        )


def simulate_replicate(
    law: StickLaw,
    p: int,
    times: Sequence[float],
    eps: float,
    epsbar: float,
    interval: tuple[float, float],
    rng: np.random.Generator,
) -> tuple[np.ndarray, dict]:
    """One replicate: its rows and its window-minimum extras.

    The rows are a ``ROW_DTYPE`` array, one entry per requested time in the
    given order, all computed at once; ``replicate`` reads -1 for the caller
    to fill in.
    """
    t_max = max(*times, interval[1])
    beta = law.mean_v
    ystar = law.mean_ystar
    min_sticks = int(math.floor(p * t_max * max(1.0, 1.0 / (2.0 * beta)))) + 2
    pop = _simulate_population(
        law, rng, min_sticks, p * t_max, p * interval[1] / beta
    )
    path, gen_path = pop.path, pop.gen_path
    t = np.asarray(times, dtype=float)
    s_raw = p * t
    j = np.floor(s_raw).astype(np.int64)
    phi = np.searchsorted(path.visit_times, s_raw, side="left")
    phibar = np.searchsorted(pop.vc2, s_raw, side="left")
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
    rows["p"], rows["t"], rows["replicate"] = p, t, -1
    rows["Hp"], rows["Hcalp"], rows["Cp"] = hp, hcalp, cp
    rows["Sp"] = pop.s[j] / (p * eps)
    rows["phip"], rows["phibarp"] = phi / p, phibar / p
    rows["deltaH"] = hp - ystar * hcalp
    rows["deltaC"] = cp - eps * path.heights[j_slow]
    rows["epsDelta"] = eps * (phi - phibar)
    u, w = interval
    extras = {
        "min_contour": eps * path.min_on(p * u, p * w),
        "min_gen_contour": epsbar * gen_path.min_on(p * u / beta, p * w / beta),
        "v_at_phibar": float(path.v[min(phibar[t.argmax()], len(path.v) - 1)]),
    }
    return rows, extras


def _run_task(args) -> tuple[tuple[int, int], np.ndarray, dict]:
    (law, p, p_idx, rep, times, eps, epsbar, interval, seed) = args
    seq = np.random.SeedSequence(seed, spawn_key=(p_idx, rep))
    rng = np.random.Generator(np.random.Philox(seq))
    rows, extras = simulate_replicate(law, p, times, eps, epsbar, interval, rng)
    rows["replicate"] = rep
    return (p_idx, rep), rows, extras


@dataclass
class ExperimentResult:
    """A scaling grid's results: ``rows`` is one ``ROW_DTYPE`` array ordered
    by p index, then replicate, then requested time; ``extras`` maps each
    (p index, replicate) to its window minima."""

    config: ExperimentConfig
    law: StickLaw  # parsed once from ``config.law``
    rows: np.ndarray
    extras: dict[tuple[int, int], dict]

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
        for p_idx, p in enumerate(self.config.p_values):
            mins = [self.extras[(p_idx, rep)] for rep in range(self.config.replicates)]
            mc = np.array([m["min_contour"] for m in mins])
            mg = np.array([m["min_gen_contour"] for m in mins])
            target = self.law.mean_ystar * mg
            out["interval_minima"].append(
                {
                    "p": p,
                    "min_contour_mean": float(mc.mean()),
                    "scaled_gen_min_mean": float(target.mean()),
                    "abs_gap_mean": float(np.abs(mc - target).mean()),
                    "v_at_phibar_mean": float(
                        np.mean([m["v_at_phibar"] for m in mins])
                    ),
                }
            )
        return out


def scaling_experiment(config: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """Run the full grid of (p, replicate) simulations.

    Each task gets a Philox generator keyed by (p index, replicate), so the
    result is byte-identical for any worker count.  The law is parsed once
    and handed to every task (pickled for the worker pool).
    """
    law = parse_law(config.law)
    if not 0.0 <= law.mean_offspring <= 1.0 + 1e-12:
        raise ValueError("scaling experiments need a (sub)critical law")
    eps_rule = config.eps_rule or law.eps_rule
    epsbar_rule = config.epsbar_rule or eps_rule
    tasks = []
    for p_idx, p in enumerate(config.p_values):
        eps = resolve_scale(eps_rule, p)
        epsbar = resolve_scale(epsbar_rule, p)
        for rep in range(config.replicates):
            tasks.append(
                (
                    law,
                    p,
                    p_idx,
                    rep,
                    tuple(config.times),
                    eps,
                    epsbar,
                    config.interval,
                    config.seed,
                )
            )
    # in task order, that is by p index, then replicate
    if workers > 1:
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            results = pool.map(_run_task, tasks)
    else:
        results = [_run_task(task) for task in tasks]
    rows = np.concatenate([rows for _, rows, _ in results])
    extras = {key: extras for key, _, extras in results}
    return ExperimentResult(config, law, rows, extras)


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
    if width <= 0:
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
