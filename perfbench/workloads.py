"""The four benchmark workloads: inputs, ops and output checks.

A workload turns the run seed into a fixed list of ops per pass; op ``k``
of a run always gets the same inputs for the same seed.  An op calls only
public chronoforest entry points, looked up on their modules at call time
so that the traced run sees the same calls.  ``check`` runs after each op,
outside its timing, and returns the op's failures (empty when correct).
The checks are invariants rather than golden bytes, so a change that draws
random numbers in another order still passes them.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

CRITICAL_LAW = "geo-uniform(mean=1.0,v=1.0)"


def op_seed(seed: int, k: int) -> int:
    """The integer seed handed to the program for op ``k`` of a run."""
    return seed * 1_000_000 + k


def _philox(seed) -> np.random.Generator:
    # the CLI seeds its generator the same way from --seed
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


class _OpPerIndex:
    """A workload whose op ``k`` depends only on the seed and ``k``."""

    ops_per_pass: int

    def pass_ops(self, pass_idx: int):
        first = pass_idx * self.ops_per_pass
        return [self._op(k) for k in range(first, first + self.ops_per_pass)]


class BuildCritical(_OpPerIndex):
    """``chronoforest build`` on sampled critical sticks, both CSVs written."""

    name = "build-critical"
    ops_per_pass = 4
    tail_q = 0.85
    sizes = {"full": 10_000, "smoke": 300}

    def __init__(self, mods, seed: int, size: str, tmpdir: Path):
        self.mods = mods
        self.seed = seed
        self.n = self.sizes[size]
        self.law = mods.laws.parse_law(CRITICAL_LAW)
        self.forest_csv = tmpdir / "forest.csv"
        self.contour_csv = tmpdir / "contour.csv"

    def _op(self, k: int):
        s = op_seed(self.seed, k)
        argv = [
            "build", "--law", CRITICAL_LAW, "--n", str(self.n), "--seed", str(s),
            "--forest-out", str(self.forest_csv), "--contour-out", str(self.contour_csv),
            "--quiet",
        ]
        return lambda: (s, self.mods.cli.main(argv))

    def check(self, payload) -> list[str]:
        s, status = payload
        if status != 0:
            return [f"build exited {status}"]
        table = np.loadtxt(self.forest_csv, delimiter=",", skiprows=1, ndmin=2)
        if table.shape[0] != self.n:
            return [f"forest CSV has {table.shape[0]} rows, expected {self.n}"]
        parent = table[:, 1].astype(np.int64)
        birth, depth, v = table[:, 2], table[:, 3], table[:, 4]
        batch = self.law.sample_batch(_philox(s), self.n)
        heights, depths = self.mods.spine.height_profile_arrays(
            batch.counts, batch.offsets, batch.ages
        )
        errors = []
        tol = 1e-9 * np.maximum(np.abs(heights[:-1]), 1.0)
        if not np.all(np.abs(birth - heights[:-1]) <= tol):
            errors.append("birth_time differs from the height kernel")
        if not np.array_equal(depth.astype(np.int64), depths[:-1]):
            errors.append("depth differs from the height kernel")
        child = parent >= 0
        pb, pv, cb = birth[parent[child]], v[parent[child]], birth[child]
        slack = 1e-9 * np.maximum(pb + pv, 1.0)
        if not np.all((cb >= pb - slack) & (cb <= pb + pv + slack)):
            errors.append("a child is born outside its parent's life")
        return errors


class ScaleCritical(_OpPerIndex):
    """``scaling_experiment`` on the criteria 4-6 law, one replicate per op,
    rows CSV and summary JSON written as the ``scale`` command writes them."""

    name = "scale-critical"
    ops_per_pass = 4
    tail_q = 0.90
    sizes = {"full": (10_000, 100_000), "smoke": (100, 500)}
    times = (0.5, 1.0)

    def __init__(self, mods, seed: int, size: str, tmpdir: Path):
        self.mods = mods
        self.seed = seed
        self.p_values = self.sizes[size]
        self.rows_csv = tmpdir / "rows.csv"
        self.summary_json = tmpdir / "summary.json"
        self.first_pass_digests: list[str] = []

    def config(self, k: int):
        return self.mods.experiments.ExperimentConfig(
            law=CRITICAL_LAW,
            p_values=self.p_values,
            times=self.times,
            replicates=1,
            seed=op_seed(self.seed, k),
            eps_rule="invsqrt",
            epsbar_rule="invsqrt",
        )

    def _op(self, k: int):
        cfg = self.config(k)

        def op():
            result = self.mods.experiments.scaling_experiment(cfg, workers=1)
            with open(self.rows_csv, "w", encoding="utf-8", newline="") as fh:
                result.write_csv(fh)
            with open(self.summary_json, "w", encoding="utf-8") as fh:
                json.dump(result.summary(), fh, indent=2)
                fh.write("\n")
            return k

        return op

    def _digest(self) -> str:
        h = hashlib.sha256()
        h.update(self.rows_csv.read_bytes())
        h.update(self.summary_json.read_bytes())
        return h.hexdigest()

    def check(self, k) -> list[str]:
        text = self.rows_csv.read_text(encoding="utf-8")
        rows = list(csv.reader(io.StringIO(text)))[1:]
        expected = len(self.p_values) * len(self.times)
        errors = []
        if len(rows) != expected:
            errors.append(f"{len(rows)} rows, expected {expected}")
        if not all(math.isfinite(float(x)) for row in rows for x in row):
            errors.append("non-finite value in the rows CSV")
        if k < self.ops_per_pass:
            self.first_pass_digests.append(self._digest())
        return errors

    def determinism(self) -> tuple[str, list[str]]:
        """Digest of the first pass's outputs, and failures from re-running
        its first op and comparing byte for byte (criterion 9)."""
        digest = hashlib.sha256("".join(self.first_pass_digests).encode()).hexdigest()
        self._op(0)()
        if self._digest() != self.first_pass_digests[0]:
            return digest, ["re-running op 0 changed its CSV or summary"]
        return digest, []


class CoupleMixed:
    """The criterion 8 shape: GW replicas with eps = 0 alternate with
    exponential replicas with eps = 0.5; one op is one replica."""

    name = "couple-mixed"
    tail_q = 0.99
    sizes = {"full": (100, 20_000), "smoke": (5, 2_000)}  # replicas per law per pass, budget
    t = 16.0
    m = 3

    def __init__(self, mods, seed: int, size: str, tmpdir: Path):
        self.mods = mods
        self.seed = seed
        self.per_law, self.budget = self.sizes[size]
        self.ops_per_pass = 2 * self.per_law
        self.laws = (
            (mods.laws.GaltonWatsonUnitLaw(), 0.0),
            (mods.laws.ExponentialUniformLaw(rate=1.0), 0.5),
        )

    def pass_ops(self, pass_idx: int):
        rngs = [
            np.random.default_rng(np.random.SeedSequence([self.seed, pass_idx, i]))
            for i in range(2)
        ]
        return [self._op(j % 2, rngs[j % 2]) for j in range(self.ops_per_pass)]

    def _op(self, which: int, rng):
        law, eps = self.laws[which]

        def op():
            (result,) = self.mods.coupling.run_coupling_many(
                law, eps, self.t, self.m, rng, 1,
                meet_budget=self.budget, walk_budget=self.budget,
            )
            return which, result

        return op

    def check(self, payload) -> list[str]:
        which, r = payload
        errors = []
        if r.status == "violated":
            errors.append(f"coupling violated: {r.mismatches}")
        if which == 0 and not (r.alpha == 2.0 and r.alpha_prime == 0.0):
            errors.append(f"GW start ({r.alpha}, {r.alpha_prime}) is not (2, 0)")
        return errors


class FamiliesWindow(_OpPerIndex):
    """The criterion 7 shape: heavy-tailed family sticks, forest, contour
    and the largest rise over windows of width p * eps_p.  One op covers
    family1 and family2, so that op times are not a mix of two kinds."""

    name = "families-window"
    ops_per_pass = 2
    tail_q = 0.80
    sizes = {"full": 25_000, "smoke": 500}

    def __init__(self, mods, seed: int, size: str, tmpdir: Path):
        self.mods = mods
        self.seed = seed
        self.p = self.sizes[size]
        self.n = self.p // 4 + 200
        self.families = (mods.laws.StableFamilyLaw("1"), mods.laws.StableFamilyLaw("2"))

    def _op(self, k: int):
        rngs = [np.random.default_rng(np.random.SeedSequence([self.seed, k, i])) for i in (1, 2)]
        mods = self.mods

        def op():
            out = []
            for law, rng in zip(self.families, rngs):
                batch = law.sample_batch(rng, self.n)
                kernel_ok = True
                if law.variant == "1":
                    heights, depths = mods.spine.height_profile_arrays(
                        batch.counts, batch.offsets, batch.ages
                    )
                    kernel_ok = np.array_equal(heights, depths.astype(float))
                path = mods.forest.contour_path(mods.forest.build_forest(batch.to_sticks()))
                width = self.p * self.p ** (1.0 / law.alpha - 1.0)
                out.append((kernel_ok, path, mods.experiments.max_rise_in_window(path, width)))
            return out

        return op

    def check(self, payload) -> list[str]:
        errors = []
        for kernel_ok, path, rise in payload:
            if not kernel_ok:
                errors.append("family1 heights differ from depths")
            top = float(np.max(path.heights[:-1] + path.v))
            if not (math.isfinite(rise) and 0.0 <= rise <= top):
                errors.append(f"max rise {rise} outside [0, {top}]")
        return errors


WORKLOADS = {w.name: w for w in (BuildCritical, ScaleCritical, CoupleMixed, FamiliesWindow)}
