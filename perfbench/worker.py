"""One workload in one process: set up, run passes for a while, report.

Run by ``run.py``; not meant to be called by hand.  The process prints
``ready`` once its set-up is done (imports, law parsing, temp dir), so the
parent can time set-up from process start, then one JSON line with its
result.  With ``--setup-only`` it exits after ``ready``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from chronoforest import cli, forest, spine  # noqa: E402
from chronoforest.stochastic import coupling, experiments, laws  # noqa: E402

import layers  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODS = types.SimpleNamespace(
    cli=cli, forest=forest, spine=spine, laws=laws, coupling=coupling, experiments=experiments
)
PREDICTIONS = json.loads((Path(__file__).with_name("predictions.json")).read_text())
STATE_DIR = ROOT / ".perfbench_state"
OUT_DIR = ROOT / ".perfbench_out"
MAX_FAILURE_MESSAGES = 10
# how often the reference loop samples the host's speed during a run, and
# how far from an op its samples may lie to count as that op's reference
REFERENCE_EVERY_S = 0.1
REFERENCE_WINDOW_S = 1.0


def reference_s() -> float:
    """Seconds for a fixed mix of interpreter, allocation and numpy work.

    It does not touch chronoforest, so a change to the package cannot move
    it; the host's speed, which drifts by a quarter over minutes on a
    shared machine, moves it as much as it moves the workloads.
    """
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(20_000):
        acc += i * i
        table[i & 1023] = acc
    pairs = [(i, float(i)) for i in range(5_000)]
    a = np.arange(8192.0)
    for _ in range(20):
        a = np.sort(a[::-1])
    del pairs
    return time.perf_counter() - t0


def local_reference(at: np.ndarray, ref_at: np.ndarray, ref_s: np.ndarray) -> np.ndarray:
    """Median reference time within REFERENCE_WINDOW_S of each instant in
    ``at`` (the nearest later sample where the window holds none)."""
    lo = np.searchsorted(ref_at, at - REFERENCE_WINDOW_S)
    hi = np.searchsorted(ref_at, at + REFERENCE_WINDOW_S)
    nearest = np.minimum(lo, len(ref_s) - 1)
    return np.array(
        [np.median(ref_s[a:b]) if b > a else ref_s[c] for a, b, c in zip(lo, hi, nearest)]
    )


def code_hash() -> str:
    """SHA-256 over the package sources and the benchmark's own code."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src" / "chronoforest").rglob("*.py"))
    files += sorted(Path(__file__).parent.glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def _git_commit() -> str:
    head = _read(str(ROOT / ".git" / "HEAD"))
    if head.startswith("ref: "):
        return _read(str(ROOT / ".git" / head[5:])) or "unknown"
    return head or "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    cpu = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(cache_dir.glob("index*")):
        level, kind = _read(str(idx / "level")), _read(str(idx / "type"))
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(str(idx / "size"))
    nproc = len(os.sched_getaffinity(0))
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "l2": caches.get("L2", "unknown"),
        "l3": caches.get("L3", "unknown"),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "code_sha256": code_hash(),
        "seed": seed,
        "note": (
            f"{nproc}-core host that other tenants may share; single-threaded "
            "workloads; no accelerator is used"
        ),
    }


def check_digest_history(key: str, digest: str) -> list[str]:
    """Fail if an earlier run of the same code and inputs saw another digest."""
    path = STATE_DIR / "digests.json"
    try:
        history = json.loads(path.read_text())
    except (OSError, ValueError):
        history = {}
    key = f"{code_hash()}:{key}"
    seen = history.setdefault(key, digest)
    STATE_DIR.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(history, indent=1, sort_keys=True))
    os.replace(tmp, path)
    if seen != digest:
        return [f"digest {digest} differs from {seen} of an earlier run"]
    return []


def run(args) -> dict:
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmpdir = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        wl = WORKLOADS[args.workload](MODS, args.seed, args.size, tmpdir)
        print("ready", flush=True)
        if args.setup_only:
            return {}
        return measure(wl, args)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def measure(wl, args) -> dict:
    tracer = Tracer() if args.trace else None
    patches = layers.patches(tracer, MODS) if tracer else []
    # ops of an untraced run as (mid time, seconds, pass), and the reference
    # samples taken between them as (mid time, seconds)
    op_log: list[tuple[float, float, int]] = []
    ref_log: list[tuple[float, float]] = []
    pass_walls = {False: [], True: []}  # keyed by "traced"
    attempted = failed = 0
    failures: list[str] = []
    min_passes = 2 if tracer else 1
    deadline = time.perf_counter() + args.seconds
    last_reference = -math.inf
    pass_idx = 0
    while pass_idx < min_passes or time.perf_counter() < deadline:
        traced = tracer is not None and pass_idx % 2 == 1
        ops = wl.pass_ops(pass_idx)
        gc.collect()
        if traced:
            tracer.install(patches)
        wall = 0.0
        for j, op in enumerate(ops):
            op_id = pass_idx * len(ops) + j
            if traced:
                tracer.begin_op(op_id)
            t0 = time.perf_counter()
            try:
                payload = op()
                errors = None
            except Exception as exc:  # an op that raises is a failed op
                traceback.print_exc()
                errors = [f"op {op_id} raised {exc!r}"]
            dt = time.perf_counter() - t0
            if traced:
                tracer.end_op()
            if errors is None:
                try:
                    errors = wl.check(payload)
                except Exception as exc:
                    traceback.print_exc()
                    errors = [f"check of op {op_id} raised {exc!r}"]
            attempted += 1
            if errors:
                failed += 1
                failures += [f"op {op_id}: {e}" for e in errors]
            wall += dt
            if tracer is None:
                op_log.append((t0 + dt / 2, dt, pass_idx))
                if time.perf_counter() - last_reference >= REFERENCE_EVERY_S:
                    start = time.perf_counter()
                    ref = reference_s()
                    ref_log.append((start + ref / 2, ref))
                    last_reference = time.perf_counter()
        if traced:
            tracer.uninstall()
        pass_walls[traced].append(wall)
        pass_idx += 1

    report: dict = {"passes": pass_idx, "ops_per_pass": wl.ops_per_pass}
    if hasattr(wl, "determinism"):
        digest, errors = wl.determinism()
        errors += check_digest_history(f"{wl.name}:{args.size}:{args.seed}", digest)
        attempted += 1
        if errors:
            failed += 1
            failures += errors
        report["digest_sha256"] = digest

    if tracer:
        overhead = statistics.fmean(pass_walls[True]) - statistics.fmean(pass_walls[False])
        metrics = layers.per_layer_metrics(tracer, len(pass_walls[True]), overhead)
        units = {name: unit for name, unit, _ in layers.per_layer_names()}
        report["trace"] = trace_report(wl.name, tracer, overhead, pass_walls)
        tracer.write(OUT_DIR / f"spans-{wl.name}.npz")
    else:
        q = 100.0 * wl.tail_q
        op_at, lat, op_pass = (np.array(col) for col in zip(*op_log))
        ref_at, ref_s = (np.array(col) for col in zip(*ref_log))
        # each op in units of the reference loop timed around it; the mean
        # pass, so that rare slow ops count at their weight
        rel = lat / local_reference(op_at, ref_at, ref_s)
        report["seconds"] = {
            "wall_s": statistics.fmean(pass_walls[False]),
            "op_p50_ms": 1e3 * float(np.median(lat)),
            "op_tail_ms": 1e3 * float(np.percentile(lat, q)),
            "reference_ms": 1e3 * float(np.median(ref_s)),
            "reference_samples": len(ref_s),
        }
        metrics = {
            "wall_ref": float(np.bincount(op_pass, weights=rel).mean()),
            "op_p50_ref": float(np.median(rel)),
            "op_tail_ref": float(np.percentile(rel, q)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"wall_ref": "ref", "op_p50_ref": "ref", "op_tail_ref": "ref", "peak_rss_mb": "MB"}
        report["op_tail"] = {
            "percentile": q,
            "ops": len(rel),
            "ops_beyond": int(np.sum(rel > metrics["op_tail_ref"])),
        }
    report["failed_ops_share"] = failed / attempted
    report["failures"] = failures[:MAX_FAILURE_MESSAGES]
    report["environment"] = environment(args.seed)
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "report": report,
    }


def trace_report(name: str, tracer: Tracer, overhead: float, pass_walls) -> dict:
    """Where self time per traced pass went, against the layer predictions."""
    totals = tracer.span_totals()
    per = 1.0 / len(pass_walls[True])
    self_s = {k: v["self_s"] * per for k, v in totals.items() if k != "bench.op"}
    group = PREDICTIONS["dominant_self_time"][name]
    group_s = sum(self_s.get(k, 0.0) for k in group)
    others = {k: v for k, v in self_s.items() if k not in group}
    top_other = max(others, key=others.get) if others else None
    zero = PREDICTIONS["zero_self_time"].get(name, [])
    return {
        "overhead_s_per_pass": overhead,
        "untraced_pass_s": statistics.fmean(pass_walls[False]),
        "traced_pass_s": statistics.fmean(pass_walls[True]),
        "predicted_dominant": group,
        "predicted_dominant_self_s": group_s,
        "largest_other": top_other,
        "largest_other_self_s": others.get(top_other, 0.0),
        "dominant_as_predicted": group_s > others.get(top_other, 0.0),
        "zero_as_predicted": all(self_s.get(k, 0.0) == 0.0 for k in zero),
        "self_s_top": dict(sorted(self_s.items(), key=lambda kv: -kv[1])[:6]),
        "waiting": "none: single-threaded, no queue or lock, so no span records wait time",
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    result = run(args)
    if result:
        print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
