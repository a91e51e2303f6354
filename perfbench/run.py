"""chronoforest benchmark.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from anywhere; it benchmarks the package sources in ``src/`` next to
this directory.  Each workload runs in its own worker process (see
``worker.py``), which times the public entry points with tracing off
(``--trace 0``) or records per-layer spans and counts (``--trace 1``), and
checks every op's output.  Set-up time is measured from process start to
the first op, on several fresh processes, and reported as their median.

Times of passes and ops are reported twice: in seconds, in the readable
report, and as metrics in units of a fixed reference loop
(``worker.reference_s``) that the worker times every 0.1 s of the same run;
each op is divided by the median reference time within a second of it.
The speed of a shared host drifts by a quarter over minutes and moves both
alike, so the ratio is what stays comparable between runs and commits.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report with the environment, the output digest and, for a
traced run, where the time went.  The exit status is 0 when every output
check passed, 1 when one failed or a worker broke, 2 on bad arguments or
when the sources are missing.

``--size smoke`` shrinks every input so that ``test_smoke.py`` can run all
workloads in about a minute.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# set-up is timed on this many set-up-only processes plus the measuring one
SETUP_PROBES = 4
SETUP_LIMIT_S = 60.0
# time a worker may take beyond --seconds: set-up, the last pass, checks
WORKER_SLACK_S = 100.0


class BenchError(RuntimeError):
    pass


def spawn(cmd: list[str], limit_s: float) -> tuple[float, str]:
    """Run a worker; return its set-up time and the output after ``ready``."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    watchdog = threading.Timer(limit_s, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or first.strip() != "ready":
        raise BenchError(f"worker {' '.join(cmd[2:])} exited {proc.returncode}")
    return ready_s, rest


def run_workload(name: str, args) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", name, "--seed", str(args.seed), "--size", args.size,
    ]
    setups = [spawn(cmd + ["--setup-only"], SETUP_LIMIT_S)[0] for _ in range(SETUP_PROBES)]
    ready_s, out = spawn(
        cmd + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
        args.seconds + WORKER_SLACK_S,
    )
    setups.append(ready_s)
    result = json.loads(out.strip().splitlines()[-1])
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    result["report"]["setup_samples_s"] = setups
    return result


def print_report(name: str, args, result: dict) -> None:
    rep = result["report"]
    mode = "traced" if args.trace else "untraced"
    print(f"== {name}  seed {args.seed}  {args.seconds:g} s  {mode}  size {args.size}")
    for key, m in result["metrics"].items():
        print(f"  {key:<44} {m['value']:>14.6g} {m['unit']}")
    print(
        f"  {'failed_ops_share':<44} {rep['failed_ops_share']:>14.6g} share"
        f"  ({result['failed']} of {result['attempted']} ops)"
    )
    for key, value in rep.get("seconds", {}).items():
        print(f"  {key:<44} {value:>14.6g}")
    if "op_tail" in rep:
        t = rep["op_tail"]
        print(f"  op tail is p{t['percentile']:g} of {t['ops']} ops ({t['ops_beyond']} beyond)")
    if "digest_sha256" in rep:
        print(f"  digest (rows CSV + summary JSON of pass 0): {rep['digest_sha256']}")
    if "trace" in rep:
        tr = rep["trace"]
        verdict = "as predicted" if tr["dominant_as_predicted"] else "NOT as predicted"
        print(
            f"  dominant self time {'+'.join(tr['predicted_dominant'])}: "
            f"{tr['predicted_dominant_self_s']:.4g} s vs {tr['largest_other']}: "
            f"{tr['largest_other_self_s']:.4g} s -- {verdict}"
        )
        print(f"  tracing overhead per pass: {tr['overhead_s_per_pass']:.4g} s")
    for line in rep["failures"]:
        print(f"  FAILED {line}")
    print("  report " + json.dumps(rep, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    if args.seed < 0 or not 0 < args.seconds <= 60:
        parser.error("need --seed >= 0 and 0 < --seconds <= 60")
    if not (ROOT / "src" / "chronoforest" / "__init__.py").is_file():
        print(f"perfbench: no chronoforest sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics: dict = {}
    try:
        for name in names:
            result = run_workload(name, args)
            print_report(name, args, result)
            attempted += result["attempted"]
            failed += result["failed"]
            prefix = "" if len(names) == 1 else f"{name}."
            metrics.update({prefix + k: v for k, v in result["metrics"].items()})
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
