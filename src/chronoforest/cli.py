"""Command-line front end.

Subcommands:

* ``build``   -- grow the forest of sticks (from JSON or a sampled law) and
  write the forest table and contour polyline as CSV;
* ``verify``  -- run the walk/spine/forest cross-checks on random forests
  and report any counterexamples as JSON;
* ``renewal`` -- Monte Carlo diagnostics for a law's renewal quantities;
* ``couple``  -- replay the two-walk coupling and count violations;
* ``scale``   -- run a scaling experiment grid and write rows + summary.

Exit status: 0 on success, 1 when a requested check finds a violation,
2 on bad input or arguments, 141 when the reader of stdout closes it early.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import nullcontext
from typing import Optional

import numpy as np

from . import __version__
from ._parallel import second_cpu
from .forest import ContourPath, build_forest, contour_path, write_contour_csv, write_forest_csv
from .measures import sticks_from_json, write_sticks_json
from .spine import IdentityReport, verify_identities
from .stochastic import (
    ExperimentConfig,
    StableFamilyLaw,
    mean_age_integral_mc,
    parse_config,
    parse_law,
    random_verification_law,
    run_coupling_many,
    sample_ladder_stats,
    sample_vhat,
    scaling_experiment,
    summarize_coupling,
)
from .stochastic.experiments import CONFIG_KEYS
from .stochastic.renewal import mc_mean_se


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def int_at_least(k: int):
    """An argparse type: an integer that is at least ``k``."""

    def parse(text: str) -> int:
        n = int(text)
        if n < k:
            raise argparse.ArgumentTypeError(f"must be >= {k}, got {n}")
        return n

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


nonnegative_int = int_at_least(0)


def config_value(key: str):
    """An argparse type: the parser of the ``scale`` config key ``key``."""

    def parse(text: str):
        try:
            return CONFIG_KEYS[key][1](text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _open_out(path: Optional[str]):
    """Standard output or the opened file ``path``, for a ``with`` block."""
    if _out_target(path) == 1:
        return nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="")


def _out_target(path: Optional[str]):
    """What ``_open_out(path)`` writes to: a path, or descriptor 1 for
    standard output."""
    return 1 if path is None or path == "-" else path


def _json_text(doc) -> str:
    """``doc`` as the CLI writes JSON; a value that is not finite is a
    ``ValueError``, as JSON has no spelling for it."""
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _file_identity(target):
    """What names the file that ``target`` (a path, or a descriptor) writes
    to: its device and inode when it exists, so links and ``/dev/stdout``
    count, else its resolved path; None for a closed descriptor."""
    try:
        st = os.stat(target)
    except OSError:
        return None if isinstance(target, int) else os.path.realpath(target)
    return st.st_dev, st.st_ino


def _shared_file(outputs: dict) -> Optional[str]:
    """A message naming two flags of ``outputs`` (flag -> path, descriptor,
    or None when unset) that write to the same file, or None.  The null
    device may take any number of outputs."""
    devnull = _file_identity(os.devnull)
    seen: dict[object, str] = {}
    for flag, target in outputs.items():
        if target is None:
            continue
        identity = _file_identity(target)
        if identity is None or identity == devnull:
            continue
        if identity in seen:
            shown = "standard output" if isinstance(target, int) else target
            return f"{seen[identity]} and {flag} name the same file: {shown}"
        seen[identity] = flag
    return None


# Sticks from which ``build`` writes the contour in a forked child.  On a
# 2-core Xeon a fork and the child's exit cost about 4 ms; in paired builds
# the child won 1 of 30 at 300 sticks, 19 of 30 at 4000 and 27 of 30 at 5000.
CONTOUR_CHILD_STICKS = 5000


def _contour_child_pays(n_sticks: int) -> bool:
    """Whether a forked child writing the contour beats writing it after the
    forest table: fork exists, this process may run on a second CPU and the
    tables are long enough to repay the fork."""
    return n_sticks >= CONTOUR_CHILD_STICKS and hasattr(os, "fork") and second_cpu()


def _write_contour(path: ContourPath, filename: str) -> None:
    with open(filename, "w", encoding="utf-8", newline="") as fh:
        write_contour_csv(path, fh)


def _fork_contour_writer(path: ContourPath, filename: str) -> Optional[int]:
    """Fork a child that writes the contour CSV to ``filename``; return its
    pid, or None when the fork fails.

    The child leaves only through ``os._exit``: it never returns into the
    caller, flushes no inherited stdio buffer, prints nothing and takes no
    lock the parent held.  It exits 0 once the file is written, else 1.
    """
    try:
        pid = os.fork()
    except OSError:  # out of processes or memory
        return None
    if pid == 0:
        status = 1
        try:
            _write_contour(path, filename)
            status = 0
        finally:
            os._exit(status)
    return pid


def _cmd_build(args) -> int:
    if (args.input is None) == (args.law is None):
        print("build: need exactly one of --input or --law", file=sys.stderr)
        return 2
    clash = _shared_file(
        {
            "--forest-out": _out_target(args.forest_out),
            "--contour-out": args.contour_out,
            "--sticks-out": args.sticks_out,
        }
    )
    if clash:
        print(f"build: {clash}", file=sys.stderr)
        return 2
    if args.input is not None:
        forest = build_forest(sticks_from_json(_read_text(args.input)))
    else:
        law = parse_law(args.law)
        if args.seed is None:
            print("build: --law needs --seed", file=sys.stderr)
            return 2
        forest = build_forest(law.sample_batch(_rng(args.seed), args.n))
    path = contour_path(forest)  # rejects an overflowing clock before any output
    child = None
    if args.contour_out and _contour_child_pays(forest.n_sticks):
        child = _fork_contour_writer(path, args.contour_out)
    try:
        if args.sticks_out:
            with open(args.sticks_out, "w", encoding="utf-8") as fh:
                write_sticks_json(forest.batch, fh)
                fh.write("\n")
        with _open_out(args.forest_out) as out:
            write_forest_csv(forest, out)
    finally:
        # wait status 0: the child wrote the whole contour and exited 0
        written = child is not None and os.waitpid(child, 0)[1] == 0
    if args.contour_out and not written:
        # no child, or it failed: a lasting error is raised from this write
        _write_contour(path, args.contour_out)
    if not args.quiet:
        print(
            f"built {forest.n_sticks} sticks, {forest.tree_count} trees,"
            f" final height {forest.arrays.heights[-1]:.6g}",
            file=sys.stderr,
        )
    return 0


def _cmd_verify(args) -> int:
    rng = _rng(args.seed)
    report = IdentityReport()
    if args.input is not None:
        sticks = sticks_from_json(_read_text(args.input)).to_sticks()
        report.merge(verify_identities(sticks, max_pairs=args.pairs, rng=rng))
    else:
        for _ in range(args.forests):
            law = random_verification_law(rng)
            n = int(rng.integers(3, args.max_sticks + 1))
            sticks = law.sample_batch(rng, n).to_sticks()
            report.merge(verify_identities(sticks, max_pairs=args.pairs, rng=rng))
    sys.stdout.write(_json_text(report.to_json()))
    return 0 if report.ok else 1


# counts that the ladder walks of ``renewal`` may draw: at most about 40 s on a 2-core Xeon
RENEWAL_COUNT_BOUND = 1.5e8


def _cmd_renewal(args) -> int:
    law = parse_law(args.law)
    law.require_subcritical("ladder epochs by duality")  # before any draw
    walks = min(args.draws, 10000)
    # with stable counts P(tau > n) ~ n^-(1-1/alpha): a walk draws about step_cap^(1/alpha)
    alpha = law.alpha if isinstance(law, StableFamilyLaw) else 2.0
    work = walks * args.step_cap ** (1.0 / alpha)
    if alpha < 2.0 and work > RENEWAL_COUNT_BOUND:
        largest = math.floor((RENEWAL_COUNT_BOUND / walks) ** alpha)
        print(
            f"renewal: with stable counts (alpha={alpha}) P(tau > n) decays like n^-(1-1/alpha), so"
            f" {walks} ladder walks at --step-cap {args.step_cap} would draw about {work:.3g} counts,"
            f" over the bound of {RENEWAL_COUNT_BOUND:.3g}; use --step-cap {largest} or less",
            file=sys.stderr,
        )
        return 2
    rng = _rng(args.seed)
    age_mean, age_se = mc_mean_se(law.sample_ystars(rng, args.draws))
    mc_mean, mc_se = mean_age_integral_mc(law, rng, args.draws)
    stats = sample_ladder_stats(law, rng, walks, step_cap=args.step_cap)
    acc = stats.tau[stats.accepted]
    vh = sample_vhat(law, rng, args.draws)
    doc = {
        "law": law.describe(),
        "uniform_atom_age": {"mc_mean": age_mean, "mc_se": age_se},
        "age_integral": {"mc_mean": mc_mean, "mc_se": mc_se},
        "ladder": {
            "acceptance_rate": float(stats.accepted.mean()),
            "median_tau_accepted": float(np.median(acc)) if acc.size else None,
            "step_cap": args.step_cap,
            "rejected_step_cap": int((stats.finite & ~stats.accepted).sum()),
        },
        "stationary_overshoot_mean": mc_mean_se(vh)[0],  # finite for any finite draws
    }
    sys.stdout.write(_json_text(doc))
    return 0


def _cmd_couple(args) -> int:
    law = parse_law(args.law)
    rng = _rng(args.seed)
    results = run_coupling_many(
        law,
        args.eps,
        args.t,
        args.m,
        rng,
        args.replicas,
        meet_budget=args.budget,
        walk_budget=args.budget,
    )
    doc = summarize_coupling(results)
    doc["law"] = law.describe()
    doc["eps"] = args.eps
    doc["t"] = args.t
    doc["m"] = args.m
    violations = [
        {"replica": i, "mismatches": r.mismatches}
        for i, r in enumerate(results)
        if r.status == "violated"
    ]
    if violations:
        doc["violations"] = violations
    sys.stdout.write(_json_text(doc))
    return 1 if violations else 0


def _cmd_scale(args) -> int:
    clash = _shared_file(
        {"--out": _out_target(args.out), "--summary-out": args.summary_out}
    )
    if clash:
        print(f"scale: {clash}", file=sys.stderr)
        return 2
    if args.config is not None:
        config = parse_config(_read_text(args.config))
    else:
        if args.law is None or args.p is None:
            print("scale: need --config, or --law and --p", file=sys.stderr)
            return 2
        config = ExperimentConfig(
            law=args.law,
            p_values=args.p,
            times=args.times,
            replicates=args.replicates,
            seed=args.seed,
        )
    result = scaling_experiment(config, workers=args.workers)
    with _open_out(args.out) as out:
        result.write_csv(out)
    if args.summary_out:
        summary = _json_text(result.summary())
        with open(args.summary_out, "w", encoding="utf-8") as fh:
            fh.write(summary)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chronoforest",
        description="grafted stick forests: heights, contours, walks, couplings",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="graft sticks and write forest/contour CSV")
    p_build.add_argument("--input", help="sticks JSON file ('-' for stdin)")
    p_build.add_argument("--law", help="law spec to sample sticks from")
    p_build.add_argument("--n", type=nonnegative_int, default=100, help="sticks to sample with --law")
    p_build.add_argument("--seed", type=nonnegative_int, help="seed for --law sampling")
    p_build.add_argument("--forest-out", help="forest CSV path (default stdout)")
    p_build.add_argument("--contour-out", help="contour polyline CSV path")
    p_build.add_argument("--sticks-out", help="write the (possibly sampled) sticks as JSON")
    p_build.add_argument("--quiet", action="store_true")
    p_build.set_defaults(func=_cmd_build)

    p_verify = sub.add_parser("verify", help="cross-check walk/spine/forest identities")
    p_verify.add_argument("--input", help="sticks JSON file to verify instead of random draws")
    p_verify.add_argument("--seed", type=nonnegative_int, default=0)
    p_verify.add_argument("--forests", type=nonnegative_int, default=20)
    p_verify.add_argument("--max-sticks", type=int_at_least(3), default=60)
    p_verify.add_argument("--pairs", type=nonnegative_int, default=40, help="index pairs per forest")
    p_verify.set_defaults(func=_cmd_verify)

    p_renewal = sub.add_parser("renewal", help="Monte Carlo renewal diagnostics for a law")
    p_renewal.add_argument("--law", required=True)
    p_renewal.add_argument("--seed", type=nonnegative_int, required=True)
    p_renewal.add_argument("--draws", type=int_at_least(2), default=20000)
    p_renewal.add_argument("--step-cap", type=int_at_least(1), default=1_000_000)
    p_renewal.set_defaults(func=_cmd_renewal)

    p_couple = sub.add_parser("couple", help="replay the stationarity coupling")
    p_couple.add_argument("--law", required=True)
    p_couple.add_argument("--eps", type=float, required=True)
    p_couple.add_argument("--t", type=float, required=True)
    p_couple.add_argument("--m", type=nonnegative_int, default=3)
    p_couple.add_argument("--replicas", type=nonnegative_int, default=100)
    p_couple.add_argument("--seed", type=nonnegative_int, required=True)
    p_couple.add_argument("--budget", type=nonnegative_int, default=200_000)
    p_couple.set_defaults(func=_cmd_couple)

    p_scale = sub.add_parser("scale", help="run a scaling experiment grid")
    p_scale.add_argument("--config", help="config file of key = value lines")
    p_scale.add_argument("--law", help="law spec (inline config)")
    p_scale.add_argument("--p", type=config_value("p"), help="comma-separated population sizes")
    p_scale.add_argument("--times", type=config_value("times"), default="0.5,1.0")
    p_scale.add_argument("--replicates", type=int, default=20)
    p_scale.add_argument("--seed", type=nonnegative_int, default=0)
    p_scale.add_argument("--workers", type=int_at_least(1), default=1)
    p_scale.add_argument("--out", help="rows CSV path (default stdout)")
    p_scale.add_argument("--summary-out", help="summary JSON path")
    p_scale.set_defaults(func=_cmd_scale)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # The reader of stdout went away (``| head``): not bad input.  Point
        # stdout at devnull so that the flush at interpreter exit is silent.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE, as a shell reports a killed writer
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's names the size it could not allocate
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
