"""Command-line front end: exit codes, files written, determinism."""

import errno
import hashlib
import io
import json
import math
import os
import re
import shlex
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chronoforest import cli
from chronoforest.cli import CONTOUR_CHILD_STICKS, _contour_child_pays, _rng, main
from chronoforest.measures import StickBatch, sticks_from_json, sticks_to_json
from chronoforest.stochastic import parse_law, run_coupling_many
from chronoforest.stochastic.laws import _LAWS, StickLaw

SRC = str(Path(__file__).resolve().parents[1] / "src")

GOLDEN_FOREST_ROWS = [
    "index,parent,birth_time,depth,v,tree_id",
    "0,-1,0,0,2,0",
    "1,0,1.5,1,1.5,0",
    "2,1,2.7,2,1.5,0",
    "3,2,3.6,3,1,0",
    "4,1,2,2,2,0",
    "5,0,0.5,1,4,0",
    "6,5,4,2,2,0",
    "7,5,3,2,1,0",
    "8,5,1.5,2,1,0",
    "9,8,2.5,3,1,0",
]


@pytest.fixture
def fixture_json(tmp_path, reference_sticks):
    path = tmp_path / "sticks.json"
    path.write_text(sticks_to_json(StickBatch.from_sticks(reference_sticks)))
    return path


def test_build_from_fixture(tmp_path, fixture_json, capsys):
    forest_out = tmp_path / "forest.csv"
    contour_out = tmp_path / "contour.csv"
    rc = main(
        [
            "build",
            "--input", str(fixture_json),
            "--forest-out", str(forest_out),
            "--contour-out", str(contour_out),
            "--quiet",
        ]
    )
    assert rc == 0
    assert forest_out.read_text().strip().splitlines() == GOLDEN_FOREST_ROWS
    contour_lines = contour_out.read_text().strip().splitlines()
    assert contour_lines[0] == "time,value"
    assert contour_lines[-1] == "34,0"


def test_build_to_stdout(fixture_json, capsys):
    assert main(["build", "--input", str(fixture_json), "--quiet"]) == 0
    out = capsys.readouterr().out
    assert out.strip().splitlines() == GOLDEN_FOREST_ROWS


def test_build_sampled_law(tmp_path):
    forest_out = tmp_path / "forest.csv"
    sticks_out = tmp_path / "sticks.json"
    rc = main(
        [
            "build",
            "--law", "gw(mean=1.0)",
            "--n", "40",
            "--seed", "7",
            "--forest-out", str(forest_out),
            "--sticks-out", str(sticks_out),
            "--quiet",
        ]
    )
    assert rc == 0
    assert len(forest_out.read_text().strip().splitlines()) == 41
    batch = sticks_from_json(sticks_out.read_text())
    assert len(batch) == 40
    assert (batch.v == 1.0).all()


def test_build_sticks_out_round_trips(tmp_path):
    # the sticks a sampled build writes rebuild the same forest and contour,
    # byte for byte
    def build(tag: str, *source: str) -> tuple[bytes, bytes]:
        forest_out, contour_out = tmp_path / f"{tag}-forest.csv", tmp_path / f"{tag}-contour.csv"
        args = ["build", *source, "--forest-out", str(forest_out), "--contour-out", str(contour_out)]
        assert main([*args, "--quiet"]) == 0
        return forest_out.read_bytes(), contour_out.read_bytes()

    sticks_out = tmp_path / "sticks.json"
    sampled = build(
        "law",
        "--law", "geo-uniform(mean=1.0,v=1.0)",
        "--n", "20000",
        "--seed", "1701",
        "--sticks-out", str(sticks_out),
    )
    assert len(sticks_from_json(sticks_out.read_text())) == 20000
    assert build("input", "--input", str(sticks_out)) == sampled


def test_build_empty_input(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    assert main(["build", "--input", str(empty), "--quiet"]) == 0
    out = capsys.readouterr().out
    assert out.strip() == "index,parent,birth_time,depth,v,tree_id"


def test_build_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["build", "--input", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert main(["build", "--input", str(missing)]) == 2


# finite sticks whose doubled total life length, the end of the contour's
# clock, is not a finite float
OVERFLOWING_STICKS = [{"v": 1e308, "births": [1e308]}, {"v": 1e308, "births": [1e308]}, {"v": 1e308, "births": []}]
OVERFLOWING_LAW = "const(v=1e308,ages=1e308)"


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--input", "{sticks}"],
        ["build", "--input", "{sticks}", "--contour-out", "{contour}"],
        ["build", "--law", OVERFLOWING_LAW, "--n", "3", "--seed", "0", "--contour-out", "{contour}"],
        ["verify", "--input", "{sticks}"],
        ["scale", "--law", OVERFLOWING_LAW, "--p", "10", "--replicates", "1"],
    ],
)
def test_overflowing_sticks_are_rejected(tmp_path, capsys, argv):
    # unchecked, the overflowing clock gives inf birth times and inf/nan
    # contour rows (build), a false contour-min-via-drop failure (verify),
    # and a nan end time that never covers the requested time, so that
    # sampling goes on without end (scale)
    sticks, contour = tmp_path / "sticks.json", tmp_path / "contour.csv"
    sticks.write_text(json.dumps(OVERFLOWING_STICKS))
    argv = [a.format(sticks=sticks, contour=contour) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the doubled total life length 2 * sum(v) overflows a float (largest v: 1e+308)\n"
    )
    assert not contour.exists()


def test_verify_fixture(fixture_json, capsys):
    rc = main(["verify", "--input", str(fixture_json)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    assert report["pairs_checked"] > 0


def test_verify_random(capsys):
    rc = main(["verify", "--seed", "3", "--forests", "5", "--max-sticks", "40", "--pairs", "10"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    assert report["forests"] == 5


# SHA-256 of the README's ``verify`` report.  Any change to the identity
# suite must leave its tallies byte for byte as they are; like
# ``law_digests.json`` the value depends on numpy 2.4's generator streams.
VERIFY_README_DIGEST = "7a7cd661f22269488172b189c6520abc96f57be88eaabfa558b1bf0839d81936"


def test_verify_report_is_pinned(capsys):
    rc = main(["verify", "--seed", "3", "--forests", "50", "--max-sticks", "120"])
    assert rc == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == VERIFY_README_DIGEST


def test_renewal_diagnostics(capsys):
    rc = main(["renewal", "--law", "gw(mean=1.0)", "--seed", "11", "--draws", "2000"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["law"]["name"] == "gw"
    # Unit ages: the sampled atom age is exactly 1 and the overshoot 0.
    assert report["uniform_atom_age"]["mc_mean"] == 1.0
    assert report["stationary_overshoot_mean"] == 0.0
    # a critical law's epochs are all finite, but P(tau > 1e6) is about 6e-4:
    # about one of the 2000 walks runs past the step cap
    assert report["ladder"]["acceptance_rate"] >= 0.995
    # and every rejection is a step-cap one
    assert report["ladder"]["rejected_step_cap"] == round(2000 * (1.0 - report["ladder"]["acceptance_rate"]))


def _refuse_constant(name):
    raise AssertionError(f"not JSON: {name}")


def test_renewal_of_huge_lengths_prints_finite_json(capsys):
    # ages near 1e200 have squares past the largest float: the standard
    # errors are computed on scaled values, so none of them is Infinity
    assert main(["renewal", "--law", "exp-uniform(rate=1e-200)", "--seed", "1", "--draws", "10"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out, parse_constant=_refuse_constant)
    assert 0 < report["uniform_atom_age"]["mc_se"] < report["uniform_atom_age"]["mc_mean"]
    assert 0 < report["age_integral"]["mc_se"] < report["age_integral"]["mc_mean"]


def test_renewal_near_the_largest_float_sums_each_stick_alone():
    # every stick's total age is finite, though the running sum over the
    # batch is not: the command prints strict JSON and not one warning
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    argv = ["-m", "chronoforest", "renewal", "--law", "exp-uniform(rate=1e-307)", "--seed", "1", "--draws", "200"]
    out = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, timeout=60)
    assert (out.returncode, out.stderr) == (0, "")
    report = json.loads(out.stdout, parse_constant=_refuse_constant)
    assert 0 < report["age_integral"]["mc_se"] < report["age_integral"]["mc_mean"] < 1e308
    assert 0 < report["stationary_overshoot_mean"] < 1e308


def test_a_value_that_is_not_finite_is_not_printed(monkeypatch, capsys):
    monkeypatch.setattr("chronoforest.cli.mean_age_integral_mc", lambda law, rng, n: (math.nan, math.inf))
    assert main(["renewal", "--law", "gw", "--seed", "1", "--draws", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: Out of range float values are not JSON compliant")


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--law", "gw", "--n", "10", "--seed", "1"],
        ["scale", "--law", "gw", "--p", "100", "--replicates", "1", "--times", "1"],
    ],
)
@pytest.mark.parametrize(
    "exc, message",
    [
        (MemoryError("Unable to allocate 745. GiB for an array"), "Unable to allocate 745. GiB for an array"),
        (MemoryError(), "out of memory"),
    ],
)
def test_a_failed_allocation_is_an_error_line(monkeypatch, capsys, argv, exc, message):
    # status 1 is kept for a found violation: no memory for the draws is 2
    def draw(self, rng, n):
        raise exc

    monkeypatch.setattr(StickLaw, "draw", draw)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_renewal_reports_the_median_accepted_passage_time(capsys):
    # every stick has one child, so every ladder epoch is at tau = 1; a
    # critical law's tau has infinite mean, so no mean is reported
    assert main(["renewal", "--law", "const(v=1,ages=0.5)", "--seed", "4", "--draws", "200"]) == 0
    ladder = json.loads(capsys.readouterr().out)["ladder"]
    assert ladder["acceptance_rate"] == 1.0
    assert ladder["median_tau_accepted"] == 1.0
    assert "mean_tau_accepted" not in ladder


class _LadderDrawn(Exception):
    pass


def _refuse_to_draw(*args, **kwargs):
    raise _LadderDrawn


HEAVY_TAIL_REFUSAL = (
    "renewal: with stable counts (alpha=1.2) P(tau > n) decays like n^-(1-1/alpha), so 10000"
    " ladder walks at --step-cap {cap} would draw about {work} counts, over the bound of"
    " 1.5e+08; use --step-cap 102638 or less\n"
)


@pytest.mark.parametrize(
    "spec, flags, work",
    [
        ("family2(alpha=1.2)", [], "1e+09"),
        ("family2(alpha=1.2)", ["--step-cap", "102639"], "1.5e+08"),
    ],
)
def test_renewal_refuses_a_heavy_tail_before_drawing(monkeypatch, capsys, spec, flags, work):
    # these walks would draw more counts than the bound (at the defaults
    # about 1e9, some four minutes): exit 2 before any draw
    monkeypatch.setattr("chronoforest.cli.sample_ladder_stats", _refuse_to_draw)
    monkeypatch.setattr("chronoforest.cli._rng", _refuse_to_draw)
    assert main(["renewal", "--law", spec, "--seed", "1", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    cap = flags[1] if flags else "1000000"
    assert captured.err == HEAVY_TAIL_REFUSAL.format(cap=cap, work=work)


def test_renewal_refuses_a_supercritical_law_before_drawing(monkeypatch, capsys):
    # ladder epochs are drawn by duality, which needs mean offspring <= 1
    monkeypatch.setattr("chronoforest.cli.sample_ladder_stats", _refuse_to_draw)
    monkeypatch.setattr("chronoforest.cli._rng", _refuse_to_draw)
    assert main(["renewal", "--law", "gw(mean=1.5)", "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: ladder epochs by duality need a (sub)critical law\n"


@pytest.mark.parametrize(
    "spec, flags",
    [
        ("family2(alpha=1.2)", ["--step-cap", "102638"]),
        ("family2(alpha=1.5)", []),
        ("family1", []),
        ("family-gen", []),
        ("family2(alpha=2)", []),
    ],
)
def test_renewal_draws_a_heavy_tail_within_the_bound(monkeypatch, capsys, spec, flags):
    # the cap the refusal names fits, and so do the stable laws at their
    # default alpha = 1.5 (about 1e8 counts)
    monkeypatch.setattr("chronoforest.cli.sample_ladder_stats", _refuse_to_draw)
    with pytest.raises(_LadderDrawn):
        main(["renewal", "--law", spec, "--seed", "1", *flags])
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["build", "--input", "sticks.json", "--law", "gw(mean=1.0)"], "build: need exactly one of --input or --law\n"),
        (["build", "--n", "5"], "build: need exactly one of --input or --law\n"),
        (["build", "--law", "gw", "--n", "5"], "build: --law needs --seed\n"),
        (["scale", "--law", "gw"], "scale: need --config, or --law and --p\n"),
        (["scale", "--p", "10"], "scale: need --config, or --law and --p\n"),
        (["scale"], "scale: need --config, or --law and --p\n"),
    ],
)
def test_missing_arguments_are_usage_errors(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


def test_couple_exit_codes(capsys):
    rc = main(
        [
            "couple",
            "--law", "gw(mean=1.0)",
            "--eps", "0",
            "--t", "8",
            "--m", "2",
            "--replicas", "50",
            "--seed", "5",
        ]
    )
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["violated"] == 0
    assert report["replicas"] == 50


def test_couple_lists_a_violated_replica(monkeypatch, capsys):
    # the first compared mark gets one extra atom, so the first replica that
    # reaches its event is violated: exit 1 and its index under "violations"
    from chronoforest.stochastic import coupling

    law, seed = "gw", 2418
    honest = run_coupling_many(parse_law(law), 0.0, 16.0, 3, _rng(seed), 20)
    first = next(i for i, r in enumerate(honest) if r.event)
    mark, changed = coupling._Blocks.mark, []

    def changed_once(self, e):
        out = mark(self, e)
        if not changed:
            changed.append(e)
            out = np.append(out, -1.0)
        return out

    monkeypatch.setattr(coupling._Blocks, "mark", changed_once)
    argv = ["couple", "--law", law, "--eps", "0", "--t", "16", "--m", "3", "--replicas", "20"]
    assert main(argv + ["--seed", str(seed)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["violated"] == 1
    assert report["violations"] == [
        {"replica": first, "mismatches": [{"back": 0, "step": [2.0, 2.0], "marks_equal": False}]}
    ]


def test_scale_deterministic(tmp_path):
    cfg = tmp_path / "config.txt"
    cfg.write_text(
        "law = gw(mean=1.0)\np = 50,100\ntimes = 1\nreplicates = 3\nseed = 13\n"
    )
    outs = []
    for run, workers in enumerate(("1", "2", "1")):
        out = tmp_path / f"rows{run}.csv"
        summary = tmp_path / f"summary{run}.json"
        rc = main(
            [
                "scale",
                "--config", str(cfg),
                "--workers", workers,
                "--out", str(out),
                "--summary-out", str(summary),
            ]
        )
        assert rc == 0
        outs.append(out.read_bytes())
        json.loads(summary.read_text())
    assert outs[0] == outs[1] == outs[2]


# SHA-256 of the README's ``scale`` example outputs.  A change to how the
# rows are computed, held or written must leave both files byte for byte as
# they are; like ``law_digests.json`` the values depend on numpy 2.4's
# generator streams.
SCALE_README_DIGESTS = {
    "rows.csv": "0f08a497962f790fb1f31b6af376f19c7d534ed809958937578e51968f18ee1a",
    "summary.json": "8a53390e713f35962b2f0e33090d6b8e22d1561de7d67fe6d8304054278eba88",
}


@pytest.mark.parametrize("workers", ["1", "2"])
def test_scale_readme_example_is_pinned(tmp_path, workers):
    rc = main(
        [
            "scale",
            "--law", "geo-uniform(mean=1.0,v=1.0)",
            "--p", "1000,10000",
            "--times", "1.0",
            "--replicates", "50",
            "--seed", "20250801",
            "--workers", workers,
            "--out", str(tmp_path / "rows.csv"),
            "--summary-out", str(tmp_path / "summary.json"),
        ]
    )
    assert rc == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in SCALE_README_DIGESTS}
    assert digests == SCALE_README_DIGESTS


def test_scale_inline_config(tmp_path, capsys):
    rc = main(
        [
            "scale",
            "--law", "gw(mean=1.0)",
            "--p", "40",
            "--times", "0.5",
            "--replicates", "2",
            "--seed", "3",
        ]
    )
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("p,t,replicate")
    assert len(lines) == 3


def test_unknown_law_is_usage_error(capsys):
    assert main(["build", "--law", "martians(mean=1)", "--n", "5", "--seed", "1"]) == 2
    assert main(["scale", "--law", "gw(mean=1.0)", "--p", "-5", "--seed", "1"]) == 2
    capsys.readouterr()
    for law in ("geo-uniform(mean=-0.5)", "exp-uniform(mean=-0.5)"):
        assert main(["build", "--law", law, "--n", "5", "--seed", "1"]) == 2
        assert "mean offspring must be >= 0" in capsys.readouterr().err


def test_build_negative_n_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["build", "--law", "gw(mean=1.0)", "--n", "-3", "--seed", "1"])
    assert exc.value.code == 2
    assert "--n: must be >= 0, got -3" in capsys.readouterr().err


def test_readme_build_example(monkeypatch, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    m = re.search(r"^echo '(.*)' \| chronoforest (build .*)$", readme, re.MULTILINE)
    assert m, "README has no literal 'echo JSON | chronoforest build' example"
    monkeypatch.setattr("sys.stdin", io.StringIO(m.group(1)))
    assert main(shlex.split(m.group(2))) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows == [
        "index,parent,birth_time,depth,v,tree_id",
        "0,-1,0,0,2,0",
        "1,0,1.5,1,1.5,0",
        "2,0,0.5,1,1,0",
    ]


# SHA-256 of the ``couple`` reports of the README example and of a GW law
# at eps = 0, with the same t, m, replicas and seed: the stream draws each
# block once and lays it out lazily, and neither may move a replica.  Like
# ``law_digests.json`` the values depend on numpy 2.4's generator streams.
COUPLE_README_DIGEST = "383128eea7d69e84cdda332d609b24983efabe2a72449f3ba983bd935d70e9e8"
COUPLE_GW_DIGEST = "5c7cf88782247765378d958b1fcf9beb2e7163ad34111ad33b89d52ddc366b44"


def test_readme_couple_example(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    m = re.search(r"^chronoforest (couple (?:.*\\\n)*.*)$", readme, re.MULTILINE)
    assert m, "README has no literal 'chronoforest couple' example"
    assert main(shlex.split(m.group(1).replace("\\\n", " "))) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == COUPLE_README_DIGEST
    report = json.loads(out)
    assert report["violated"] == 0
    assert report["held"] > 0
    assert report["undecided_meet_budget"] + report["undecided_walk_budget"] == report["undecided"]


def test_gw_couple_report_is_pinned(capsys):
    argv = ["couple", "--law", "gw(mean=1.0)", "--eps", "0", "--t", "16", "--m", "3"]
    assert main(argv + ["--replicas", "2000", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == COUPLE_GW_DIGEST


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    # every literal ``chronoforest`` line except ``couple``, which has its own
    # test, run in README order: ``verify --input sticks.json`` reads the
    # sticks that the ``build --law`` line saved
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = [
        shlex.split(m.group(1).replace("\\\n", " "))
        for m in re.finditer(r"^chronoforest ((?:.*\\\n)*.*)$", readme, re.MULTILINE)
    ]
    commands = [argv for argv in commands if argv[0] != "couple"]
    assert [argv[0] for argv in commands] == ["build", "verify", "verify", "renewal", "scale"]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        if argv[0] == "verify":
            assert json.loads(out)["ok"] is True
        elif argv[0] == "renewal":
            ladder = json.loads(out)["ladder"]
            # the README's law is critical: every rejection is a step-cap one
            assert ladder["rejected_step_cap"] == round(10_000 * (1.0 - ladder["acceptance_rate"]))
    assert (tmp_path / "forest.csv").is_file() and (tmp_path / "contour.csv").is_file()
    assert len(sticks_from_json((tmp_path / "sticks.json").read_text())) == 200
    assert json.loads((tmp_path / "summary.json").read_text())["config"]["replicates"] == 50
    assert len((tmp_path / "rows.csv").read_text().splitlines()) == 1 + 2 * 50


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--replicas", "-3", "--replicas: must be >= 0, got -3"),
        ("--budget", "-5", "--budget: must be >= 0, got -5"),
        ("--m", "-1", "--m: must be >= 0, got -1"),
    ],
)
def test_couple_negative_counts_are_usage_errors(capsys, flag, value, message):
    argv = ["couple", "--law", "gw", "--eps", "0", "--t", "8", "--seed", "1", flag, value]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--forests", "-3"], "--forests: must be >= 0, got -3"),
        (["verify", "--pairs", "-1"], "--pairs: must be >= 0, got -1"),
        (["verify", "--max-sticks", "2"], "--max-sticks: must be >= 3, got 2"),
        (["renewal", "--law", "gw", "--seed", "1", "--draws", "0"], "--draws: must be >= 2, got 0"),
        (["renewal", "--law", "gw", "--seed", "1", "--draws", "-5"], "--draws: must be >= 2, got -5"),
        (["renewal", "--law", "gw", "--seed", "1", "--step-cap", "-1"], "--step-cap: must be >= 1, got -1"),
        (["scale", "--law", "gw", "--p", "10", "--workers", "-2"], "--workers: must be >= 1, got -2"),
        (["build", "--law", "gw", "--seed", "-4"], "--seed: must be >= 0, got -4"),
        (["verify", "--seed", "-4"], "--seed: must be >= 0, got -4"),
        (["renewal", "--law", "gw", "--seed", "-4"], "--seed: must be >= 0, got -4"),
        (["couple", "--law", "gw", "--eps", "0", "--t", "8", "--seed", "-4"], "--seed: must be >= 0, got -4"),
        (["scale", "--law", "gw", "--p", "10", "--seed", "-4"], "--seed: must be >= 0, got -4"),
    ],
)
def test_counts_below_their_floor_are_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize(
    "law, eps, t, message",
    [
        ("gw", "0", "-5", "need m >= 0 and t > 0"),
        ("gw", "-1", "8", "eps must be >= 0"),
        ("gw", "nan", "8", "eps and t must be finite"),
        ("exp-uniform", "0", "8", "eps = 0 requires an arithmetic life-length law"),
    ],
)
def test_couple_without_replicas_still_rejects_bad_arguments(capsys, law, eps, t, message):
    argv = ["couple", "--law", law, "--eps", eps, "--t", t, "--seed", "1", "--replicas", "0"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("eps, t", [("nan", "8"), ("0.5", "inf"), ("inf", "8")])
def test_couple_non_finite_levels_are_rejected(capsys, eps, t):
    argv = ["couple", "--law", "exp-uniform", "--eps", eps, "--t", t, "--seed", "1", "--replicas", "3"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "eps and t must be finite" in captured.err


@pytest.mark.parametrize(
    "times, interval, message",
    [
        ("inf", None, "times must be positive and finite, got (inf,)"),
        ("0.5,nan", None, "times must be positive and finite, got (0.5, nan)"),
        ("1", "0.5,inf", "interval must satisfy 0 <= u < v < inf, got (0.5, inf)"),
        ("1", "nan,1", "interval must satisfy 0 <= u < v < inf, got (nan, 1.0)"),
    ],
)
def test_scale_non_finite_times_are_rejected(tmp_path, capsys, times, interval, message):
    cfg = tmp_path / "config.txt"
    cfg.write_text(f"law = gw\np = 100\ntimes = {times}\n" + (f"interval = {interval}\n" if interval else ""))
    runs = [["scale", "--config", str(cfg)]]
    if interval is None:
        runs.append(["scale", "--law", "gw", "--p", "100", "--times", times])
    for argv in runs:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "p, times, interval, message",
    [
        ("1" + "0" * 400, "1", None, "p must be below 2**63, got 1" + "0" * 400),
        ("9223372036854775808", "1", None, "p must be below 2**63, got 9223372036854775808"),
        ("20", "1e308", None, "times must keep p * t below 2**63, got p=20, t=1e+308"),
        ("20", "1", "0.5,1e308", "interval must keep p * v below 2**63, got p=20, v=1e+308"),
        ("20,10", "1", "0.5,1e18", "interval must keep p * v below 2**63, got p=20, v=1e+18"),
    ],
)
def test_scale_oversized_values_are_rejected(tmp_path, capsys, monkeypatch, p, times, interval, message):
    # these used to end in an OverflowError traceback; p is an int64 column
    # and [p * t] a stick index, so both are checked before anything is drawn
    monkeypatch.setattr("chronoforest.cli.scaling_experiment", None)
    cfg = tmp_path / "config.txt"
    cfg.write_text(f"law = gw\np = {p}\ntimes = {times}\n" + (f"interval = {interval}\n" if interval else ""))
    runs = [["scale", "--config", str(cfg)]]
    if interval is None:
        runs.append(["scale", "--law", "gw", "--p", p, "--times", times])
    for argv in runs:
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "spec, mean_v",
    [("geo-uniform(v=1e-320)", "1e-320"), ("geo-uniform(v=1e-300)", "1e-300"), ("exp-uniform(rate=1e300)", "1e-300")],
)
def test_scale_life_too_short_for_the_stick_count_is_rejected(capsys, monkeypatch, spec, mean_v):
    # a replicate draws p * t / (2 * mean_v) sticks or more: an infinite
    # count ended in an OverflowError traceback, a huge one in numpy's
    # "Maximum allowed dimension exceeded"; both are now refused before any draw
    monkeypatch.setattr("chronoforest.stochastic.experiments.simulate_replicate", None)
    assert main(["scale", "--law", spec, "--p", "10", "--replicates", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: the law's mean life length {mean_v} is too short: p * t / (2 * mean_v)"
        " must stay below 2**63, got p=10, t=1.0\n"
    )


@pytest.mark.parametrize(
    "line, message",
    [
        ("eps = nan", "eps: scale rule 'nan' gives nan at p=200"),
        ("eps = 0", "eps: scale rule '0' gives 0.0 at p=200"),
        ("eps = -1", "eps: scale rule '-1' gives -1.0 at p=200"),
        ("eps = pow:inf", "eps: scale rule 'pow:inf' gives 0.0 at p=200"),
        ("epsbar = 1e400", "epsbar: scale rule '1e400' gives inf at p=200"),
    ],
)
def test_scale_rules_must_be_positive_and_finite(tmp_path, capsys, line, message):
    cfg = tmp_path / "config.txt"
    cfg.write_text(f"law = gw\np = 200\nreplicates = 1\n{line}\n")
    assert main(["scale", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}; it must be positive and finite\n"



@pytest.mark.parametrize(
    "line, message",
    [
        ("p = 1.5", "config key 'p': expected comma-separated integers, got '1.5'"),
        ("times = ", "config key 'times': expected comma-separated numbers, got ''"),
        ("eps = stable:abc", "eps: unknown scale rule 'stable:abc'"),
        ("epsbar = stable:3", "epsbar: scale rule 'stable:3': stable index must be in (1, 2]"),
        ("seed = -3", "seed must be >= 0, got -3"),
        ("interval = 1", "config key 'interval': expected two numbers u,v, got '1'"),
        ("replicates = 2.5", "config key 'replicates': expected an integer, got '2.5'"),
    ],
)
def test_scale_config_errors_name_the_key(tmp_path, capsys, line, message):
    # rejected before any stick is drawn, with the key in the message
    fields = {"law": "gw", "p": "100,200", "replicates": "1"}
    key, value = (part.strip() for part in line.split("=", 1))
    fields[key] = value
    cfg = tmp_path / "config.txt"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in fields.items()))
    assert main(["scale", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "p, times, message",
    [
        ("50,50", "1,1", "p must not repeat a value, got (50, 50)"),
        ("50,100,50", "1", "p must not repeat a value, got (50, 100, 50)"),
        ("50", "1,0.5,1.0", "times must not repeat a value, got (1.0, 0.5, 1.0)"),
    ],
)
def test_scale_rejects_repeated_p_and_times(tmp_path, capsys, monkeypatch, p, times, message):
    # a repeated value used to be run again under a different p index and
    # pooled into duplicate summary cells
    monkeypatch.setattr("chronoforest.cli.scaling_experiment", None)  # nothing may be drawn
    cfg = tmp_path / "config.txt"
    cfg.write_text(f"law = gw\np = {p}\ntimes = {times}\nreplicates = 2\nseed = 1\n")
    flags = ["scale", "--law", "gw", "--p", p, "--times", times, "--replicates", "2", "--seed", "1"]
    for argv in (flags, ["scale", "--config", str(cfg)]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("law = gw\np = 10\nreplicates = 1\n\np = 20\n", "line 5: config key 'p' given twice"),
        ("law = gw\nSeed = 1 # first\np = 10\nseed = 2\n", "line 4: config key 'seed' given twice"),
        ("law = gw\np = 10\nbogus = 1\nbogus = 2\n", "line 4: config key 'bogus' given twice"),
    ],
)
def test_scale_config_rejects_a_repeated_key(tmp_path, capsys, monkeypatch, text, message):
    # the last value used to win silently
    monkeypatch.setattr("chronoforest.cli.scaling_experiment", None)
    cfg = tmp_path / "config.txt"
    cfg.write_text(text)
    assert main(["scale", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_scale_config_line_without_equals_is_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("chronoforest.cli.scaling_experiment", None)
    cfg = tmp_path / "config.txt"
    cfg.write_text("law = gw\np 1000\n")
    assert main(["scale", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 2: expected key = value, got 'p 1000'\n"


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--p", "1.5", "expected comma-separated integers, got '1.5'"),
        ("--p", "10,", "expected comma-separated integers, got '10,'"),
        ("--times", "x", "expected comma-separated numbers, got 'x'"),
        ("--times", "", "expected comma-separated numbers, got ''"),
    ],
)
def test_scale_flag_errors_name_the_flag(capsys, flag, value, message):
    argv = ["scale", "--law", "gw", "--p", "10", "--replicates", "1", flag, value]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: {message}" in captured.err

BIG_INT = "1" + "0" * 400
BAD_STICKS_JSON = [
    ('[{"v": 3, "births": "12"}, {"v": 1, "births": []}, {"v": 1, "births": []}]',
     "stick 0: 'births' must be an array of numbers, got '12'"),
    ('[{"v": 1, "births": []}, {"v": "2", "births": []}]', "stick 1: 'v' must be a number, got '2'"),
    ('[{"v": 1, "births": [true]}]', "stick 0: births[0] must be a number, got True"),
    ('[{"v": 2, "births": [' + "0.5, " * 10_000 + '"x"]}]', "stick 0: births[10000] must be a number, got 'x'"),
    ('[{"v": 1, "births": []}, [1, [0.5]]]', "stick 1: stick must be an object with 'v' and 'births', got array"),
    ('[{"v": 1, "births": {"a": [0.5]}}]', "stick 0: 'births' must be an array of numbers, got object"),
    ('[{"births": [0.5]}]', "stick 0: missing key 'v'"),
    ('[{"v": true, "births": []}]', "stick 0: 'v' must be a number, got True"),
    ('[{"v": 2, "births": [' + BIG_INT + ']}]', "stick 0: int too large to convert to float"),
    ('[{"v": 1, "births": []}, {"v": ' + BIG_INT + ', "births": []}]', "stick 1: int too large to convert to float"),
    pytest.param('[{"v": "' + "x" * 100_000 + '", "births": []}]',
                 "stick 0: 'v' must be a number, got 'xxxxxxxxxx'… (string of 100000 characters)", id="long-v"),
    pytest.param('[{"v": 2, "births": [0.5, "' + "y" * 50_000 + '"]}]',
                 "stick 0: births[1] must be a number, got 'yyyyyyyyyy'… (string of 50000 characters)",
                 id="long-birth"),
]


@pytest.mark.parametrize("text, message", BAD_STICKS_JSON)
def test_sticks_json_needs_numbers(tmp_path, monkeypatch, capsys, text, message):
    path = tmp_path / "sticks.json"
    path.write_text(text)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    for argv in (["build", "--input", "-"], ["verify", "--input", str(path)]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert len(captured.err.encode()) < 200  # a bad stick is never quoted at length


def test_deeply_nested_stick_file_is_bad_input(tmp_path, monkeypatch, capsys):
    # json's recursion limit is bad input (exit 2), not a traceback and the
    # "violation found" status 1
    text = "[" * 100_000
    path = tmp_path / "sticks.json"
    path.write_text(text)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    for argv in (["build", "--input", "-"], ["verify", "--input", str(path)]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: stick file nests too deeply\n"


# SHA-256 of the stick file of ``build --law "geo-uniform(mean=1.0,v=1.0)"
# --n 2000 --seed 2131 --sticks-out``, as the per-stick writer wrote it
STICKS_OUT_DIGEST = "a2f45cef90a6a56d3138b91d1978a54faca6baec4353883a34eefe06cc08494d"


def test_sticks_out_file_is_pinned(tmp_path):
    sticks_out = tmp_path / "sticks.json"
    argv = ["build", "--law", "geo-uniform(mean=1.0,v=1.0)", "--n", "2000", "--seed", "2131"]
    assert main([*argv, "--sticks-out", str(sticks_out), "--forest-out", str(tmp_path / "f.csv"), "--quiet"]) == 0
    assert hashlib.sha256(sticks_out.read_bytes()).hexdigest() == STICKS_OUT_DIGEST


# SHA-256 of the two tables of ``build --law exp-uniform --n 70000 --seed
# 29029``, as the sequential writers wrote them: both tables are longer than
# one formatting block (70000 and 140001 rows) and ``v`` varies.  Like
# ``law_digests.json`` the values depend on numpy 2.4's generator streams.
BUILD_CSV_DIGESTS = {
    "forest.csv": "ee8b8df29526d3ff4e671145c4b0c89d511c2e32f140d1d59e20dacf894b610e",
    "contour.csv": "e44f1d0c15758af631b7b35f043c8369704ac3b0a540aced429398670d6bc1fb",
}


@pytest.fixture(params=["forked", "after the forest"])
def contour_writer(request, monkeypatch):
    # ``build`` writes the contour in a forked child only where that pays
    # off; tests take each way at any size
    monkeypatch.setattr("chronoforest.cli._contour_child_pays", lambda n_sticks: request.param == "forked")
    return request.param


def test_build_csv_files_are_pinned(tmp_path, contour_writer):
    argv = ["build", "--law", "exp-uniform", "--n", "70000", "--seed", "29029", "--quiet"]
    forest, contour = tmp_path / "forest.csv", tmp_path / "contour.csv"
    assert main([*argv, "--forest-out", str(forest), "--contour-out", str(contour)]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in BUILD_CSV_DIGESTS}
    assert digests == BUILD_CSV_DIGESTS


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("failing", ["--contour-out", "--forest-out"])
def test_a_failed_write_is_reported_and_the_child_reaped(tmp_path, capsys, contour_writer, failing):
    # a forked child's error reaches stderr as the parent's would, and the
    # child is waited for either way
    missing = str(tmp_path / "missing" / "out.csv")
    paths = {"--forest-out": str(tmp_path / "forest.csv"), "--contour-out": str(tmp_path / "contour.csv")}
    paths[failing] = missing
    argv = ["build", "--law", "gw", "--n", "2000", "--seed", "5", "--quiet"]
    assert main([*argv, "--forest-out", paths["--forest-out"], "--contour-out", paths["--contour-out"]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno 2] No such file or directory: '{missing}'\n"
    assert_no_child_left()


def test_the_contour_child_is_reaped_after_a_build(tmp_path, monkeypatch, contour_writer):
    contour = tmp_path / "contour.csv"
    argv = ["build", "--law", "gw", "--n", "2000", "--seed", "5", "--quiet", "--contour-out", str(contour)]
    assert main([*argv, "--forest-out", str(tmp_path / "forest.csv")]) == 0
    assert_no_child_left()
    written = contour.read_bytes()

    class ClosedPipe(io.StringIO):
        # stdout whose reader went away; ``main`` points its descriptor at devnull
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def fileno(self):
            return stdout_fd

    with open(tmp_path / "stdout", "w") as stdout:
        stdout_fd = stdout.fileno()
        monkeypatch.setattr("sys.stdout", ClosedPipe())
        contour.unlink()
        assert main(argv) == 141
    assert_no_child_left()
    # the child wrote the whole contour; written after the forest, it never began
    assert contour.read_bytes() == written if contour_writer == "forked" else not contour.exists()


def test_a_failed_fork_writes_the_contour_after_the_forest(tmp_path, monkeypatch):
    # no process or memory to spare for the child: the build still succeeds
    # with the same bytes and keeps no descriptor open
    monkeypatch.setattr("chronoforest.cli._contour_child_pays", lambda n_sticks: True)
    argv = ["build", "--law", "gw", "--n", "2000", "--seed", "5", "--quiet", "--forest-out", str(tmp_path / "f.csv")]
    assert main([*argv, "--contour-out", str(tmp_path / "forked.csv")]) == 0

    def fork():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", fork)
    descriptors = os.listdir("/dev/fd")
    assert main([*argv, "--contour-out", str(tmp_path / "unforked.csv")]) == 0
    assert os.listdir("/dev/fd") == descriptors
    assert (tmp_path / "unforked.csv").read_bytes() == (tmp_path / "forked.csv").read_bytes()


@pytest.mark.parametrize("failure", ["no space", "killed"])
def test_a_failed_child_leaves_the_contour_to_the_parent(tmp_path, monkeypatch, failure):
    # a child that ran out of space once, or was killed, does not fail the
    # build: the parent writes the contour after the forest, with the same bytes
    argv = ["build", "--law", "gw", "--n", "2000", "--seed", "5", "--quiet", "--forest-out", str(tmp_path / "f.csv")]
    monkeypatch.setattr("chronoforest.cli._contour_child_pays", lambda n_sticks: False)
    assert main([*argv, "--contour-out", str(tmp_path / "unforked.csv")]) == 0
    parent, write = os.getpid(), cli.write_contour_csv

    def fail_in_the_child(path, fh):
        if os.getpid() != parent:
            if failure == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            raise OSError(errno.ENOSPC, "No space left on device")
        write(path, fh)

    monkeypatch.setattr("chronoforest.cli.write_contour_csv", fail_in_the_child)
    monkeypatch.setattr("chronoforest.cli._contour_child_pays", lambda n_sticks: True)
    descriptors = os.listdir("/dev/fd")
    assert main([*argv, "--contour-out", str(tmp_path / "forked.csv")]) == 0
    assert_no_child_left()
    assert os.listdir("/dev/fd") == descriptors
    assert (tmp_path / "forked.csv").read_bytes() == (tmp_path / "unforked.csv").read_bytes()


def test_the_contour_is_forked_only_where_that_pays(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert _contour_child_pays(CONTOUR_CHILD_STICKS)
    assert not _contour_child_pays(CONTOUR_CHILD_STICKS - 1)  # the fork costs more than it saves
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1})
    assert not _contour_child_pays(10 * CONTOUR_CHILD_STICKS)  # one CPU: the child would queue behind the parent
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert _contour_child_pays(CONTOUR_CHILD_STICKS)
    monkeypatch.delattr(os, "fork")
    assert not _contour_child_pays(CONTOUR_CHILD_STICKS)


@pytest.mark.parametrize(
    "argv, flags, shown",
    [
        (["build", "--forest-out", "{a}", "--contour-out", "{a}"], "--forest-out and --contour-out", "a"),
        (["build", "--forest-out", "{a}", "--sticks-out", "{link}"], "--forest-out and --sticks-out", "{link}"),
        (["build", "--forest-out", "{a}", "--sticks-out", "{hard}"], "--forest-out and --sticks-out", "hard"),
        (["build", "--sticks-out", "{new}", "--contour-out", "{dot}"], "--contour-out and --sticks-out", "new"),
        (["build", "--contour-out", "/dev/stdout"], "--forest-out and --contour-out", "/dev/stdout"),
        (["build", "--forest-out", "/dev/fd/1", "--contour-out", "/dev/null", "--sticks-out", "-"],
         "--forest-out and --sticks-out", "-"),
        (["scale", "--p", "10", "--replicates", "1", "--out", "{a}", "--summary-out", "{link}"],
         "--out and --summary-out", "{link}"),
        (["scale", "--p", "10", "--replicates", "1", "--summary-out", "/dev/fd/1"],
         "--out and --summary-out", "/dev/fd/1"),
    ],
)
def test_outputs_naming_one_file_are_refused(tmp_path, capsys, monkeypatch, argv, flags, shown):
    # two writers to one file would leave only the last one's output there,
    # or mix the two: refused before any draw, whatever spelling or link
    # names the file; ``-`` is standard output for --forest-out and --out
    monkeypatch.setattr(StickLaw, "draw", _refuse_to_draw)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a").write_text("kept\n")
    (tmp_path / "link").symlink_to(tmp_path / "a")
    os.link(tmp_path / "a", tmp_path / "hard")
    (tmp_path / "-").symlink_to("/dev/stdout")
    names = {"a": "a", "link": str(tmp_path / "link"), "hard": "hard", "new": "new", "dot": "./new"}
    argv = [arg.format(**names) for arg in argv]
    assert main([*argv[:1], "--law", "gw", "--seed", "1", *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{argv[0]}: {flags} name the same file: {shown.format(**names)}\n"
    assert (tmp_path / "a").read_text() == "kept\n"
    assert not (tmp_path / "new").exists()


def test_the_null_device_takes_every_output(tmp_path):
    argv = ["build", "--law", "gw", "--n", "5", "--seed", "1", "--quiet"]
    assert main([*argv, "--forest-out", os.devnull, "--contour-out", os.devnull, "--sticks-out", os.devnull]) == 0


def test_stdout_and_a_file_named_dash_are_distinct_outputs(tmp_path, monkeypatch, capsys):
    # ``-`` is standard output for --forest-out, but a file for --contour-out
    monkeypatch.chdir(tmp_path)
    assert main(["build", "--law", "gw", "--n", "5", "--seed", "1", "--quiet", "--forest-out", "-", "--contour-out", "-"]) == 0
    assert capsys.readouterr().out.startswith("index,parent,")
    assert (tmp_path / "-").read_text().startswith("time,value")


def test_import_does_not_load_scipy_special():
    # numpy is the one runtime dependency (scipy.special alone costs a
    # process about 0.2 s and 17 MB): neither the import nor building and
    # drawing from the stable laws, family-gen with each map included, may
    # load any scipy module
    code = """
import sys
import numpy as np
import chronoforest.cli
from chronoforest.stochastic import parse_law, sample_vhat
def scipy_modules():
    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')
print(scipy_modules())
specs = ['family1', 'family2', 'family2(alpha=1.2)']
specs += [f'family-gen(alpha=1.3,f={f})' for f in ('identity', 'sqrt', 'log1p')]
for spec in specs:
    law = parse_law(spec)
    rng = np.random.default_rng(1)
    law.sample_batch(rng, 200)
    law.counts.pmf(30)
    sample_vhat(law, rng, 200)
    law.counts.sizebiased(rng, 200)
    law.sample_ystars(rng, 200)
print(scipy_modules())
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    assert out.stdout.splitlines() == ["[]", "[]"]


@pytest.mark.parametrize("contour", [False, True])
def test_closed_stdout_pipe_ends_quietly(tmp_path, contour):
    # a reader that stops after one line (``| head -1``) is not bad input:
    # no message, and 141 = 128 + SIGPIPE instead of the usage status 2;
    # a contour written by a forked child meanwhile is complete
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    path = tmp_path / "contour.csv"
    argv = ["-m", "chronoforest", "build", "--law", "gw", "--n", "50000", "--seed", "1", "--quiet"]
    if contour:
        argv += ["--contour-out", str(path)]
    with subprocess.Popen([sys.executable, *argv], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"index,parent,birth_time,depth,v,tree_id\r\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    assert err == b""
    if contour and _contour_child_pays(50000):
        assert len(path.read_bytes().splitlines()) == 2 * 50000 + 2
    else:
        assert not path.exists()


BAD_LAWS = [
    ("geo-uniform(v=inf)", "life length v must be positive and finite, got inf"),
    ("geo-uniform(v=0)", "life length v must be positive and finite, got 0.0"),
    ("geo-uniform(lattice=0)", "lattice must be an integer >= 1, got 0"),
    ("geo-uniform(lattice=1.5)", "bad value for lattice"),
    ("exp-uniform(rate=inf)", "rate must be positive and finite, got inf"),
    ("exp-uniform(rate=0)", "rate must be positive and finite, got 0.0"),
    ("two-point(v=0)", "life length v must be positive and finite, got 0.0"),
    ("two-point(p=2)", "p must be in [0, 1], got 2.0"),
    ("family2(alpha=1)", "alpha must be in (1, 2], got 1.0"),
    ("family-gen(alpha=1.05,f=cube)", "unknown age map 'cube'"),
    ("gw(mean=inf)", "mean offspring must be >= 0 and finite, got inf"),
    ("gw(mean=nan)", "mean offspring must be >= 0 and finite, got nan"),
    ("gw(mean=0.5,mean=0.8)", "law 'gw': key 'mean' given twice"),
    ("two-point(a1=1.0,a2=0.5,a1=0.9)", "law 'two-point': key 'a1' given twice"),
    ("gw(mean)", "law argument 'mean' is not key=value"),
]
LAW_COMMANDS = {
    "scale": ["--p", "10", "--replicates", "1"],
    "build": ["--n", "5", "--seed", "1"],
    "couple": ["--eps", "0.5", "--t", "4", "--seed", "1", "--replicas", "2"],
    "renewal": ["--seed", "1", "--draws", "10"],
}


@pytest.mark.parametrize("command", sorted(LAW_COMMANDS))
@pytest.mark.parametrize("spec, message", BAD_LAWS)
def test_bad_law_parameters_are_usage_errors(capsys, command, spec, message):
    assert main([command, "--law", spec, *LAW_COMMANDS[command]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_readme_law_specs_match_the_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    m = re.search(r"^Law specs accepted everywhere.*?(?=\n\n|\Z)", readme, re.MULTILINE | re.DOTALL)
    assert m, "README has no law spec paragraph"
    listed = {}
    for name, args in re.findall(r"`([a-z0-9-]+)\(([^)`]*)\)`", m.group(0)):
        listed[name] = {part.split("=")[0] for part in args.split(",")}
    assert listed == {name: set(keys) for name, (_, _, keys) in _LAWS.items()}
