"""Command-line front end: exit codes, files written, determinism."""

import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from chronoforest.cli import main
from chronoforest.measures import sticks_from_json, sticks_to_json
from chronoforest.stochastic.laws import _LAWS

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
    path.write_text(sticks_to_json(reference_sticks))
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
    sticks = sticks_from_json(sticks_out.read_text())
    assert len(sticks) == 40
    assert all(s.v == 1.0 for s in sticks)


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


def test_build_input_and_law_conflict(fixture_json, capsys):
    rc = main(["build", "--input", str(fixture_json), "--law", "gw(mean=1.0)"])
    assert rc == 2


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


# numpy warns as the kernel sums the overflowing birth times, before the
# contour's clock rejects them
@pytest.mark.filterwarnings("ignore:overflow encountered in add:RuntimeWarning")
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
    assert report["ladder"]["acceptance_rate"] == pytest.approx(1.0)
    # a critical law has no envelope: every rejection is a step-cap one
    assert report["ladder"]["abandoned_envelope"] == 0
    assert report["ladder"]["rejected_step_cap"] == round(2000 * (1.0 - report["ladder"]["acceptance_rate"]))


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


def test_readme_couple_example(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    m = re.search(r"^chronoforest (couple (?:.*\\\n)*.*)$", readme, re.MULTILINE)
    assert m, "README has no literal 'chronoforest couple' example"
    assert main(shlex.split(m.group(1).replace("\\\n", " "))) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["violated"] == 0
    assert report["held"] > 0
    assert report["undecided_meet_budget"] + report["undecided_walk_budget"] == report["undecided"]


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
            rejected = ladder["abandoned_envelope"] + ladder["rejected_step_cap"]
            assert rejected == round(10_000 * (1.0 - ladder["acceptance_rate"]))
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
    ('[{"v": 1, "births": [true]}]', "stick 0: 'births' must be an array of numbers, got [True]"),
    ('[{"v": true, "births": []}]', "stick 0: 'v' must be a number, got True"),
    ('[{"v": 2, "births": [' + BIG_INT + ']}]', "stick 0: int too large to convert to float"),
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


def test_closed_stdout_pipe_ends_quietly():
    # a reader that stops after one line (``| head -1``) is not bad input:
    # no message, and 141 = 128 + SIGPIPE instead of the usage status 2
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    argv = ["-m", "chronoforest", "build", "--law", "gw", "--n", "50000", "--seed", "1", "--quiet"]
    proc = subprocess.Popen(
        [sys.executable, *argv], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    assert proc.stdout.readline() == b"index,parent,birth_time,depth,v,tree_id\r\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 141
    assert err == b""


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
