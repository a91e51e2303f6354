"""Scaling experiments: config plumbing, determinism and path functionals."""

import json

import numpy as np
import pytest

from chronoforest.forest import build_forest, contour_path
from chronoforest.stochastic import (
    ExperimentConfig,
    GeometricUniformLaw,
    max_rise_in_window,
    parse_config,
    parse_law,
    resolve_scale,
    scaling_experiment,
    simulate_contour,
    verify_time_change_gap,
)
from chronoforest.stochastic import experiments
from chronoforest.stochastic.experiments import CSV_COLUMNS


def small_config(**overrides) -> ExperimentConfig:
    base = dict(
        law="gw(mean=1.0)",
        p_values=(50, 200),
        times=(0.5, 1.0),
        replicates=4,
        seed=99,
        eps_rule="invsqrt",
        epsbar_rule="invsqrt",
        interval=(0.5, 1.0),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_text_round_trip():
    cfg = small_config()
    assert parse_config(cfg.to_text()) == cfg


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(p_values=())
    with pytest.raises(ValueError):
        small_config(times=(0.0,))
    with pytest.raises(ValueError):
        small_config(replicates=0)
    with pytest.raises(ValueError):
        small_config(interval=(1.0, 0.5))


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        parse_config("law = gw(mean=1.0)\np = 10\nbogus = 3\n")


def test_resolve_scale_rules():
    assert resolve_scale("invsqrt", 10_000) == pytest.approx(0.01)
    assert resolve_scale("stable:2.0", 10_000) == pytest.approx(0.01)
    assert resolve_scale("stable:1.5", 1000) == pytest.approx(1000 ** (1 / 1.5 - 1.0))
    assert resolve_scale("pow:0.25", 10_000) == pytest.approx(0.1)
    assert resolve_scale("0.125", 77) == 0.125
    with pytest.raises(ValueError):
        resolve_scale("nonsense", 100)


def test_scaling_experiment_rejects_supercritical_law():
    with pytest.raises(ValueError):
        scaling_experiment(small_config(law="geo-uniform(mean=1.2,v=1.0)"))


def test_csv_layout_and_row_order():
    res = scaling_experiment(small_config())
    lines = res.csv_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    # 2 p-values x 4 replicates x 2 times
    assert len(lines) == 1 + 2 * 4 * 2
    keys = [(r["p"], r["replicate"], r["t"]) for r in res.rows]
    assert keys == sorted(keys)  # p, then replicate, then time


def test_unit_age_law_has_zero_height_delta():
    # For unit birth ages the chronological and genealogical heights agree
    # and E(Ystar) = 1, so deltaH vanishes identically, not just in the limit.
    res = scaling_experiment(small_config(replicates=6))
    for row in res.rows:
        assert row["deltaH"] == 0.0
        assert row["Hp"] == row["Hcalp"]


def test_experiment_is_deterministic():
    cfg = small_config()
    a = scaling_experiment(cfg).csv_text()
    b = scaling_experiment(cfg).csv_text()
    assert a == b


def test_workers_do_not_change_output():
    cfg = small_config(replicates=6)
    seq = scaling_experiment(cfg, workers=1)
    par = scaling_experiment(cfg, workers=2)
    assert seq.csv_text() == par.csv_text()
    assert seq.extras == par.extras


def test_extras_structure():
    cfg = small_config()
    res = scaling_experiment(cfg)
    assert set(res.extras) == {(i, r) for i in range(2) for r in range(4)}
    for info in res.extras.values():
        assert set(info) == {"min_contour", "min_gen_contour", "v_at_phibar"}
        assert info["min_contour"] >= 0.0
        assert info["v_at_phibar"] > 0.0


def test_summary_shapes():
    res = scaling_experiment(small_config())
    s = res.summary()
    assert {c["p"] for c in s["cells"]} == {50, 200}
    cell = s["cells"][0]
    assert cell["n"] == 4
    assert set(cell["deltaH"]) == {"mean", "abs_mean", "quantiles"}
    assert [m["p"] for m in s["interval_minima"]] == [50, 200]


def summary_cells_per_column(res) -> list[dict]:
    """Reference: the summary cells with one reduction call per column."""
    quantiles = [0.1, 0.25, 0.5, 0.75, 0.9]
    cells = []
    for p in res.config.p_values:
        for t in res.config.times:
            sel = [r for r in res.rows if r["p"] == p and r["t"] == t]
            cell: dict = {"p": p, "t": t, "n": len(sel)}
            for col in CSV_COLUMNS[3:]:
                vals = np.array([r[col] for r in sel])
                qs = np.quantile(vals, quantiles)
                cell[col] = {
                    "mean": float(vals.mean()),
                    "abs_mean": float(np.abs(vals).mean()),
                    "quantiles": {format(q, "g"): float(x) for q, x in zip(quantiles, qs)},
                }
            cells.append(cell)
    return cells


@pytest.mark.parametrize("replicates", [1, 7, 200])
def test_summary_cells_match_per_column_reduction(replicates):
    cfg = small_config(law="geo-uniform(mean=1.0,v=1.0)", replicates=replicates)
    res = scaling_experiment(cfg)
    assert json.dumps(res.summary()["cells"]) == json.dumps(summary_cells_per_column(res))


def test_law_is_parsed_once(monkeypatch):
    calls = []

    def counting_parse_law(spec):
        calls.append(spec)
        return parse_law(spec)

    monkeypatch.setattr(experiments, "parse_law", counting_parse_law)
    res = scaling_experiment(small_config(replicates=3))
    res.summary()
    assert calls == ["gw(mean=1.0)"]
    assert res.law.describe()["name"] == "gw"


def test_simulate_contour_covers_requested_time(rng):
    law = GeometricUniformLaw(mean_offspring=1.0, v=1.0)
    path = simulate_contour(law, 500, 1.0, rng)
    assert path.end_time >= 500.0


def test_verify_time_change_gap_agrees(rng):
    law = GeometricUniformLaw(mean_offspring=1.0, v=1.0)
    for _ in range(25):
        sticks = law.sample_batch(rng, 300).to_sticks()
        total = 2.0 * sum(s.v for s in sticks)
        raw_time = float(rng.uniform(0.1, 0.8)) * total
        direct, formula = verify_time_change_gap(sticks, raw_time)
        assert direct == formula
        assert direct >= 0


def test_max_rise_matches_apex_scan(rng):
    law = GeometricUniformLaw(mean_offspring=1.0, v=1.0)
    for _ in range(12):
        sticks = law.sample_batch(rng, int(rng.integers(5, 120))).to_sticks()
        path = contour_path(build_forest(sticks))
        width = float(rng.uniform(0.5, 8.0))
        # Exact reference: the rise into each apex from the window minimum.
        best = 0.0
        apex_times = path.visit_times[:-1] + path.v
        apex_values = path.heights[:-1] + path.v
        for at, av in zip(apex_times, apex_values):
            left = max(0.0, float(at) - width)
            best = max(best, float(av) - path.min_on(left, float(at)))
        assert max_rise_in_window(path, width) == pytest.approx(best, abs=1e-9)
    with pytest.raises(ValueError):
        max_rise_in_window(path, 0.0)
