"""Scaling experiments: config plumbing, determinism and path functionals."""

import csv
import io
import json
import re
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronoforest import forest as forest_module
from chronoforest.forest import build_forest, contour_path
from chronoforest.stochastic import (
    ExperimentConfig,
    GeometricUniformLaw,
    StableFamilyLaw,
    StickLaw,
    max_rise_in_window,
    parse_config,
    parse_law,
    resolve_scale,
    scaling_experiment,
)
from chronoforest.stochastic import experiments
from chronoforest.stochastic.experiments import CSV_COLUMNS, _range_min
from chronoforest.stochastic.laws import _LAWS


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


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(p_values=())
    with pytest.raises(ValueError):
        small_config(times=(0.0,))
    with pytest.raises(ValueError):
        small_config(replicates=0)
    with pytest.raises(ValueError):
        small_config(interval=(1.0, 0.5))
    with pytest.raises(ValueError, match="seed must be >= 0"):
        small_config(seed=-1)
    # a scale rule is checked at every p before anything is sampled
    with pytest.raises(ValueError, match="eps: unknown scale rule 'stable:abc'"):
        small_config(eps_rule="stable:abc")
    with pytest.raises(ValueError, match="epsbar: scale rule 'pow:-140' gives inf at p=200"):
        small_config(epsbar_rule="pow:-140")  # finite at the first p, 50


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        parse_config("law = gw(mean=1.0)\np = 10\nbogus = 3\n")


def test_parse_config_rejects_a_line_without_equals():
    with pytest.raises(ValueError, match="line 1: expected key = value, got 'p 1000'"):
        parse_config("p 1000")


def test_resolve_scale_rules():
    assert resolve_scale("invsqrt", 10_000) == pytest.approx(0.01)
    assert resolve_scale("stable:2.0", 10_000) == pytest.approx(0.01)
    assert resolve_scale("stable:1.5", 1000) == pytest.approx(1000 ** (1 / 1.5 - 1.0))
    assert resolve_scale("pow:0.25", 10_000) == pytest.approx(0.1)
    assert resolve_scale("0.125", 77) == 0.125
    with pytest.raises(ValueError):
        resolve_scale("nonsense", 100)
    with pytest.raises(ValueError, match="unknown scale rule 'foo:1'"):
        resolve_scale("foo:1", 10)


@pytest.mark.parametrize(
    "rule, value",
    [("nan", "nan"), ("0", "0.0"), ("-1", "-1.0"), ("pow:inf", "0.0"), ("1e400", "inf"), ("pow:-400", "inf")],
)
def test_resolve_scale_rejects_non_positive_or_non_finite(rule, value):
    # every scaled column multiplies or divides by the scale
    message = f"scale rule '{rule}' gives {value} at p=200; it must be positive and finite"
    with pytest.raises(ValueError, match=re.escape(message)):
        resolve_scale(rule, 200)


def test_scaling_experiment_rejects_supercritical_law():
    with pytest.raises(ValueError):
        scaling_experiment(small_config(law="geo-uniform(mean=1.2,v=1.0)"))


def csv_text(res) -> str:
    buf = io.StringIO()
    res.write_csv(buf)
    return buf.getvalue()


def test_csv_layout_and_row_order():
    res = scaling_experiment(small_config())
    lines = csv_text(res).splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    # 2 p-values x 4 replicates x 2 times
    assert len(lines) == 1 + 2 * 4 * 2
    keys = [(r["p"], r["replicate"], r["t"]) for r in res.rows]
    assert keys == sorted(keys)  # p, then replicate, then time


def _csv_writer_rows(res, fp):
    """Reference: the rows through ``csv.writer``, one Python step per row."""
    w = csv.writer(fp, lineterminator="\n")
    w.writerow(CSV_COLUMNS)
    for r in res.rows:
        w.writerow(
            [int(r["p"]), format(float(r["t"]), ".12g"), int(r["replicate"])]
            + [format(float(r[c]), ".12g") for c in CSV_COLUMNS[3:]]
        )


@pytest.mark.parametrize("block", [None, 7])
def test_write_csv_matches_csv_writer_bytes(monkeypatch, block):
    if block is not None:  # many blocks, and a partial last one
        monkeypatch.setattr(forest_module, "_CSV_BLOCK", block)
    for spec, replicates in (("gw(mean=1.0)", 1), ("geo-uniform(mean=1.0,v=1.0)", 5), ("exp-uniform", 3)):
        res = scaling_experiment(small_config(law=spec, times=(0.25, 0.5, 1.0), replicates=replicates))
        assert res.rows.dtype == experiments.ROW_DTYPE
        want = io.StringIO()
        _csv_writer_rows(res, want)
        got = csv_text(res)
        assert got == want.getvalue()
        assert got.count("\n") == 1 + len(res.rows) == 1 + 2 * 3 * replicates
        assert "\r" not in got


def test_unit_age_law_has_zero_height_delta():
    # For unit birth ages the chronological and genealogical heights agree
    # and E(Ystar) = 1, so deltaH vanishes identically, not just in the limit.
    res = scaling_experiment(small_config(replicates=6))
    for row in res.rows:
        assert row["deltaH"] == 0.0
        assert row["Hp"] == row["Hcalp"]


def test_experiment_is_deterministic():
    cfg = small_config()
    a = csv_text(scaling_experiment(cfg))
    b = csv_text(scaling_experiment(cfg))
    assert a == b


def test_workers_do_not_change_output():
    # every spec name parse_law accepts: the worker pool pickles the law
    for spec in sorted(_LAWS):
        cfg = small_config(law=spec, p_values=(30, 80), replicates=6)
        seq = scaling_experiment(cfg, workers=1)
        par = scaling_experiment(cfg, workers=2)
        assert csv_text(seq) == csv_text(par), spec
        assert json.dumps(seq.summary(), indent=2) == json.dumps(par.summary(), indent=2), spec
        assert seq.replicates.tobytes() == par.replicates.tobytes(), spec


def test_replicate_records():
    res = scaling_experiment(small_config())
    records = res.replicates
    assert records.dtype == experiments.REPLICATE_DTYPE
    assert records.dtype.names == ("p", "replicate", "min_contour", "min_gen_contour", "v_at_phibar")
    # by p index, then replicate, both keys filled in
    assert records["p"].tolist() == [50] * 4 + [200] * 4
    assert records["replicate"].tolist() == [0, 1, 2, 3] * 2
    assert np.all(records["min_contour"] >= 0.0)
    assert np.all(records["v_at_phibar"] > 0.0)


@pytest.mark.parametrize("spec", ["gw(mean=1.0)", "exp-uniform", "family2"])
def test_grid_is_the_direct_replicate_calls(spec):
    # each replicate seeds itself, so one call reproduces its slice of the grid
    cfg = small_config(law=spec, p_values=(50, 200, 120), times=(1.0, 0.25), replicates=3, eps_rule=None)
    res = scaling_experiment(cfg)
    law = parse_law(spec)
    grid = [(p_idx, rep) for p_idx in range(3) for rep in range(3)]
    for i, (p_idx, rep) in enumerate(grid):
        rows, record = experiments.simulate_replicate(law, cfg, p_idx, rep)
        assert rows.dtype == experiments.ROW_DTYPE and record.dtype == experiments.REPLICATE_DTYPE
        assert rows.tobytes() == res.rows[2 * i : 2 * i + 2].tobytes(), (p_idx, rep)
        assert record.tobytes() == res.replicates[i].tobytes(), (p_idx, rep)


def test_a_short_first_draw_is_extended(monkeypatch):
    # const(v=0.5,ages=0.5) is a chain with no randomness: stick j is born
    # at H(j) = j/2 at depth j, and the contour visits it at time j/2, so the
    # first draw, sized by p * t = 1000, ends its contour at about 627 and
    # two extension rounds, each half the size of the last, reach 1000
    sizes = []
    sample_batch = StickLaw.sample_batch

    def counted(law, rng, n):
        sizes.append(n)
        return sample_batch(law, rng, n)

    monkeypatch.setattr(StickLaw, "sample_batch", counted)
    spec = "const(v=0.5,ages=0.5)"
    cfg = ExperimentConfig(law=spec, p_values=(1000,), times=(0.5, 1.0), replicates=1)
    rows, record = experiments.simulate_replicate(parse_law(spec), cfg, 0, 0)
    assert sizes == [1255, 627, 313]
    eps = resolve_scale("invsqrt", 1000)
    j = np.array([500.0, 1000.0])
    assert rows["Hp"].tolist() == (eps * (j / 2)).tolist()
    assert rows["Hcalp"].tolist() == rows["Cp"].tolist() == (eps * j).tolist()
    assert rows["deltaH"].tolist() == rows["Sp"].tolist() == [0.0, 0.0]
    assert rows["phip"].tolist() == [1.0, 2.0]
    assert rows["phibarp"].tolist() == [0.499, 0.999]
    assert record["v_at_phibar"] == 0.5


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


@pytest.mark.parametrize("replicates", [1, 7, 200])
def test_interval_minima_are_means_of_contiguous_copies(replicates):
    res = scaling_experiment(small_config(law="geo-uniform(mean=1.0,v=1.0)", replicates=replicates))
    want = []
    for p in res.config.p_values:
        records = res.replicates[res.replicates["p"] == p]
        mc, mg, v = (np.ascontiguousarray(records[f]) for f in ("min_contour", "min_gen_contour", "v_at_phibar"))
        target = res.law.mean_atom_age * mg
        want.append(
            {
                "p": p,
                "min_contour_mean": float(mc.mean()),
                "scaled_gen_min_mean": float(target.mean()),
                "abs_gap_mean": float(np.abs(mc - target).mean()),
                "v_at_phibar_mean": float(v.mean()),
            }
        )
    assert json.dumps(res.summary()["interval_minima"]) == json.dumps(want)


def test_subcritical_height_is_stretched_by_the_mean_atom_age():
    # E A = mean_ystar / mean_offspring: 0.4 / 0.8 for uniform ages on (0, 1]
    # under mean-0.8 geometric counts, the mean age of an atom of the
    # size-biased stick (mean_ystar itself is 0.4)
    res = scaling_experiment(small_config(law="geo-uniform(mean=0.8)"))
    assert (res.law.mean_ystar, res.law.mean_atom_age) == (0.4, 0.5)
    rows = res.rows
    assert np.any(rows["Hcalp"] > 0)
    assert rows["deltaH"].tobytes() == (rows["Hp"] - 0.5 * rows["Hcalp"]).tobytes()
    target = 0.5 * res.replicates["min_gen_contour"].reshape(2, -1)
    got = [m["scaled_gen_min_mean"] for m in res.summary()["interval_minima"]]
    assert got == [float(t.mean()) for t in target]


def test_a_childless_law_stretches_by_nothing():
    # every depth is 0, so deltaH is Hp and the target 0, with no 0 / 0
    res = scaling_experiment(small_config(law="geo-uniform(mean=0)"))
    assert res.law.mean_atom_age == 0.0
    assert res.rows["deltaH"].tobytes() == res.rows["Hp"].tobytes()
    assert all(m["scaled_gen_min_mean"] == 0.0 for m in res.summary()["interval_minima"])


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


@pytest.mark.parametrize("width", [0.0, -1.0, float("nan")])
def test_max_rise_refuses_a_width_that_is_not_positive(width):
    path = contour_path(build_forest(GeometricUniformLaw(1.0, 1.0).sample_batch(np.random.default_rng(4), 20)))
    with pytest.raises(ValueError, match="width must be positive"):
        max_rise_in_window(path, width)


def _max_rise_deque(path, width):
    # the per-apex monotone-deque scan that the range-minimum version replaced
    k, heights, v = path.visit_times, path.heights, path.v
    n = len(v)
    best = 0.0
    minima = deque()
    left_edges = np.clip(k[:n] + v - width, 0.0, None)
    edge_values = path.eval(left_edges)
    for i in range(n):
        while minima and heights[minima[-1]] >= heights[i]:
            minima.pop()
        minima.append(i)
        while minima and k[minima[0]] < left_edges[i]:
            minima.popleft()
        window_min = float(edge_values[i])
        if minima:
            window_min = min(window_min, float(heights[minima[0]]))
        rise = heights[i] + v[i] - window_min
        if rise > best:
            best = rise
    return float(best)


def test_max_rise_matches_deque_scan_on_family_paths():
    # criterion 7's shape: family sticks, n = p/4 + 200, width p * eps_p
    for fam in ("1", "2"):
        law = StableFamilyLaw(fam)
        for p in (1_000, 10_000):
            rng = np.random.default_rng(np.random.SeedSequence((7, int(fam), p)))
            path = contour_path(build_forest(law.sample_batch(rng, p // 4 + 200)))
            for width in (p * p ** (1.0 / law.alpha - 1.0), 0.5, 3.0):
                assert max_rise_in_window(path, width) == _max_rise_deque(path, width)


@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, 150),
    st.floats(min_value=1e-3, max_value=60.0),
    st.sampled_from(["geo-uniform", "exp-uniform", "family2", "gw"]),
)
@settings(max_examples=120, deadline=None)
def test_max_rise_matches_deque_scan(seed, n, width, spec):
    # widths below one stick's life leave windows that hold no visit at all
    batch = parse_law(spec).sample_batch(np.random.default_rng(seed), n)
    path = contour_path(build_forest(batch))
    assert max_rise_in_window(path, width) == _max_rise_deque(path, width)


@given(
    st.lists(st.integers(-5, 5).map(float), min_size=1, max_size=80),
    st.lists(st.tuples(st.integers(0, 79), st.integers(0, 79)), max_size=40),
)
@settings(max_examples=150, deadline=None)
def test_range_min_matches_slices(values, pairs):
    values = np.array(values)
    n = len(values)
    ranges = [sorted((a % n, b % n)) for a, b in pairs]
    lo = np.array([a for a, _ in ranges], dtype=np.int64)
    hi = np.array([b for _, b in ranges], dtype=np.int64)
    want = [values[a : b + 1].min() for a, b in ranges]
    assert _range_min(values, lo, hi).tolist() == want
