"""Forest construction, genealogy and contour paths."""

import csv
import io

import numpy as np
import pytest

from chronoforest import forest as forest_module
from chronoforest.forest import (
    ContourPath,
    build_forest,
    contour_path,
    genealogical_map,
    graft_forest,
    min_contour,
    write_contour_csv,
    write_forest_csv,
)
from chronoforest.measures import PointMeasure, Stick, StickBatch
from chronoforest.stochastic import GeometricUniformLaw

from conftest import (
    REFERENCE_BIRTH_TIMES,
    REFERENCE_DEPTHS,
    REFERENCE_PARENTS,
)


def test_reference_birth_times_and_depths(reference_sticks):
    f = build_forest(reference_sticks)
    assert f.birth_times()[:-1] == pytest.approx(np.array(REFERENCE_BIRTH_TIMES))
    assert tuple(f.depths()[:-1]) == REFERENCE_DEPTHS
    # The tree is complete, so the next stick would found a new tree at 0.
    assert f.birth_times()[-1] == 0.0
    assert f.depths()[-1] == 0


def test_reference_parents_and_trees(reference_sticks):
    f = build_forest(reference_sticks)
    assert tuple(n.parent for n in f.nodes) == REFERENCE_PARENTS
    assert f.tree_count == 1
    assert not f.final_tree_incomplete
    assert f.pending_stubs == 0


def test_ancestor_lines(reference_sticks):
    f = build_forest(reference_sticks)
    assert f.ancestors(3) == [3, 2, 1, 0]
    assert f.ancestors(9) == [9, 8, 5, 0]
    assert f.ancestors(0) == [0]


def test_mrca_pairs(reference_sticks):
    f = build_forest(reference_sticks)
    assert f.mrca(2, 4) == 1
    assert f.mrca(3, 7) == 0
    assert f.mrca(4, 4) == 4
    assert f.mrca(0, 9) == 0


def test_mrca_disjoint_trees():
    f = build_forest([Stick(1.0), Stick(1.0, PointMeasure([1.0]))])
    assert f.tree_count == 2
    assert f.mrca(0, 1) is None


def test_incomplete_final_tree(reference_sticks):
    f = build_forest(reference_sticks[:-1])
    assert f.final_tree_incomplete
    # Stick 9 hangs off stick 8's stub at height 1.5 + 1.0.
    assert f.terminal_height == pytest.approx(2.5)
    assert f.terminal_depth == 3


def test_contour_visit_times(reference_sticks):
    path = contour_path(build_forest(reference_sticks))
    expected_k = (0.0, 2.5, 4.3, 6.4, 10.0, 15.5, 20.0, 25.0, 28.5, 29.5, 34.0)
    assert path.visit_times == pytest.approx(np.array(expected_k))
    assert path.heights == pytest.approx(np.array(REFERENCE_BIRTH_TIMES + (0.0,)))
    assert path.end_time == pytest.approx(34.0)
    # Total time equals twice the total life length.
    assert path.end_time == pytest.approx(2.0 * sum(s.v for s in reference_sticks))


def test_contour_clock_exact_on_constant_v_forest():
    # With v = 1 every partial sum of life lengths is an exact integer, so
    # K(n) = 2n - H(n) has a single rounding; summing the per-stick
    # increments 2v + H(n) - H(n+1) instead lets rounding accumulate.
    law = GeometricUniformLaw(mean_offspring=1.0, v=1.0)
    sticks = law.sample_batch(np.random.default_rng(1), 10_000).to_sticks()
    forest = build_forest(sticks)
    path = contour_path(forest)
    heights = forest.birth_times()
    assert np.array_equal(path.visit_times, 2.0 * np.arange(len(sticks) + 1) - heights)


def test_contour_rejects_heights_above_a_peak():
    # Individual 1 cannot be born at 3.0 when individual 0 dies at 1.0.
    with pytest.raises(ValueError, match="descend above its peak"):
        ContourPath.from_heights(np.array([0.0, 3.0, 0.0]), np.array([1.0, 3.0]))


def test_contour_eval_at_visits_and_peaks(reference_sticks):
    path = contour_path(build_forest(reference_sticks))
    for k, h in zip(path.visit_times[:-1], REFERENCE_BIRTH_TIMES):
        assert path.eval(float(k)) == pytest.approx(h)
    # Halfway between visiting stick 0 and stick 1 the contour has climbed
    # stick 0 to its tip (height 2).
    assert path.eval(2.0) == pytest.approx(2.0)
    assert path.eval(34.0) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        path.eval(34.5)
    with pytest.raises(ValueError):
        path.eval(-0.1)


def test_min_contour_values(reference_sticks):
    f = build_forest(reference_sticks)
    assert min_contour(f, 0, 0) == pytest.approx(0.0)
    assert min_contour(f, 1, 3) == pytest.approx(1.5)
    assert min_contour(f, 4, 6) == pytest.approx(0.5)
    assert min_contour(f, 0, 10) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        min_contour(f, 3, 1)


def test_min_on_matches_vertex_scan(rng):
    law = GeometricUniformLaw(mean_offspring=0.8, v=1.0)
    for _ in range(20):
        sticks = law.sample_batch(rng, int(rng.integers(2, 40))).to_sticks()
        path = contour_path(build_forest(sticks))
        a, b = np.sort(rng.uniform(0.0, path.end_time, size=2))
        xs, ys = path.vertices()
        inside = [y for x, y in zip(xs, ys) if a <= x <= b]
        expected = min([path.eval(float(a)), path.eval(float(b)), *inside])
        assert path.min_on(float(a), float(b)) == pytest.approx(expected)


def test_min_on_matches_min_contour_at_visits(reference_sticks):
    f = build_forest(reference_sticks)
    path = contour_path(f)
    for m in range(f.n_sticks + 1):
        for n in range(m, f.n_sticks + 1):
            a, b = float(path.visit_times[m]), float(path.visit_times[n])
            assert path.min_on(a, b) == pytest.approx(min_contour(f, m, n))


def test_genealogical_map_collapses_to_generations(reference_sticks):
    gen = genealogical_map(reference_sticks)
    f = build_forest(reference_sticks)
    g = build_forest(gen)
    assert np.array_equal(g.birth_times()[:-1], f.depths()[:-1].astype(float))
    assert np.array_equal(g.depths(), f.depths())
    assert [n.parent for n in g.nodes] == [n.parent for n in f.nodes]
    # The map is idempotent: every image stick already has unit length.
    assert genealogical_map(gen) == gen


def test_forest_csv_layout(reference_sticks):
    f = build_forest(reference_sticks)
    buf = io.StringIO()
    write_forest_csv(f, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "index,parent,birth_time,depth,v,tree_id"
    assert len(lines) == 11
    assert lines[1] == "0,-1,0,0,2,0"
    assert lines[4] == "3,2,3.6,3,1,0"


def test_contour_csv_layout(reference_sticks):
    path = contour_path(build_forest(reference_sticks))
    buf = io.StringIO()
    write_contour_csv(path, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "time,value"
    assert lines[1] == "0,0"
    assert lines[2] == "2,2"  # peak of stick 0
    assert lines[-1] == "34,0"


def test_empty_forest():
    f = build_forest([])
    assert f.tree_count == 0
    assert f.n_sticks == 0
    assert f.birth_times().shape == (1,)
    assert not f.final_tree_incomplete


def test_graft_forest_reference_forest(reference_sticks):
    # The literal grafting oracle on the hand-worked forest.
    f = graft_forest(reference_sticks)
    assert tuple(f.birth_times()[:-1]) == pytest.approx(REFERENCE_BIRTH_TIMES)
    assert tuple(f.depths()[:-1]) == REFERENCE_DEPTHS
    assert tuple(n.parent for n in f.nodes) == REFERENCE_PARENTS
    assert [n.stick for n in f.nodes] == reference_sticks
    assert f.pending_stubs == 0 and f.tree_count == 1
    prefix = graft_forest(reference_sticks[:-1])
    assert prefix.terminal_height == pytest.approx(2.5) and prefix.terminal_depth == 3


def test_build_forest_takes_a_batch_or_sticks(reference_sticks):
    from_batch = build_forest(StickBatch.from_sticks(reference_sticks))
    from_sticks = build_forest(reference_sticks)
    for a, b in zip(from_batch.arrays, from_sticks.arrays):
        assert np.array_equal(a, b)
    assert [n.stick for n in from_batch.nodes] == reference_sticks
    assert tuple(n.birth_age for n in from_batch.nodes) == pytest.approx(
        (0.0, 1.5, 1.2, 0.9, 0.5, 0.5, 3.5, 2.5, 1.0, 1.0)
    )


def test_forest_arrays_are_cached_and_read_only(reference_sticks):
    f = build_forest(reference_sticks)
    assert f.birth_times() is f.birth_times() and f.depths() is f.depths()
    assert f.nodes is f.nodes
    with pytest.raises(ValueError):
        f.birth_times()[1] = 9.0
    with pytest.raises(ValueError):
        f.arrays.parent[1] = 3


def _csv_writer_forest(forest, fp):
    # the row-by-row csv.writer the array writers replace
    w = csv.writer(fp)
    w.writerow(["index", "parent", "birth_time", "depth", "v", "tree_id"])
    for node in forest.nodes:
        parent = -1 if node.parent is None else node.parent
        w.writerow(
            [
                node.index,
                parent,
                format(node.birth_time, ".12g"),
                node.depth,
                format(node.stick.v, ".12g"),
                node.tree_id,
            ]
        )


def _csv_writer_contour(path, fp):
    w = csv.writer(fp)
    w.writerow(["time", "value"])
    for t, x in zip(*path.vertices()):
        w.writerow([format(float(t), ".12g"), format(float(x), ".12g")])


@pytest.mark.parametrize("block", [None, 7])
def test_csv_writers_match_csv_writer_bytes(reference_sticks, monkeypatch, block):
    if block is not None:  # many blocks, and a partial last one
        monkeypatch.setattr(forest_module, "_CSV_BLOCK", block)
    big = GeometricUniformLaw(mean_offspring=1.0, v=1.0).sample_batch(
        np.random.default_rng(5), 10_000
    )
    for forest in (build_forest(reference_sticks), build_forest(big), build_forest([])):
        path = contour_path(forest)
        for write, oracle, arg in (
            (write_forest_csv, _csv_writer_forest, forest),
            (write_contour_csv, _csv_writer_contour, path),
        ):
            got, want = io.StringIO(), io.StringIO()
            write(arg, got)
            oracle(arg, want)
            assert got.getvalue() == want.getvalue()
            assert got.getvalue().endswith("\r\n")
            assert got.getvalue().count("\n") == got.getvalue().count("\r\n")
