"""The two-core path: the helper thread, and the kernel and the age sort on it.

``_parallel.pair_for`` sends the height kernel's and the age sort's work to
``both`` from ``TWO_CORE_AGES`` ages on when a second CPU is there.  These
tests hold the threaded arrays to the one-thread arrays and to the grafting
oracle bit for bit, and check that no thread outlives a call, that an error
on either thread reaches the caller, and that one CPU starts no thread.
"""

import os
import threading

import numpy as np
import pytest

import chronoforest._parallel as parallel
from chronoforest._parallel import TWO_CORE_AGES, both, pair_for
from chronoforest.forest import ContourPath, forest_arrays, graft_forest
from chronoforest.lukasiewicz import Walk, ladder_decomp
from chronoforest.measures import StickBatch
from chronoforest.stochastic import ExperimentConfig, experiments, parse_law, scaling_experiment
from chronoforest.stochastic.laws import _sort_ages_desc


@pytest.fixture
def two_cpus(monkeypatch):
    """A second CPU, whatever the host has; threads are real either way."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.fixture
def threads_started(monkeypatch):
    """The helper threads started while the test runs."""
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Recorded)
    return started


def one_thread(monkeypatch, f, *args):
    """``f(*args)`` with every pair run in turn."""
    with monkeypatch.context() as m:
        m.setattr(parallel, "TWO_CORE_AGES", 2**62)
        return f(*args)


def assert_same_forest(a, b):
    assert a._fields == b._fields
    for name, x, y in zip(a._fields, a, b):
        assert np.array_equal(x, y), name  # heights bit for bit: floats compare by value
    assert a.pending_stubs == b.pending_stubs


def assert_sort_is_lexsort(ages, counts, got):
    ids = np.repeat(np.arange(len(counts)), counts)
    want = ages[np.lexsort((-ages, ids))]
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def check_batch(monkeypatch, batch, threads_started, oracle=True):
    """The kernel and the sort of ``batch`` on two threads, against one thread
    and (when ``oracle``) the grafting oracle."""
    before = threading.active_count()
    del threads_started[:]
    arrays = forest_arrays(batch.counts, batch.offsets, batch.ages)
    # each stick's ages in increasing order, for the sort to turn round
    stick = np.repeat(np.arange(batch.n), batch.counts)
    ages = batch.ages[batch.offsets[stick] + batch.offsets[stick + 1] - 1 - np.arange(len(stick))]
    sorted_ages = _sort_ages_desc(ages, batch.counts)
    assert threading.active_count() == before
    assert all(not t.is_alive() for t in threads_started)
    assert_same_forest(arrays, one_thread(monkeypatch, forest_arrays, batch.counts, batch.offsets, batch.ages))
    assert np.array_equal(sorted_ages, one_thread(monkeypatch, _sort_ages_desc, ages, batch.counts))
    assert np.array_equal(sorted_ages, batch.ages)
    assert_sort_is_lexsort(ages, batch.counts, sorted_ages)
    if oracle:
        assert_same_forest(arrays, graft_forest(batch.to_sticks()).arrays)
    return len(threads_started)


def batch_of_ages(law, rng, total):
    """A batch of ``law`` sticks with exactly ``total`` ages: a prefix of a
    draw, then one stick holding the ages still missing."""
    batch = law.sample_batch(rng, int(0.9 * total))
    keep = int(np.searchsorted(batch.offsets, total, side="right")) - 1
    rest = total - int(batch.offsets[keep])
    v = 2.0
    last = np.sort(v * (1.0 - rng.random(rest)))[::-1]
    return StickBatch(
        np.append(batch.counts[:keep], rest),
        np.append(batch.v[:keep], v),
        np.concatenate([batch.ages[: batch.offsets[keep]], last]),
    )


@pytest.mark.parametrize("total", [TWO_CORE_AGES - 1, TWO_CORE_AGES])
def test_threshold_batches_match_one_thread_and_the_oracle(monkeypatch, two_cpus, threads_started, total):
    # tied lattice ages, as many as the threshold asks and one fewer
    batch = batch_of_ages(parse_law("geo-uniform(lattice=4)"), np.random.default_rng(total), total)
    assert len(batch.ages) == total
    started = check_batch(monkeypatch, batch, threads_started)
    # the kernel pairs three times and the sort once, all from the threshold on
    assert started == (4 if total >= TWO_CORE_AGES else 0)


def edge_batches():
    rng = np.random.default_rng(3201)
    law = parse_law("geo-uniform(lattice=4)")
    yield "lattice", law.sample_batch(rng, 3000)
    # empty sticks on both sides of the sort's split, at half the sticks
    b = law.sample_batch(rng, 2000)
    counts = b.counts.copy()
    counts[995:1005] = 0
    ages = np.concatenate([b.ages[lo : lo + c] for lo, c in zip(b.offsets[:-1], counts)])
    yield "empty sticks at the split", StickBatch(counts, b.v, ages)
    yield "no children", StickBatch(np.zeros(500, dtype=np.int64), np.ones(500), np.empty(0))
    yield "one stick holds every age", StickBatch(
        np.array([4000] + [0] * 200), np.full(201, 2.0), np.sort(2.0 * (1.0 - rng.random(4000)))[::-1]
    )
    yield "one stick, more after it", StickBatch(
        np.array([0, 0, 4000] + [1] * 50), np.full(53, 2.0),
        np.concatenate([np.sort(2.0 * (1.0 - rng.random(4000)))[::-1], np.full(50, 1.0)]),
    )
    yield "no sticks", StickBatch(np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0))


@pytest.mark.parametrize("name,batch", list(edge_batches()), ids=[name for name, _ in edge_batches()])
def test_edge_batches_on_two_threads(monkeypatch, two_cpus, threads_started, name, batch):
    monkeypatch.setattr(parallel, "TWO_CORE_AGES", 0)  # every batch takes the threads
    assert check_batch(monkeypatch, batch, threads_started) == 4


class _Births:
    """A walk's marks read off a batch one stick at a time: the ladder
    decomposition indexes only its epoch sticks."""

    def __init__(self, batch: StickBatch):
        self.batch = batch

    def __len__(self) -> int:
        return self.batch.n

    def __getitem__(self, k: int):
        return self.batch.measure(k)


def test_threaded_kernel_matches_ladder_ages_at_a_million_sticks(two_cpus, threads_started):
    # the kernel at the largest scale the experiments run, on two threads,
    # checked at sampled indices against the ladder decomposition's ages
    # summed root first as grafting sums them
    n = 1_000_000
    rng = np.random.default_rng(3202)
    batch = parse_law("geo-uniform").sample_batch(rng, n)
    del threads_started[:]
    arrays = forest_arrays(batch.counts, batch.offsets, batch.ages)
    assert len(threads_started) == 3 and not any(t.is_alive() for t in threads_started)
    heights, depths = arrays.heights, arrays.depths
    roots = np.flatnonzero(depths == 0)
    picks = set(rng.choice(roots, 4, replace=False).tolist()) | {0, n}
    picks |= set(rng.integers(1, n, 12).tolist())
    s = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(batch.counts - 1, out=s[1:])
    w = Walk(_Births(batch), s)
    for j in sorted(picks):
        dec = ladder_decomp(w, j)
        assert depths[j] == dec.height, j
        h = 0.0
        for a in reversed(dec.ages):
            h += a
        assert heights[j] == h, j
        if j < n:
            assert arrays.parent[j] == (dec.stick_indices[0] if dec.height else -1), j


@pytest.mark.parametrize("side", ["helper", "caller"])
def test_an_error_on_either_thread_reaches_the_caller(side):
    def fail():
        raise KeyError(f"from the {side}")

    before = threading.active_count()
    f, g = (fail, lambda: 1) if side == "helper" else (lambda: 1, fail)
    with pytest.raises(KeyError, match=f"from the {side}"):
        both(f, g)
    assert threading.active_count() == before
    # an error raised by numpy inside the helper's work keeps its type and text
    with pytest.raises(ValueError, match="overflows a float"):
        both(lambda: ContourPath(np.zeros(3), np.array([1e308, 1e308])), lambda: None)
    assert threading.active_count() == before


def test_both_returns_both_results_and_joins(threads_started):
    before = threading.active_count()
    assert both(lambda: "f", lambda: "g") == ("f", "g")
    assert threading.active_count() == before
    assert len(threads_started) == 1 and not threads_started[0].is_alive()


def test_one_cpu_starts_no_thread(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a thread was started on one CPU")

    monkeypatch.setattr(threading, "Thread", refuse)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert pair_for(10 * TWO_CORE_AGES) is parallel.in_turn
    batch = parse_law("geo-uniform").sample_batch(np.random.default_rng(3203), 2 * TWO_CORE_AGES)
    forest_arrays(batch.counts, batch.offsets, batch.ages)
    config = ExperimentConfig(law="geo-uniform", p_values=(2 * TWO_CORE_AGES,), times=(1.0,), replicates=1)
    scaling_experiment(config)
    # without an affinity mask the CPU count decides
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert pair_for(10 * TWO_CORE_AGES) is parallel.in_turn
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert pair_for(10 * TWO_CORE_AGES) is parallel.in_turn
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert pair_for(10 * TWO_CORE_AGES) is both
    assert pair_for(TWO_CORE_AGES - 1) is parallel.in_turn


def test_a_pool_that_fills_the_cpus_leaves_no_core_to_its_workers(monkeypatch, tmp_path):
    monkeypatch.setattr(parallel, "_sharing", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    parallel.share_cpus(2)
    assert pair_for(TWO_CORE_AGES) is both  # two CPUs for each of two workers
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert pair_for(TWO_CORE_AGES) is parallel.in_turn
    parallel.share_cpus(1)
    assert pair_for(TWO_CORE_AGES) is both
    # each worker of ``scale --workers 2`` on two CPUs runs the pairs in turn
    def initializer(processes):
        parallel.share_cpus(processes)
        (tmp_path / str(os.getpid())).write_text(f"{processes} {parallel.two_cores(10 * TWO_CORE_AGES)}")

    monkeypatch.setattr(experiments, "share_cpus", initializer)
    config = ExperimentConfig(law="geo-uniform", p_values=(100,), times=(1.0,), replicates=4)
    scaling_experiment(config, workers=2)
    assert sorted(path.read_text() for path in tmp_path.iterdir()) == ["2 False", "2 False"]


def test_scaling_rows_are_the_same_on_one_thread(monkeypatch, two_cpus, threads_started):
    # a replicate large enough for the threads gives the one-thread bytes
    config = ExperimentConfig(law="geo-uniform", p_values=(2 * TWO_CORE_AGES,), times=(0.5, 1.0), replicates=2, seed=3204)
    threaded = scaling_experiment(config)
    assert threads_started and not any(t.is_alive() for t in threads_started)
    alone = one_thread(monkeypatch, scaling_experiment, config)
    assert threaded.rows.tobytes() == alone.rows.tobytes()
    assert threaded.replicates.tobytes() == alone.replicates.tobytes()
