"""The allocator policy that ``import chronoforest`` sets.

``_heap.keep_freed_memory`` asks glibc to serve arrays of up to 32 MiB
from the heap and to keep freed heap, so that repeated replicates reuse
their pages instead of faulting them in again.  One test counts the page
faults of a fresh interpreter; the others hold the function to returning
quietly wherever the policy cannot be set.
"""

import ctypes
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import chronoforest
from chronoforest import _heap


def _has_glibc_mallopt() -> bool:
    if sys.platform != "linux":
        return False
    try:
        return hasattr(ctypes.CDLL("libc.so.6"), "mallopt")
    except OSError:
        return False


# four 8 MiB arrays a round, made and dropped; after one warm-up round,
# five rounds touch 5 * 4 * 2048 pages of 4 KiB
ROUNDS_SCRIPT = """
import resource

import numpy as np

import chronoforest


def one_round():
    arrays = [np.ones(1 << 20) for _ in range(4)]
    del arrays


one_round()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    one_round()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
PAGES_TOUCHED = 5 * 4 * (8 << 20) // 4096  # 40,960


@pytest.mark.skipif(not _has_glibc_mallopt(), reason="needs glibc's mallopt")
def test_freed_arrays_are_reused_without_faults():
    # at glibc's defaults each round's freed arrays go back to the kernel
    # and the next round faults on their pages again (about 10,000 faults
    # with glibc 2.36); with the policy the rounds reuse the heap that the
    # warm-up round left
    src = str(Path(chronoforest.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(
        [sys.executable, "-c", ROUNDS_SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    faults = int(run.stdout)
    assert faults < PAGES_TOUCHED // 100, f"{faults} faults over {PAGES_TOUCHED} pages"


class _Mallopt:
    """A stand-in for glibc's ``mallopt`` that records its calls."""

    def __init__(self, result: int):
        self.result = result
        self.calls = []

    def __call__(self, param: int, value: int) -> int:
        self.calls.append((param, value))
        return self.result


def _use_libc(monkeypatch, libc) -> None:
    monkeypatch.setattr(_heap.sys, "platform", "linux")

    def cdll(name):
        assert name == "libc.so.6"
        if isinstance(libc, Exception):
            raise libc
        return libc

    monkeypatch.setattr(_heap.ctypes, "CDLL", cdll)


def test_both_thresholds_are_set_when_mallopt_takes_them(monkeypatch):
    mallopt = _Mallopt(1)
    _use_libc(monkeypatch, types.SimpleNamespace(mallopt=mallopt))
    assert _heap.keep_freed_memory() is None
    assert mallopt.calls == [
        (_heap.M_MMAP_THRESHOLD, 32 << 20),
        (_heap.M_TRIM_THRESHOLD, 512 << 20),
    ]


@pytest.mark.parametrize(
    "libc",
    [OSError("libc.so.6: cannot open shared object file"), types.SimpleNamespace()],
    ids=["no-glibc", "no-mallopt"],
)
def test_a_missing_mallopt_is_passed_over(monkeypatch, libc):
    # an allocator policy must never make the import fail
    _use_libc(monkeypatch, libc)
    assert _heap.keep_freed_memory() is None


def test_a_refused_mmap_threshold_leaves_the_trim_threshold_alone(monkeypatch):
    # a trim threshold alone would freeze glibc's mmap threshold at 128 KiB
    mallopt = _Mallopt(0)
    _use_libc(monkeypatch, types.SimpleNamespace(mallopt=mallopt))
    assert _heap.keep_freed_memory() is None
    assert mallopt.calls == [(_heap.M_MMAP_THRESHOLD, 32 << 20)]


def test_other_platforms_are_left_alone(monkeypatch):
    monkeypatch.setattr(_heap.sys, "platform", "darwin")
    monkeypatch.setattr(_heap.ctypes, "CDLL", lambda name: pytest.fail("loaded " + name))
    assert _heap.keep_freed_memory() is None
