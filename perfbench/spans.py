"""Span and count recorder for the traced benchmark run.

The recorder wraps public chronoforest functions *as their calling modules
see them*: it replaces the module attribute (or class attribute) that the
caller looks up, so the package itself is not modified.  Spans are kept in
flat arrays while the run lasts and are written out once at the end.

A span is (name, start, end, parent span, op id).  Spans are recorded only
while an op is open, so the benchmark's own output checks, which call some
of the same functions, never show up in the trace.  The benchmark is
single-threaded and nothing waits on a queue or a lock, so spans nest
strictly and no span reports wait time.
"""

from __future__ import annotations

import array
import functools
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("q")
        self.op = array.array("q")
        self._stack: list[int] = []
        self._open_by_name: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.op_id: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- ops ---------------------------------------------------------------
    def begin_op(self, op_id: int, name: str = "bench.op") -> None:
        self.op_id = op_id
        self._open(name)

    def end_op(self) -> None:
        self._close(self._stack[-1])
        self.op_id = None

    def is_open(self, name: str) -> bool:
        return self._open_by_name[name] > 0

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] += n

    # -- spans -------------------------------------------------------------
    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self._open_by_name[name] += 1
        self.start.append(_clock())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = _clock()
        self._stack.pop()
        self._open_by_name[self.names[self.name_id[idx]]] -= 1

    def wrap(self, name: str, fn, tally=None):
        """``fn`` recorded as span ``name``; ``tally(tracer, args, result)``
        records counts at the same boundary."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op_id is None:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if tally is not None:
                tally(self, args, kwargs, result)
            return result

        return wrapper

    def counter(self, fn, tally):
        """``fn`` with counts only: for calls too small and too frequent to
        be worth a span of their own."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.op_id is not None:
                tally(self, args, kwargs, result)
            return result

        return wrapper

    # -- patching ----------------------------------------------------------
    def install(self, patches) -> None:
        """``patches``: (owner, attribute, replacement) triples."""
        for owner, attr, replacement in patches:
            self._patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        # copies: a live buffer export would stop the arrays from growing
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int64).copy(),
        }

    def span_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: total seconds, self seconds and calls.

        Self time is a span's duration minus the time its child spans cover;
        children of one span never overlap, so that is the sum of their
        durations.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        covered = np.zeros(len(dur))
        has_parent = a["parent"] >= 0
        np.add.at(covered, a["parent"][has_parent], dur[has_parent])
        self_s = dur - covered
        k = len(self.names)
        total = np.bincount(a["name_id"], weights=dur, minlength=k)
        own = np.bincount(a["name_id"], weights=self_s, minlength=k)
        calls = np.bincount(a["name_id"], minlength=k)
        return {
            name: {"s": float(total[i]), "self_s": float(own[i]), "calls": int(calls[i])}
            for i, name in enumerate(self.names)
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())
