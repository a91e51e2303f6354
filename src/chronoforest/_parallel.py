"""Two pieces of array work on two cores.

``both(f, g)`` runs ``f`` on a short-lived helper thread while ``g`` runs
on the caller, and returns both results.  numpy releases the GIL inside
its sorts, searches, cumulative sums and gathers, so the two overlap; the
thread is joined before ``both`` returns or raises, so no thread outlives
the call, and ``build``'s forked contour writer and ``scale --workers``'
fork pool never fork while one is running.

The helper pays only on large arrays, since a thread's start and join
cost 0.05 to 0.1 ms, and only where this process has a second CPU to
itself: not in a pool worker whose pool takes every CPU (``share_cpus``).
``two_cores(n)`` decides, and ``pair_for(n)`` otherwise runs the pair in
turn.  The helper's work must not call a function that a tracer may wrap:
it runs plain numpy.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, TypeVar

A = TypeVar("A")
B = TypeVar("B")

# Ages from which the height kernel and the age sort split their work
# over two threads.  On a 2-core Xeon, in runs that alternated the two
# paths in one process (critical geo-uniform, a layout plus the kernel,
# three rounds), the threads changed the time by +7% to -2% at 40,000 ages,
# by 0% to -5% at 50,000, by -5% to -14% at 70,000, by -10% at 1e5 and
# by -27% at 1e6; at 10,000 they cost 16% more.
TWO_CORE_AGES = 50_000


# processes that share this process's CPUs: 1, or the size of the pool
# whose worker this process is
_sharing = 1


def share_cpus(processes: int) -> None:
    """Count this process as one of ``processes`` workers of a pool that
    share its CPUs (a pool's initializer)."""
    global _sharing
    _sharing = processes


def second_cpu() -> bool:
    """Whether this process may run on a second CPU that no other worker
    of its pool needs: at least two CPUs for each process sharing them.
    With every CPU taken by a pool worker, a helper thread would only
    queue behind another process."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (cpus or 1) >= 2 * _sharing


def two_cores(n_ages: int) -> bool:
    """Whether work over ``n_ages`` ages pays for a helper thread."""
    return n_ages >= TWO_CORE_AGES and second_cpu()


def pair_for(n_ages: int) -> Callable[[Callable[[], A], Callable[[], B]], tuple[A, B]]:
    """How to run two pieces of work over ``n_ages`` ages: ``both``, or
    ``in_turn`` below the size where a thread pays or on one CPU."""
    return both if two_cores(n_ages) else in_turn


def in_turn(f: Callable[[], A], g: Callable[[], B]) -> tuple[A, B]:
    """``(f(), g())`` on the caller."""
    return f(), g()


def both(f: Callable[[], A], g: Callable[[], B]) -> tuple[A, B]:
    """``(f(), g())``, with ``f`` run on a helper thread while ``g`` runs
    here.  Once the helper has ended, an exception of ``g``, else one of
    ``f``, is raised here as it was raised."""
    first: list = []
    error: list = []

    def run() -> None:
        try:
            first.append(f())
        except BaseException as exc:  # raised on the caller below
            error.append(exc)

    helper = threading.Thread(target=run, name="chronoforest-helper")
    helper.start()
    try:
        second = g()
    finally:
        helper.join()
    if error:
        raise error[0]
    return first[0], second
