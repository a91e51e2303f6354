"""The allocator policy: freed array memory stays with the process.

``scale`` and the acceptance experiments run many replicates of 1e4 to 1e6
sticks in one process, and each replicate allocates the arrays that the
one before it freed.  At glibc's defaults an array above the mmap
threshold (128 KiB at first, then the largest such array freed so far)
gets pages of its own, which go back to the kernel when it is freed, and
freed heap at the top beyond twice that threshold goes back too.  The next
replicate then page-faults the same memory in again.

``keep_freed_memory`` sets both thresholds once, at import: arrays below
4M float64 come from the heap, and freed heap is kept for the next
replicate.  Forked children (``build``'s contour writer, the ``scale
--workers`` pool) inherit the policy with the rest of the process.  On any
platform other than Linux with glibc it does nothing, and it never makes
the import fail.
"""

from __future__ import annotations

import ctypes
import sys

# mallopt's parameter numbers, from glibc's <malloc.h>
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3

# glibc's largest mmap threshold on 64-bit, and a trim threshold above the
# freed heap of the largest replicate.  On a 2-core Xeon with glibc 2.36:
# - an op of perfbench's scale-critical shape (a replicate at p = 1e4 and
#   one at p = 1e5) took 2,800 to 4,000 minor faults at the defaults, and
#   4 to 6 with this pair;
# - a p = 1e6 replicate after the first took 6,900 to 9,600 faults at the
#   defaults and 4 to 2,000 with this pair; peak RSS over five replicates
#   was 164 MB either way;
# - M_TOP_PAD = 64 MiB on its own froze the mmap threshold at 128 KiB: the
#   same replicates took 10,000 to 13,000 faults and peaked at 173 MB.
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 512 << 20


def keep_freed_memory() -> None:
    """Serve arrays below ``MMAP_THRESHOLD`` bytes from the heap, and keep
    up to ``TRIM_THRESHOLD`` bytes of freed heap for reuse.  Does nothing
    where glibc's ``mallopt`` is missing or refuses a value."""
    if sys.platform != "linux":
        return
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):  # not glibc
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # setting the trim threshold also freezes the mmap threshold, so it is
    # set only once the mmap threshold has taken
    if mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD):
        mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)
