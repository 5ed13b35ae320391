"""Operation times scaled to the reference machine's undisturbed speed.

The benchmark was written on two virtual CPUs of a shared host, whose speed
for a single-threaded Python process changed by up to two times over
seconds to minutes while nothing else in the virtual machine ran.  Wall time over a run then
says more about the host than about the program.  So every timed piece of
work is bracketed by a fixed calibration loop, run just before and just
after it, and its wall time is scaled by

    REFERENCE_S / mean(calibration time before, calibration time after)

which gives the time the work would take on the reference machine at its
undisturbed speed.  The loop is plain Python (list, dict and set work, as
the program does), so it slows with the host much as the program does.  A
change to the program moves the scaled time in the same proportion as the
wall time; the loop is not part of the program and does not change with it.

Changing `loop` or `REFERENCE_S` changes the scale of every reported time,
so runs made before and after such a change cannot be compared.
"""

from __future__ import annotations

import gc
from time import perf_counter

# About the loop's time on the reference machine (see README.md) at its
# undisturbed speed: 2000 timings there ranged from 10.8 ms up, and 150
# seconds of timings at mostly undisturbed speed had a median of 11.2 ms.
REFERENCE_S = 0.011

_TREE = 20000
_PAIRS = 15000


def loop() -> int:
    """Fixed pure-Python work of two kinds, as the program does both: build a
    tree by parent pointers, group the children in a dict and walk it with a
    stack and a set; then fill a dict keyed by pairs and read it back in a
    scattered order."""
    parent = [0] * _TREE
    for v in range(1, _TREE):
        parent[v] = (v * 7919) % v
    kids: dict = {}
    for v in range(1, _TREE):
        kids.setdefault(parent[v], []).append(v)
    seen = set()
    stack = [0]
    while stack:
        u = stack.pop()
        seen.add(u)
        stack.extend(kids.get(u, ()))
    pairs = {}
    for i in range(_PAIRS):
        pairs[(i, i * 31 % 97)] = i
    total = 0
    for i in range(_PAIRS):
        j = i * 7919 % _PAIRS
        total += pairs[(j, j * 31 % 97)]
    return len(seen) + total


def loop_seconds() -> float:
    """The loop's wall time, with the garbage collector off so that the
    program's live objects are not scanned inside it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        loop()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(before_s: float, after_s: float) -> float:
    """Factor that turns a wall time measured between two calibration loops
    into reference seconds."""
    return REFERENCE_S / ((before_s + after_s) / 2)
