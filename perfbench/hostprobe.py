"""A fixed piece of work that measures how fast the host is right now.

A shared host changes speed by itself: its other tenants take cores,
caches and memory bandwidth, and the same unit of work can take twice
as long a minute later (README.md, "Host noise").  The benchmark runs
:func:`probe` before and after every timed set-up batch and unit and
scales each time by ``REFERENCE_S`` over the mean of those two probes,
so times read as seconds on a host whose probe takes ``REFERENCE_S``.

The probe never calls the program, so no change to the program moves
it.  Its mix follows the program's: dict, heap and list work in the
interpreter like the simulator's event loop and LRU caches, then
vectorised numpy like the model's grids.
"""

from __future__ import annotations

import collections
import heapq
import time

import numpy as np

#: Probe time that scaled times refer to, a round figure within the
#: probe's range on the 2-vCPU KVM host the benchmark was written on
#: (medians of 0.11-0.17 s as the host's speed changed).  It only sets
#: the scale; ratios between two runs do not depend on it.
REFERENCE_S = 0.12

_KEYS = np.random.default_rng(0).integers(0, 20_000, 60_000).tolist()
_VALUES = np.random.default_rng(1).random(300_000)


def _interpreter_work() -> int:
    lru: collections.OrderedDict = collections.OrderedDict()
    heap: list = []
    now, hits = 0.0, 0
    for i, key in enumerate(_KEYS):
        if key in lru:
            lru.move_to_end(key)
            hits += 1
        else:
            lru[key] = i
            if len(lru) > 8_000:
                lru.popitem(last=False)
        heapq.heappush(heap, (now + (key % 97) * 1e-3, i))
        if len(heap) > 64:
            now = heapq.heappop(heap)[0]
    return hits


def _numpy_work() -> float:
    a = _VALUES
    for _ in range(10):
        a = np.sort(np.sqrt(a * a + 1.0) - 1.0)
    return float(a[0])


def probe() -> float:
    """Host seconds the fixed work took."""
    t0 = time.perf_counter()
    _interpreter_work()
    _numpy_work()
    return time.perf_counter() - t0
