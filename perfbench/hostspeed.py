"""Host-speed reference for the end-to-end timings.

The shared machines this benchmark runs on change speed by tens of
percent over seconds (another tenant's load), which moves a raw host
time more than any change worth measuring.  So the run samples a fixed
pure-Python kernel between rounds and between the pieces of a round
(set-up and run of a router round, the trials of a chaos round), and
scales its times by ``REFERENCE_S / mean kernel seconds``: host seconds
at the speed where the kernel takes :data:`REFERENCE_S`.  A change to
the simulator moves the rounds and not the kernel, so it still shows in
full; a slower machine moves both, and cancels.

The kernel has the shape of the simulator's event loop -- a binary heap
of timed entries, slot-object updates, short-lived tuples and dict
lookups -- but none of its code.  Its objects and dict are spread over
about 15 MB, because the simulator's working set is far larger than the
CPU caches: a kernel that stays in cache does not feel a neighbour's
cache and memory traffic the way the simulator does, and tracked its
round times much worse.  That resident data is part of every run's
``peak_rss_mb``.
"""

# repro-lint: file-disable=RPR102 -- a benchmark measures host time on purpose.

from __future__ import annotations

import time
from heapq import heappop, heappush

#: Kernel seconds that define the reference speed.
REFERENCE_S = 0.08

_OBJECTS = 60_000
_STEPS = 30_000


class _Obj:
    __slots__ = ("key", "last", "hits")

    def __init__(self, key: int):
        self.key = key
        self.last = None
        self.hits = 0


class SpeedKernel:
    """The reference kernel and its data, built once per run."""

    def __init__(self) -> None:
        self.pool = [_Obj(i) for i in range(_OBJECTS)]
        self.table = {i * 2654435761 & 0xFFFFFFFF: i for i in range(_OBJECTS)}
        self.keys = list(self.table)
        self.seconds()  # the first call allocates and is slower than the rest

    def seconds(self) -> float:
        """Wall seconds of one run of the kernel."""
        pool, table, keys = self.pool, self.table, self.keys
        heap = [(0, i) for i in range(32)]
        x = 12345
        start = time.perf_counter()
        for step in range(_STEPS):
            when, i = heappop(heap)
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            obj = pool[x % _OBJECTS]
            obj.hits += 1
            obj.last = (step, i)
            delay = table[keys[x % _OBJECTS]] & 15
            heappush(heap, (when + 1 + delay, i))
        return time.perf_counter() - start
