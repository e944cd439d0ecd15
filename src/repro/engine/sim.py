"""Cycle-resolution discrete-event simulator.

Processes are Python generators that yield *commands*:

* :class:`Delay` -- resume after a fixed number of cycles.
* :class:`Event` -- resume when the event is triggered (one-shot).
* :class:`Signal` -- resume on the next firing (repeating).
* ``resource.acquire()`` -- resume once the resource is granted.
* another :class:`Process` -- resume when that process terminates (join).

The simulator advances time only through the event queue; there is no
wall-clock component, so runs are fully deterministic given deterministic
process code.

Ordering contract (relied on by every hardware model): events execute in
``(cycle, seq)`` order, where ``seq`` is a global insertion counter.  In
particular, events scheduled for the same cycle run FIFO in the order
they were scheduled, including events scheduled *during* that cycle.

The queue is a two-tier calendar: a ring of near-future cycle buckets
(same-cycle wakes are O(1) appends, no heap churn) backed by a binary
heap for far-future events.  The original single-heap scheduler lives in
``tests/heap_oracle.py`` as the reference the determinism suite compares
this one against.
"""

from __future__ import annotations

import gc
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Deque, Generator, Iterable, List, Optional, Tuple

from repro.obs.recorder import NULL_RECORDER

# Calendar ring geometry: delays shorter than the ring go into per-cycle
# buckets; longer ones overflow to the far-future heap.
_RING_BITS = 10
_RING_SIZE = 1 << _RING_BITS
_RING_MASK = _RING_SIZE - 1


# Sentinel marking a ring-bucket entry as a plain callback rather than a
# process wake (the entry is then ``(callback, _CALLBACK)``).
_CALLBACK = object()


class SimulationError(RuntimeError):
    """Raised for illegal simulator usage (double release, bad yield, ...)."""


class Interrupt(Exception):
    """Thrown into a process that is interrupted while waiting.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Delay:
    """Command: suspend the yielding process for ``cycles`` cycles."""

    __slots__ = ("cycles",)

    def __init__(self, cycles: int):
        if cycles < 0:
            raise SimulationError(f"negative delay: {cycles}")
        self.cycles = cycles

    def __repr__(self) -> str:
        return f"Delay({self.cycles})"


# Delay instances are immutable, so the hot paths share one instance per
# small cycle count instead of allocating a fresh command per yield.
_DELAY_CACHE: Tuple[Delay, ...] = tuple(Delay(i) for i in range(_RING_SIZE))


def delay(cycles: int) -> Delay:
    """Cached :class:`Delay` factory for hot paths."""
    if 0 <= cycles < _RING_SIZE:
        return _DELAY_CACHE[cycles]
    return Delay(cycles)


class Event:
    """One-shot event.  Waiters resume when :meth:`succeed` is called.

    Waiting on an already-succeeded event resumes immediately with the
    stored value.  Succeeding twice is an error.
    """

    __slots__ = ("sim", "_waiters", "_done", "_value", "name")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self._waiters: List["Process"] = []
        self._done = False
        self._value: Any = None

    @property
    def triggered(self) -> bool:
        return self._done

    @property
    def value(self) -> Any:
        return self._value

    def succeed(self, value: Any = None) -> None:
        if self._done:
            raise SimulationError(f"event {self.name!r} succeeded twice")
        self._done = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        if waiters:
            self.sim._resume_many(waiters, value)

    def _wait(self, proc: "Process") -> None:
        if self._done:
            self.sim._resume(proc, self._value)
        else:
            self._waiters.append(proc)
            proc._waiting_on = self

    def _cancel(self, proc: "Process") -> None:
        if proc in self._waiters:
            self._waiters.remove(proc)


class Signal:
    """Repeating signal: each :meth:`fire` wakes every currently-waiting
    process (and only those).  Used to model the IXP1200 inter-thread
    signalling hardware, which is on-chip and effectively instantaneous.
    """

    __slots__ = ("sim", "_waiters", "name", "fire_count")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self._waiters: List["Process"] = []
        self.fire_count = 0

    def fire(self, value: Any = None) -> int:
        """Wake all current waiters; returns the number woken.

        All waiters land on the same cycle, so they are dispatched as one
        batch (a single bucket extension, no per-waiter heap traffic).
        """
        self.fire_count += 1
        waiters, self._waiters = self._waiters, []
        if waiters:
            self.sim._resume_many(waiters, value)
        return len(waiters)

    def _wait(self, proc: "Process") -> None:
        self._waiters.append(proc)
        proc._waiting_on = self

    def _cancel(self, proc: "Process") -> None:
        if proc in self._waiters:
            self._waiters.remove(proc)


class _AcquireCommand:
    """Internal command produced by :meth:`Resource.acquire`."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        self.resource = resource


class Resource:
    """A counted resource with a FIFO wait queue.

    ``capacity`` units exist; a process acquires one unit with
    ``yield resource.acquire()`` and returns it with ``resource.release()``
    (a plain call, not a yield -- releasing costs no simulated time).
    """

    __slots__ = (
        "sim", "capacity", "in_use", "_queue", "name",
        "total_waits", "total_wait_cycles", "_acquire_command",
    )

    def __init__(self, sim: "Simulator", capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.in_use = 0
        self.name = name
        self._queue: Deque[Tuple["Process", int]] = deque()
        self.total_waits = 0
        self.total_wait_cycles = 0
        # The command is stateless, so one shared instance serves every
        # acquire() of this resource.
        self._acquire_command = _AcquireCommand(self)

    def acquire(self) -> _AcquireCommand:
        return self._acquire_command

    @property
    def available(self) -> int:
        return self.capacity - self.in_use

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def _request(self, proc: "Process") -> None:
        # Grant/defer; the grant inlines Simulator._resume (hot path).
        if self.in_use < self.capacity and not self._queue:
            self.in_use += 1
            proc._waiting_on = None
            sim = self.sim
            bucket = sim._ring[sim.now & _RING_MASK]
            if not bucket:
                heappush(sim._ring_cycles, sim.now)
            bucket.append((proc, self))
        else:
            self.total_waits += 1
            self._queue.append((proc, self.sim.now))
            proc._waiting_on = self

    def release(self) -> None:
        if self.in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        if self._queue:
            proc, enq_time = self._queue.popleft()
            sim = self.sim
            self.total_wait_cycles += sim.now - enq_time
            proc._waiting_on = None
            bucket = sim._ring[sim.now & _RING_MASK]
            if not bucket:
                heappush(sim._ring_cycles, sim.now)
            bucket.append((proc, self))
        else:
            self.in_use -= 1

    def _cancel(self, proc: "Process") -> None:
        for i, (waiter, __) in enumerate(self._queue):
            if waiter is proc:
                del self._queue[i]
                return


class Process:
    """A generator-based simulated process."""

    __slots__ = ("sim", "gen", "name", "_alive", "_result", "_joiners", "_waiting_on", "_interrupted")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        self.sim = sim
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self._alive = True
        self._result: Any = None
        self._joiners: List["Process"] = []
        self._waiting_on: Any = None
        self._interrupted = False

    @property
    def alive(self) -> bool:
        return self._alive

    @property
    def result(self) -> Any:
        return self._result

    def interrupt(self, cause: Any = None) -> None:
        """Abort whatever this process is waiting for and throw
        :class:`Interrupt` into it at the current simulation time."""
        if not self._alive:
            return
        waiting_on = self._waiting_on
        if waiting_on is not None and hasattr(waiting_on, "_cancel"):
            waiting_on._cancel(self)
        self._waiting_on = None
        self._interrupted = True
        self.sim._schedule_step(0, self, cause)

    def _wait(self, proc: "Process") -> None:
        # Support `yield other_process` as a join.
        if not self._alive:
            proc.sim._resume(proc, self._result)
        else:
            self._joiners.append(proc)
            proc._waiting_on = self

    def _cancel(self, proc: "Process") -> None:
        if proc in self._joiners:
            self._joiners.remove(proc)

    def _finish(self, result: Any) -> None:
        self._alive = False
        self._result = result
        sim = self.sim
        if sim.recorder.enabled:
            sim.recorder.record(sim.now, "sim", "process_exit", None, self.name)
        joiners, self._joiners = self._joiners, []
        if joiners:
            sim._resume_many(joiners, result)

    def __repr__(self) -> str:
        state = "alive" if self._alive else "done"
        return f"<Process {self.name} ({state})>"


class Simulator:
    """The event loop.  Time is an integer cycle count starting at zero.

    Queue entries are plain tuples, so the hot paths never allocate
    closures.  Ring buckets hold ``(proc, value)`` pairs -- or
    ``(callback, _CALLBACK)`` for plain callbacks -- with *no* sequence
    number: appends already happen in schedule order, and far-future
    heap events maturing into a bucket were necessarily scheduled at
    least ``_RING_SIZE`` cycles earlier than every ring entry for that
    cycle, so merging them is a plain prepend.  The far-future heap
    holds ``(when, seq, proc, value, callback)`` where ``seq`` breaks
    same-cycle ties among heap entries only.
    """

    def __init__(self):
        # Observability sink (repro.obs).  The hot event loop never
        # consults it: hooks live only on process-lifecycle edges
        # (spawn/finish), so the disabled path costs nothing per event.
        self.recorder = NULL_RECORDER
        self.now: int = 0
        self._seq = 0
        self._events_processed = 0
        self._stopped = False
        self._heap: List[tuple] = []
        self._ring: List[list] = [[] for __ in range(_RING_SIZE)]
        # Min-heap of cycles that currently have a non-empty bucket;
        # one entry per pending cycle, not per event.
        self._ring_cycles: List[int] = []
        #: Called (no arguments) every time :meth:`run` returns, after
        #: the last event: models that keep counters in closed form
        #: while they skip events (the parked input token ring) settle
        #: them to ``now`` here, so code reading after a run sees exact
        #: values.
        self.return_hooks: List[Callable[[], None]] = []

    # -- event queue ------------------------------------------------------

    def schedule(self, delay: int, callback: Callable[[], None]) -> None:
        """Run ``callback`` ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        when = self.now + delay
        if delay < _RING_SIZE:
            bucket = self._ring[when & _RING_MASK]
            if not bucket:
                heappush(self._ring_cycles, when)
            bucket.append((callback, _CALLBACK))
        else:
            seq = self._seq + 1
            self._seq = seq
            heappush(self._heap, (when, seq, None, None, callback))

    def _schedule_step(self, delay: int, proc: "Process", value: Any) -> None:
        """Schedule a resume of ``proc`` with ``value`` without allocating a closure."""
        when = self.now + delay
        if delay < _RING_SIZE:
            bucket = self._ring[when & _RING_MASK]
            if not bucket:
                heappush(self._ring_cycles, when)
            bucket.append((proc, value))
        else:
            seq = self._seq + 1
            self._seq = seq
            heappush(self._heap, (when, seq, proc, value, None))

    def stop(self) -> None:
        """Stop :meth:`run` after the current callback returns."""
        self._stopped = True

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Process events until the queue empties, ``until`` cycles is
        reached, or ``max_events`` callbacks have run.  Returns ``now``.
        """
        self._stopped = False
        # The hot loop allocates short-lived tuples and generator frames
        # that are all refcount-collected; cyclic collector passes only
        # add pauses, so GC is suspended for the duration of the run.
        gc_enabled = gc.isenabled()
        if gc_enabled:
            gc.disable()
        try:
            now = self._run_events(until, max_events)
        finally:
            if gc_enabled:
                gc.enable()
        for hook in self.return_hooks:
            hook()
        return now

    def _run_events(self, until: Optional[int], max_events: Optional[int]) -> int:
        heap = self._heap
        ring = self._ring
        cycles = self._ring_cycles
        count = 0
        # ``max_events=0`` (or negative) still runs one event, exactly
        # like the original ``count >= max_events`` post-check; -1 means
        # unlimited (plain int compare, never equal to a positive count).
        if max_events is None:
            limit = -1
        else:
            limit = max_events if max_events > 0 else 1
        while not self._stopped:
            when = self.now
            bucket = ring[when & _RING_MASK]
            if bucket:
                # Leftovers from a stopped/limited run at the current
                # cycle; a marker may or may not still be pending.
                if until is not None and when > until:
                    self.now = until
                    break
                if cycles and cycles[0] == when:
                    heappop(cycles)
            else:
                ring_when = cycles[0] if cycles else -1
                heap_when = heap[0][0] if heap else -1
                if ring_when < 0 and heap_when < 0:
                    if until is not None:
                        self.now = max(self.now, until)
                    break
                if ring_when >= 0 and (heap_when < 0 or ring_when <= heap_when):
                    when = ring_when
                else:
                    when = heap_when
                if until is not None and when > until:
                    self.now = until
                    break
                if cycles and cycles[0] == when:
                    heappop(cycles)
                bucket = ring[when & _RING_MASK]
                self.now = when
            # Merge matured far-future events into this cycle's bucket.
            # A heap entry for this cycle was scheduled >= _RING_SIZE
            # cycles ago, i.e. before every ring entry waiting here, so
            # the matured batch (popped in seq order) simply prepends.
            if heap and heap[0][0] == when:
                matured = []
                while heap and heap[0][0] == when:
                    item = heappop(heap)
                    proc = item[2]
                    if proc is not None:
                        matured.append((proc, item[3]))
                    else:
                        matured.append((item[4], _CALLBACK))
                bucket[:0] = matured
            # Drain the bucket FIFO; the list iterator picks up
            # same-cycle wakes appended while draining.  Each process
            # step (and its Delay fast path) is inlined here -- one
            # generator resume plus a bucket append per event, with no
            # intermediate Python calls.
            i = 0
            limited = False
            for proc, value in bucket:
                i += 1
                if value is not _CALLBACK:
                    if proc._alive:
                        try:
                            if proc._interrupted:
                                proc._interrupted = False
                                command = proc.gen.throw(Interrupt(value))
                            else:
                                command = proc.gen.send(value)
                        except StopIteration as stop:
                            proc._finish(stop.value)
                        except Interrupt:
                            proc._finish(None)
                        else:
                            cls = command.__class__
                            if cls is Delay:
                                d = command.cycles
                                if d < _RING_SIZE:
                                    target = ring[(when + d) & _RING_MASK]
                                    if not target:
                                        heappush(cycles, when + d)
                                    target.append((proc, None))
                                else:
                                    seq = self._seq + 1
                                    self._seq = seq
                                    heappush(heap, (when + d, seq, proc, None, None))
                            elif cls is _AcquireCommand:
                                command.resource._request(proc)
                            elif isinstance(command, Delay):
                                self._schedule_step(command.cycles, proc, None)
                            elif isinstance(command, (Event, Signal, Process)):
                                command._wait(proc)
                            else:
                                raise SimulationError(
                                    f"process {proc.name!r} yielded unsupported "
                                    f"command {command!r}"
                                )
                else:
                    proc()
                count += 1
                if self._stopped:
                    break
                if count == limit:
                    limited = True
                    break
            del bucket[:i]
            self._events_processed += i
            if limited:
                break
        return self.now

    # -- processes --------------------------------------------------------

    def spawn(self, gen: Generator, name: str = "") -> Process:
        """Register a generator as a process; it takes its first step at
        the current simulation time (via a zero-delay event)."""
        proc = Process(self, gen, name=name)
        self._schedule_step(0, proc, None)
        if self.recorder.enabled:
            self.recorder.record(self.now, "sim", "spawn", None, proc.name)
        return proc

    def spawn_all(self, gens: Iterable[Generator], prefix: str = "p") -> List[Process]:
        return [self.spawn(g, name=f"{prefix}{i}") for i, g in enumerate(gens)]

    def event(self, name: str = "") -> Event:
        return Event(self, name)

    def signal(self, name: str = "") -> Signal:
        return Signal(self, name)

    def resource(self, capacity: int = 1, name: str = "") -> Resource:
        return Resource(self, capacity, name)

    def _resume(self, proc: Process, value: Any) -> None:
        proc._waiting_on = None
        bucket = self._ring[self.now & _RING_MASK]
        if not bucket:
            heappush(self._ring_cycles, self.now)
        bucket.append((proc, value))

    def _resume_many(self, procs: List[Process], value: Any) -> None:
        """Wake a batch of processes at the current cycle in one pass,
        preserving their FIFO order (one bucket extension, no per-waiter
        heap traffic)."""
        bucket = self._ring[self.now & _RING_MASK]
        if not bucket:
            heappush(self._ring_cycles, self.now)
        for proc in procs:
            proc._waiting_on = None
            bucket.append((proc, value))
