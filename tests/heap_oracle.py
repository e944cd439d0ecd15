"""The reference event queue: one binary heap keyed on ``(cycle, seq)``.

This is the simulator's original scheduler, kept only as the oracle the
determinism suite compares the calendar queue against.  Any divergence
between the two on the same model is a kernel bug by definition.

``HeapSimulator`` overrides every scheduling entry point of
:class:`repro.engine.Simulator` and its event loop.  ``Resource`` grants
are inlined in the kernel as appends to the calendar bucket of the
current cycle, so the oracle stands a one-object stand-in in for the
calendar ring that turns those appends into heap pushes at ``now``.
"""

from heapq import heappop, heappush
from typing import Any, Callable, List, Optional

from repro.engine import Delay, Event, Process, Signal, SimulationError, Simulator
from repro.engine.sim import Interrupt, _AcquireCommand


class _NowBucket:
    """Stands in for every calendar bucket: the kernel's inlined resource
    grants index the ring at ``sim.now`` and append ``(proc, value)``."""

    __slots__ = ("sim",)

    def __init__(self, sim: "HeapSimulator"):
        self.sim = sim

    def __getitem__(self, index: int) -> "_NowBucket":
        return self

    def __bool__(self) -> bool:
        return True  # never register a calendar marker

    def append(self, entry) -> None:
        proc, value = entry
        self.sim._push(self.sim.now, proc, value, None)


class HeapSimulator(Simulator):
    """Single-heap scheduler with the calendar queue's ordering contract."""

    def __init__(self):
        super().__init__()
        self._ring = _NowBucket(self)

    def _push(self, when: int, proc: Optional[Process], value: Any,
              callback: Optional[Callable[[], None]]) -> None:
        seq = self._seq + 1
        self._seq = seq
        heappush(self._heap, (when, seq, proc, value, callback))

    def schedule(self, delay: int, callback: Callable[[], None]) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self._push(self.now + delay, None, None, callback)

    def _schedule_step(self, delay: int, proc: Process, value: Any) -> None:
        self._push(self.now + delay, proc, value, None)

    def _resume(self, proc: Process, value: Any) -> None:
        proc._waiting_on = None
        self._push(self.now, proc, value, None)

    def _resume_many(self, procs: List[Process], value: Any) -> None:
        for proc in procs:
            proc._waiting_on = None
            self._push(self.now, proc, value, None)

    def _run_events(self, until: Optional[int], max_events: Optional[int]) -> int:
        heap = self._heap
        count = 0
        while heap and not self._stopped:
            entry = heap[0]
            when = entry[0]
            if until is not None and when > until:
                self.now = until
                break
            heappop(heap)
            self.now = when
            proc = entry[2]
            if proc is not None:
                self._step(proc, entry[3])
            else:
                entry[4]()
            self._events_processed += 1
            count += 1
            if max_events is not None and count >= max_events:
                break
        else:
            if until is not None and not self._stopped:
                self.now = max(self.now, until)
        return self.now

    def _step(self, proc: Process, value: Any) -> None:
        if not proc._alive:
            return
        try:
            if proc._interrupted:
                proc._interrupted = False
                command = proc.gen.throw(Interrupt(value))
            else:
                command = proc.gen.send(value)
        except StopIteration as stop:
            proc._finish(getattr(stop, "value", None))
            return
        except Interrupt:
            proc._finish(None)
            return
        if isinstance(command, Delay):
            self._schedule_step(command.cycles, proc, None)
        elif isinstance(command, _AcquireCommand):
            command.resource._request(proc)
        elif isinstance(command, (Event, Signal, Process)):
            command._wait(proc)
        else:
            raise SimulationError(
                f"process {proc.name!r} yielded unsupported command {command!r}"
            )
