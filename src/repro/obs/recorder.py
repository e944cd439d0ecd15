"""The recorder protocol: where every observability hook reports.

Two implementations share one duck-typed API:

* :class:`NullRecorder` -- the default.  Every hook in the simulator,
  the chip, the loop programs and the hosts is guarded by a single
  ``recorder.enabled`` attribute check, so the disabled path costs one
  attribute load per *packet-level* operation (never per simulator
  event) and allocates nothing.
* :class:`Recorder` -- the live implementation: a bounded ring buffer
  of :class:`TraceEvent` spans, per-component cycle accounting, and
  per-queue depth time series sampled on enqueue/dequeue.

Determinism contract: given a deterministic simulation, the recorded
event stream is bit-identical across runs and event-queue implementations --
:func:`repro.obs.export.trace_hash` is the enforcement instrument
(see ``tests/test_obs.py`` alongside ``tests/test_determinism.py``).
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Tuple


class TraceEvent(NamedTuple):
    """One span of a packet's lifecycle (or a component-level marker)."""

    cycle: int
    component: str      # "me0.ctx1", "strongarm", "pentium", "sim", ...
    event: str          # "mac_in", "classify", "enqueue", "mac_out", ...
    packet_id: Optional[int]
    detail: Any         # small scalar payload (queue id, wait cycles, ...)


class RingBuffer:
    """Fixed-capacity append-only ring; overwrites the oldest entries.

    ``dropped`` counts overwritten entries so exports can state their
    coverage honestly (no silent truncation).
    """

    __slots__ = ("capacity", "_items", "_start", "dropped")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"ring capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._items: List[Any] = []
        self._start = 0
        self.dropped = 0

    def append(self, item: Any) -> None:
        if len(self._items) < self.capacity:
            self._items.append(item)
        else:
            self._items[self._start] = item
            self._start = (self._start + 1) % self.capacity
            self.dropped += 1

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        items = self._items
        start = self._start
        for i in range(len(items)):
            yield items[(start + i) % len(items)]

    def to_list(self) -> List[Any]:
        return list(self)


class NullRecorder:
    """The disabled path: every method is a no-op.

    Hooks must check ``enabled`` *before* doing any work (computing a
    packet id, reading ``sim.now`` twice, formatting a component name),
    so with the null recorder installed the only cost is the check.
    """

    __slots__ = ()
    enabled = False
    dropped_events = 0

    def record(self, cycle: int, component: str, event: str,
               packet_id: Optional[int] = None, detail: Any = None) -> None:
        pass

    def account(self, component: str, state: str, cycles: float) -> None:
        pass

    def sample_queue(self, cycle: int, queue_id: int, depth: int) -> None:
        pass

    def sample_series(self, name: str, cycle: int, value: float) -> None:
        pass

    def packet_id(self, packet: Any) -> Optional[int]:
        return None

    # Query surface: empty answers, so tooling that reads whichever
    # recorder a run ended up with (``repro.obs.profile``) never has to
    # special-case the disabled path.  ``repro lint`` rule RPR201 keeps
    # this list in sync with :class:`Recorder`.

    def packet_timeline(self, packet_id: int) -> List["TraceEvent"]:
        return []

    def stage_summary(self) -> Dict[Tuple[str, str], int]:
        return {}

    def utilization(self, window_cycles: int) -> Dict[str, Dict[str, float]]:
        return {}

    def queue_depth_stats(self) -> Dict[int, Dict[str, float]]:
        return {}

    def to_dict(self) -> Dict[str, Any]:
        return {
            "events": [],
            "events_dropped": 0,
            "dropped_events": 0,
            "accounting": {},
            "queue_series": {},
            "timeseries": {},
        }


#: Module-level singleton shared by every component's default hook slot.
NULL_RECORDER = NullRecorder()


class Recorder:
    """The live observability sink.

    * ``record`` -- packet lifecycle spans into a bounded ring buffer;
    * ``account`` -- busy/idle/stall cycle attribution per component;
    * ``sample_queue`` -- queue-depth time series on enqueue/dequeue;
    * ``sample_series`` -- generic named time series (utilization
      samples from the periodic sampler process).
    """

    enabled = True

    def __init__(self, capacity: int = 65_536, series_capacity: int = 8_192):
        self.events = RingBuffer(capacity)
        self.series_capacity = series_capacity
        self.accounting: Dict[str, Dict[str, float]] = {}
        self.queue_series: Dict[int, RingBuffer] = {}
        self.timeseries: Dict[str, RingBuffer] = {}
        self._next_packet_id = 0

    # -- hooks ------------------------------------------------------------

    def record(self, cycle: int, component: str, event: str,
               packet_id: Optional[int] = None, detail: Any = None) -> None:
        self.events.append(TraceEvent(cycle, component, event, packet_id, detail))

    def account(self, component: str, state: str, cycles: float) -> None:
        states = self.accounting.get(component)
        if states is None:
            states = self.accounting[component] = {}
        states[state] = states.get(state, 0.0) + cycles

    def sample_queue(self, cycle: int, queue_id: int, depth: int) -> None:
        series = self.queue_series.get(queue_id)
        if series is None:
            series = self.queue_series[queue_id] = RingBuffer(self.series_capacity)
        series.append((cycle, depth))

    def sample_series(self, name: str, cycle: int, value: float) -> None:
        series = self.timeseries.get(name)
        if series is None:
            series = self.timeseries[name] = RingBuffer(self.series_capacity)
        series.append((cycle, value))

    def packet_id(self, packet: Any) -> Optional[int]:
        """A stable per-recorder id for ``packet`` (assigned on first
        sight, in deterministic simulation order); None for synthetic
        MPs that carry no packet."""
        if packet is None:
            return None
        pid = packet.meta.get("trace_id")
        if pid is None:
            pid = self._next_packet_id
            self._next_packet_id = pid + 1
            packet.meta["trace_id"] = pid
        return pid

    # -- queries ----------------------------------------------------------

    @property
    def dropped_events(self) -> int:
        """Spans lost to ring-buffer eviction.  Non-zero means the trace
        no longer covers the whole run: packet *starts* are the first to
        go, so analytics must flag their output as truncated rather than
        silently reporting too-short latencies."""
        return self.events.dropped

    def packet_timeline(self, packet_id: int) -> List[TraceEvent]:
        """All recorded spans for one packet, in cycle order."""
        return [e for e in self.events if e.packet_id == packet_id]

    def stage_summary(self) -> Dict[Tuple[str, str], int]:
        """Event counts per (component, event) pair."""
        out: Dict[Tuple[str, str], int] = {}
        for e in self.events:
            key = (e.component, e.event)
            out[key] = out.get(key, 0) + 1
        return out

    def utilization(self, window_cycles: int) -> Dict[str, Dict[str, float]]:
        """Accounting normalized by a measurement window: each component
        gets busy/idle fractions (idle derived as the remainder when the
        attributed states do not already cover the window)."""
        out: Dict[str, Dict[str, float]] = {}
        if window_cycles <= 0:
            return out
        for component, states in self.accounting.items():
            fractions = {state: cycles / window_cycles for state, cycles in states.items()}
            covered = sum(v for k, v in fractions.items() if k != "idle")
            fractions.setdefault("idle", max(0.0, 1.0 - covered))
            out[component] = fractions
        return out

    def queue_depth_stats(self) -> Dict[int, Dict[str, float]]:
        """Per-queue occupancy summary from the sampled series."""
        out: Dict[int, Dict[str, float]] = {}
        for queue_id, series in self.queue_series.items():
            depths = [depth for __, depth in series]
            if not depths:
                continue
            out[queue_id] = {
                "samples": float(len(depths)),
                "mean_depth": sum(depths) / len(depths),
                "max_depth": float(max(depths)),
                "last_depth": float(depths[-1]),
            }
        return out

    # -- export ------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready structure (callers should pass it through
        :func:`repro.obs.export.dumps` to guarantee valid JSON)."""
        return {
            "events": [list(e) for e in self.events],
            "events_dropped": self.dropped_events,
            "dropped_events": self.dropped_events,
            "accounting": self.accounting,
            "queue_series": {
                str(qid): series.to_list() for qid, series in self.queue_series.items()
            },
            "timeseries": {
                name: series.to_list() for name, series in self.timeseries.items()
            },
        }
