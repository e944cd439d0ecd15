"""Micro-benchmark for the event kernel itself: events/second under the
three loads the simulator hot path is built around.

* **pure-Delay churn** -- every process re-arms a short Delay, the
  calendar ring's bread and butter (no heap traffic at all);
* **same-cycle wake storm** -- one Signal wakes a large waiter set on
  the same cycle, exercising the batched wake path;
* **resource contention** -- a capacity-1 Resource ping-pongs grants,
  exercising the inlined grant/release scheduling.

No paper numbers here: this is a perf baseline for future engine PRs.
The assertions are loose order-of-magnitude floors so the bench fails on
a catastrophic kernel regression without being hostage to CI hardware.
"""

import time

from conftest import report, run_once
from tests.heap_oracle import HeapSimulator

from repro.engine import Resource, Signal, Simulator, delay

WINDOW = 50_000


def _run(build):
    sim, until = build()
    t0 = time.perf_counter()
    sim.run(until=until)
    elapsed = time.perf_counter() - t0
    return sim._events_processed, elapsed


def _delay_churn():
    sim = Simulator()

    def ticker(period):
        d = delay(period)
        while True:
            yield d

    for i in range(64):
        sim.spawn(ticker(1 + i % 7))
    return sim, WINDOW


def _wake_storm():
    sim = Simulator()
    sig = Signal(sim)

    def waiter():
        while True:
            yield sig

    def firer():
        d = delay(5)
        while True:
            yield d
            sig.fire()

    for _ in range(128):
        sim.spawn(waiter())
    sim.spawn(firer())
    return sim, WINDOW


def _resource_contention():
    sim = Simulator()
    lock = Resource(sim, capacity=1)

    def worker(wid):
        hold = delay(1 + wid % 3)
        gap = delay(1)
        while True:
            yield lock.acquire()
            yield hold
            lock.release()
            yield gap

    for wid in range(32):
        sim.spawn(worker(wid))
    return sim, WINDOW


SCENARIOS = [
    ("pure-Delay churn", _delay_churn),
    ("same-cycle wake storm", _wake_storm),
    ("resource contention", _resource_contention),
]


def test_engine_kernel_events_per_second(benchmark):
    def run_all():
        return {name: _run(build) for name, build in SCENARIOS}

    results = run_once(benchmark, run_all)
    report(
        benchmark,
        "Engine kernel: events/second by load",
        [
            (name, None, round(events / elapsed))
            for name, (events, elapsed) in results.items()
        ],
        header=("scenario", "paper", "events/s"),
    )
    for name, (events, elapsed) in results.items():
        # The scenario really exercised the kernel...
        assert events > 50_000, name
        # ...and throughput is not catastrophically off (the kernel does
        # several hundred thousand events/s on commodity hardware).
        assert events / elapsed > 50_000, name


def test_engine_kernel_schedulers_agree_on_event_count(benchmark):
    """The calendar queue and the reference heap oracle run the exact
    same event stream (the determinism suite pins ordering; this pins the
    count at benchmark scale)."""

    def run_both():
        counts = {}
        for scheduler, make in (("calendar", Simulator), ("heap", HeapSimulator)):
            sim = make()

            def ticker(period):
                d = delay(period)
                while True:
                    yield d

            for i in range(16):
                sim.spawn(ticker(1 + i % 5))
            sim.run(until=20_000)
            counts[scheduler] = sim._events_processed
        return counts

    counts = run_once(benchmark, run_both)
    assert counts["calendar"] == counts["heap"]
