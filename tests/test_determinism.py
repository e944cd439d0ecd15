"""Determinism guarantees of the simulation kernel.

The two-tier calendar scheduler exists purely for speed: it must produce
the *identical* event ordering to the reference heap scheduler (the
oracle in ``tests/heap_oracle.py``), and any run must reproduce itself
exactly.  These tests pin both properties with
per-cycle stat traces of a full chip simulation -- the same instrument
the engine docs tell model authors to use when they suspect a
determinism bug (see ``docs/engine.md``).
"""

import pytest

from repro.engine import Resource, Simulator, delay
from repro.ixp.chip import ChipConfig, IXP1200
from repro.ixp.programs import TimedVRP
from tests.heap_oracle import HeapSimulator


def _chip_trace(sim: Simulator, until: int = 10_000, step: int = 250):
    """Per-cycle-snapshot trace of a full-pipeline run: counters plus
    memory busy time at every ``step`` cycles."""
    chip = IXP1200(ChipConfig(vrp=TimedVRP.blocks(4)), sim=sim)
    trace = []
    for t in range(0, until, step):
        sim.run(until=t)
        trace.append(
            (
                sim.now,
                tuple(sorted(chip.counters.items())),
                chip.dram.busy_cycles,
                chip.sram.busy_cycles,
                chip.scratch.busy_cycles,
                tuple(me.busy_cycles for me in chip.engines),
            )
        )
    trace.append(("events", sim._events_processed))
    return trace


def test_same_scenario_twice_is_identical():
    assert _chip_trace(Simulator()) == _chip_trace(Simulator())


def test_calendar_and_heap_schedulers_agree():
    """The fast path is an optimization, not a semantic change: both
    schedulers must produce bit-identical stat traces."""
    assert _chip_trace(Simulator()) == _chip_trace(HeapSimulator())


def test_simulator_has_no_scheduler_switch():
    """The calendar queue is the only scheduler in the library; the heap
    is a test oracle, not a runtime option."""
    with pytest.raises(TypeError):
        Simulator(scheduler="heap")
    assert not hasattr(Simulator, "_run_heap")


def test_scheduler_env_var_is_ignored(monkeypatch):
    monkeypatch.setenv("REPRO_SIM_SCHEDULER", "heap")
    assert isinstance(Simulator()._ring, list)


def test_same_cycle_fifo_across_schedulers():
    """Same-cycle wakes (resource grants, zero/equal delays) must keep
    FIFO order in both schedulers, including wakes scheduled while the
    cycle is already draining."""

    def run(sim):
        lock = Resource(sim, capacity=1)
        order = []

        def worker(wid):
            for _ in range(50):
                yield lock.acquire()
                order.append((sim.now, wid))
                yield delay(wid % 3)
                lock.release()
                yield delay(1)

        for wid in range(8):
            sim.spawn(worker(wid))
        sim.run()
        return order

    assert run(Simulator()) == run(HeapSimulator())
