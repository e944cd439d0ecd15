"""Periodic cycle-accounting sampler.

Most busy-cycle attribution arrives through per-operation hooks (the
MicroContext helpers, the hosts' busy charges).  The main loop programs,
however, are fully inlined for speed and charge ``me.busy_cycles``
directly -- the sampler turns those aggregate counters into the busy
*time series* the bottleneck analyses need, without touching the hot
path: it is only spawned when observability is enabled.

The samplers below call recorder hooks without per-call ``.enabled``
guards because the whole process is gated at spawn time -- a disabled
run never creates it, so the guard would be dead code on a warm path.
"""
# repro-lint: file-disable=RPR202  (process-level gating, see docstring)

from __future__ import annotations

from typing import Generator, List, Tuple

from repro.engine import delay
from repro.obs.recorder import Recorder

DEFAULT_SAMPLE_PERIOD = 2_000  # cycles between utilization samples


def chip_sampler(chip, recorder: Recorder, period: int = DEFAULT_SAMPLE_PERIOD) -> Generator:
    """Sample per-engine and per-memory busy deltas, plus queue depths,
    every ``period`` cycles.  Deltas are normalized to utilization over
    the period so the series reads directly as busy fraction."""
    if period < 1:
        raise ValueError(f"sample period must be >= 1, got {period}")
    sim = chip.sim
    d = delay(period)
    engines = [me for me in chip.engines if me.contexts]
    memories = [("dram", chip.dram), ("sram", chip.sram), ("scratch", chip.scratch)]
    chip.settle_counters()
    last_me: List[int] = [me.busy_cycles for me in engines]
    last_mem: List[int] = [mem.busy_cycles for __, mem in memories]
    while True:
        yield d
        now = sim.now
        chip.settle_counters()
        for i, me in enumerate(engines):
            busy = me.busy_cycles
            util = (busy - last_me[i]) / period
            last_me[i] = busy
            recorder.sample_series(f"me{me.me_id}.utilization", now, util)
            recorder.account(f"me{me.me_id}", "busy", util * period)
        for i, (name, mem) in enumerate(memories):
            busy = mem.busy_cycles
            util = (busy - last_mem[i]) / period
            last_mem[i] = busy
            recorder.sample_series(f"{name}.utilization", now, util)
            recorder.account(name, "busy", util * period)
        for queue in chip.bank.queues:
            recorder.sample_queue(now, queue.queue_id, len(queue))


def host_sampler(sim, recorder: Recorder,
                 probes: List[Tuple[str, object, str, float]],
                 period: int = DEFAULT_SAMPLE_PERIOD) -> Generator:
    """Sample arbitrary busy-cycle counters: ``probes`` is a list of
    (component, object, attribute, to_sim_cycles) tuples; the scale
    converts host clocks (e.g. 733 MHz Pentium cycles) into simulation
    cycles so all utilization series share one unit."""
    d = delay(period)
    last = [getattr(obj, attr) for __, obj, attr, __s in probes]
    while True:
        yield d
        now = sim.now
        for i, (component, obj, attr, scale) in enumerate(probes):
            busy = getattr(obj, attr)
            util = (busy - last[i]) * scale / period
            last[i] = busy
            recorder.sample_series(f"{component}.utilization", now, util)
