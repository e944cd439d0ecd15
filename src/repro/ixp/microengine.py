"""MicroEngines and their hardware contexts.

Each of the six MicroEngines runs one context at a time; a context
executes register instructions until it issues a memory reference, then
swaps out so a sibling context can run while the reference completes --
the latency-hiding discipline the whole paper is built on.

A context program is a generator using the :class:`MicroContext` helper
methods; the rules are:

* ``yield from ctx.busy(n)`` -- execute ``n`` register cycles (must hold
  the engine; all the named costs in :class:`~repro.ixp.params.CostModel`
  are spent this way);
* ``yield from ctx.mem(memory, "read"/"write", tag)`` -- issue a memory
  reference: a few issue cycles on the engine, swap out, block for the
  (possibly queued) access, swap back in;
* ``yield from ctx.wait_token(ring)`` / ``ctx.pass_token(ring)`` -- block
  for the serialization token without occupying the engine;
* ``yield from ctx.ix_transfer()`` -- a 64-byte FIFO DMA over the IX bus.
"""

from __future__ import annotations

from typing import Generator, List

from repro.engine import Resource, Simulator, delay
from repro.ixp.memory import Memory
from repro.ixp.params import IXPParams
from repro.ixp.token_ring import TokenRing
from repro.obs.recorder import NULL_RECORDER


class MicroEngine:
    """One MicroEngine: a single-issue core shared by four contexts."""

    #: The :class:`~repro.ixp.token_ring.RingParking` of the input ring
    #: this engine runs, if any: it keeps ``busy_cycles`` in closed form
    #: while the ring is parked, and takes notice of core seizures.
    parking = None

    def __init__(self, sim: Simulator, me_id: int, params: IXPParams):
        self.sim = sim
        self.me_id = me_id
        self.params = params
        self.core = Resource(sim, capacity=1, name=f"me{me_id}")
        self.contexts: List["MicroContext"] = []
        self.busy_cycles = 0
        self.enabled = True
        self.recorder = NULL_RECORDER

    def new_context(self) -> "MicroContext":
        if len(self.contexts) >= self.params.contexts_per_me:
            raise RuntimeError(f"ME{self.me_id} already has {len(self.contexts)} contexts")
        ctx = MicroContext(self, len(self.contexts))
        self.contexts.append(ctx)
        return ctx

    def utilization(self, window_cycles: int) -> float:
        if window_cycles <= 0:
            return 0.0
        if self.parking is not None:
            self.parking.settle(self.sim.now - 1)
        return min(1.0, self.busy_cycles / window_cycles)


class MicroContext:
    """One hardware context; carries the execution-helper protocol."""

    # Register cycles an instruction that launches a memory reference
    # spends on the engine before the context swaps out.  On the IXP1200
    # a reference is a single instruction (operands sit in the context's
    # transfer registers).
    MEM_ISSUE_CYCLES = 1

    def __init__(self, me: MicroEngine, slot: int):
        self.me = me
        self.slot = slot
        self.ctx_id = me.me_id * me.params.contexts_per_me + slot
        self.sim = me.sim
        self.holding_core = False
        self.mps_processed = 0
        self.packets_processed = 0
        # Memoized timed-operation pieces: every context swap and memory
        # issue costs the same cycles for the life of the context, so the
        # command objects are resolved once instead of per reference.
        self._swap_cycles = me.params.context_swap_cycles
        self._swap_delay = delay(self._swap_cycles) if self._swap_cycles else None
        self._issue_delay = delay(self.MEM_ISSUE_CYCLES)
        self._core = me.core
        self._comp = f"me{me.me_id}.ctx{slot}"

    # -- engine possession ----------------------------------------------------

    def start(self) -> Generator:
        """Take the engine for the first time (call at program start)."""
        yield self.me.core.acquire()
        self.holding_core = True

    def _swap_out(self) -> None:
        if not self.holding_core:
            raise RuntimeError(f"context {self.ctx_id} swapped out while not running")
        self.holding_core = False
        self.me.core.release()

    def _swap_in(self) -> Generator:
        yield self._core.acquire()
        self.holding_core = True
        if self._swap_cycles:
            self.me.busy_cycles += self._swap_cycles
            yield self._swap_delay

    # -- execution -------------------------------------------------------------

    def busy(self, cycles: int) -> Generator:
        """Register instructions: the engine is occupied throughout."""
        if cycles < 0:
            raise ValueError(f"negative busy cycles: {cycles}")
        if not self.holding_core:
            raise RuntimeError(f"context {self.ctx_id} executing without the engine")
        if cycles:
            self.me.busy_cycles += cycles
            rec = self.me.recorder
            if rec.enabled:
                rec.account(self._comp, "busy", cycles)
            yield delay(cycles)

    def mem(self, memory: Memory, op: str, tag: str = "") -> Generator:
        """A memory reference: issue on the engine, swap out for the
        access, swap back in when the data returns.

        This is the hottest program operation, so the sub-steps (issue
        cycles, swap-out, access, swap-in) are inlined rather than
        delegated -- the yielded command sequence is identical.
        """
        me = self.me
        if not self.holding_core:
            raise RuntimeError(f"context {self.ctx_id} executing without the engine")
        rec = me.recorder
        observing = rec.enabled
        me.busy_cycles += self.MEM_ISSUE_CYCLES
        yield self._issue_delay
        self.holding_core = False
        me.core.release()
        if observing:
            t0 = self.sim.now
        # Inlined Memory._access (saves a generator frame per resume on
        # the dominant operation); the yield/side-effect sequence must
        # stay identical to Memory.read()/write().
        if op == "read":
            base = memory.timing.read_latency
        elif op == "write":
            base = memory.timing.write_latency
        else:
            raise ValueError(f"bad memory op {op!r}")
        counts = memory.access_counts
        key = (tag or f"ctx{self.ctx_id}", op)
        counts[key] = counts.get(key, 0) + 1
        jit = memory.jitter
        jit._counter = c = jit._counter + 1
        jitter_value = (c * 2654435761 >> 7) & jit.mask
        plans = memory._plans[op]
        if jitter_value < len(plans):
            occupancy, occupancy_delay, remaining_delay = plans[jitter_value]
        else:  # custom jitter mask wider than the memoized range
            jittered = base + jitter_value
            occupancy = min(memory.timing.occupancy, jittered)
            occupancy_delay = delay(occupancy)
            remaining = jittered - occupancy
            remaining_delay = delay(remaining) if remaining > 0 else None
        yield memory.channel.acquire()
        memory.busy_cycles += occupancy
        yield occupancy_delay
        memory.channel.release()
        if remaining_delay is not None:
            yield remaining_delay
        yield self._core.acquire()
        self.holding_core = True
        if observing:
            rec.account(self._comp, "mem_stall", self.sim.now - t0)
        if self._swap_cycles:
            me.busy_cycles += self._swap_cycles
            yield self._swap_delay

    def yield_me(self) -> Generator:
        """Voluntary context arbitration (``ctx_arb``): give waiting
        siblings -- and above all an incoming token holder -- a chance to
        run.  Real microcode reaches an arbitration point every handful of
        instructions; the loop programs insert these at the natural
        protocol-processing boundaries so simulated busy runs do not
        monopolize an engine for unrealistically long stretches."""
        self._swap_out()
        yield from self._swap_in()

    def blocked(self, cycles: int) -> Generator:
        """Block off-engine for a fixed time (e.g. a DMA transfer)."""
        self._swap_out()
        if cycles:
            yield delay(cycles)
        yield from self._swap_in()

    def blocked_on(self, resource: Resource, hold_cycles: int) -> Generator:
        """Block off-engine while acquiring and holding ``resource``."""
        self._swap_out()
        yield resource.acquire()
        if hold_cycles:
            yield delay(hold_cycles)
        resource.release()
        yield from self._swap_in()

    # -- hardware mutex -----------------------------------------------------------

    def lock(self, resource: Resource) -> Generator:
        """Block (off-engine) until the hardware mutex is granted.  The
        IXP1200's SRAM-region mutexes block without generating memory
        traffic, unlike a test-and-set spin loop."""
        self._swap_out()
        yield resource.acquire()
        yield from self._swap_in()

    def unlock(self, resource: Resource) -> None:
        resource.release()

    # -- token ring --------------------------------------------------------------

    def wait_token(self, ring: TokenRing) -> Generator:
        """Swap out until the serialization token reaches this context."""
        self._swap_out()
        yield from ring.acquire(self.ctx_id)
        yield from self._swap_in()

    def pass_token(self, ring: TokenRing) -> Generator:
        """Hand the token to the next context in rotation (single-cycle
        on-chip signal; the engine is not released)."""
        if not self.holding_core:
            raise RuntimeError(f"context {self.ctx_id} passing token while not running")
        self.me.busy_cycles += ring.pass_cycles
        yield from ring.release(self.ctx_id)

    # -- IX bus --------------------------------------------------------------------

    _IX_JITTER = None  # class-level shared dither (see AccessJitter)

    def ix_transfer(self, ix_bus: Resource) -> Generator:
        """Move one 64-byte MP between a FIFO and port memory: the context
        blocks (off-engine) for the bus transfer."""
        from repro.ixp.memory import AccessJitter

        if MicroContext._IX_JITTER is None:
            MicroContext._IX_JITTER = AccessJitter()
        self._swap_out()
        yield ix_bus.acquire()
        yield delay(self.me.params.ix_bus_mp_cycles + MicroContext._IX_JITTER.next())
        ix_bus.release()
        yield from self._swap_in()

    def __repr__(self) -> str:
        return f"<MicroContext {self.ctx_id} (ME{self.me.me_id}.{self.slot})>"
