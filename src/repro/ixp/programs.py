"""The forwarding pipeline's microengine programs.

:func:`input_loop` is the paper's Figure 5, :func:`output_loop` its
Figure 6, and :func:`dram_direct_input_loop` the rejected FIFO-bypass
design of section 3.5.2 (the 2.69 Mpps ablation).  All are generators
over the :class:`~repro.ixp.microengine.MicroContext` protocol; every
named register-cycle cost comes from :class:`~repro.ixp.params.CostModel`
and the memory-operation pattern per MP matches Table 2:

* input: DRAM (0r/2w), SRAM (2r/1w), Scratch (2r/4w);
* output: DRAM (2r/0w), SRAM (0r/1w), Scratch (2r/2w).
"""

from __future__ import annotations

from typing import Dict, Generator, NamedTuple, Optional, Tuple

from repro.ixp.buffers import BufferHandle
from repro.ixp.memory import AccessJitter
from repro.ixp.microengine import MicroContext
from repro.ixp.queues import InputDiscipline, OutputDiscipline, PacketDescriptor


class WorkItem(NamedTuple):
    """One MP's worth of input work, as produced by an MP source."""

    out_port: int
    is_first: bool
    is_last: bool
    mp_count: int
    packet: object          # Packet or None in synthetic timing runs
    mp: object              # MacPacket or None
    exceptional: bool


class TimedVRP(NamedTuple):
    """The per-MP cost of the installed VRP code: what Figure 9's "code
    blocks" are made of.  ``action`` optionally transforms the packet
    (functional forwarders); timing and function are kept separate so the
    synthetic experiments can run without packets."""

    reg_cycles: int = 0
    sram_reads: int = 0
    sram_writes: int = 0
    hashes: int = 0
    action: object = None   # callable(packet, chip) -> None, or None

    @classmethod
    def blocks(cls, count: int, reg_per_block: int = 10, sram_reads_per_block: int = 1) -> "TimedVRP":
        """Figure 9/10 code blocks: N blocks of 10 register instructions
        and/or one 4-byte SRAM read each."""
        return cls(
            reg_cycles=count * reg_per_block,
            sram_reads=count * sram_reads_per_block,
        )


# Memoized per-program timed-operation sequences: the input loop runs an
# identical op stream for every MP of a given VRP, so the sequence is
# compiled once per cost signature instead of being re-derived per MP.
# Op kinds: 0 = busy(arg), 1 = hash(arg), 2 = SRAM read, 3 = SRAM write.
_VRP_OP_PLANS: Dict[Tuple[int, int, int, int], Tuple[Tuple[int, int], ...]] = {}


def vrp_op_plan(vrp: TimedVRP) -> Tuple[Tuple[int, int], ...]:
    """The timed-operation sequence for ``vrp``, in charging order."""
    key = (vrp.reg_cycles, vrp.hashes, vrp.sram_reads, vrp.sram_writes)
    plan = _VRP_OP_PLANS.get(key)
    if plan is None:
        steps = []
        if vrp.reg_cycles:
            steps.append((0, vrp.reg_cycles))
        if vrp.hashes:
            steps.append((1, vrp.hashes))
        steps.extend((2, 0) for __ in range(vrp.sram_reads))
        steps.extend((3, 0) for __ in range(vrp.sram_writes))
        plan = tuple(steps)
        _VRP_OP_PLANS[key] = plan
    return plan


def run_vrp(ctx: MicroContext, chip, vrp: Optional[TimedVRP], item: WorkItem) -> Generator:
    """Execute the installed VRP code for one MP, charging its budget."""
    if vrp is None:
        return
    for kind, arg in vrp_op_plan(vrp):
        if kind == 0:
            yield from ctx.busy(arg)
        elif kind == 1:
            yield from chip.hash_unit.use(arg)
        elif kind == 2:
            yield from ctx.mem(chip.sram, "read", "vrp.state")
        else:
            yield from ctx.mem(chip.sram, "write", "vrp.state")
    if vrp.action is not None and item.packet is not None and item.is_first:
        vrp.action(item.packet, chip)


# ---------------------------------------------------------------------------
# Input processing (Figure 5)
# ---------------------------------------------------------------------------


class _MemPlan:
    """Pre-resolved constants for one (memory, op, tag) reference site.

    The loop programs issue the same handful of memory references for
    every MP, so the per-site lookups (timing, counts key, jitter, plan
    table, channel command) are resolved once and the reference itself is
    inlined in the program frame -- every resume then crosses a single
    generator frame instead of three.  The yield/side-effect sequence is
    identical to ``MicroContext.mem``.
    """

    __slots__ = ("memory", "counts", "key", "jitter", "plans", "channel", "acquire")

    def __init__(self, memory, op: str, tag: str):
        self.memory = memory
        self.counts = memory.access_counts
        self.key = (tag, op)
        self.jitter = memory.jitter
        self.plans = memory._plans[op]
        self.channel = memory.channel
        self.acquire = memory.channel.acquire()


def input_loop(ctx: MicroContext, chip, source) -> Generator:
    """One input context's endless loop.

    Serialization: the token covers the port-readiness check and the DMA
    transfer into the input FIFO ("requests to it are not
    hardware-serialized", section 3.2).  After the token is passed, the
    context works on its private FIFO slot in parallel with the others.

    The per-MP timed-operation stream is identical on every iteration,
    so all costs, delay commands and memory-reference plans are resolved
    once up front, and the hot :class:`MicroContext` helpers (``busy``,
    ``mem``, ``yield_me``) are inlined so each simulator event resumes
    exactly one generator frame.  Every inlined block must keep the
    yield/side-effect sequence of the helper it replaces.
    """
    from repro.engine import Event, delay

    cost = chip.params.cost
    c_port_check = cost.input_port_check
    c_dma_issue = cost.input_dma_issue
    c_mp_addr_calc = cost.input_mp_addr_calc
    c_fifo_to_regs = cost.input_fifo_to_regs
    c_classify = cost.input_classify
    c_null_forwarder = cost.input_null_forwarder
    c_loop_overhead = cost.input_loop_overhead
    d_port_check = delay(c_port_check)
    d_dma_issue = delay(c_dma_issue)
    d_mp_addr_calc = delay(c_mp_addr_calc)
    d_fifo_to_regs = delay(c_fifo_to_regs)
    d_classify = delay(c_classify)
    d_hash = delay(chip.hash_unit.cycles_per_hash)
    d_null_forwarder = delay(c_null_forwarder)
    d_loop_overhead = delay(c_loop_overhead)
    input_ring = chip.input_ring
    ix_bus = chip.ix_bus
    scratch = chip.scratch
    dram = chip.dram
    hash_unit = chip.hash_unit
    me = ctx.me
    core = me.core
    core_acquire = core.acquire()
    c_issue = ctx.MEM_ISSUE_CYCLES
    d_issue = ctx._issue_delay
    c_swap = ctx._swap_cycles
    d_swap = ctx._swap_delay
    m_bufring_r = _MemPlan(scratch, "read", "input.bufring")
    m_bufring_w = _MemPlan(scratch, "write", "input.bufring")
    m_mp_w = _MemPlan(dram, "write", "input.mp")
    m_portstate_w = _MemPlan(scratch, "write", "input.portstate")
    mem_refs = (m_bufring_r, m_bufring_w, m_mp_w, m_mp_w, m_portstate_w)
    c_enqueue = cost.input_enqueue
    d_enqueue = delay(c_enqueue)
    bank = chip.bank
    private_q = bank.input_discipline is InputDiscipline.PRIVATE
    input_queue_for = bank.input_queue_for
    bank_enqueue = bank.enqueue
    m_enq_entry = _MemPlan(chip.sram, "write", "enqueue.entry")
    m_enq_ready = _MemPlan(scratch, "write", "enqueue.ready")
    enq_refs = (m_enq_entry, m_enq_ready)
    sim = ctx.sim
    cid = ctx.ctx_id
    ring_order = input_ring.order
    ring_len = len(ring_order)
    ring_waiting = input_ring._waiting
    ring_pop = ring_waiting.pop
    c_pass = input_ring.pass_cycles
    d_pass = delay(c_pass)
    token_name = f"token-{input_ring.name}-{cid}"
    # A pass that completes a full rotation of empty polls offers to
    # park the ring (see RingParking), at the cost of one int compare
    # per empty poll; without parking the threshold is out of reach.
    parking = chip.parking
    park_after = ring_len if parking is not None else 1 << 62
    if MicroContext._IX_JITTER is None:
        MicroContext._IX_JITTER = AccessJitter()
    ixj = MicroContext._IX_JITTER
    ix_mask = ixj.mask
    ix_delays = tuple(delay(me.params.ix_bus_mp_cycles + j) for j in range(ix_mask + 1))
    ix_acquire = ix_bus.acquire()
    yield from ctx.start()
    while True:
        # wait_token(input_ring), inlined: swap out, block until the
        # token reaches this context, swap back in (TokenRing.acquire).
        ctx.holding_core = False
        core.release()
        while not (ring_order[input_ring._position] == cid and not input_ring._holder_active):
            event = ring_waiting.get(cid)
            if event is None or event._done:
                event = Event(sim, name=token_name)
                ring_waiting[cid] = event
            yield event
        input_ring._holder_active = True
        yield core_acquire
        ctx.holding_core = True
        if c_swap:
            me.busy_cycles += c_swap
            yield d_swap
        # busy(c_port_check), inlined (zero-cost steps yield nothing,
        # exactly like MicroContext.busy).
        if c_port_check:
            me.busy_cycles += c_port_check
            yield d_port_check
        item = source.next_mp(ctx)
        if item is None:
            # pass_token(input_ring), inlined (TokenRing.release).
            if c_pass:
                me.busy_cycles += c_pass
                yield d_pass
            input_ring._holder_active = False
            input_ring._position = pos = (input_ring._position + 1) % ring_len
            input_ring.rotations += 1
            input_ring.idle_polls = idle = input_ring.idle_polls + 1
            if idle < park_after or not parking.try_park(core):
                event = ring_pop(ring_order[pos], None)
                if event is not None and not event._done:
                    event.succeed()
            yield from source.idle_wait(ctx)
            continue
        input_ring.idle_polls = 0
        rec = chip.recorder
        if rec.enabled and item.is_first and item.packet is not None:
            rec.record(sim.now, ctx._comp, "mac_in",
                       rec.packet_id(item.packet), item.out_port)
        # Program the DMA while holding the token (requests to the single
        # DMA state machine are not hardware-serialized, section 3.2.2);
        # the transfer itself into this context's private FIFO slot then
        # proceeds without the token, serialized by the bus.
        if c_dma_issue:
            me.busy_cycles += c_dma_issue
            yield d_dma_issue
        # pass_token(input_ring), inlined (TokenRing.release).
        if c_pass:
            me.busy_cycles += c_pass
            yield d_pass
        input_ring._holder_active = False
        input_ring._position = pos = (input_ring._position + 1) % ring_len
        input_ring.rotations += 1
        event = ring_pop(ring_order[pos], None)
        if event is not None and not event._done:
            event.succeed()
        # ix_transfer(ix_bus), inlined: block off-engine for the 64-byte
        # FIFO DMA over the IX bus.
        ctx.holding_core = False
        core.release()
        yield ix_acquire
        ixj._counter = jc = ixj._counter + 1
        yield ix_delays[(jc * 2654435761 >> 7) & ix_mask]
        ix_bus.release()
        yield core_acquire
        ctx.holding_core = True
        if c_swap:
            me.busy_cycles += c_swap
            yield d_swap

        # calculate_mp_addr(): advance the shared circular buffer ring
        # pointer (kept in Scratch; the token serialization already
        # protects it, section 3.2.3).  Then copy reg_mp_data <- IN_FIFO,
        # classify, run the VRP, and store to DRAM; each mem() below is
        # the inlined reference sequence over a pre-resolved _MemPlan.
        if c_mp_addr_calc:
            me.busy_cycles += c_mp_addr_calc
            yield d_mp_addr_calc
        mem_index = 0
        handle = None
        vrp_steps = None
        vrp = None
        while True:
            # -- shared inlined mem() over mem_refs[mem_index] ---------
            m = mem_refs[mem_index]
            me.busy_cycles += c_issue
            yield d_issue
            ctx.holding_core = False
            core.release()
            counts = m.counts
            key = m.key
            counts[key] = counts.get(key, 0) + 1
            jit = m.jitter
            jit._counter = jc = jit._counter + 1
            jv = (jc * 2654435761 >> 7) & jit.mask
            plans = m.plans
            if jv < len(plans):
                occupancy, occupancy_delay, remaining_delay = plans[jv]
            else:  # custom jitter mask wider than the memoized range
                mem_timing = m.memory.timing
                base = mem_timing.read_latency if key[1] == "read" else mem_timing.write_latency
                jittered = base + jv
                occupancy = min(mem_timing.occupancy, jittered)
                occupancy_delay = delay(occupancy)
                remaining = jittered - occupancy
                remaining_delay = delay(remaining) if remaining > 0 else None
            yield m.acquire
            m.memory.busy_cycles += occupancy
            yield occupancy_delay
            m.channel.release()
            if remaining_delay is not None:
                yield remaining_delay
            yield core_acquire
            ctx.holding_core = True
            if c_swap:
                me.busy_cycles += c_swap
                yield d_swap
            # -- between-reference program steps -----------------------
            mem_index += 1
            if mem_index == 2:
                handle = chip.alloc_buffer(item)
                # copy reg_mp_data <- IN_FIFO[c]
                if c_fifo_to_regs:
                    me.busy_cycles += c_fifo_to_regs
                    yield d_fifo_to_regs
                # yield_me(), inlined: release and re-acquire the engine.
                ctx.holding_core = False
                core.release()
                yield core_acquire
                ctx.holding_core = True
                if c_swap:
                    me.busy_cycles += c_swap
                    yield d_swap
                # protocol_processing(): classifier (hash + route-cache
                # probe + header validation) runs on every MP; the
                # functional decision is made on the first MP.
                if c_classify:
                    me.busy_cycles += c_classify
                    yield d_classify
                hash_unit.hash_count += 1
                yield d_hash
                if item.is_first:
                    item = chip.classify(item, ctx)
                    if item.packet is not None:
                        item.packet.meta["t_classified"] = ctx.sim.now
                vrp = chip.vrp_for(item)
                if vrp is not None:
                    yield from run_vrp(ctx, chip, vrp, item)
                # yield_me(), inlined: release and re-acquire the engine.
                ctx.holding_core = False
                core.release()
                yield core_acquire
                ctx.holding_core = True
                if c_swap:
                    me.busy_cycles += c_swap
                    yield d_swap
                if c_null_forwarder:
                    me.busy_cycles += c_null_forwarder
                    yield d_null_forwarder
                # falls through to the two DRAM writes (64 bytes = two
                # 32-byte transfers)
            elif mem_index == 4:
                chip.store_mp(handle, item)
                # Enqueue the packet descriptor on the first MP --
                # unless a data forwarder decided to drop the packet
                # (filter, dropper, TTL).
                dropped = item.packet is not None and item.packet.meta.get("vrp_drop", False)
                if dropped and item.is_first:
                    chip.counters["vrp_dropped"] += 1
                if item.is_first and not dropped:
                    if private_q and not item.exceptional:
                        # _enqueue's hot path (row I.1: private queue,
                        # entry write + readiness summary), inlined.
                        descriptor = PacketDescriptor(
                            handle=handle,
                            packet=item.packet,
                            mp_count=item.mp_count,
                            out_port=item.out_port,
                            enqueue_cycle=sim.now,
                        )
                        pkt = item.packet
                        priority = 0
                        if pkt is not None:
                            pkt.meta["t_enqueued"] = sim.now
                            priority = pkt.meta.get("queue_priority", 0)
                        queue = input_queue_for(
                            item.out_port, input_context=cid, priority=priority
                        )
                        if c_enqueue:
                            me.busy_cycles += c_enqueue
                            yield d_enqueue
                        for m in enq_refs:
                            # inlined mem() (see _MemPlan)
                            me.busy_cycles += c_issue
                            yield d_issue
                            ctx.holding_core = False
                            core.release()
                            counts = m.counts
                            key = m.key
                            counts[key] = counts.get(key, 0) + 1
                            jit = m.jitter
                            jit._counter = jc = jit._counter + 1
                            jv = (jc * 2654435761 >> 7) & jit.mask
                            plans = m.plans
                            if jv < len(plans):
                                occupancy, occupancy_delay, remaining_delay = plans[jv]
                            else:
                                mem_timing = m.memory.timing
                                base = (
                                    mem_timing.read_latency
                                    if key[1] == "read"
                                    else mem_timing.write_latency
                                )
                                jittered = base + jv
                                occupancy = min(mem_timing.occupancy, jittered)
                                occupancy_delay = delay(occupancy)
                                remaining = jittered - occupancy
                                remaining_delay = delay(remaining) if remaining > 0 else None
                            yield m.acquire
                            m.memory.busy_cycles += occupancy
                            yield occupancy_delay
                            m.channel.release()
                            if remaining_delay is not None:
                                yield remaining_delay
                            yield core_acquire
                            ctx.holding_core = True
                            if c_swap:
                                me.busy_cycles += c_swap
                                yield d_swap
                        if not bank_enqueue(queue, descriptor):
                            chip.note_queue_drop(item)
                    else:
                        yield from _enqueue(ctx, chip, item, handle)
                if c_loop_overhead:
                    me.busy_cycles += c_loop_overhead
                    yield d_loop_overhead
            elif mem_index == 5:
                break
        ctx.mps_processed += 1
        chip.record_input_mp(ctx, item)


def _enqueue(ctx: MicroContext, chip, item: WorkItem, handle: BufferHandle) -> Generator:
    """Insert the packet descriptor into its destination queue, using the
    configured input discipline (Table 1 rows I.1-I.3)."""
    cost = chip.params.cost
    descriptor = PacketDescriptor(
        handle=handle,
        packet=item.packet,
        mp_count=item.mp_count,
        out_port=item.out_port,
        enqueue_cycle=ctx.sim.now,
    )
    if item.packet is not None:
        item.packet.meta["t_enqueued"] = ctx.sim.now
    if item.exceptional:
        yield from ctx.busy(cost.input_enqueue)
        yield from ctx.mem(chip.sram, "write", "enqueue.sa-entry")
        yield from ctx.mem(chip.scratch, "write", "enqueue.sa-ready")
        chip.enqueue_exceptional(descriptor, item)
        return

    priority = 0
    if item.packet is not None:
        priority = item.packet.meta.get("queue_priority", 0)
    queue = chip.bank.input_queue_for(
        item.out_port, input_context=ctx.ctx_id, priority=priority
    )
    yield from ctx.busy(cost.input_enqueue)
    if chip.bank.input_discipline is InputDiscipline.PRIVATE:
        # I.1: tail pointer lives in this context's registers; only the
        # entry itself goes to SRAM, plus the readiness summary.
        yield from ctx.mem(chip.sram, "write", "enqueue.entry")
        yield from ctx.mem(chip.scratch, "write", "enqueue.ready")
    else:
        # I.2/I.3: public queue protected by the hardware mutex.  The
        # serialized section covers the lock read, the full-check read,
        # the tail read/update and the entry write -- this is what
        # collapses under all-to-one-queue contention (row I.3).
        mutex = chip.queue_mutex(queue)
        yield from ctx.lock(mutex)
        yield from ctx.mem(chip.sram, "read", "enqueue.lock")
        yield from ctx.mem(chip.sram, "read", "enqueue.fullcheck")
        yield from ctx.mem(chip.scratch, "read", "enqueue.tail")
        yield from ctx.mem(chip.sram, "write", "enqueue.entry")
        yield from ctx.mem(chip.scratch, "write", "enqueue.tail")
        ctx.unlock(mutex)
        yield from ctx.mem(chip.scratch, "write", "enqueue.ready")
    if not chip.bank.enqueue(queue, descriptor):
        chip.note_queue_drop(item)


# ---------------------------------------------------------------------------
# Output processing (Figure 6)
# ---------------------------------------------------------------------------


def output_loop(ctx: MicroContext, chip, ports) -> Generator:
    """One output context's endless loop, servicing ``ports`` (a list of
    output port ids statically assigned to this context).

    Like :func:`input_loop`, the per-MP constants, delay commands and
    memory-reference plans are resolved once and the hot helpers
    (``busy``, ``mem``, the old ``_select_and_cost`` sub-generator) are
    inlined in this frame; every inlined block keeps the helper's exact
    yield/side-effect sequence (Table 1 rows O.1-O.3, Fig 6 steps).
    """
    from repro.engine import Event, delay

    cost = chip.params.cost
    discipline = chip.bank.output_discipline
    c_token = cost.output_token
    c_move = cost.output_mp_addr + cost.output_fifo_addr
    c_dram_issue = cost.output_dram_issue
    c_fifo_copy = cost.output_fifo_copy
    c_enable_slot = cost.output_enable_slot
    c_loop_overhead = cost.output_loop_overhead
    c_dequeue = cost.output_dequeue
    c_dequeue_batched = cost.output_dequeue_batched
    c_select_batched = cost.output_select_batched
    c_select_queue = cost.output_select_queue
    c_select_multi = cost.output_select_queue + cost.output_select_multi_extra
    d_token = delay(c_token)
    d_move = delay(c_move)
    d_dram_issue = delay(c_dram_issue)
    d_fifo_copy = delay(c_fifo_copy)
    d_enable_slot = delay(c_enable_slot)
    d_loop_overhead = delay(c_loop_overhead)
    d_dequeue = delay(c_dequeue)
    d_dequeue_batched = delay(c_dequeue_batched)
    d_select_batched = delay(c_select_batched)
    d_select_queue = delay(c_select_queue)
    d_select_multi = delay(c_select_multi)
    output_ring = chip.output_ring
    ix_bus = chip.ix_bus
    scratch = chip.scratch
    dram = chip.dram
    sram = chip.sram
    batched = discipline is OutputDiscipline.SINGLE_BATCHED
    multi = discipline is OutputDiscipline.MULTI_INDIRECT
    batch_size = chip.config.batch_size
    select_output_queue = chip.select_output_queue
    bank_dequeue = chip.bank.dequeue
    me = ctx.me
    core = me.core
    core_acquire = core.acquire()
    c_issue = ctx.MEM_ISSUE_CYCLES
    d_issue = ctx._issue_delay
    c_swap = ctx._swap_cycles
    d_swap = ctx._swap_delay
    m_select_r = _MemPlan(scratch, "read", "select.bits" if multi else "select.head")
    m_commit_w = _MemPlan(sram, "write", "dequeue.commit")
    m_mp_r = _MemPlan(dram, "read", "output.mp")
    m_qstate_r = _MemPlan(scratch, "read", "output.qstate")
    m_head_w = _MemPlan(scratch, "write", "output.head")
    mem_refs = (m_commit_w, m_mp_r, m_mp_r, m_qstate_r, m_head_w)
    sim = ctx.sim
    cid = ctx.ctx_id
    ring_order = output_ring.order
    ring_len = len(ring_order)
    ring_waiting = output_ring._waiting
    ring_pop = ring_waiting.pop
    c_pass = output_ring.pass_cycles
    d_pass = delay(c_pass)
    token_name = f"token-{output_ring.name}-{cid}"
    if MicroContext._IX_JITTER is None:
        MicroContext._IX_JITTER = AccessJitter()
    ixj = MicroContext._IX_JITTER
    ix_mask = ixj.mask
    ix_delays = tuple(delay(me.params.ix_bus_mp_cycles + j) for j in range(ix_mask + 1))
    ix_acquire = ix_bus.acquire()
    yield from ctx.start()
    current: Optional[list] = None  # [descriptor, mps_remaining]
    batch_remaining = 0
    idle_streak = 0
    while True:
        # FIFO-slot ordering: acquire and immediately pass (Fig 6, 1-3).
        # wait_token(output_ring), inlined (TokenRing.acquire).
        ctx.holding_core = False
        core.release()
        while not (ring_order[output_ring._position] == cid and not output_ring._holder_active):
            event = ring_waiting.get(cid)
            if event is None or event._done:
                event = Event(sim, name=token_name)
                ring_waiting[cid] = event
            yield event
        output_ring._holder_active = True
        yield core_acquire
        ctx.holding_core = True
        if c_swap:
            me.busy_cycles += c_swap
            yield d_swap
        if c_token:
            me.busy_cycles += c_token
            yield d_token
        # pass_token(output_ring), inlined (TokenRing.release).
        if c_pass:
            me.busy_cycles += c_pass
            yield d_pass
        output_ring._holder_active = False
        output_ring._position = pos = (output_ring._position + 1) % ring_len
        output_ring.rotations += 1
        event = ring_pop(ring_order[pos], None)
        if event is not None and not event._done:
            event.succeed()

        if current is None:
            # select_queue(): pick a non-empty queue for one of this
            # context's ports, charging the discipline's cost.
            select_mem = False
            if batched:
                if batch_remaining > 0:
                    if c_select_batched:
                        me.busy_cycles += c_select_batched
                        yield d_select_batched
                else:
                    # Batch boundary: the one head-pointer check covers
                    # the batch.
                    if c_select_queue:
                        me.busy_cycles += c_select_queue
                        yield d_select_queue
                    select_mem = True
                    batch_remaining = batch_size
            elif not multi:  # SINGLE_UNBATCHED
                # Head pointer checked from memory on every iteration.
                if c_select_queue:
                    me.busy_cycles += c_select_queue
                    yield d_select_queue
                select_mem = True
                batch_remaining = 0
            else:  # MULTI_INDIRECT: readiness bit-array, then scan.
                select_mem = True
                batch_remaining = 0
            if select_mem:
                # Inlined mem() over m_select_r (see _MemPlan).
                m = m_select_r
                me.busy_cycles += c_issue
                yield d_issue
                ctx.holding_core = False
                core.release()
                counts = m.counts
                key = m.key
                counts[key] = counts.get(key, 0) + 1
                jit = m.jitter
                jit._counter = jc = jit._counter + 1
                jv = (jc * 2654435761 >> 7) & jit.mask
                plans = m.plans
                if jv < len(plans):
                    occupancy, occupancy_delay, remaining_delay = plans[jv]
                else:  # custom jitter mask wider than the memoized range
                    mem_timing = m.memory.timing
                    base = mem_timing.read_latency if key[1] == "read" else mem_timing.write_latency
                    jittered = base + jv
                    occupancy = min(mem_timing.occupancy, jittered)
                    occupancy_delay = delay(occupancy)
                    remaining = jittered - occupancy
                    remaining_delay = delay(remaining) if remaining > 0 else None
                yield m.acquire
                m.memory.busy_cycles += occupancy
                yield occupancy_delay
                m.channel.release()
                if remaining_delay is not None:
                    yield remaining_delay
                yield core_acquire
                ctx.holding_core = True
                if c_swap:
                    me.busy_cycles += c_swap
                    yield d_swap
                if multi and c_select_multi:
                    me.busy_cycles += c_select_multi
                    yield d_select_multi
            queue = select_output_queue(ports, discipline)
            if queue is None:
                # Nothing ready: back off so an idle router does not
                # busy-spin the simulator (real contexts spin; backoff
                # only engages when there is spare capacity anyway).
                idle_streak += 1
                backoff = min(200, 20 * idle_streak)
                yield from ctx.blocked(backoff)
                continue
            idle_streak = 0
            if batched and batch_remaining > 0:
                if c_dequeue_batched:
                    me.busy_cycles += c_dequeue_batched
                    yield d_dequeue_batched
            elif c_dequeue:
                me.busy_cycles += c_dequeue
                yield d_dequeue
            descriptor = bank_dequeue(queue)
            if descriptor is None:
                continue
            rec = chip.recorder
            if rec.enabled:
                rec.sample_queue(sim.now, queue.queue_id, len(queue._entries))
                rec.record(sim.now, ctx._comp, "dequeue",
                           rec.packet_id(descriptor.packet),
                           sim.now - descriptor.enqueue_cycle)
            batch_remaining = max(0, batch_remaining - 1)
            current = [descriptor, descriptor.mp_count]
            mem_index = 0  # start at the dequeue-commit SRAM write
        else:
            mem_index = 1  # mid-packet: straight to the MP move

        # Dequeue commit (Table 2 charges the output stage one SRAM write
        # per MP) then move one MP: DRAM -> output FIFO -> port memory.
        # Shared inlined mem() driver over mem_refs; the register steps
        # preceding a reference are keyed on the position about to run.
        while True:
            if mem_index == 1:
                # Address calculation and the two DRAM read issues.
                if c_move:
                    me.busy_cycles += c_move
                    yield d_move
                if c_dram_issue:
                    me.busy_cycles += c_dram_issue
                    yield d_dram_issue
            elif mem_index == 3:
                if c_fifo_copy:
                    me.busy_cycles += c_fifo_copy
                    yield d_fifo_copy
            m = mem_refs[mem_index]
            me.busy_cycles += c_issue
            yield d_issue
            ctx.holding_core = False
            core.release()
            counts = m.counts
            key = m.key
            counts[key] = counts.get(key, 0) + 1
            jit = m.jitter
            jit._counter = jc = jit._counter + 1
            jv = (jc * 2654435761 >> 7) & jit.mask
            plans = m.plans
            if jv < len(plans):
                occupancy, occupancy_delay, remaining_delay = plans[jv]
            else:  # custom jitter mask wider than the memoized range
                mem_timing = m.memory.timing
                base = mem_timing.read_latency if key[1] == "read" else mem_timing.write_latency
                jittered = base + jv
                occupancy = min(mem_timing.occupancy, jittered)
                occupancy_delay = delay(occupancy)
                remaining = jittered - occupancy
                remaining_delay = delay(remaining) if remaining > 0 else None
            yield m.acquire
            m.memory.busy_cycles += occupancy
            yield occupancy_delay
            m.channel.release()
            if remaining_delay is not None:
                yield remaining_delay
            yield core_acquire
            ctx.holding_core = True
            if c_swap:
                me.busy_cycles += c_swap
                yield d_swap
            mem_index += 1
            if mem_index == 5:
                break
        if c_enable_slot:
            me.busy_cycles += c_enable_slot
            yield d_enable_slot
        # ix_transfer(ix_bus), inlined: block off-engine for the 64-byte
        # FIFO DMA over the IX bus.
        ctx.holding_core = False
        core.release()
        yield ix_acquire
        ixj._counter = jc = ixj._counter + 1
        yield ix_delays[(jc * 2654435761 >> 7) & ix_mask]
        ix_bus.release()
        yield core_acquire
        ctx.holding_core = True
        if c_swap:
            me.busy_cycles += c_swap
            yield d_swap
        if c_loop_overhead:
            me.busy_cycles += c_loop_overhead
            yield d_loop_overhead
        ctx.mps_processed += 1

        current[1] -= 1
        chip.record_output_mp(ctx, current[0])
        if current[1] <= 0:
            chip.complete_packet(current[0])
            current = None


# ---------------------------------------------------------------------------
# Ablation: FIFO bypass via DRAM (section 3.5.2, "saturated DRAM while
# forwarding 2.69 Mpps")
# ---------------------------------------------------------------------------


def dram_direct_input_loop(ctx: MicroContext, chip, source) -> Generator:
    """The rejected design: ports transfer packets directly to and from
    DRAM, so each 64-byte MP costs four DRAM accesses on the input side
    alone (port->DRAM, DRAM->registers, registers->DRAM) plus the output
    side's DRAM->port; the memory channel, not the engines, saturates.
    """
    cost = chip.params.cost
    yield from ctx.start()
    while True:
        yield from ctx.wait_token(chip.input_ring)
        yield from ctx.busy(cost.input_port_check)
        item = source.next_mp(ctx)
        if item is None:
            yield from ctx.pass_token(chip.input_ring)
            yield from source.idle_wait(ctx)
            continue
        yield from ctx.busy(cost.input_dma_issue)
        yield from ctx.pass_token(chip.input_ring)
        # port -> DRAM (done by the DMA, but the accesses hit the channel)
        yield from ctx.mem(chip.dram, "write", "direct.port-to-dram")
        yield from ctx.mem(chip.dram, "write", "direct.port-to-dram")
        handle = chip.alloc_buffer(item)
        # DRAM -> registers
        yield from ctx.mem(chip.dram, "read", "direct.dram-to-regs")
        yield from ctx.mem(chip.dram, "read", "direct.dram-to-regs")
        yield from ctx.busy(cost.input_classify)
        yield from chip.hash_unit.use(1)
        if item.is_first:
            item = chip.classify(item, ctx)
        yield from ctx.busy(cost.input_null_forwarder)
        # registers -> DRAM
        yield from ctx.mem(chip.dram, "write", "direct.regs-to-dram")
        yield from ctx.mem(chip.dram, "write", "direct.regs-to-dram")
        chip.store_mp(handle, item)
        if item.is_first:
            yield from _enqueue(ctx, chip, item, handle)
        yield from ctx.busy(cost.input_loop_overhead)
        yield from ctx.mem(chip.scratch, "write", "input.portstate")
        ctx.mps_processed += 1
        chip.record_input_mp(ctx, item)
