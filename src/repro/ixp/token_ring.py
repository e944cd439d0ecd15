"""Token passing: the paper's serialization mechanism for the DMA state
machine and the output FIFO ordering.

"Token passing can be viewed as a simple scheduler that serializes
contexts accessing the input DMA.  The order of DMA access is made
explicit by the order in which the token is passed ...  we rotate the
token so that a context on one MicroEngine always hands the token to a
context on another MicroEngine." (section 3.2.2)

The rotation order is *fixed*: if the next holder is still busy, the
token waits for it.  This is exactly the behaviour that throttles the
input stage when per-packet work grows, so it is modeled faithfully.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Generator, List, Optional, Sequence, Tuple

from repro.engine import Event, SimulationError, Simulator, delay

#: Park idle input rings (see :class:`RingParking`).  Tests set this to
#: False before building a chip to get a ring that always spins, the
#: reference the closed form is checked against.
_PARKING = True


def interleave_across_engines(context_ids: Sequence[int], contexts_per_me: int) -> List[int]:
    """Order contexts so consecutive token holders sit on different
    MicroEngines: all first-contexts of each ME, then all second-contexts,
    and so on (ids are dense: me*contexts_per_me + slot)."""
    by_slot: List[List[int]] = [[] for __ in range(contexts_per_me)]
    for cid in context_ids:
        by_slot[cid % contexts_per_me].append(cid)
    order: List[int] = []
    for group in by_slot:
        order.extend(sorted(group))
    return order


class TokenRing:
    """A fixed-rotation token among a set of contexts."""

    def __init__(self, sim: Simulator, order: Sequence[int], pass_cycles: int = 1, name: str = ""):
        if not order:
            raise ValueError("token ring needs at least one member")
        if len(set(order)) != len(order):
            raise ValueError("token ring members must be unique")
        self.sim = sim
        self.order = list(order)
        self.pass_cycles = pass_cycles
        self.name = name
        self._position = 0
        self._waiting: dict = {}
        self._holder_active = False
        self.rotations = 0
        #: Consecutive polls that found their port empty (input rings).
        self.idle_polls = 0

    @property
    def current_holder(self) -> int:
        return self.order[self._position]

    def acquire(self, member_id: int) -> Generator:
        """Block until the token reaches ``member_id``."""
        if member_id not in self.order:
            raise ValueError(f"{member_id} is not in token ring {self.name!r}")
        while not (self.current_holder == member_id and not self._holder_active):
            event = self._waiting.get(member_id)
            if event is None or event.triggered:
                event = Event(self.sim, name=f"token-{self.name}-{member_id}")
                self._waiting[member_id] = event
            yield event
        self._holder_active = True

    def release(self, member_id: int) -> Generator:
        """Pass the token to the next member in rotation."""
        if self.current_holder != member_id or not self._holder_active:
            raise RuntimeError(
                f"context {member_id} released token it does not hold "
                f"(holder={self.current_holder})"
            )
        if self.pass_cycles:
            yield delay(self.pass_cycles)
        self._holder_active = False
        self._position = (self._position + 1) % len(self.order)
        self.rotations += 1
        event = self._waiting.pop(self.current_holder, None)
        if event is not None and not event.triggered:
            event.succeed()

    def kick(self) -> None:
        """Wake the initial holder (call once after spawning members)."""
        event = self._waiting.pop(self.current_holder, None)
        if event is not None and not event.triggered:
            event.succeed()


class RingParking:
    """Quiescence skipping for an input token ring whose ports are empty.

    An idle input context spends a fixed hop holding the token: core
    grant, context swap, port check, token pass.  Once a full rotation
    of polls has found nothing, the pass that completes it may *park*
    the ring instead of waking the next holder: every context then sits
    on its token event and the ring costs no engine events at all.

    While parked, the spinning ring's effects are known in closed form
    from the park cycle ``P``: hop ``k`` starts at ``P + k * hop`` on
    the context at ring position ``p0 + k``, charges its engine the
    swap, port-check and pass cycles at offsets ``0``, ``swap`` and
    ``swap + check``, and advances the token (``_position``,
    ``rotations``) at its end.  :meth:`settle` applies those effects to
    the ring and the engines up to a given cycle; counter readers call
    it, and so does :meth:`Simulator.run` on return.

    Every frame reaches the chip through :meth:`MACPort.deliver`, whose
    callers schedule the call in advance and announce its cycle through
    :meth:`MACPort.expect`; a seized engine core is announced the same
    way.  For each announcement the parked ring schedules one wake-up at
    a hop boundary at least two hops earlier (or, on shorter notice, the
    first boundary not in the past), then spins for real from there.  A
    delivery that reaches a parked ring unannounced raises.
    """

    def __init__(self, ring: TokenRing, engine_of: Sequence, ports: Sequence,
                 hop_steps: Sequence[Tuple[int, int]]):
        """``engine_of[i]`` runs the context at ring position ``i``;
        ``ports`` are the ports the ring polls; ``hop_steps`` lists the
        ``(offset, cycles)`` busy charges of one idle hop."""
        self.ring = ring
        self.sim = ring.sim
        self.ports = list(ports)
        self.engines = engines = list(dict.fromkeys(engine_of))
        self._cores = [me.core for me in engines]
        #: ring position -> index into ``engines``
        self._me_at = [engines.index(me) for me in engine_of]
        self._steps = tuple((offset, cycles) for offset, cycles in hop_steps if cycles)
        self.hop = sum(cycles for __, cycles in hop_steps)
        # Busy cycles one full lap of the ring charges each engine.
        self._lap_busy = [self._me_at.count(i) * self.hop for i in range(len(engines))]
        self._arrivals: List[int] = []
        self.parked = False
        self._park_cycle = 0
        self._park_position = 0
        self._park_rotations = 0
        self._settled = 0
        self._applied: List[int] = [0] * len(engines)
        self._wake_at: Optional[int] = None
        self._wake_gen = 0
        self.parks = 0

    # -- announcements ---------------------------------------------------------

    def announce(self, cycle: int) -> None:
        """Something will touch the ring's ports or engines at ``cycle``
        (a frame delivery or a core seizure)."""
        arrivals = self._arrivals
        now = self.sim.now
        while arrivals and arrivals[0] < now:
            heappop(arrivals)
        heappush(arrivals, cycle)
        if self.parked:
            self._plan_wake(cycle)

    def _plan_wake(self, cycle: int) -> None:
        now = self.sim.now
        start, hop = self._park_cycle, self.hop
        wake = start + hop * ((cycle - 2 * hop - start) // hop)
        if wake < now:
            wake = start - hop * ((start - now) // hop)
            if wake > cycle:
                raise SimulationError(
                    f"arrival at cycle {cycle} announced at {now}: too late to "
                    f"resume the parked {self.ring.name} ring at a hop boundary")
        if self._wake_at is None or wake < self._wake_at:
            self._wake_at = wake
            self._wake_gen = gen = self._wake_gen + 1
            self.sim.schedule(wake - now, lambda: self._wake(gen))

    def _wake(self, gen: int) -> None:
        if gen != self._wake_gen or not self.parked:
            return  # superseded by an earlier wake-up
        self._wake_at = None
        now = self.sim.now
        self.settle(now - 1)
        ring = self.ring
        hops = (now - self._park_cycle) // self.hop
        ring._position = position = (self._park_position + hops) % len(ring.order)
        ring.rotations = self._park_rotations + hops
        self.parked = False
        event = ring._waiting.pop(ring.order[position], None)
        if event is not None and not event._done:
            event.succeed()

    # -- parking ---------------------------------------------------------------

    def try_park(self, passer_core) -> bool:
        """Called by the input loop right after a pass that completed a
        full rotation of empty polls, instead of waking the next holder.
        Parks and returns True when the closed form is exact from here:
        every port empty, every input core free but the passer's, and the
        next announced arrival at least three hops away."""
        for port in self.ports:
            if port.rx_buffer:
                return False
        for core in self._cores:
            if core._queue or core.in_use != (core is passer_core):
                return False
        now = self.sim.now
        hop = self.hop
        arrivals = self._arrivals
        while arrivals and arrivals[0] < now:
            heappop(arrivals)
        if arrivals and arrivals[0] - 2 * hop - now < hop:
            return False
        self.parked = True
        self.parks += 1
        ring = self.ring
        self._park_cycle = now
        self._park_position = ring._position
        self._park_rotations = ring.rotations
        self._settled = now - 1
        self._applied = [0] * len(self.engines)
        self._wake_at = None
        if arrivals:
            self._plan_wake(arrivals[0])
        return True

    # -- closed form -----------------------------------------------------------

    def settle(self, through: int) -> None:
        """Apply the parked ring's virtual hops up to and including cycle
        ``through`` to the token position, ``rotations`` and the input
        engines' ``busy_cycles``.  Idempotent and monotone."""
        if not self.parked or through <= self._settled:
            return
        hops, offset = divmod(through - self._park_cycle, self.hop)
        ring = self.ring
        size = len(ring.order)
        laps, extra = divmod(hops, size)
        start = self._park_position
        me_at = self._me_at
        busy = [laps * lap for lap in self._lap_busy]
        for k in range(extra):
            busy[me_at[(start + k) % size]] += self.hop
        busy[me_at[(start + hops) % size]] += sum(
            cycles for at, cycles in self._steps if at <= offset)
        ring._position = (start + hops) % size
        ring.rotations = self._park_rotations + hops
        for me, total, applied in zip(self.engines, busy, self._applied):
            me.busy_cycles += total - applied
        self._applied = busy
        self._settled = through

    def settle_to_now(self) -> None:
        """Settle every step up to and including the current cycle (the
        simulator's return hook: all events of ``now`` have run)."""
        self.settle(self.sim.now)
