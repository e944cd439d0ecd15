"""MAC port model: the ten Ethernet ports on the IXP1200 evaluation board.

Each port paces arriving frames at its line speed, segments them into MPs
and holds them in a small device buffer that the MicroEngine input loop
must drain "at a rate that keeps pace with each port's line speed".
A full device buffer drops packets -- the failure the paper's line-speed
requirement exists to prevent.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Deque, Iterable, Iterator, List, Optional, Tuple

from repro.engine import Delay, SimulationError, Simulator, StatSet
from repro.faults.injector import NULL_INJECTOR, RX_DROP, RX_DUPLICATE
from repro.net.ethernet import wire_bits
from repro.net.mp import MacPacket, reassemble_mps, segment_packet
from repro.net.packet import Packet


class PortSpeed(enum.Enum):
    """Line speeds available on the evaluation board."""

    MBPS_100 = 100_000_000
    GBPS_1 = 1_000_000_000

    @property
    def bps(self) -> int:
        return self.value


# The board: 8 x 100 Mbps + 2 x 1 Gbps (paper section 2.2).
EVALUATION_BOARD_PORTS: Tuple[PortSpeed, ...] = (PortSpeed.MBPS_100,) * 8 + (PortSpeed.GBPS_1,) * 2


class MACPort:
    """One Ethernet port with receive pacing and a bounded device buffer."""

    #: Fault-injection hook (link flaps, wire corruption, drop,
    #: duplication).  The class-level null object costs one attribute
    #: check per delivered frame when injection is off.
    injector = NULL_INJECTOR

    #: The :class:`~repro.ixp.token_ring.RingParking` of the input ring
    #: that polls this port, if any (set by the chip).
    parking = None

    def __init__(
        self,
        sim: Simulator,
        port_id: int,
        speed: PortSpeed = PortSpeed.MBPS_100,
        clock_hz: float = 200e6,
        rx_buffer_mps: int = 32,
    ):
        self.sim = sim
        self.port_id = port_id
        self.speed = speed
        self.clock_hz = clock_hz
        self.rx_buffer_mps = rx_buffer_mps
        self.rx_buffer: Deque[MacPacket] = deque()
        self.tx_partial: List[MacPacket] = []
        self.transmitted: List[Packet] = []
        self.stats = StatSet(f"port{port_id}")
        self._tx_wire_free_at = 0
        self._source_proc = None
        # Called with (packet, frame_bytes) for every transmitted frame
        # (trace capture, monitoring).
        self.tx_listeners = []

    # -- receive side -------------------------------------------------------

    def frame_cycles(self, frame_len: int) -> int:
        """Cycles a frame of ``frame_len`` bytes occupies the wire."""
        seconds = wire_bits(frame_len) / self.speed.bps
        return max(1, round(seconds * self.clock_hz))

    def attach_source(self, packets: Iterable[Packet]) -> None:
        """Start a process that delivers ``packets`` at line speed."""
        self._source_proc = self.sim.spawn(self._rx_process(iter(packets)), name=f"rx-port{self.port_id}")

    def _rx_process(self, packets: Iterator[Packet]) -> Iterator:
        for packet in packets:
            frame = packet.to_bytes()
            cycles = self.frame_cycles(len(frame) + 4)  # +FCS on the wire
            self.expect(self.sim.now + cycles)
            yield Delay(cycles)
            packet.arrival_port = self.port_id
            self.deliver(packet, frame)

    def expect(self, cycle: int) -> None:
        """Announce a :meth:`deliver` call at ``cycle``.  Every caller
        that schedules a delivery calls this as soon as it knows the
        cycle, so a parked input ring resumes spinning before the frame
        lands (see :class:`~repro.ixp.token_ring.RingParking`)."""
        if self.parking is not None:
            self.parking.announce(cycle)

    def deliver(self, packet: Packet, frame: Optional[bytes] = None) -> bool:
        """Immediate delivery of one frame (bypasses pacing).  Returns False
        if the device buffer overflowed and the packet was dropped.  The
        call must have been announced with :meth:`expect` unless the
        polling input ring is known to be spinning (e.g. at cycle 0)."""
        parking = self.parking
        if parking is not None and parking.parked:
            raise SimulationError(
                f"unannounced delivery to port {self.port_id} at cycle "
                f"{self.sim.now} while its input ring is parked; call "
                f"expect() when scheduling the delivery")
        duplicate = None
        inj = self.injector
        if inj.enabled:
            verdict = inj.on_rx(self, packet)
            if verdict:
                if verdict == RX_DROP:
                    # Lost on the wire or behind a downed link: the frame
                    # never reaches the device buffer.
                    self.stats.counter("rx_fault_dropped").add()
                    return False
                if verdict == RX_DUPLICATE:
                    duplicate = packet.copy()
                    duplicate.meta["fault_duplicate"] = True
                # RX_CORRUPT: the injector mutated the header in place;
                # the frame arrives and must fail validation downstream.
        mps = segment_packet(packet, frame, port=self.port_id)
        if len(self.rx_buffer) + len(mps) > self.rx_buffer_mps:
            self.stats.counter("rx_dropped_packets").add()
            return False
        packet.meta["t_arrived"] = self.sim.now
        self.rx_buffer.extend(mps)
        self.stats.counter("rx_packets").add()
        self.stats.counter("rx_mps").add(len(mps))
        if duplicate is not None:
            self.deliver(duplicate, frame)
        return True

    def port_rdy(self) -> bool:
        """The input loop's readiness test (Fig. 5 line 2)."""
        return bool(self.rx_buffer)

    def take_mp(self) -> MacPacket:
        """Remove the next MP from the device buffer (the DMA's read)."""
        return self.rx_buffer.popleft()

    # -- transmit side -------------------------------------------------------

    def tx_ready(self, now: int) -> bool:
        """Whether the wire can accept another frame: the MAC drains its
        transmit slots at line speed, so the output stage must pace
        itself to each port ("fill the output slot at a rate that keeps
        pace with each port's line speed")."""
        return self._tx_wire_free_at <= now

    def put_mp(self, mp: MacPacket) -> None:
        """Accept an MP from the output FIFO DMA; reassembles frames and
        records completed packets.  Completing a frame occupies the wire
        for its line-rate serialization time."""
        self.tx_partial.append(mp)
        if mp.position.ends_packet:
            frame = reassemble_mps(self.tx_partial)
            self.tx_partial = []
            self.stats.counter("tx_packets").add()
            self.stats.counter("tx_bytes").add(len(frame))
            now = self.sim.now
            self._tx_wire_free_at = max(self._tx_wire_free_at, now) + self.frame_cycles(
                len(frame) + 4
            )
            if mp.packet is not None:
                self.transmitted.append(mp.packet)
            for listener in self.tx_listeners:
                listener(mp.packet, frame)

    @property
    def tx_count(self) -> int:
        return self.stats.counter("tx_packets").value

    def __repr__(self) -> str:
        return f"<MACPort {self.port_id} {self.speed.name}>"


def make_board_ports(
    sim: Simulator,
    clock_hz: float = 200e6,
    speeds: Optional[Iterable[PortSpeed]] = None,
) -> List[MACPort]:
    """The evaluation-board port set (8 x 100 Mbps + 2 x 1 Gbps)."""
    speeds = tuple(speeds) if speeds is not None else EVALUATION_BOARD_PORTS
    return [MACPort(sim, i, speed, clock_hz=clock_hz) for i, speed in enumerate(speeds)]
