"""Packet-trace capture and replay.

A lightweight trace format (magic + length-prefixed records of cycle
timestamp, port and frame bytes) plus helpers to replay a trace into a
router at original timing and to capture what a router transmits.  This
is the tooling a user needs to run recorded workloads through the
simulator instead of synthetic generators.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import BinaryIO, Iterable, List, Union

from repro.engine import Delay, Simulator
from repro.net.packet import Packet

MAGIC = b"RPRT"
VERSION = 1
_HEADER = struct.Struct(">4sH")
_RECORD = struct.Struct(">QHH")  # timestamp cycles, port, frame length


@dataclass(frozen=True)
class TraceRecord:
    """One captured frame."""

    timestamp: int      # simulation cycles
    port: int
    frame: bytes

    def parse(self) -> Packet:
        return Packet.from_bytes(self.frame, arrival_port=self.port)


def save_trace(path_or_file: Union[str, BinaryIO], records: Iterable[TraceRecord]) -> int:
    """Write records; returns the count."""
    own = isinstance(path_or_file, str)
    stream = open(path_or_file, "wb") if own else path_or_file
    count = 0
    try:
        stream.write(_HEADER.pack(MAGIC, VERSION))
        for record in records:
            if len(record.frame) > 0xFFFF:
                raise ValueError("frame too large for trace format")
            stream.write(_RECORD.pack(record.timestamp, record.port, len(record.frame)))
            stream.write(record.frame)
            count += 1
    finally:
        if own:
            stream.close()
    return count


def load_trace(path_or_file: Union[str, BinaryIO]) -> List[TraceRecord]:
    own = isinstance(path_or_file, str)
    stream = open(path_or_file, "rb") if own else path_or_file
    try:
        header = stream.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ValueError("truncated trace header")
        magic, version = _HEADER.unpack(header)
        if magic != MAGIC:
            raise ValueError(f"not a trace file (magic={magic!r})")
        if version != VERSION:
            raise ValueError(f"unsupported trace version {version}")
        records = []
        while True:
            head = stream.read(_RECORD.size)
            if not head:
                return records
            if len(head) < _RECORD.size:
                raise ValueError("truncated trace record")
            timestamp, port, length = _RECORD.unpack(head)
            frame = stream.read(length)
            if len(frame) < length:
                raise ValueError("truncated frame bytes")
            records.append(TraceRecord(timestamp, port, frame))
    finally:
        if own:
            stream.close()


def replay(router, records: Iterable[TraceRecord], time_scale: float = 1.0) -> None:
    """Deliver a trace into a router at its recorded timing (scaled).
    Spawns a process on the router's simulator; call before ``run``."""
    ordered = sorted(records, key=lambda r: r.timestamp)

    def player():
        start = router.sim.now
        at = start
        for record in ordered:
            at = max(at, start + int(record.timestamp * time_scale))
            router.ports[record.port].expect(at)
        for record in ordered:
            due = start + int(record.timestamp * time_scale)
            gap = due - router.sim.now
            if gap > 0:
                yield Delay(gap)
            packet = record.parse()
            router.ports[record.port].deliver(packet, record.frame)

    router.sim.spawn(player(), name="trace-replay")


class TraceCapture:
    """Records every frame a set of ports transmits, with timestamps."""

    def __init__(self, sim: Simulator, ports) -> None:
        self.sim = sim
        self.records: List[TraceRecord] = []
        for port in ports:
            port.tx_listeners.append(self._make_listener(port))

    def _make_listener(self, port):
        def listener(packet, frame: bytes) -> None:
            self.records.append(TraceRecord(self.sim.now, port.port_id, frame))

        return listener

    def save(self, path: str) -> int:
        return save_trace(path, self.records)

    def __len__(self) -> int:
        return len(self.records)
