"""Multi-router configurations (the paper's section 6 future work).

"We next plan to construct a router from four Pentium/IXP pairs
connected by a Gigabit Ethernet switch.  The main difference from the
configuration described in this paper is that we will need to budget RI
capacity to service packets arriving on the 'internal' link (i.e., some
fraction of the 1 Gbps Ethernet link connecting the IXP to the switch),
leaving fewer cycles for the VRP."

:class:`RouterCluster` builds N routers sharing one simulator, connects
each router's gigabit port 9 to a modeled Ethernet switch, and installs
cross-router routes so prefixes owned by one member are reachable from
all of them.  :func:`cluster_vrp_budget` performs the section 6 budget
arithmetic: the internal link's share of line rate shrinks the VRP.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.core.router import Router, RouterConfig
from repro.core.vrp import VRPBudget, budget_for_line_rate
from repro.engine import Delay, Simulator
from repro.net.addresses import MACAddress
from repro.net.ethernet import max_frame_rate
from repro.net.packet import Packet

INTERNAL_PORT = 9             # each member's gigabit uplink to the switch
_MEMBER_MAC_BASE = 0x0400     # internal next-hop MAC space


def member_mac(index: int) -> MACAddress:
    """The switch-facing MAC of cluster member ``index``."""
    return MACAddress.for_port(_MEMBER_MAC_BASE + index)


class EthernetSwitch:
    """The gigabit switch between members: store-and-forward by
    destination MAC, with serialization delay at 1 Gbps."""

    def __init__(self, sim: Simulator, poll_cycles: int = 200):
        self.sim = sim
        self.poll_cycles = poll_cycles
        self._ports: Dict[MACAddress, object] = {}   # MAC -> MACPort
        self._watched: List[tuple] = []              # (port, cursor)
        self.forwarded = 0
        self.flooded_drops = 0
        sim.spawn(self._run(), name="cluster-switch")

    def attach(self, mac: MACAddress, port) -> None:
        self._ports[mac] = port
        self._watched.append([port, 0])

    def _run(self):
        while True:
            moved = False
            for entry in self._watched:
                port, cursor = entry
                fresh = port.transmitted[cursor:]
                entry[1] += len(fresh)
                for packet in fresh:
                    moved = True
                    yield from self._forward(packet)
            if not moved:
                yield Delay(self.poll_cycles)

    def _forward(self, packet: Packet):
        destination = self._ports.get(packet.eth.dst)
        if destination is None:
            self.flooded_drops += 1
            return
        # Serialization at gigabit speed through the switch fabric.
        cycles = destination.frame_cycles(packet.frame_len)
        destination.expect(self.sim.now + cycles)
        yield Delay(cycles)
        destination.deliver(packet)
        self.forwarded += 1


class RouterCluster:
    """N Pentium/IXP routers behind one gigabit switch."""

    def __init__(self, num_routers: int = 2, config: Optional[RouterConfig] = None):
        if num_routers < 2:
            raise ValueError("a cluster needs at least two members")
        self.sim = Simulator()
        self.routers: List[Router] = [
            Router(config or RouterConfig(), sim=self.sim) for __ in range(num_routers)
        ]
        self.switch = EthernetSwitch(self.sim)
        for index, router in enumerate(self.routers):
            self.switch.attach(member_mac(index), router.ports[INTERNAL_PORT])

    def add_route(self, prefix: str, length: int, owner: int, out_port: int) -> None:
        """Install a prefix owned by member ``owner``: local egress there,
        internal-port next hop everywhere else."""
        if not 0 <= owner < len(self.routers):
            raise ValueError(f"no member {owner}")
        if out_port == INTERNAL_PORT:
            raise ValueError("the internal port is reserved for the switch")
        for index, router in enumerate(self.routers):
            if index == owner:
                router.routing_table.add(prefix, length, out_port)
            else:
                router.routing_table.add(
                    prefix, length, INTERNAL_PORT, next_hop_mac=member_mac(owner)
                )

    def inject(self, member: int, port: int, packets: Iterable[Packet]) -> None:
        if not 0 <= member < len(self.routers):
            raise ValueError(
                f"no member {member}: valid members are 0..{len(self.routers) - 1}"
            )
        # Router.inject validates the port id and names the valid range.
        self.routers[member].inject(port, packets)

    def run(self, cycles: int) -> None:
        self.sim.run(until=self.sim.now + cycles)

    def stats(self) -> Dict[str, Dict[str, int]]:
        out = {f"router{i}": r.stats() for i, r in enumerate(self.routers)}
        out["switch"] = {
            "forwarded": self.switch.forwarded,
            "flooded_drops": self.switch.flooded_drops,
        }
        return out


def cluster_vrp_budget(
    external_rate_pps: float,
    internal_fraction: float = 0.25,
    input_mes: int = 4,
) -> VRPBudget:
    """Section 6's arithmetic: the RI must also serve the internal link's
    packets, so the VRP budget shrinks.  ``internal_fraction`` is the
    share of the 1 Gbps internal link carrying minimum-sized packets."""
    if not 0.0 <= internal_fraction <= 1.0:
        raise ValueError("internal fraction must be in [0, 1]")
    internal_rate = internal_fraction * max_frame_rate(1e9, 64)
    return budget_for_line_rate(external_rate_pps + internal_rate, input_mes=input_mes)
