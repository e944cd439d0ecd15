"""End-to-end tests of the assembled Router: forwarding, extension
installation, the exceptional path through the hierarchy, and
robustness/isolation behaviour."""

import pytest

from repro import ALL, Router, RouterConfig, Where
from repro.core.forwarders import (
    port_filter,
    syn_monitor,
    tcp_proxy,
    tcp_splicer,
    wavelet_dropper,
)
from repro.net.ip import record_route_option
from repro.net.packet import FlowKey, make_tcp_packet, make_udp_like_packet
from repro.net.traffic import flow_stream, syn_flood, take, uniform_flood


def booted_router(**config_kwargs) -> Router:
    router = Router(RouterConfig(**config_kwargs)) if config_kwargs else Router()
    for port in range(10):
        router.add_route(f"10.{port}.0.0", 16, port)
    return router


def warm(router, packets):
    router.warm_route_cache([p.ip.dst for p in packets])


def test_basic_forwarding_to_correct_ports():
    router = booted_router()
    packets = take(uniform_flood(24, num_ports=8), 24)
    warm(router, packets)
    router.inject(9, uniform_flood(24, num_ports=8))
    router.run(2_500_000)
    for port in range(8):
        out = router.transmitted(port)
        assert len(out) == 3, f"port {port} got {len(out)}"
        assert all(p.meta["out_port"] == port for p in out)


def test_minimal_ip_applied_on_fast_path():
    """The default general forwarder decrements TTL and rewrites MACs."""
    router = booted_router()
    packets = take(uniform_flood(8, num_ports=4), 8)
    warm(router, packets)
    router.inject(9, uniform_flood(8, num_ports=4))
    router.run(1_500_000)
    out = router.transmitted()
    assert out
    assert all(p.ip.ttl == 63 for p in out)  # one hop
    from repro.net import MACAddress

    for p in out:
        assert p.eth.src == MACAddress.for_port(p.meta["out_port"])


@pytest.mark.slow
def test_route_cache_miss_heals_through_strongarm():
    """Cold-cache packets climb to the StrongARM (CPE lookup), are
    re-queued, and still come out the right port."""
    router = booted_router()
    router.inject(9, uniform_flood(6, num_ports=3))  # cold cache
    router.run(2_500_000)
    stats = router.stats()
    assert stats["exceptional"] == 6
    assert stats["sa_local_processed"] >= 6
    out = router.transmitted()
    assert len(out) == 6
    # Subsequent identical traffic hits the cache (no new exceptionals).
    router.inject(8, uniform_flood(6, num_ports=3))
    router.run(2_500_000)
    assert router.stats()["exceptional"] == 6
    assert len(router.transmitted()) == 12


def test_ip_options_take_full_ip_path():
    router = booted_router()
    exotic = make_udp_like_packet(
        "172.16.0.1", "10.2.0.5", options=record_route_option()
    )
    plain = take(uniform_flood(4, num_ports=2), 4)
    warm(router, plain + [exotic])
    router.inject(9, iter([exotic] + plain))
    router.run(2_500_000)
    assert router.stats()["exceptional"] == 1
    processed = [p for p in router.transmitted() if p.meta.get("full_ip")]
    assert len(processed) == 1
    assert processed[0].ip.options[2] == record_route_option()[2] + 4


def test_install_general_syn_monitor_counts():
    router = booted_router()
    fid = router.install(ALL, syn_monitor())
    packets = take(syn_flood(15, out_port=2), 15)
    warm(router, packets)
    router.inject(9, syn_flood(15, out_port=2))
    router.run(2_500_000)
    assert router.getdata(fid)["syn_count"] == 15


@pytest.mark.slow
def test_install_per_flow_splicer_patches_only_its_flow():
    router = booted_router()
    from repro.net.addresses import IPv4Address

    key = FlowKey(IPv4Address("192.168.1.2"), 5001, IPv4Address("10.1.0.1"), 80)
    fid = router.install(key, tcp_splicer())
    router.setdata(fid, {"spliced": True, "seq_delta": 5000})

    spliced_stream = take(flow_stream(5, out_port=1, payload_len=10, start_seq=100), 5)
    other_stream = take(
        flow_stream(5, src="192.168.9.9", src_port=777, out_port=2, payload_len=10, start_seq=100), 5
    )
    warm(router, spliced_stream + other_stream)
    router.inject(9, iter(spliced_stream))
    router.inject(8, iter(other_stream))
    router.run(3_000_000)
    spliced_out = router.transmitted(1)
    other_out = router.transmitted(2)
    assert len(spliced_out) == 5 and len(other_out) == 5
    assert {p.tcp.seq for p in spliced_out} == {5100 + i * 10 for i in range(5)}
    assert {p.tcp.seq for p in other_out} == {100 + i * 10 for i in range(5)}
    assert router.getdata(fid)["patched"] == 5


def test_port_filter_drops_in_data_plane():
    router = booted_router()
    router.install(ALL, port_filter([(80, 80)]))
    web = take(flow_stream(4, out_port=1, dst_port=80, payload_len=6), 4)
    ssh = take(flow_stream(4, out_port=1, dst_port=22, payload_len=6, src_port=9), 4)
    warm(router, web + ssh)
    router.inject(9, iter(web + ssh))
    router.run(2_500_000)
    assert router.stats()["vrp_dropped"] == 4
    out = router.transmitted(1)
    assert len(out) == 4
    assert all(p.tcp.dst_port == 22 for p in out)


@pytest.mark.slow
def test_pentium_bound_flow_goes_up_and_comes_back():
    router = booted_router()
    from repro.net.addresses import IPv4Address

    key = FlowKey(IPv4Address("192.168.1.2"), 5001, IPv4Address("10.1.0.1"), 80)
    proxy = tcp_proxy()
    proxy.expected_pps = 1000
    router.install(key, proxy)
    stream = take(flow_stream(6, out_port=1, payload_len=10), 6)
    warm(router, stream)
    router.inject(9, iter(stream))
    router.run(4_000_000)
    stats = router.stats()
    assert stats["sa_bridged"] == 6
    assert stats["pentium_processed"] == 6
    assert len(router.transmitted(1)) == 6  # returned and forwarded


def test_admission_rejects_oversized_extension():
    from repro import AdmissionError, ForwarderSpec, VRPProgram
    from repro.core.vrp import RegOps

    router = booted_router()
    monster = ForwarderSpec(
        name="monster",
        where=Where.ME,
        program=VRPProgram("monster", [RegOps(300)]),
    )
    with pytest.raises(AdmissionError):
        router.install(ALL, monster)


@pytest.mark.slow
def test_remove_stops_forwarder():
    router = booted_router()
    fid = router.install(ALL, syn_monitor())
    first = take(syn_flood(5, out_port=1, seed=10), 5)
    warm(router, first)
    router.inject(9, iter(first))
    router.run(2_000_000)
    assert router.getdata(fid)["syn_count"] == 5
    router.remove(fid)
    with pytest.raises(KeyError):
        router.getdata(fid)
    router.inject(8, syn_flood(5, out_port=1, seed=11))
    router.run(2_000_000)  # must not crash; monitor gone


def test_wavelet_control_loop_via_setdata():
    """The control half adjusts the cutoff; the data half obeys."""
    router = booted_router()
    from repro.net.addresses import IPv4Address

    key = FlowKey(IPv4Address("192.168.1.2"), 5001, IPv4Address("10.1.0.1"), 80)
    fid = router.install(key, wavelet_dropper())
    router.setdata(fid, {"cutoff": 1})

    def layered(count):
        for i in range(count):
            packet = make_tcp_packet("192.168.1.2", "10.1.0.1", 5001, 80, payload=b"v")
            packet.ip.tos = (i % 4) << 4  # layers 0..3
            yield packet

    stream = take(layered(8), 8)
    warm(router, stream)
    router.inject(9, iter(stream))
    router.run(2_500_000)
    data = router.getdata(fid)
    assert data["forwarded"] == 4  # layers 0,1
    assert data["dropped"] == 4    # layers 2,3
    assert len(router.transmitted(1)) == 4


def test_bad_checksum_dropped_by_classifier():
    router = booted_router()
    good = take(uniform_flood(3, num_ports=1), 3)
    warm(router, good)
    bad = make_tcp_packet("1.2.3.4", "10.0.0.9")
    bad.ip.packed()
    bad.ip.checksum ^= 0x0F0F

    # Deliver via raw port injection so the corrupt checksum survives.

    router.inject(9, iter(good))
    router.run(500_000)
    # Hand-deliver the corrupted frame (to_bytes would fix the checksum),
    # announced ahead like every scheduled delivery.
    eth = bad.eth.packed()
    ip_bytes = bad.ip.packed(fill_checksum=False)
    frame = eth + ip_bytes + bad.tcp.packed() + b"\x00" * 10
    port = router.ports[9]
    port.expect(router.sim.now + 1_000)
    router.sim.schedule(1_000, lambda: port.deliver(bad, frame))
    router.run(2_000_000)
    assert router.stats()["classifier_failures"] == 1
    assert len(router.transmitted()) == 3  # only the good ones


def test_router_with_bidirectional_lookup_backend():
    """The lookup backend is selectable per router; forwarding through
    the exceptional path must behave identically on the alternate one."""
    from repro.net.routing import BidirectionalTable

    router = booted_router(lookup_backend="bidirectional")
    assert isinstance(router.routing_table, BidirectionalTable)
    packets = take(uniform_flood(12, num_ports=4), 12)
    warm(router, packets)
    router.inject(9, uniform_flood(12, num_ports=4))
    router.run(2_000_000)
    for port in range(4):
        out = router.transmitted(port)
        assert len(out) == 3
        assert all(p.meta["out_port"] == port for p in out)


def test_router_rejects_unknown_lookup_backend():
    with pytest.raises(ValueError):
        Router(RouterConfig(lookup_backend="quantum"))
