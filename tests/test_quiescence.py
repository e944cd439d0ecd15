"""Idle input-ring parking is exact: parking on and off give the same run.

Every test runs one scenario twice at the same seed, once with the input
token ring always spinning (``token_ring._PARKING = False``) and once
with parking, and compares everything the run exposes: router stats,
chip counters, per-engine ``busy_cycles``, ring ``rotations`` and
position, memory busy cycles, transmitted frames, trace hashes, sampled
series and incident logs.  Each comparison also runs on the reference
heap scheduler, and checks that the ring really parked.
"""

import contextlib
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.chaos import campaign as chaos_campaign
from repro.core import router as router_module
from repro.core.router import Router
from repro.engine import SimulationError, Simulator
from repro.faults import campaign as fault_campaign
from repro.faults.injector import FaultInjector
from repro.ixp import chip as chip_module, token_ring
from repro.net.addresses import IPv4Address
from repro.net.packet import make_tcp_packet
from repro.obs.export import trace_hash
from repro.topo import network as network_module, scenarios as topo_scenarios
from repro.workloads.generators import ZipfSampler
from repro.workloads.tables import bgp_prefixes, destinations_for
from tests.heap_oracle import HeapSimulator

SCHEDULERS = {"calendar": Simulator, "heap": HeapSimulator}


@contextlib.contextmanager
def _world(parking: bool, simulator):
    """Build everything inside with parking switched on or off and on
    the given simulator class; yields the list of chips built."""
    chips = []
    original_init = chip_module.IXP1200.__init__

    def recording_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        chips.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(token_ring, "_PARKING", parking)
        mp.setattr(chip_module.IXP1200, "__init__", recording_init)
        mp.setattr(router_module, "Simulator", simulator)
        mp.setattr(network_module, "Simulator", simulator)
        yield chips


def chip_state(chip):
    """Every counter the parked ring keeps in closed form, plus the rest
    of the chip's cycle accounting."""
    ring = chip.input_ring
    return {
        "now": chip.sim.now,
        "counters": dict(chip.counters),
        "busy": [me.busy_cycles for me in chip.engines],
        "rotations": None if ring is None else ring.rotations,
        "position": None if ring is None else ring._position,
        "memory": [chip.dram.busy_cycles, chip.sram.busy_cycles, chip.scratch.busy_cycles],
        "access_counts": [sorted(m.access_counts.items())
                          for m in (chip.dram, chip.sram, chip.scratch)],
        "queues": [len(q) for q in chip.bank.queues],
    }


def router_state(router):
    state = chip_state(router.chip)
    state["stats"] = router.stats()
    state["tx"] = [[str(p.ip.src), str(p.ip.dst), p.ip.ttl, p.frame_len]
                   for port in router.ports for p in port.transmitted]
    state["ports"] = [port.stats.snapshot() for port in router.ports]
    return state


def recorder_state(recorder):
    return {
        "trace": trace_hash(recorder.events.to_list()),
        "series": {name: s.to_list() for name, s in recorder.timeseries.items()},
        "accounting": recorder.accounting,
    }


def parks(chips) -> int:
    return sum(chip.parking.parks for chip in chips if chip.parking is not None)


def differential(scenario, simulator=Simulator):
    """Run ``scenario()`` spinning and parked; return both outcomes
    (each followed by every chip's state) and the parked run's park
    count."""
    outcomes = []
    for parking in (False, True):
        with _world(parking, simulator) as chips:
            outcome = scenario()
            outcomes.append((outcome, [chip_state(chip) for chip in chips]))
            parked = parks(chips)
    spun, with_parking = outcomes
    return spun, with_parking, parked


@pytest.fixture(params=sorted(SCHEDULERS))
def simulator(request):
    return SCHEDULERS[request.param]


# -- harness scenarios --------------------------------------------------------


def test_faults_all_identical(simulator):
    def scenario():
        return [r.incident_log_json() for r in fault_campaign.run_campaign("all", seed=0)]

    spun, parked, count = differential(scenario, simulator)
    assert spun == parked
    assert count > 0


def test_topo_all_identical(simulator):
    def scenario():
        return [(r.incident_log_json(), r.artifact()) for r in topo_scenarios.run_topo("all", seed=7)]

    spun, parked, count = differential(scenario, simulator)
    assert spun == parked
    assert count > 0


#: Seed-7 chaos trials where two routers' input rings, locked to the same
#: hop phase, take a frame in the same cycle after one of them resumed:
#: the resumed ring's events enter their cycle's bucket at a different
#: place than the spinning ring's would, and the IX-bus dither stream
#: that all chips of one simulator share hands the two transfers each
#: other's values.  The trial artifacts still match; engine busy cycles
#: and ring rotations drift (see docs/engine.md, "Limits").
CROSS_CHIP_TIE_TRIALS = {7, 16}


@pytest.mark.parametrize("scheduler,trial", [("calendar", t) for t in range(20)]
                         + [("heap", t) for t in range(3)])
def test_chaos_seed7_trials_identical(scheduler, trial):
    """The trials of ``repro chaos --seed 7 --trials 20``."""

    def scenario():
        return chaos_campaign.run_trial(7, trial).artifact()

    spun, parked, count = differential(scenario, SCHEDULERS[scheduler])
    assert count > 0
    assert spun[0] == parked[0]  # the trial artifact
    if trial in CROSS_CHIP_TIE_TRIALS:
        assert spun[1] != parked[1], "tie no longer diverges: shrink CROSS_CHIP_TIE_TRIALS"
        pytest.xfail("same-cycle tie between two chips' resumed and spinning input rings")
    assert spun == parked


def test_workload_mix_identical(simulator):
    """A slow-path mix from the workload generators: BGP-shaped table,
    Zipf destinations on a cold route cache (StrongARM fills), bursts
    separated by idle stretches long enough to park, and observability
    on."""
    specs = bgp_prefixes(2_000, seed=3)
    dests = destinations_for(specs, seed=3)
    zipf = ZipfSampler(len(dests), 1.1)

    def scenario():
        rng = random.Random(3)
        router = Router()
        router.routing_table.add_many(specs)
        recorder = router.enable_observability(sample_period=1_000)
        sim = router.sim
        at = 500
        for burst in range(6):
            for i in range(12):
                port = (burst + i) % 8
                dst = str(IPv4Address(dests[zipf.draw(rng)]))
                packet = make_tcp_packet("192.168.1.1", dst)
                router.ports[port].expect(at)
                sim.schedule(at, lambda p=packet, port=port: router.ports[port].deliver(p))
                at += 40
            at += 30_000
        router.run(at + 50_000)
        return router_state(router), recorder_state(recorder)

    spun, parked, count = differential(scenario, simulator)
    assert spun == parked
    assert count > 0


# -- arrival schedules ----------------------------------------------------------

ROTATION = 160  # 16 contexts x 10-cycle idle hop


def _packet(out_port: int, warm: bool):
    dst = f"10.{out_port}.0.{5 if warm else 9}"
    return make_tcp_packet("192.168.7.7", dst, src_port=1000 + out_port)


@st.composite
def arrival_plans(draw):
    """Arrivals (cycle, ports, warm) with gaps clustered around 0, 1 and
    2 rotations, several ports per cycle, a few announced late (at a
    lead down to one hop) from inside the run, run(until) chunking, a
    sampler period, and an optional engine stall."""
    gap = st.one_of(st.integers(0, 3), st.integers(ROTATION - 12, ROTATION + 12),
                    st.integers(2 * ROTATION - 12, 2 * ROTATION + 12),
                    st.integers(0, 3 * ROTATION))
    at = draw(st.integers(300, 2_000))
    arrivals = []
    for __ in range(draw(st.integers(1, 6))):
        at += draw(gap)
        ports = draw(st.lists(st.integers(0, 9), min_size=1, max_size=3, unique=True))
        lead = draw(st.one_of(st.none(), st.integers(9, 3 * ROTATION)))
        arrivals.append((at, ports, draw(st.booleans()), lead))
    chunks = draw(st.lists(st.integers(1, 4_000), min_size=1, max_size=6))
    sample_period = draw(st.one_of(st.none(), st.integers(9, 97)))
    stall = draw(st.one_of(st.none(), st.tuples(
        st.integers(0, 3), st.integers(200, at + 2_000), st.integers(1, 400),
        st.booleans())))
    return arrivals, chunks, sample_period, stall


def _scheduled_router(plan):
    arrivals, chunks, sample_period, stall = plan
    router = Router()
    for port in range(10):
        router.add_route(f"10.{port}.0.0", 16, port)
    router.warm_route_cache([_packet(p, True).ip.dst for p in range(10)])
    recorder = (router.enable_observability(sample_period=sample_period)
                if sample_period is not None else None)
    sim = router.sim
    for at, ports, warm, lead in arrivals:
        for port in ports:
            packet = _packet((port + 1) % 10, warm)
            target = router.ports[port]

            def deliver(target=target, packet=packet):
                target.deliver(packet)

            if lead is None or lead >= at:
                target.expect(at)
                sim.schedule(at, deliver)
            else:
                # Announced from inside the run, possibly while parked.
                def announce(target=target, deliver=deliver, lead=lead):
                    target.expect(sim.now + lead)
                    sim.schedule(lead, deliver)

                sim.schedule(at - lead, announce)
    if stall is not None:
        me, at, hold, from_inside = stall
        injector = FaultInjector(sim, seed=1)
        engine = router.chip.engines[me]
        if from_inside and at > 50:
            sim.schedule(at - 50, lambda: injector.schedule_engine_stall(engine, at, hold))
        else:
            injector.schedule_engine_stall(engine, at, hold)
    states = []
    for chunk in chunks:
        router.run(chunk)
        states.append(router_state(router))
    router.run(30_000)
    states.append(router_state(router))
    if recorder is not None:
        states.append(recorder_state(recorder))
    return states


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(plan=arrival_plans(), scheduler=st.sampled_from(sorted(SCHEDULERS)))
def test_arrival_schedules_identical(plan, scheduler):
    spun, parked, count = differential(lambda: _scheduled_router(plan), SCHEDULERS[scheduler])
    assert spun == parked
    assert count > 0


# -- mechanics ------------------------------------------------------------------


def _idle_router():
    router = Router()
    router.run(5_000)
    return router


def test_idle_router_parks_and_stays_exact():
    with _world(True, Simulator) as chips:
        router = _idle_router()
        events = router.sim._events_processed
        router.run(200_000)
        parked_events = router.sim._events_processed - events
        parked = router_state(router)
    with _world(False, Simulator):
        router = _idle_router()
        events = router.sim._events_processed
        router.run(200_000)
        spun_events = router.sim._events_processed - events
        spun = router_state(router)
    assert parked == spun
    assert parks(chips) >= 1
    assert chips[0].parking.parked
    # The input ring costs nothing while parked; the remaining events
    # are the output contexts' backoff polls and the hosts.
    assert parked_events < spun_events / 2


@pytest.mark.parametrize("offset", range(10))
def test_readers_settle_at_every_hop_offset(offset):
    """A reader scheduled well ahead sees exactly the steps before its
    cycle, whatever the offset within the idle hop."""
    seen = []
    for parking in (False, True):
        with _world(parking, Simulator):
            router = _idle_router()
            chip = router.chip
            reads = []

            def read():
                chip.settle_counters()
                reads.append((chip.input_ring.rotations, chip.input_ring._position,
                              [me.busy_cycles for me in chip.engines],
                              [me.utilization(router.sim.now) for me in chip.engines]))

            for k in range(5):
                router.sim.schedule(2_000 + 1_237 * k + offset, read)
            router.run(10_000 + offset)
            seen.append(reads)
    assert seen[0] == seen[1]


def test_unannounced_delivery_to_parked_ring_raises():
    with _world(True, Simulator) as chips:
        router = _idle_router()
        router.run(10_000)
        assert chips[0].parking.parked
        with pytest.raises(SimulationError, match="unannounced"):
            router.ports[0].deliver(_packet(1, True))


def test_late_notice_raises():
    """An arrival announced with less than a hop boundary of notice
    cannot be resumed to exactly."""
    with _world(True, Simulator) as chips:
        router = _idle_router()
        router.run(10_000)
        parking = chips[0].parking
        assert parking.parked
        if (router.sim.now - parking._park_cycle) % parking.hop == 0:
            router.run(1)  # step off the hop boundary
        start, now = parking._park_cycle, router.sim.now
        boundary = start + parking.hop * -(-(now - start) // parking.hop)
        assert boundary > now
        with pytest.raises(SimulationError, match="too late"):
            router.ports[0].expect(boundary - 1)


def test_parking_off_switch_builds_no_parking():
    with _world(False, Simulator) as chips:
        Router()
    assert chips[0].parking is None
