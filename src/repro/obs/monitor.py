"""Live health monitoring: is the router currently healthy?

A :class:`HealthMonitor` periodically snapshots the instrumented
simulation and evaluates paper-grounded alert rules:

=====================  =============================================== ==========
rule                   what it watches                                 paper
=====================  =============================================== ==========
vrp-budget             installed VRP cost vs the per-MP budget          §4.3
queue-overflow         SRAM queue drop rate and occupancy               §3.4/§4.7
pci-saturation         PCI bus busy fraction (32-bit/33 MHz ceiling)    §3.7
wfq-fairness           observed class shares vs configured weights      §3.4.1
trace-truncation       observability ring evictions (honest analytics)  --
control-plane          adjacency deaths / LSA retransmit storms         §4.1
=====================  =============================================== ==========

Each rule returns green / yellow / red.  Level *transitions* append to a
structured incident log whose contents are deterministic: evaluations
run at fixed simulation cycles, so the log is identical across runs and
against the reference heap scheduler (enforced by
``tests/test_obs_monitor.py``).

``python -m repro monitor <scenario>`` renders the health table and
exits non-zero when any rule is red.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.obs import export
from repro.obs.recorder import Recorder

GREEN, YELLOW, RED = "green", "yellow", "red"
_SEVERITY = {GREEN: 0, YELLOW: 1, RED: 2}

#: Default evaluation period, in simulation cycles.
DEFAULT_PERIOD = 10_000


@dataclass
class RuleResult:
    """One rule's verdict at one evaluation point."""

    rule: str
    level: str                      # green | yellow | red
    value: Optional[float]          # the measured quantity (None = n/a)
    threshold: Optional[float]      # the red threshold it is judged against
    detail: str
    paper_ref: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule, "level": self.level, "value": self.value,
            "threshold": self.threshold, "detail": self.detail,
            "paper_ref": self.paper_ref,
        }


@dataclass
class HealthSample:
    """Everything one evaluation looks at, decoupled from the live
    simulation objects so rules are unit-testable on synthesized state.

    Counter fields are deltas over the evaluation window; occupancy and
    utilization fields are instantaneous or window-normalized fractions.
    ``None`` means the subsystem does not exist in this scenario (no
    Pentium, no WFQ, ...) and the rule reports green/not-applicable.
    """

    cycle: int = 0
    window_cycles: int = 0
    # Traffic counters (deltas over the window).
    input_mps: int = 0
    input_packets: int = 0
    queue_drops: int = 0
    vrp_dropped: int = 0
    # Queueing state.
    max_queue_depth_fraction: float = 0.0
    # PCI / Pentium path.
    pci_utilization: Optional[float] = None
    pentium_queue_occupancy: Optional[float] = None
    # Installed VRP cost per MP (None = no raw VRP; admission-controlled).
    vrp_cycles: Optional[int] = None
    vrp_sram_transfers: Optional[int] = None
    vrp_hashes: Optional[int] = None
    # The budget those costs must fit in (section 4.3).
    budget_cycles: int = 240
    budget_sram_transfers: int = 24
    budget_hashes: int = 3
    # WFQ: class name -> (weight, packets served in window); None = no WFQ.
    wfq_classes: Optional[Dict[str, Tuple[float, int]]] = None
    # Observability self-check.
    dropped_events: int = 0
    # Fault injection (zero when no injector is attached).
    faults_injected: int = 0
    faults_active: int = 0
    # Control plane (None = no control binding in this scenario).
    # Deltas over the window except ``ctrl_unacked`` (instantaneous).
    ctrl_neighbor_deaths: Optional[int] = None
    ctrl_retransmits: Optional[int] = None
    ctrl_abandoned: Optional[int] = None
    ctrl_rejected: Optional[int] = None
    ctrl_unacked: Optional[int] = None


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------


class Rule:
    """Base: a named check over a :class:`HealthSample`."""

    name = "rule"
    paper_ref = ""

    def evaluate(self, sample: HealthSample) -> RuleResult:  # pragma: no cover
        raise NotImplementedError

    def _result(self, level: str, value: Optional[float],
                threshold: Optional[float], detail: str) -> RuleResult:
        return RuleResult(self.name, level, value, threshold, detail, self.paper_ref)


class VRPBudgetRule(Rule):
    """Section 4.3: an extension must fit 240 cycles / 24 SRAM transfers
    / 3 hashes per MP or the input stage falls behind line rate.  Red
    when the installed VRP exceeds any budget axis (ratio > 1.0),
    yellow inside the last 10% of headroom (0.9 < ratio <= 1.0)."""

    name = "vrp-budget"
    paper_ref = "section 4.3 (VRP budget)"

    def evaluate(self, sample: HealthSample) -> RuleResult:
        if sample.vrp_cycles is None:
            return self._result(
                GREEN, None, 1.0,
                "no raw VRP installed; extensions are admission-controlled",
            )
        ratios = {
            "cycles": sample.vrp_cycles / max(1, sample.budget_cycles),
            "sram": (sample.vrp_sram_transfers or 0) / max(1, sample.budget_sram_transfers),
            "hashes": (sample.vrp_hashes or 0) / max(1, sample.budget_hashes),
        }
        axis = max(ratios, key=lambda k: ratios[k])
        ratio = ratios[axis]
        if ratio > 1.0:
            level = RED
        elif ratio > 0.9:
            level = YELLOW
        else:
            level = GREEN
        return self._result(
            level, ratio, 1.0,
            f"worst axis {axis}: {ratio:.2f}x of budget "
            f"({sample.vrp_cycles}cy/{sample.vrp_sram_transfers}sram/"
            f"{sample.vrp_hashes}hash vs {sample.budget_cycles}/"
            f"{sample.budget_sram_transfers}/{sample.budget_hashes})",
        )


class QueueOverflowRule(Rule):
    """Sections 3.4/4.7: bounded SRAM queues shed load when the output
    side cannot keep up.  Red when the drop rate reaches 1% of input
    MPs; yellow on any drops at all or when the fullest queue passes 90%
    occupancy (overflow imminent)."""

    name = "queue-overflow"
    paper_ref = "sections 3.4, 4.7 (bounded queues / graceful degradation)"

    RED_DROP_RATE = 0.01
    YELLOW_DEPTH = 0.9

    def evaluate(self, sample: HealthSample) -> RuleResult:
        rate = sample.queue_drops / max(1, sample.input_mps)
        if rate >= self.RED_DROP_RATE:
            return self._result(
                RED, rate, self.RED_DROP_RATE,
                f"{sample.queue_drops} drops / {sample.input_mps} MPs "
                f"({rate:.2%} >= {self.RED_DROP_RATE:.0%})",
            )
        if rate > 0.0:
            return self._result(
                YELLOW, rate, self.RED_DROP_RATE,
                f"{sample.queue_drops} drops / {sample.input_mps} MPs ({rate:.2%})",
            )
        if sample.max_queue_depth_fraction >= self.YELLOW_DEPTH:
            return self._result(
                YELLOW, rate, self.RED_DROP_RATE,
                f"no drops but fullest queue at "
                f"{sample.max_queue_depth_fraction:.0%} of capacity",
            )
        return self._result(
            GREEN, rate, self.RED_DROP_RATE,
            f"no drops; fullest queue {sample.max_queue_depth_fraction:.0%}",
        )


class PCISaturationRule(Rule):
    """Section 3.7: the 32-bit/33 MHz PCI bus (1.056 Gbps) is the choke
    point between the IXP and the Pentium.  Red at >= 95% busy, yellow
    at >= 80%; Pentium-bound I2O queue occupancy >= 90% also yellows
    (backpressure imminent)."""

    name = "pci-saturation"
    paper_ref = "section 3.7 (PCI / I2O queues)"

    RED_UTIL = 0.95
    YELLOW_UTIL = 0.80
    YELLOW_OCCUPANCY = 0.9

    def evaluate(self, sample: HealthSample) -> RuleResult:
        if sample.pci_utilization is None:
            return self._result(GREEN, None, self.RED_UTIL,
                                "no PCI bus in this scenario")
        util = sample.pci_utilization
        if util >= self.RED_UTIL:
            return self._result(RED, util, self.RED_UTIL,
                                f"bus {util:.0%} busy (>= {self.RED_UTIL:.0%})")
        occ = sample.pentium_queue_occupancy
        if util >= self.YELLOW_UTIL:
            return self._result(YELLOW, util, self.RED_UTIL,
                                f"bus {util:.0%} busy (>= {self.YELLOW_UTIL:.0%})")
        if occ is not None and occ >= self.YELLOW_OCCUPANCY:
            return self._result(
                YELLOW, util, self.RED_UTIL,
                f"bus {util:.0%} busy but Pentium I2O queue {occ:.0%} full",
            )
        return self._result(GREEN, util, self.RED_UTIL, f"bus {util:.0%} busy")


class WFQFairnessRule(Rule):
    """Section 3.4.1: the input-side WFQ approximation should serve each
    class near its weight share.  Deviation is the worst relative error
    |observed - expected| / expected across classes; red at >= 50%,
    yellow at >= 20%.  Needs a minimum packet count to judge."""

    name = "wfq-fairness"
    paper_ref = "section 3.4.1 (input-side WFQ approximation)"

    RED_DEVIATION = 0.5
    YELLOW_DEVIATION = 0.2
    MIN_PACKETS = 64

    def evaluate(self, sample: HealthSample) -> RuleResult:
        if not sample.wfq_classes:
            return self._result(GREEN, None, self.RED_DEVIATION,
                                "no WFQ configured")
        total_weight = sum(w for w, __ in sample.wfq_classes.values())
        total_packets = sum(n for __, n in sample.wfq_classes.values())
        if total_packets < self.MIN_PACKETS or total_weight <= 0:
            return self._result(
                GREEN, None, self.RED_DEVIATION,
                f"only {total_packets} classified packets "
                f"(< {self.MIN_PACKETS}); not judged",
            )
        worst_name, worst_dev = "", 0.0
        for name, (weight, packets) in sorted(sample.wfq_classes.items()):
            expected = weight / total_weight
            observed = packets / total_packets
            deviation = abs(observed - expected) / expected
            if deviation > worst_dev:
                worst_name, worst_dev = name, deviation
        if worst_dev >= self.RED_DEVIATION:
            level = RED
        elif worst_dev >= self.YELLOW_DEVIATION:
            level = YELLOW
        else:
            level = GREEN
        return self._result(
            level, worst_dev, self.RED_DEVIATION,
            f"worst class {worst_name!r} off its weight share by {worst_dev:.0%}",
        )


class FaultInjectionRule(Rule):
    """Surfaces attached fault injection in the health table.  Yellow
    while faults are active or have fired in the window -- degradation
    has a known, injected cause -- and never red: the verdict on whether
    the router *coped* belongs to the campaign invariants, not to the
    fact that faults exist."""

    name = "fault-injection"
    paper_ref = "section 4.7 (robustness under attack)"

    def evaluate(self, sample: HealthSample) -> RuleResult:
        if sample.faults_active > 0 or sample.faults_injected > 0:
            return self._result(
                YELLOW, float(sample.faults_injected), None,
                f"{sample.faults_injected} faults injected in window, "
                f"{sample.faults_active} active now",
            )
        return self._result(GREEN, 0.0, None, "no faults injected in window")


class ControlPlaneRule(Rule):
    """Control-plane survivability: a router that keeps forwarding but
    can no longer maintain adjacencies or flood LSAs is the failure mode
    the paper's robust control plane exists to prevent.  Red when the
    window sees an adjacency-flap storm (>= 3 neighbor deaths), a
    retransmit storm (>= 32 LSA retransmits), or any LSA abandoned after
    exhausting its retry budget (flooding reliability lost).  Yellow on
    any deaths, retransmits, checksum rejections, or unacked LSAs still
    awaiting acknowledgement -- the plane is working, but under stress."""

    name = "control-plane"
    paper_ref = "section 4.1 (robust control plane)"

    RED_DEATHS = 3
    RED_RETRANSMITS = 32

    def evaluate(self, sample: HealthSample) -> RuleResult:
        if sample.ctrl_neighbor_deaths is None:
            return self._result(GREEN, None, None,
                                "no control-plane binding in this scenario")
        deaths = sample.ctrl_neighbor_deaths
        retransmits = sample.ctrl_retransmits or 0
        abandoned = sample.ctrl_abandoned or 0
        rejected = sample.ctrl_rejected or 0
        unacked = sample.ctrl_unacked or 0
        if abandoned > 0:
            return self._result(
                RED, float(abandoned), 1.0,
                f"{abandoned} LSAs abandoned after retry budget; "
                "flooding reliability lost",
            )
        if deaths >= self.RED_DEATHS:
            return self._result(
                RED, float(deaths), float(self.RED_DEATHS),
                f"{deaths} neighbor deaths in window "
                f"(>= {self.RED_DEATHS}): adjacency flap storm",
            )
        if retransmits >= self.RED_RETRANSMITS:
            return self._result(
                RED, float(retransmits), float(self.RED_RETRANSMITS),
                f"{retransmits} LSA retransmits in window "
                f"(>= {self.RED_RETRANSMITS}): retransmit storm",
            )
        if deaths or retransmits or rejected or unacked:
            return self._result(
                YELLOW, float(deaths + retransmits + rejected),
                float(self.RED_DEATHS),
                f"{deaths} deaths, {retransmits} retransmits, "
                f"{rejected} rejected frames, {unacked} LSAs unacked",
            )
        return self._result(GREEN, 0.0, float(self.RED_DEATHS),
                            "adjacencies stable; flooding fully acked")


class TraceTruncationRule(Rule):
    """Observability self-check: a wrapped trace ring means every
    downstream analysis is partial.  Never red (the router itself is
    fine) but yellow so dashboards flag the blind spot."""

    name = "trace-truncation"
    paper_ref = "-- (observability integrity)"

    def evaluate(self, sample: HealthSample) -> RuleResult:
        if sample.dropped_events > 0:
            return self._result(
                YELLOW, float(sample.dropped_events), None,
                f"trace ring evicted {sample.dropped_events} spans; "
                "analytics are truncated",
            )
        return self._result(GREEN, 0.0, None, "trace ring within capacity")


def default_rules() -> List[Rule]:
    return [
        VRPBudgetRule(),
        QueueOverflowRule(),
        PCISaturationRule(),
        WFQFairnessRule(),
        TraceTruncationRule(),
    ]


# ---------------------------------------------------------------------------
# The monitor
# ---------------------------------------------------------------------------


class HealthMonitor:
    """Evaluates the rule set against a live instrumented simulation.

    Attach after ``enable_observability``; call :meth:`evaluate`
    manually or spawn :meth:`process` to run every ``period`` cycles.
    Level transitions append to :attr:`incidents` as plain dicts.
    """

    def __init__(self, chip, recorder: Recorder, router=None,
                 rules: Optional[List[Rule]] = None, budget=None,
                 injector=None):
        self.chip = chip
        self.recorder = recorder
        self.router = router
        if injector is None and router is not None:
            injector = getattr(router, "injector", None)
        self.injector = injector
        self.rules = default_rules() if rules is None else rules
        if injector is not None and rules is None:
            # Only when an injector is attached: healthy scenarios keep
            # the exact rule set (and incident stream) they had before
            # fault injection existed.
            self.rules.append(FaultInjectionRule())
        self._control_binding = getattr(router, "control_binding", None)
        if self._control_binding is not None and rules is None:
            # Same opt-in shape: single-router profile scenarios have no
            # control binding and keep their historical rule set.
            self.rules.append(ControlPlaneRule())
        if budget is None and router is not None:
            budget = router.config.budget
        if budget is None:
            from repro.core.vrp import PROTOTYPE_BUDGET

            budget = PROTOTYPE_BUDGET
        self.budget = budget
        self.incidents: List[Dict[str, Any]] = []
        self.evaluations = 0
        self.last_results: List[RuleResult] = []
        self.last_sample: Optional[HealthSample] = None
        self._levels: Dict[str, str] = {}
        self._counter_snapshot: Dict[str, int] = dict(chip.counters)
        self._pci_busy_snapshot = 0 if router is None else router.pci.busy_cycles
        self._wfq_snapshot: Dict[str, int] = self._wfq_packets()
        self._faults_snapshot = self._faults_total()
        self._ctrl_snapshot = self._ctrl_totals()
        self._injector_drained = 0
        self._last_cycle = chip.sim.now

    def _faults_total(self) -> int:
        if self.injector is None:
            return 0
        return sum(self.injector.counts.values())

    def _ctrl_totals(self) -> Dict[str, int]:
        binding = self._control_binding
        if binding is None:
            return {}
        return {
            "deaths": binding.neighbor_deaths,
            "retransmits": binding.retransmits,
            "abandoned": binding.abandoned,
            "rejected": binding.ctrl_rejected,
        }

    # -- sampling ---------------------------------------------------------

    def _wfq_packets(self) -> Dict[str, int]:
        wfq = None if self.router is None else self.router.config.wfq
        if wfq is None:
            return {}
        return {name: cls.packets for name, cls in wfq.classes.items()}

    def sample(self) -> HealthSample:
        """Snapshot the live state into a :class:`HealthSample`, as
        deltas over the window since the previous evaluation."""
        chip = self.chip
        now = chip.sim.now
        window = max(1, now - self._last_cycle)
        deltas = chip.counter_deltas(self._counter_snapshot)

        vrp = chip.config.vrp
        vrp_cycles = vrp_sram = vrp_hashes = None
        if vrp is not None:
            vrp_cycles = vrp.reg_cycles
            vrp_sram = vrp.sram_reads + vrp.sram_writes
            vrp_hashes = vrp.hashes

        pci_util = pentium_occ = None
        wfq_classes = None
        if self.router is not None:
            pci_busy = self.router.pci.busy_cycles
            pci_util = min(1.0, (pci_busy - self._pci_busy_snapshot) / window)
            pentium_occ = self.router.to_pentium.occupancy_fraction
            wfq = self.router.config.wfq
            if wfq is not None:
                wfq_classes = {
                    name: (cls.weight, cls.packets - self._wfq_snapshot.get(name, 0))
                    for name, cls in wfq.classes.items()
                }

        ctrl_deaths = ctrl_retransmits = ctrl_abandoned = None
        ctrl_rejected = ctrl_unacked = None
        if self._control_binding is not None:
            totals = self._ctrl_totals()
            prev = self._ctrl_snapshot
            ctrl_deaths = totals["deaths"] - prev.get("deaths", 0)
            ctrl_retransmits = totals["retransmits"] - prev.get("retransmits", 0)
            ctrl_abandoned = totals["abandoned"] - prev.get("abandoned", 0)
            ctrl_rejected = totals["rejected"] - prev.get("rejected", 0)
            ctrl_unacked = self._control_binding.unacked

        return HealthSample(
            cycle=now,
            window_cycles=window,
            input_mps=deltas.get("input_mps", 0),
            input_packets=deltas.get("input_packets", 0),
            queue_drops=deltas.get("queue_drops", 0),
            vrp_dropped=deltas.get("vrp_dropped", 0),
            max_queue_depth_fraction=chip.max_queue_depth_fraction(),
            pci_utilization=pci_util,
            pentium_queue_occupancy=pentium_occ,
            vrp_cycles=vrp_cycles,
            vrp_sram_transfers=vrp_sram,
            vrp_hashes=vrp_hashes,
            budget_cycles=self.budget.cycles,
            budget_sram_transfers=self.budget.sram_transfers,
            budget_hashes=self.budget.hashes,
            wfq_classes=wfq_classes,
            dropped_events=self.recorder.dropped_events,
            faults_injected=self._faults_total() - self._faults_snapshot,
            faults_active=0 if self.injector is None else self.injector.active,
            ctrl_neighbor_deaths=ctrl_deaths,
            ctrl_retransmits=ctrl_retransmits,
            ctrl_abandoned=ctrl_abandoned,
            ctrl_rejected=ctrl_rejected,
            ctrl_unacked=ctrl_unacked,
        )

    # -- evaluation -------------------------------------------------------

    def evaluate(self) -> List[RuleResult]:
        """Run every rule once; log incidents on level transitions and
        advance the delta window."""
        sample = self.sample()
        if self.injector is not None:
            # Interleave injected-fault incidents (link flaps, crashes,
            # quarantines) into the incident log as they happen; they
            # carry the injector's severity and never change exit codes
            # (worst_level looks at rule results only).
            log = self.injector.log
            for incident in log[self._injector_drained:]:
                self.incidents.append({
                    "cycle": incident["cycle"],
                    "rule": "fault-injection",
                    "from": incident["kind"],
                    "to": incident["severity"],
                    "value": None,
                    "detail": incident["detail"],
                })
            self._injector_drained = len(log)
        results = [rule.evaluate(sample) for rule in self.rules]
        for result in results:
            previous = self._levels.get(result.rule, GREEN)
            if result.level != previous:
                self.incidents.append({
                    "cycle": sample.cycle,
                    "rule": result.rule,
                    "from": previous,
                    "to": result.level,
                    "value": result.value,
                    "detail": result.detail,
                })
            self._levels[result.rule] = result.level
        self.evaluations += 1
        self.last_results = results
        self.last_sample = sample
        self._counter_snapshot = dict(self.chip.counters)
        if self.router is not None:
            self._pci_busy_snapshot = self.router.pci.busy_cycles
        self._wfq_snapshot = self._wfq_packets()
        self._faults_snapshot = self._faults_total()
        self._ctrl_snapshot = self._ctrl_totals()
        self._last_cycle = sample.cycle
        return results

    def process(self, period: int = DEFAULT_PERIOD,
                on_evaluate: Optional[Callable[[List[RuleResult]], None]] = None,
                ) -> Generator:
        """A simulation process: evaluate every ``period`` cycles.  Spawn
        with ``sim.spawn(monitor.process(period), name="health-monitor")``."""
        from repro.engine import delay

        if period < 1:
            raise ValueError(f"monitor period must be >= 1, got {period}")
        d = delay(period)
        while True:
            yield d
            results = self.evaluate()
            if on_evaluate is not None:
                on_evaluate(results)

    # -- reporting --------------------------------------------------------

    @property
    def worst_level(self) -> str:
        if not self.last_results:
            return GREEN
        return max((r.level for r in self.last_results),
                   key=lambda lv: _SEVERITY[lv])

    def exit_code(self) -> int:
        """0 when every rule is green/yellow; 1 when any rule is red."""
        return 1 if self.worst_level == RED else 0

    def health_table(self) -> str:
        """The rendered health table for the CLI."""
        mark = {GREEN: "OK ", YELLOW: "WARN", RED: "RED "}
        lines = [
            f"== router health -- cycle {self._last_cycle}, "
            f"{self.evaluations} evaluations, "
            f"{len(self.incidents)} incidents ==",
            f"{'rule':<17} {'state':<5} {'value':>9}  detail",
        ]
        for r in self.last_results:
            value = "-" if r.value is None else f"{r.value:.3f}"
            lines.append(f"{r.rule:<17} {mark[r.level]:<5} {value:>9}  {r.detail}")
        if self.incidents:
            lines.append("incidents:")
            for inc in self.incidents:
                lines.append(
                    f"  cycle {inc['cycle']:>9}: {inc['rule']} "
                    f"{inc['from']} -> {inc['to']} ({inc['detail']})"
                )
        lines.append(f"overall: {self.worst_level.upper()}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "evaluations": self.evaluations,
            "worst_level": self.worst_level,
            "results": [r.to_dict() for r in self.last_results],
            "incidents": self.incidents,
        }


# ---------------------------------------------------------------------------
# Scenario front-end (shared with the CLI)
# ---------------------------------------------------------------------------


@dataclass
class MonitorResult:
    """One monitored scenario run, JSON-ready."""

    scenario: str
    window_cycles: int
    monitor: HealthMonitor
    results: List[RuleResult] = field(default_factory=list)

    @property
    def incidents(self) -> List[Dict[str, Any]]:
        return self.monitor.incidents

    def exit_code(self) -> int:
        return self.monitor.exit_code()

    def to_json(self, indent: Optional[int] = None) -> str:
        doc = dict(self.monitor.to_dict())
        doc["scenario"] = self.scenario
        doc["window_cycles"] = self.window_cycles
        return export.dumps(doc, indent=indent)


def monitor_scenario(name: str, window: int = 120_000, warmup: int = 20_000,
                     period: int = DEFAULT_PERIOD, sample_period: int = 2_000,
                     trace_capacity: int = 65_536,
                     sim=None,
                     on_evaluate: Optional[Callable[[List[RuleResult]], None]] = None,
                     ) -> MonitorResult:
    """Run one profile scenario under the health watchdog.

    The warmup runs unmonitored (cold-start transients are not
    incidents); the monitor then evaluates every ``period`` cycles over
    the measurement window, plus once at the end."""
    from repro.obs.profile import build_scenario

    run = build_scenario(name, sample_period=sample_period,
                         trace_capacity=trace_capacity, sim=sim)
    sim = run.sim
    sim.run(until=sim.now + warmup)
    monitor = HealthMonitor(run.chip, run.recorder, router=run.router)
    sim.spawn(monitor.process(period, on_evaluate=on_evaluate),
              name="health-monitor")
    sim.run(until=sim.now + window)
    results = monitor.evaluate()
    return MonitorResult(scenario=name, window_cycles=window,
                         monitor=monitor, results=results)
