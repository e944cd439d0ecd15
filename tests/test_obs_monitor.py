"""The health watchdog: rule boundaries, incident determinism, CLI.

Each alert rule is unit-tested on synthesized :class:`HealthSample`
state at its exact fire/no-fire boundary, then the integrated monitor is
exercised end to end: green on the healthy scenarios, red on the forced
``overload`` scenario (CLI exits non-zero), and the incident log is
bit-identical across both schedulers.
"""

import json

import pytest

from repro.engine import Simulator
from repro.obs.monitor import (
    GREEN,
    RED,
    YELLOW,
    HealthMonitor,
    HealthSample,
    PCISaturationRule,
    QueueOverflowRule,
    TraceTruncationRule,
    VRPBudgetRule,
    WFQFairnessRule,
    default_rules,
    monitor_scenario,
)
from tests.heap_oracle import HeapSimulator

# ---------------------------------------------------------------------------
# Rule boundaries (synthesized samples)
# ---------------------------------------------------------------------------


class TestVRPBudgetRule:
    rule = VRPBudgetRule()

    def sample(self, cycles):
        return HealthSample(vrp_cycles=cycles, vrp_sram_transfers=0,
                            vrp_hashes=0, budget_cycles=240)

    def test_no_vrp_is_green_admission_controlled(self):
        result = self.rule.evaluate(HealthSample(vrp_cycles=None))
        assert result.level == GREEN
        assert "admission" in result.detail

    def test_at_budget_is_not_red(self):
        # Exactly on budget still fits: ratio == 1.0 must not fire red.
        result = self.rule.evaluate(self.sample(240))
        assert result.level == YELLOW

    def test_one_cycle_over_budget_is_red(self):
        assert self.rule.evaluate(self.sample(241)).level == RED

    def test_under_headroom_is_green(self):
        assert self.rule.evaluate(self.sample(216)).level == GREEN  # 0.9x
        assert self.rule.evaluate(self.sample(217)).level == YELLOW

    def test_sram_axis_fires_independently(self):
        sample = HealthSample(vrp_cycles=10, vrp_sram_transfers=25,
                              vrp_hashes=0, budget_sram_transfers=24)
        result = self.rule.evaluate(sample)
        assert result.level == RED and "sram" in result.detail

    def test_hash_axis_fires_independently(self):
        sample = HealthSample(vrp_cycles=10, vrp_sram_transfers=0,
                              vrp_hashes=4, budget_hashes=3)
        assert self.rule.evaluate(sample).level == RED

    def test_paper_ref_names_section(self):
        assert "4.3" in self.rule.paper_ref


class TestQueueOverflowRule:
    rule = QueueOverflowRule()

    def test_no_drops_empty_queues_is_green(self):
        sample = HealthSample(input_mps=1000, queue_drops=0)
        assert self.rule.evaluate(sample).level == GREEN

    def test_drop_rate_at_threshold_is_red(self):
        sample = HealthSample(input_mps=1000, queue_drops=10)  # exactly 1%
        assert self.rule.evaluate(sample).level == RED

    def test_drop_rate_below_threshold_is_yellow(self):
        sample = HealthSample(input_mps=1000, queue_drops=9)  # 0.9%
        assert self.rule.evaluate(sample).level == YELLOW

    def test_near_full_queue_without_drops_is_yellow(self):
        sample = HealthSample(input_mps=1000, queue_drops=0,
                              max_queue_depth_fraction=0.9)
        result = self.rule.evaluate(sample)
        assert result.level == YELLOW and "capacity" in result.detail

    def test_below_depth_threshold_is_green(self):
        sample = HealthSample(input_mps=1000, queue_drops=0,
                              max_queue_depth_fraction=0.89)
        assert self.rule.evaluate(sample).level == GREEN


class TestPCISaturationRule:
    rule = PCISaturationRule()

    def test_no_pci_is_green(self):
        result = self.rule.evaluate(HealthSample(pci_utilization=None))
        assert result.level == GREEN and result.value is None

    def test_at_red_threshold_fires(self):
        assert self.rule.evaluate(HealthSample(pci_utilization=0.95)).level == RED

    def test_just_below_red_is_yellow(self):
        assert self.rule.evaluate(HealthSample(pci_utilization=0.94)).level == YELLOW

    def test_at_yellow_threshold(self):
        assert self.rule.evaluate(HealthSample(pci_utilization=0.80)).level == YELLOW
        assert self.rule.evaluate(HealthSample(pci_utilization=0.79)).level == GREEN

    def test_full_pentium_queue_yellows_even_on_idle_bus(self):
        sample = HealthSample(pci_utilization=0.1, pentium_queue_occupancy=0.9)
        result = self.rule.evaluate(sample)
        assert result.level == YELLOW and "I2O" in result.detail


class TestWFQFairnessRule:
    rule = WFQFairnessRule()

    def sample(self, a_packets, b_packets, a_weight=3.0, b_weight=1.0):
        return HealthSample(wfq_classes={
            "a": (a_weight, a_packets), "b": (b_weight, b_packets),
        })

    def test_no_wfq_is_green(self):
        assert self.rule.evaluate(HealthSample(wfq_classes=None)).level == GREEN

    def test_too_few_packets_not_judged(self):
        result = self.rule.evaluate(self.sample(30, 10))
        assert result.level == GREEN and "not judged" in result.detail

    def test_fair_shares_are_green(self):
        # 3:1 weights, 3:1 service -- zero deviation.
        assert self.rule.evaluate(self.sample(300, 100)).level == GREEN

    def test_deviation_at_red_threshold_fires(self):
        # b expects 25% but gets 12.5% -> deviation exactly 0.5.
        result = self.rule.evaluate(self.sample(700, 100))
        assert result.level == RED
        assert result.value == pytest.approx(0.5)

    def test_deviation_between_yellow_and_red_is_yellow(self):
        # Equal weights, b gets 3/8 instead of 1/2 -> deviation exactly
        # 0.25 (binary-exact, so the >= comparison is unambiguous).
        result = self.rule.evaluate(
            self.sample(320, 192, a_weight=1.0, b_weight=1.0)
        )
        assert result.level == YELLOW
        assert result.value == pytest.approx(0.25)

    def test_deviation_below_yellow_is_green(self):
        # Equal weights, b gets 7/16 instead of 1/2 -> deviation 0.125.
        result = self.rule.evaluate(
            self.sample(288, 224, a_weight=1.0, b_weight=1.0)
        )
        assert result.level == GREEN
        assert result.value == pytest.approx(0.125)


class TestTraceTruncationRule:
    rule = TraceTruncationRule()

    def test_intact_ring_is_green(self):
        assert self.rule.evaluate(HealthSample(dropped_events=0)).level == GREEN

    def test_any_eviction_is_yellow_never_red(self):
        result = self.rule.evaluate(HealthSample(dropped_events=1))
        assert result.level == YELLOW


# ---------------------------------------------------------------------------
# The integrated monitor
# ---------------------------------------------------------------------------


def test_default_rules_cover_all_watchdog_dimensions():
    names = {rule.name for rule in default_rules()}
    assert names == {"vrp-budget", "queue-overflow", "pci-saturation",
                     "wfq-fairness", "trace-truncation"}


def test_monitor_scenario_healthy_router_is_green():
    result = monitor_scenario("router", window=60_000, warmup=15_000)
    assert result.exit_code() == 0
    assert result.monitor.worst_level == GREEN
    assert result.monitor.evaluations >= 6
    assert result.incidents == []
    # All five rules appear in the final verdict and the rendered table.
    table = result.monitor.health_table()
    for rule in default_rules():
        assert rule.name in table
    doc = json.loads(result.to_json())
    assert doc["scenario"] == "router" and len(doc["results"]) == 5


def test_monitor_scenario_overload_goes_red():
    """The forced-red path: a 40-block VRP is statically over the
    section 4.3 budget, so the watchdog must fire and the CLI exit
    non-zero."""
    result = monitor_scenario("overload", window=40_000, warmup=10_000)
    assert result.exit_code() == 1
    by_rule = {r.rule: r for r in result.results}
    assert by_rule["vrp-budget"].level == RED
    assert any(i["rule"] == "vrp-budget" and i["to"] == RED
               for i in result.incidents)


def test_incident_log_identical_across_schedulers():
    """Evaluations run at fixed cycles, so the structured incident log --
    cycles, rules, transitions, values -- is deterministic across both
    event-queue implementations."""

    def run(sim):
        result = monitor_scenario("overload", window=40_000, warmup=10_000,
                                  sim=sim)
        return (result.incidents,
                [r.to_dict() for r in result.results],
                result.monitor.evaluations)

    assert run(Simulator()) == run(HeapSimulator())


def test_monitor_evaluate_uses_delta_windows():
    """Counters are windowed per evaluation, not cumulative: a burst of
    drops in window 1 must not keep the rule red in a clean window 2."""
    from repro.ixp.chip import ChipConfig, IXP1200
    from repro.obs.recorder import Recorder

    chip = IXP1200(ChipConfig())
    recorder = chip.enable_observability(Recorder())
    monitor = HealthMonitor(chip, recorder)
    chip.counters["queue_drops"] += 50
    chip.counters["input_mps"] += 100
    assert {r.rule: r.level for r in monitor.evaluate()}["queue-overflow"] == RED
    chip.counters["input_mps"] += 1000
    results = {r.rule: r.level for r in monitor.evaluate()}
    assert results["queue-overflow"] == GREEN
    # The red->green transition was logged as an incident.
    assert [i["to"] for i in monitor.incidents
            if i["rule"] == "queue-overflow"] == [RED, GREEN]


def test_router_health_monitor_convenience():
    from repro.core.router import Router, RouterConfig

    router = Router(RouterConfig(num_ports=4))
    monitor = router.health_monitor()
    assert router.chip.recorder.enabled  # observability auto-enabled
    results = monitor.evaluate()
    assert {r.rule for r in results} == {rule.name for rule in default_rules()}
    assert monitor.exit_code() == 0


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_monitor_healthy_exits_zero(capsys):
    from repro.cli import main

    rc = main(["monitor", "fastpath", "--window", "30000",
               "--warmup", "10000", "--quiet"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "router health" in out and "overall: GREEN" in out
    for rule in default_rules():
        assert rule.name in out


def test_cli_monitor_overload_exits_nonzero(tmp_path, capsys):
    from repro.cli import main

    incidents = tmp_path / "incidents.json"
    rc = main(["monitor", "overload", "--window", "30000", "--warmup",
               "10000", "--quiet", "--incidents-out", str(incidents)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "overall: RED" in out
    doc = json.loads(incidents.read_text())
    assert doc["scenario"] == "overload"
    assert any(i["to"] == "red" for i in doc["incidents"])


def test_cli_profile_format_flags(tmp_path, capsys):
    from repro.cli import main
    from repro.obs.analysis import validate_chrome_trace

    chrome = tmp_path / "t.chrome.json"
    rc = main(["profile", "fastpath", "--window", "20000",
               "--format", "chrome", "--trace-out", str(chrome)])
    assert rc == 0
    assert validate_chrome_trace(json.loads(chrome.read_text())) == []

    csv_out = tmp_path / "t.csv"
    rc = main(["profile", "fastpath", "--window", "20000",
               "--format", "csv", "--trace-out", str(csv_out)])
    assert rc == 0
    assert csv_out.read_text().splitlines()[0] == \
        "cycle,component,event,packet_id,detail"
    capsys.readouterr()


def test_cli_list_mentions_profile_and_monitor_scenarios(capsys):
    from repro.cli import main

    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "monitor" in out and "profile" in out
    for scenario in ("fastpath", "vrp", "router", "overload"):
        assert scenario in out
