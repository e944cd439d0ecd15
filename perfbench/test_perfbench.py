"""Tests of the benchmark itself, on scaled-down workloads.

Run from the repository root::

    python3 -m pytest -q perfbench
"""

import io
import json
import os
import shutil
import statistics
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run as bench  # noqa: E402
from layers import LAYERS, LayerProfile  # noqa: E402
from workloads import ChaosRing, RouterLinerate, RouterSlowpath  # noqa: E402


def small(name, seed):
    """The three workloads at test size: same structure, shorter spans."""
    if name == "router-linerate":
        return RouterLinerate(seed, traffic_cycles=20_000)
    if name == "router-slowpath":
        return RouterSlowpath(seed, prefixes=3_000, traffic_cycles=134_400)
    return ChaosRing(seed, trials=1)


NAMES = ("router-linerate", "router-slowpath", "chaos-ring")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def measure(workload, trace):
    return bench.run(workload, seconds=0.0, trace=trace, out=io.StringIO())


@pytest.mark.parametrize("name", NAMES)
def test_printed_metric_names_match_benchmark_json(name):
    doc = spec()
    assert name in [w["name"] for w in doc["workloads"]]
    result, rounds = measure(small(name, 1), trace=False)
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric in ("run_s", "setup_s", "delivered_mp", "loss_pct"):
        assert result["metrics"][metric]["value"] > 0
    measured = rounds[1:]  # after the warm-up round
    assert result["metrics"]["run_s"]["value"] == statistics.mean(
        r.run_s * r.scale for r in measured)
    assert all(r.scale > 0 for r in measured)

    result, __ = measure(small(name, 1), trace=True)
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in doc["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


@pytest.mark.parametrize("seed", (1, 2))
@pytest.mark.parametrize("name", NAMES)
def test_counts_repeat_exactly(name, seed):
    first = small(name, seed)
    a = first.run_round(first.prepare())
    b = first.run_round(first.prepare())
    again = small(name, seed)
    c = again.run_round(again.prepare())
    for r in (b, c):
        assert r.digest == a.digest
        assert r.counts == a.counts
        assert (r.delivered_mp, r.offered, r.dropped) == (a.delivered_mp, a.offered, a.dropped)
    assert not a.failures


def test_traced_round_matches_untraced_and_splits_time():
    workload = small("router-linerate", 3)
    plain = workload.run_round(workload.prepare())
    profile = LayerProfile()
    traced = workload.run_round(workload.prepare(), profile=profile)
    split, total = profile.split()
    assert traced.digest == plain.digest
    assert set(split) == set(LAYERS) | {"other"}
    assert sum(split.values()) == pytest.approx(total)
    assert split["engine"] > 0 and split["ixp"] > 0
    assert split["obs"] == 0 and split["control"] == 0


def test_gate_trips_on_planted_imbalance(monkeypatch):
    """A packet the chip reports as sent but never hands to its egress
    MAC breaks conservation, and the run counts it as failed."""
    from repro.ixp.chip import IXP1200

    original = IXP1200.complete_packet
    planted = []

    def leaky(chip, descriptor):
        if not planted and descriptor.packet is not None:
            planted.append(descriptor)
            chip.counters["output_packets"] += 1
            return
        original(chip, descriptor)

    monkeypatch.setattr(IXP1200, "complete_packet", leaky)
    result, rounds = measure(small("router-linerate", 1), trace=False)
    assert planted
    assert not result["correct"]
    assert result["failed"] >= 1
    assert any("conservation" in m for r in rounds for m in r.failures)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "router-linerate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def targets():
    with open(os.path.join(HERE, "targets.json")) as f:
        return json.load(f)


def test_every_layer_metric_names_its_target():
    doc, layers = spec(), targets()["layers"]
    end_to_end = {m["name"] for m in doc["end_to_end"]}
    workloads = {w["name"] for w in doc["workloads"]}
    assert set(layers) == {m["name"] for m in doc["per_layer"]}
    for name, target in layers.items():
        assert target["moves"] and set(target["moves"]) <= end_to_end, name
        assert target["on"] and set(target["on"]) <= workloads, name


@pytest.mark.parametrize("name", NAMES)
def test_baseline_outcome_at_recorded_seed(name):
    """Full-size round at the recorded seed reproduces the recorded
    simulated outcome (a change that alters it must say so)."""
    from workloads import WORKLOADS

    doc = targets()
    expected = doc["baseline"][name]
    workload = WORKLOADS[name](doc["baseline_seed"])
    r = workload.run_round(workload.prepare())
    assert not r.failures
    assert r.counts == expected["counts"]
    assert (r.offered, r.delivered_mp, r.dropped, r.sim_cycles) == (
        expected["offered"], expected["delivered_mp"], expected["dropped"],
        expected["sim_cycles"])
    assert r.digest == expected["digest"]
