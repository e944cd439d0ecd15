"""Host-cost benchmark of the router simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload router-linerate --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``):
``router-linerate``, ``router-slowpath``, ``chaos-ring``.

The run first derives every input from ``--seed`` (untimed), plays one
warm-up round, then repeats identical timed rounds while the next one
is expected to end within ``--seconds``.  Each round times set-up
(building the simulated system) and the fixed simulated span separately
and checks the workload's correctness gate; the simulated counts must
repeat exactly in every round.  Host times are reported as means over rounds, scaled to a
reference machine speed sampled all through the run (see
``hostspeed.py``); the raw per-round times are printed too.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends a
third of the time on untraced rounds and the rest under a profiler hook
that splits host self time across ``repro.<package>`` layers, and
prints the per-layer metrics, including the tracing overhead.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The process exits
non-zero without that line when the simulator sources (``src/repro``)
are not present next to the benchmark.
"""

# repro-lint: file-disable=RPR102 -- a benchmark measures host time on purpose.

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from typing import Dict, List, Tuple

#: Accepted range of profiler total over traced run-phase wall time.
PROFILED_SHARE = (0.9, 1.02)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _mean(rounds, value) -> float:
    """Mean over rounds of ``value(round)`` at reference speed.  A mean,
    not a median, because the speed it is scaled by is a mean too: the
    pair is total round seconds over total kernel seconds."""
    return statistics.mean(value(r) * r.scale for r in rounds)


def end_to_end(rounds, rss_mb: float) -> Dict[str, Dict[str, object]]:
    first = rounds[0]
    run_s = _mean(rounds, lambda r: r.run_s)
    return {
        "setup_s": _metric(_mean(rounds, lambda r: r.setup_s), "s"),
        "run_s": _metric(run_s, "s"),
        "sim_cycles_per_s": _metric(first.sim_cycles / run_s, "cycles/s"),
        "delivered_mp_per_s": _metric(first.delivered_mp / run_s, "MP/s"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
        "delivered_mp": _metric(first.delivered_mp, "count"),
        "loss_pct": _metric(first.loss_pct, "%"),
    }


def per_layer(untraced, traced) -> Dict[str, Dict[str, object]]:
    from layers import LAYERS

    first = untraced[0]
    c = first.counts
    run_s = _mean(untraced, lambda r: r.run_s)
    traced_run_s = _mean(traced, lambda r: r.run_s)
    out: Dict[str, Dict[str, object]] = {}
    for layer in LAYERS + ("other",):
        out[f"{layer}.self_s"] = _metric(
            _mean(traced, lambda r: r.layer_self_s[layer]), "s")

    def span(name: str) -> float:
        return _mean(untraced, lambda r: r.spans.total(name))

    events = c["engine.events"]
    polls = c["ixp.input_polls"]
    lookups = c["net.cache_hits"] + c["net.cache_misses"]
    out.update({
        "engine.events": _metric(events, "count"),
        "engine.events_per_s": _metric(events / run_s, "1/s"),
        "engine.events_per_delivered_mp": _metric(
            _ratio(events, first.delivered_mp), "events/MP"),
        "ixp.input_polls": _metric(polls, "count"),
        "ixp.empty_poll_frac": _metric(
            _ratio(polls - c["ixp.input_mps"], polls), "ratio"),
        "ixp.queue_drops": _metric(c["ixp.queue_drops"], "count"),
        "net.cache_hit_rate": _metric(_ratio(c["net.cache_hits"], lookups), "ratio"),
        "net.cache_misses": _metric(c["net.cache_misses"], "count"),
        "net.table_load_s": _metric(span("net.table_load"), "s"),
        "net.churn_s": _metric(span("net.churn"), "s"),
        "core.exceptional_frac": _metric(
            _ratio(c["core.exceptional"], c["core.input_packets"]), "ratio"),
        "control.converge_s": _metric(span("control.converge"), "s"),
        "trace.overhead_pct": _metric(100.0 * (traced_run_s / run_s - 1.0), "%"),
        "trace.profiled_frac": _metric(
            statistics.mean(r.profiled_s / r.run_s for r in traced), "ratio"),
    })
    for key in ("hosts.sa_local", "hosts.sa_bridged", "hosts.sa_drops",
                "hosts.pentium_processed", "control.hellos", "control.lsa_msgs",
                "control.retransmits", "control.spf_runs", "topo.link_frames",
                "topo.link_drops", "faults.injected"):
        out[key] = _metric(c[key], "count")
    out["hosts.pci_bytes"] = _metric(c["hosts.pci_bytes"], "bytes")
    return out


def trace_failures(result) -> List[str]:
    """The traced run's own gate: layer self times sum to the profiler
    total, and the profiler saw (nearly) all of the timed run phase."""
    attributed = sum(result.layer_self_s.values())
    failures = []
    if abs(attributed - result.profiled_s) > 1e-6 * max(1.0, result.profiled_s):
        failures.append(f"trace: layer self times sum to {attributed:.6f} s, "
                        f"profiler total is {result.profiled_s:.6f} s")
    share = result.profiled_s / result.run_s
    if not PROFILED_SHARE[0] <= share <= PROFILED_SHARE[1]:
        failures.append(f"trace: profiler saw {share:.3f} of the traced run phase")
    return failures


def write_spans(workload, rounds) -> str:
    """Dump every round's spans (round index = trace id) under
    ``.perfbench/`` in the checkout; returns the path."""
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{workload.name}-{workload.seed}.json")
    with open(path, "w") as f:
        json.dump([{"round": i, "scale": r.scale, "spans": r.spans.as_dicts()}
                   for i, r in enumerate(rounds)], f, sort_keys=True)
    return path


def run(workload, seconds: float, trace: bool, out=sys.stdout) -> Tuple[dict, List]:
    """Measure a constructed workload; returns ``(result, rounds)``."""
    from hostspeed import REFERENCE_S, SpeedKernel
    from layers import LayerProfile

    speed = SpeedKernel()
    kernel: List[float] = []

    def pace() -> None:
        """Sample the machine's speed (between rounds and between the
        pieces of a round; never inside a timed phase)."""
        kernel.append(speed.seconds())

    warmup = workload.run_round(workload.prepare_warmup())
    pace()
    start = time.perf_counter()
    last = 0.0  # wall seconds of the latest round, speed samples included

    def timed_round(profile=None):
        nonlocal last
        began = time.perf_counter()
        result = workload.run_round(workload.prepare(), profile=profile, pace=pace)
        pace()
        last = time.perf_counter() - began
        return result

    def fits(done, budget: float) -> bool:
        """Play another round while it is expected to end within the
        budget; every phase plays at least one."""
        return not done or time.perf_counter() - start + last <= budget

    untraced, traced = [], []
    untraced_budget = seconds / 3.0 if trace else seconds
    while fits(untraced, untraced_budget):
        untraced.append(timed_round())
    if trace:
        while fits(traced, seconds):
            profile = LayerProfile()
            result = timed_round(profile)
            result.layer_self_s, result.profiled_s = profile.split()
            problems = trace_failures(result)
            if problems:
                result.failures.extend(problems)
                result.failed = result.attempted
            traced.append(result)

    rounds = [warmup] + untraced + traced
    scale = REFERENCE_S / statistics.mean(kernel)
    for r in rounds:
        r.scale = scale
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    messages = [m for r in rounds for m in r.failures]
    reference = untraced[0].digest
    for index, r in enumerate(untraced + traced):
        if r.digest != reference:
            failed += r.attempted
            messages.append(f"round {index}: digest {r.digest} != {reference}")
    for message in sorted(set(messages)):
        print(f"GATE FAILED: {message}", file=out)

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = per_layer(untraced, traced) if trace else end_to_end(untraced, rss_mb)
    print(f"workload {workload.name} seed {workload.seed}: {len(untraced)} untraced + "
          f"{len(traced)} traced rounds, digest {reference}", file=out)
    print("  host-speed kernel s " + " ".join(f"{k:.4f}" for k in kernel), file=out)
    for label, rs in (("untraced", untraced), ("traced", traced)):
        for field in ("setup_s", "run_s") if rs else ():
            print(f"  {label} rounds raw {field} "
                  + " ".join(f"{getattr(r, field):.4f}" for r in rs), file=out)
    for name, metric in metrics.items():
        print(f"  {name:<34} {metric['value']:>16.6g} {metric['unit']}", file=out)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, rounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("router-linerate", "router-slowpath", "chaos-ring"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: simulator sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    result, rounds = run(workload, args.seconds, bool(args.trace))
    if args.trace:
        path = write_spans(workload, rounds)
        print(f"spans written to {os.path.relpath(path, ROOT)}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
