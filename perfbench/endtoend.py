"""The untraced run: end-to-end metrics of one workload.

Virtual metrics (throughput, latency, failures, time without service) come
from the first pass and are exact for a seed.  Wall metrics (set-up,
simulation and checker time, at the reference speed of
:mod:`perfbench.calibrate`) are medians over all passes; peak memory is
the process's.  Every pass must reproduce the first one's fingerprint.
"""

from __future__ import annotations

import gc
import resource

from perfbench import stats
from perfbench.workloads import (
    Budget,
    client_totals,
    failures,
    run_once,
    timed_builds,
    virtual_metrics,
    warm_up,
)

#: ``name -> unit`` of the end-to-end metrics, in print order.
END_TO_END = {
    "setup_s": "s",
    "sim_ops_per_s": "ops/s",
    "check_s": "s",
    "peak_rss_mb": "MB",
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "ok_frac": "ratio",
    "unavailable_s": "s",
}

#: Cluster builds timed before the first pass; ``setup_s`` is the median of
#: these and the one build of every pass.
SETUP_REPEATS = 15


def measure(workload, seed, seconds, duration=None):
    """The untraced run: end-to-end metrics. Returns ``(correct, totals, metrics)``.

    ``duration`` shortens the virtual run (smoke tests).
    """
    budget = Budget(seconds)
    scenario = workload.scenario(seed, duration)
    warm_up(workload, seed, scenario.duration)
    builds = timed_builds(scenario, SETUP_REPEATS)
    gc.collect()

    problems, sim_rates, check_times, slowdowns = [], [], [], []
    first = None
    budget.start()
    while True:
        done = run_once(scenario)
        builds.append(done.build_s)
        sim_rates.append(done.result.completed_requests / done.sim_s)
        check_times.append(done.check_s)
        slowdowns.append(done.slowdown)
        if first is None:
            first = {
                "fingerprint": done.result.fingerprint(),
                "virtual": virtual_metrics(workload, scenario, done.cluster),
                "totals": client_totals(done.cluster),
                "summary": done.result.summary(),
            }
            problems += failures(done.result)
        elif done.result.fingerprint() != first["fingerprint"]:
            problems.append("pass fingerprint differs from the first pass: nondeterminism")
        del done
        gc.collect()
        if not budget.another():
            break

    virtual = first["virtual"]
    metrics = {
        "setup_s": stats.median(builds),
        "sim_ops_per_s": stats.median(sim_rates),
        "check_s": stats.median(check_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "throughput_ops_s": virtual["throughput_ops_s"],
        "latency_p50_ms": virtual["latency_p50_ms"],
        "latency_p99_ms": virtual["latency_p99_ms"],
        "ok_frac": virtual["ok_frac"],
        "unavailable_s": virtual["unavailable_s"],
    }
    totals = first["totals"]
    print(f"workload {workload.name} seed {seed}: {first['summary']}")
    print(f"  fingerprint {first['fingerprint']}")
    print(
        f"  {len(sim_rates)} passes, {len(builds)} builds; requests issued {totals['issued']}, "
        f"completed {totals['completed']}, retries {totals['retries']} "
        f"(failed_frac {virtual['failed_frac']:.6f}), in flight at end {totals['in_flight']}"
    )
    print(
        "  wall times are at reference speed; the machine ran "
        + ", ".join(f"{s:.2f}x" for s in slowdowns)
        + " slower than reference in the passes"
    )
    for name, unit in END_TO_END.items():
        note = ""
        if name.startswith("latency_"):
            note = f"  (n={virtual['latency_samples']}"
            note += f", {virtual['latency_p99_tail']} beyond p99)" if "p99" in name else ")"
        print(f"  {name:<18} {metrics[name]:>14.6f} {unit}{note}")
    for problem in problems:
        print(f"FAIL {problem}")
    return not problems, totals, {name: (metrics[name], END_TO_END[name]) for name in END_TO_END}
