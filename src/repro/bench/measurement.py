"""Measurement windows and sweeps over Scenario runs.

A paper benchmark point is a :class:`~repro.scenarios.spec.Scenario` (cluster
shape, workload, fault script, duration) plus a measurement window.
:func:`measure` aggregates the client-side latency and throughput of a
finished run over ``[warmup, duration - COOLDOWN]``, excluding warm-up and
the final cool-down as benchmarking practice -- and the Paxi benchmark -- do.
:func:`latency_throughput_sweep` re-runs one scenario at several client
counts (Figures 7-12) and :func:`completion_rates` buckets a run's
completions into fixed windows after the fact (Figure 13's timeline).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from typing import List, Sequence, Tuple

from repro.bench.results import RunResult, SweepResult
from repro.errors import BenchmarkError
from repro.scenarios.runner import ScenarioResult, run_scenario
from repro.scenarios.spec import Scenario
from repro.sim.metrics import Histogram

#: Seconds at the end of every run left out of the measurement window.
COOLDOWN = 0.05


def measure(result: ScenarioResult, warmup: float) -> RunResult:
    """Aggregate one run's client measurements over its measurement window."""
    scenario = result.scenario
    if scenario.duration <= warmup + COOLDOWN:
        raise BenchmarkError("duration must exceed warmup + cooldown")
    window_start, window_end = warmup, scenario.duration - COOLDOWN
    latency = Histogram("latency")
    retries = 0
    for client in result.cluster.clients:
        retries += client.stats.retries
        for seconds in client.stats.latencies(window_start, window_end):
            latency.observe(seconds)

    extra = {}
    if scenario.relay_groups is not None:
        extra["relay_groups"] = scenario.relay_groups
    extra["value_size"] = scenario.workload.value_size
    measured_window = window_end - window_start
    return RunResult(
        protocol=scenario.protocol,
        num_nodes=scenario.num_nodes,
        num_clients=scenario.num_clients,
        duration=scenario.duration,
        measured_window=measured_window,
        completed_requests=latency.count,
        throughput=latency.count / measured_window,
        latency_mean=latency.mean,
        latency_p50=latency.percentile(50),
        latency_p95=latency.percentile(95),
        latency_p99=latency.percentile(99),
        latency_max=latency.max,
        client_retries=retries,
        extra=extra,
    )


def latency_throughput_sweep(
    scenario: Scenario,
    client_counts: Sequence[int],
    warmup: float,
) -> SweepResult:
    """Run ``scenario`` at each client count and measure every point."""
    sweep = SweepResult(label=scenario.name)
    for count in client_counts:
        sweep.add(measure(run_scenario(replace(scenario, num_clients=count)), warmup))
    return sweep


def completion_rates(result: ScenarioResult, interval: float) -> List[Tuple[float, float]]:
    """Completed requests per second in each ``interval``-wide window of the run.

    Returns ``(window_start_time, requests_per_second)`` pairs covering the
    run; a trailing partial window is dropped.
    """
    if interval <= 0:
        raise BenchmarkError("interval must be positive")
    counts = Counter(
        int(completed_at // interval)
        for client in result.cluster.clients
        for completed_at, _ in client.stats.completions
    )
    windows = int(result.scenario.duration // interval)
    return [(window * interval, counts[window] / interval) for window in range(windows)]
