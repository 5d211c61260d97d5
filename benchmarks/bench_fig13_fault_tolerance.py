"""Figure 13: throughput over time under a single-node failure (25 nodes,
3 relay groups, 50 ms relay timeout).

Paper result: crashing one node in one relay group costs only ~3% of maximum
throughput while the fault lasts, because the two healthy relay groups plus
the leader still form a majority and answer quickly; throughput returns to
normal when the node recovers.
"""

from __future__ import annotations

import pytest

from _common import SCALE, comparison_table, paper_point, report
from repro.bench import completion_rates
from repro.scenarios import ScenarioEvent, run_scenario

RUN_DURATION = 3.0 * SCALE
FAIL_START = 1.0 * SCALE
FAIL_END = 2.0 * SCALE
SAMPLE_INTERVAL = 0.25 * SCALE
SATURATING_CLIENTS = 150
PAPER_DEGRADATION_PCT = 3.0


def _measure():
    # Node 24 sits in the last relay group of the round-robin partition.
    point = paper_point(
        "fig13-crash-window",
        protocol="pigpaxos",
        num_nodes=25,
        relay_groups=3,
        num_clients=SATURATING_CLIENTS,
        duration=RUN_DURATION,
        events=(ScenarioEvent.crash(FAIL_START, 24), ScenarioEvent.recover(FAIL_END, 24)),
        config_overrides={"overlay": {"kind": "relay", "relay_timeout": 0.05}},
    )
    return completion_rates(run_scenario(point), SAMPLE_INTERVAL)


def _window_mean(series, start, end):
    rates = [rate for t, rate in series if start <= t < end]
    return sum(rates) / len(rates) if rates else 0.0


@pytest.mark.benchmark(group="fig13")
def test_fig13_single_node_failure_timeline(benchmark):
    series = benchmark.pedantic(_measure, rounds=1, iterations=1)

    before = _window_mean(series, 0.25 * SCALE, FAIL_START)
    during = _window_mean(series, FAIL_START + SAMPLE_INTERVAL, FAIL_END)
    after = _window_mean(series, FAIL_END + SAMPLE_INTERVAL, RUN_DURATION)
    degradation_pct = 100.0 * (1.0 - during / before) if before else 100.0

    lines = comparison_table(
        ["window", "measured req/s"],
        [["before failure", round(before)], ["during failure", round(during)], ["after recovery", round(after)]],
    )
    lines += [
        "",
        f"throughput degradation during failure: {degradation_pct:.1f}% (paper: ~{PAPER_DEGRADATION_PCT}%)",
        "",
        "timeline (window start -> req/s):",
    ] + [f"  t={t:5.2f}s  {rate:8.0f}" for t, rate in series]
    report("fig13_fault_tolerance", "Figure 13 -- throughput under a single-node failure", lines)

    # Shape: the failure causes at most a modest dip (paper: ~3%); we allow up
    # to 15% to absorb simulator noise at short durations, and require recovery.
    assert during > 0.85 * before
    assert after > 0.9 * before
