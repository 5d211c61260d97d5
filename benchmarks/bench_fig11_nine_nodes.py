"""Figure 11: latency vs throughput on a 9-node cluster, PigPaxos with 2 and 3
relay groups vs Paxos.

Paper result: both PigPaxos configurations beat Paxos (the paper quotes up to
a 57% throughput improvement), 2 relay groups beats 3, and Paxos' latency
advantage at low load shrinks compared to the 5-node cluster.
"""

from __future__ import annotations

import pytest

from _common import SMALL_CLUSTER_SWEEP_CLIENTS, chart, comparison_table, paper_point, report, warmup
from repro.bench import latency_throughput_sweep

PAPER_SATURATION = {"paxos": 4500, "pigpaxos r=2": 7500, "pigpaxos r=3": 6500}


def _measure():
    sweeps = {}
    configs = [("paxos", None), ("pigpaxos r=2", 2), ("pigpaxos r=3", 3)]
    for label, groups in configs:
        point = paper_point(
            label,
            protocol="paxos" if groups is None else "pigpaxos",
            num_nodes=9,
            relay_groups=groups,
        )
        sweeps[label] = latency_throughput_sweep(point, SMALL_CLUSTER_SWEEP_CLIENTS, warmup())
    return sweeps


@pytest.mark.benchmark(group="fig11")
def test_fig11_nine_node_cluster(benchmark):
    sweeps = benchmark.pedantic(_measure, rounds=1, iterations=1)

    rows = [
        [label, PAPER_SATURATION[label], round(sweep.max_throughput()),
         round(sweep.runs[0].latency_mean_ms, 2)]
        for label, sweep in sweeps.items()
    ]
    lines = comparison_table(["configuration", "paper max req/s", "measured max req/s", "low-load lat ms"], rows)
    lines += [""] + chart(
        {label: sweep.latency_throughput_series() for label, sweep in sweeps.items()},
        x_label="throughput (req/s)", y_label="mean latency (ms)",
    )
    report("fig11_nine_nodes", "Figure 11 -- 9-node latency vs throughput", lines)

    paxos_max = sweeps["paxos"].max_throughput()
    # Paper: PigPaxos improves throughput over Paxos by >= ~50% in both configs.
    assert sweeps["pigpaxos r=2"].max_throughput() > 1.5 * paxos_max
    assert sweeps["pigpaxos r=3"].max_throughput() > 1.3 * paxos_max
    assert sweeps["pigpaxos r=2"].max_throughput() >= sweeps["pigpaxos r=3"].max_throughput()
