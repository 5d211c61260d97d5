"""Section 6.4: cross-region WAN traffic per write operation.

Paper example: 3 regions x 3 nodes -- a PigPaxos write sends 2 messages
across region boundaries (one per remote relay group), a Paxos write sends 6
(one per remote node): a 3x difference in billable WAN traffic.  The
benchmark checks the analytical model and then measures actual cross-region
message counts in the simulator.
"""

from __future__ import annotations

import pytest

from _common import comparison_table, paper_point, report
from repro.analysis.wan import wan_traffic_table
from repro.cluster.topologies import paper_wan_regions
from repro.scenarios import run_scenario
from repro.workload.spec import WorkloadSpec

#: The paper's round-robin layout: virginia [0, 3, 6], california [1, 4, 7], oregon [2, 5, 8].
REGIONS = paper_wan_regions(9)


def _measured_cross_region_per_request(protocol: str) -> float:
    result = run_scenario(paper_point(
        f"wan-traffic-{protocol}",
        protocol=protocol,
        num_nodes=9,
        wan=True,
        use_region_groups=(protocol == "pigpaxos"),
        num_clients=20,
        workload=WorkloadSpec(read_ratio=0.0),
        duration=1.0,
    ))
    # The network classifies every send by the regions of its two ends.
    cross = result.counters().get("region.cross_messages", 0.0)
    completed = result.completed_requests
    return cross / completed if completed else float("inf")


@pytest.mark.benchmark(group="wan-traffic")
def test_wan_cross_region_traffic(benchmark):
    def _measure():
        return {protocol: _measured_cross_region_per_request(protocol) for protocol in ("pigpaxos", "paxos")}

    measured = benchmark.pedantic(_measure, rounds=1, iterations=1)
    model = {row.protocol: row.cross_region_messages for row in
             wan_traffic_table({name: len(nodes) for name, nodes in REGIONS.items()}, leader_region="virginia")}

    rows = [
        [protocol, model[protocol], round(measured[protocol], 2)]
        for protocol in ("pigpaxos", "paxos")
    ]
    report(
        "wan_traffic",
        "Section 6.4 -- cross-region messages per write (3 regions x 3 nodes)",
        comparison_table(["protocol", "model fan-out msgs", "measured cross-region msgs/request"], rows)
        + ["", "note: measured counts include the fan-in direction and heartbeats,",
           "so absolute values exceed the fan-out-only model; the ratio is what matters."],
    )

    assert model["paxos"] == 3 * model["pigpaxos"]
    assert all(0.0 < value < float("inf") for value in measured.values()), measured
    # Measured totals (both directions + heartbeats): Paxos uses ~2.5-3x the
    # cross-region traffic of PigPaxos per committed request.
    assert measured["paxos"] > 2.0 * measured["pigpaxos"]
