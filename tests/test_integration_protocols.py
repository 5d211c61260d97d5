"""Integration tests: full simulated clusters running each protocol.

These drive the same stack the benchmarks use (builder -> nodes -> replicas
-> clients) and check the consensus guarantees the paper relies on: replicas
agree on the committed prefix, every committed command executes exactly once
in the same order, and clients get their answers.
"""

from __future__ import annotations

import pytest

from repro.cluster.builder import build_cluster
from repro.cluster.topologies import wan_topology
from repro.protocol.config import ProtocolConfig
from repro.workload.spec import WorkloadSpec


def run_cluster(protocol, duration=0.5, **kwargs):
    kwargs.setdefault("num_nodes", 5)
    kwargs.setdefault("num_clients", 6)
    kwargs.setdefault("seed", 13)
    kwargs.setdefault("workload", WorkloadSpec(num_keys=50))
    cluster = build_cluster(protocol=protocol, **kwargs)
    cluster.run(duration)
    return cluster


class TestPaxosCluster:
    def test_progress_and_agreement(self):
        cluster = run_cluster("paxos")
        assert cluster.total_completed_requests() > 100
        assert cluster.logs_agree()
        assert cluster.leader_id() == 0

    def test_followers_execute_leader_prefix(self):
        cluster = run_cluster("paxos")
        leader = cluster.nodes[cluster.leader_id()].replica
        for node_id, node in cluster.nodes.items():
            if node_id == cluster.leader_id():
                continue
            follower = node.replica
            assert follower.log.executed_count > 0
            # Follower state is a prefix of the leader's: every executed slot matches.
            for entry in follower.log.entries():
                if entry.executed:
                    leader_entry = leader.log.get(entry.slot)
                    assert leader_entry is not None
                    assert getattr(leader_entry.command, "uid", None) == getattr(entry.command, "uid", None)

    def test_reads_and_writes_both_served(self):
        cluster = run_cluster("paxos", workload=WorkloadSpec(num_keys=10, read_ratio=0.5))
        leader = cluster.nodes[cluster.leader_id()].replica
        assert len(leader.store) > 0

    def test_larger_cluster_scales_down_throughput(self):
        small = run_cluster("paxos", num_nodes=5, num_clients=30, duration=0.4)
        large = run_cluster("paxos", num_nodes=15, num_clients=30, duration=0.4)
        assert large.total_completed_requests() < small.total_completed_requests()


class TestPigPaxosCluster:
    @pytest.mark.parametrize("relay_groups", [2, 3])
    def test_progress_and_agreement(self, relay_groups):
        cluster = run_cluster("pigpaxos", relay_groups=relay_groups)
        assert cluster.total_completed_requests() > 100
        assert cluster.logs_agree()

    def test_leader_sends_fewer_messages_than_paxos_leader(self):
        paxos = run_cluster("paxos", num_nodes=9, num_clients=10, duration=0.4)
        pig = run_cluster("pigpaxos", num_nodes=9, num_clients=10, duration=0.4, relay_groups=2)
        paxos_leader_out = paxos.sim.metrics.counter("node.0.messages_out").value
        pig_leader_out = pig.sim.metrics.counter("node.0.messages_out").value
        paxos_done = paxos.total_completed_requests()
        pig_done = pig.total_completed_requests()
        # Normalize by completed requests: Paxos leader sends ~N-1 messages per
        # request, PigPaxos only ~r.
        assert paxos_leader_out / paxos_done > 2.5 * (pig_leader_out / pig_done)

    def test_relay_load_spread_over_followers(self):
        cluster = run_cluster("pigpaxos", num_nodes=9, num_clients=10, relay_groups=2)
        follower_out = [
            cluster.sim.metrics.counter(f"node.{node_id}.messages_out").value
            for node_id in range(1, 9)
        ]
        # Random relay rotation: every follower relayed at least once, and no
        # follower does more than a few times the minimum.
        assert min(follower_out) > 0
        assert max(follower_out) < 5 * min(follower_out)

    def test_region_aligned_groups_on_wan(self):
        topology = wan_topology(num_nodes=9)
        cluster = build_cluster(protocol="pigpaxos", num_nodes=9, num_clients=5, seed=13,
                                topology=topology, use_region_groups=True,
                                workload=WorkloadSpec(num_keys=50))
        cluster.run(1.0)
        assert cluster.total_completed_requests() > 10
        leader = cluster.nodes[cluster.leader_id()].replica
        plan = leader.overlay.plan()
        region_map = topology.region_map()
        for group in plan.groups:
            assert len({region_map[n] for n in group}) == 1  # one region per group

    def test_pigpaxos_outperforms_paxos_at_scale(self):
        paxos = run_cluster("paxos", num_nodes=15, num_clients=60, duration=0.4)
        pig = run_cluster("pigpaxos", num_nodes=15, num_clients=60, duration=0.4, relay_groups=2)
        assert pig.total_completed_requests() > 1.3 * paxos.total_completed_requests()

    def test_multi_level_relay_tree_still_correct(self):
        config = ProtocolConfig(overlay={"kind": "relay", "num_groups": 2, "relay_levels": 2})
        cluster = build_cluster(protocol="pigpaxos", num_nodes=13, num_clients=5, seed=13,
                                protocol_config=config, workload=WorkloadSpec(num_keys=50))
        cluster.run(0.5)
        assert cluster.total_completed_requests() > 50
        assert cluster.logs_agree()

    def test_partial_response_threshold_still_commits(self):
        config = ProtocolConfig(
            overlay={"kind": "relay", "num_groups": 2, "group_response_threshold": 0.6}
        )
        cluster = build_cluster(protocol="pigpaxos", num_nodes=9, num_clients=5, seed=13,
                                protocol_config=config, workload=WorkloadSpec(num_keys=50))
        cluster.run(0.5)
        assert cluster.total_completed_requests() > 50
        assert cluster.logs_agree()


class TestEPaxosCluster:
    def test_progress_with_conflicting_workload(self):
        cluster = run_cluster("epaxos", workload=WorkloadSpec(num_keys=5))
        assert cluster.total_completed_requests() > 50

    def test_replicas_converge_on_executed_state(self):
        cluster = run_cluster("epaxos", duration=0.5, workload=WorkloadSpec(num_keys=10, read_ratio=0.0))
        # Let in-flight instances drain with no new client load.
        for client in cluster.clients:
            client.stop()
        cluster.sim.run(until=cluster.sim.now + 0.5)
        executed = [node.replica.graph.executed_count for node in cluster.nodes.values()]
        assert max(executed) - min(executed) <= max(2, 0.05 * max(executed))

    def test_fast_path_dominates_conflict_free_workload(self):
        cluster = run_cluster("epaxos", num_clients=3, workload=WorkloadSpec(num_keys=100_000))
        fast = cluster.sim.metrics.counter("epaxos.fast_path_commits").value
        slow = cluster.sim.metrics.counter("epaxos.slow_path_rounds").value
        assert fast > 10 * max(slow, 1)

    def test_slow_path_appears_with_tiny_keyspace(self):
        cluster = run_cluster("epaxos", num_clients=10, workload=WorkloadSpec(num_keys=2, read_ratio=0.0))
        assert cluster.sim.metrics.counter("epaxos.slow_path_rounds").value > 0
