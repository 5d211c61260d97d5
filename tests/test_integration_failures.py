"""Failure-injection integration tests.

These exercise the fault-tolerance claims of Section 3.4 and the behaviour
behind Figure 13: follower failures only delay the affected relay group,
relay failures are healed by random re-selection and leader retries, and a
leader failure triggers a new election while the log stays consistent.
"""

from __future__ import annotations


from repro.cluster.builder import build_cluster
from repro.cluster.faults import FaultSchedule
from repro.protocol.config import ProtocolConfig
from repro.workload.spec import WorkloadSpec

WORKLOAD = WorkloadSpec(num_keys=50)


class TestFollowerAndRelayFailures:
    def test_pigpaxos_keeps_committing_with_one_crashed_follower(self):
        schedule = FaultSchedule().crash(4, at=0.1)
        cluster = build_cluster(protocol="pigpaxos", num_nodes=9, num_clients=6, seed=21,
                                relay_groups=3, fault_schedule=schedule, workload=WORKLOAD)
        cluster.run(0.6)
        assert cluster.total_completed_requests() > 100
        assert cluster.logs_agree()

    def test_pigpaxos_survives_minority_crash(self):
        # 9 nodes tolerate 4 failures; crash 3 followers across groups.
        schedule = FaultSchedule().crash(3, at=0.1).crash(5, at=0.1).crash(7, at=0.1)
        cluster = build_cluster(protocol="pigpaxos", num_nodes=9, num_clients=6, seed=21,
                                relay_groups=3, fault_schedule=schedule, workload=WORKLOAD)
        cluster.run(0.8)
        assert cluster.total_completed_requests() > 50
        assert cluster.logs_agree()

    def test_throughput_recovers_after_follower_returns(self):
        schedule = FaultSchedule().crash_window(4, start=0.3, end=0.6)
        cluster = build_cluster(protocol="pigpaxos", num_nodes=9, num_clients=10, seed=21,
                                relay_groups=3, fault_schedule=schedule, workload=WORKLOAD)
        cluster.sim.metrics.timeseries("client.completions", interval=0.1)
        cluster.run(1.0)
        rates = dict(cluster.sim.metrics.timeseries("client.completions", interval=0.1).rates(end=1.0))
        during = rates.get(0.4, 0.0) + rates.get(0.5, 0.0)
        after = rates.get(0.8, 0.0) + rates.get(0.9, 0.0)
        assert after > 0
        assert during > 0  # a single follower failure does not halt progress

    def test_paxos_also_survives_follower_crash(self):
        schedule = FaultSchedule().crash(2, at=0.1)
        cluster = build_cluster(protocol="paxos", num_nodes=5, num_clients=6, seed=21,
                                fault_schedule=schedule, workload=WORKLOAD)
        cluster.run(0.6)
        assert cluster.total_completed_requests() > 100
        assert cluster.logs_agree()


class TestLeaderFailure:
    def test_new_leader_elected_after_crash(self):
        config = ProtocolConfig(overlay={"kind": "relay", "num_groups": 2},
                                election_timeout_min=0.15, election_timeout_max=0.3,
                                heartbeat_interval=0.03)
        schedule = FaultSchedule().crash(0, at=0.3)
        cluster = build_cluster(protocol="pigpaxos", num_nodes=5, num_clients=4, seed=23,
                                protocol_config=config, fault_schedule=schedule, workload=WORKLOAD)
        cluster.run(2.5)
        new_leader = cluster.leader_id()
        assert new_leader is not None and new_leader != 0
        assert cluster.logs_agree()

    def test_clients_make_progress_after_failover(self):
        config = ProtocolConfig(overlay={"kind": "relay", "num_groups": 2},
                                election_timeout_min=0.15, election_timeout_max=0.3,
                                heartbeat_interval=0.03)
        schedule = FaultSchedule().crash(0, at=0.3)
        cluster = build_cluster(protocol="pigpaxos", num_nodes=5, num_clients=4, seed=23,
                                protocol_config=config, fault_schedule=schedule, workload=WORKLOAD)
        cluster.sim.metrics.timeseries("client.completions", interval=0.5)
        cluster.run(3.0)
        rates = dict(cluster.sim.metrics.timeseries("client.completions", interval=0.5).rates(end=3.0))
        assert rates.get(2.5, 0.0) > 0  # requests complete well after the crash

    def test_recovered_old_leader_rejoins_as_follower(self):
        from repro.protocol.config import ProtocolConfig

        config = ProtocolConfig(election_timeout_min=0.15, election_timeout_max=0.3,
                                heartbeat_interval=0.03)
        schedule = FaultSchedule().crash_window(0, start=0.3, end=1.5)
        cluster = build_cluster(protocol="paxos", num_nodes=5, num_clients=4, seed=29,
                                protocol_config=config, fault_schedule=schedule, workload=WORKLOAD)
        cluster.run(3.0)
        assert cluster.leader_id() is not None
        assert cluster.logs_agree()
        old_leader = cluster.nodes[0].replica
        # The old leader either stays a follower or re-won with a higher ballot;
        # either way its log agrees (checked above) and it is not using the old ballot.
        assert old_leader.promised.round >= 1


class TestNetworkFaults:
    def test_message_drops_do_not_break_agreement(self):
        cluster = build_cluster(protocol="pigpaxos", num_nodes=5, num_clients=4, seed=31,
                                relay_groups=2, workload=WORKLOAD)
        cluster.network.faults.drop_probability = 0.02
        cluster.run(0.8)
        assert cluster.total_completed_requests() > 50
        assert cluster.logs_agree()

    def test_minority_partition_stalls_then_recovers(self):
        schedule = FaultSchedule().partition([[3, 4], [0, 1, 2]], at=0.2, until=0.5)
        cluster = build_cluster(protocol="paxos", num_nodes=5, num_clients=4, seed=31,
                                fault_schedule=schedule, workload=WORKLOAD)
        cluster.run(1.0)
        assert cluster.total_completed_requests() > 100
        assert cluster.logs_agree()
