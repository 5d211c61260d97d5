"""Failure-injection integration tests.

These exercise the fault-tolerance claims of Section 3.4 and the behaviour
behind Figure 13: follower failures only delay the affected relay group,
relay failures are healed by random re-selection and leader retries, and a
leader failure triggers a new election while the log stays consistent.
"""

from __future__ import annotations

from repro.bench import completion_rates
from repro.cluster.builder import build_cluster
from repro.scenarios import Scenario, ScenarioEvent, run_scenario
from repro.workload.spec import WorkloadSpec

WORKLOAD = WorkloadSpec(num_keys=50)
FAST_FAILOVER = {"election_timeout_min": 0.15, "election_timeout_max": 0.3,
                 "heartbeat_interval": 0.03}


def _run(events, **fields):
    """Run a checker-free scenario with ``events`` and return its result."""
    return run_scenario(Scenario(name="failure-injection", workload=WORKLOAD, checks=(),
                                 events=tuple(events), **fields))


class TestFollowerAndRelayFailures:
    def test_pigpaxos_keeps_committing_with_one_crashed_follower(self):
        result = _run([ScenarioEvent.crash(0.1, 4)], protocol="pigpaxos", num_nodes=9,
                      num_clients=6, seed=21, relay_groups=3, duration=0.6)
        assert result.completed_requests > 100
        assert result.cluster.logs_agree()

    def test_pigpaxos_survives_minority_crash(self):
        # 9 nodes tolerate 4 failures; crash 3 followers across groups.
        events = [ScenarioEvent.crash(0.1, node) for node in (3, 5, 7)]
        result = _run(events, protocol="pigpaxos", num_nodes=9, num_clients=6, seed=21,
                      relay_groups=3, duration=0.8)
        assert result.completed_requests > 50
        assert result.cluster.logs_agree()

    def test_throughput_recovers_after_follower_returns(self):
        events = [ScenarioEvent.crash(0.3, 4), ScenarioEvent.recover(0.6, 4)]
        result = _run(events, protocol="pigpaxos", num_nodes=9, num_clients=10, seed=21,
                      relay_groups=3, duration=1.0)
        rates = dict(completion_rates(result, interval=0.1))
        during = rates.get(0.4, 0.0) + rates.get(0.5, 0.0)
        after = rates.get(0.8, 0.0) + rates.get(0.9, 0.0)
        assert after > 0
        assert during > 0  # a single follower failure does not halt progress

    def test_paxos_also_survives_follower_crash(self):
        result = _run([ScenarioEvent.crash(0.1, 2)], protocol="paxos", num_nodes=5,
                      num_clients=6, seed=21, duration=0.6)
        assert result.completed_requests > 100
        assert result.cluster.logs_agree()


class TestLeaderFailure:
    def test_new_leader_elected_after_crash(self):
        overrides = {"overlay": {"kind": "relay", "num_groups": 2}, **FAST_FAILOVER}
        result = _run([ScenarioEvent.crash(0.3, 0)], protocol="pigpaxos", num_nodes=5,
                      num_clients=4, seed=23, config_overrides=overrides, duration=2.5)
        new_leader = result.cluster.leader_id()
        assert new_leader is not None and new_leader != 0
        assert result.cluster.logs_agree()

    def test_clients_make_progress_after_failover(self):
        overrides = {"overlay": {"kind": "relay", "num_groups": 2}, **FAST_FAILOVER}
        result = _run([ScenarioEvent.crash(0.3, 0)], protocol="pigpaxos", num_nodes=5,
                      num_clients=4, seed=23, config_overrides=overrides, duration=3.0)
        rates = dict(completion_rates(result, interval=0.5))
        assert rates.get(2.5, 0.0) > 0  # requests complete well after the crash

    def test_recovered_old_leader_rejoins_as_follower(self):
        events = [ScenarioEvent.crash(0.3, 0), ScenarioEvent.recover(1.5, 0)]
        result = _run(events, protocol="paxos", num_nodes=5, num_clients=4, seed=29,
                      config_overrides=FAST_FAILOVER, duration=3.0)
        cluster = result.cluster
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
        events = [ScenarioEvent.partition(0.2, (3, 4), (0, 1, 2)),
                  ScenarioEvent.heal_partition(0.5)]
        result = _run(events, protocol="paxos", num_nodes=5, num_clients=4, seed=31,
                      duration=1.0)
        assert result.completed_requests > 100
        assert result.cluster.logs_agree()
