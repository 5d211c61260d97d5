"""Unit tests for the node CPU model, SimNode, topologies, scripted faults and builder."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.cluster.builder import ClusterBuilder, build_cluster
from repro.cluster.cpu import NodeCPUModel
from repro.cluster.node import SimNode
from repro.cluster.topologies import lan_topology, paper_wan_regions, wan_topology
from repro.errors import ConfigurationError
from repro.net.latency import WANMatrixLatency
from repro.net.network import SimNetwork
from repro.overlay.relay import RelayFanout
from repro.protocol.base import Replica
from repro.protocol.config import ProtocolConfig
from repro.scenarios import Scenario, ScenarioEvent, run_scenario
from repro.sim.engine import Simulator


class _EchoReplica(Replica):
    """Replica that records messages and echoes each original back once."""

    protocol_name = "echo"

    def __init__(self) -> None:
        super().__init__()
        self.received = []

    def on_message(self, src, message):
        if isinstance(message, tuple) and message and message[0] == "echo":
            self.received.append((src, message[1]))
            return
        self.received.append((src, message))
        self.send(src, ("echo", message))


class TestNodeCPUModel:
    def test_costs_scale_with_size(self):
        cpu = NodeCPUModel(recv_per_message=1e-5, per_byte=1e-8)
        assert cpu.receive_cost(1000) == pytest.approx(2e-5)
        assert cpu.receive_cost(0) == pytest.approx(1e-5)

    def test_client_request_surcharge(self):
        cpu = NodeCPUModel(recv_per_message=1e-5, per_byte=0.0, client_request_extra=5e-5)
        assert cpu.receive_cost(100, is_client_request=True) == pytest.approx(6e-5)

    def test_scaled_model(self):
        cpu = NodeCPUModel().scaled(2.0)
        assert cpu.recv_per_message == pytest.approx(NodeCPUModel().recv_per_message * 2)

    def test_negative_cost_rejected(self):
        with pytest.raises(ConfigurationError):
            NodeCPUModel(recv_per_message=-1.0)

    def test_invalid_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            NodeCPUModel().scaled(0.0)


class TestSimNode:
    def _setup(self, cpu=None):
        sim = Simulator(seed=0)
        topology = lan_topology(2)
        network = SimNetwork(sim, topology)
        nodes = {}
        for node_id in (0, 1):
            node = SimNode(node_id, sim, network, cpu=cpu or NodeCPUModel(), all_nodes=[0, 1])
            node.host(_EchoReplica())
            nodes[node_id] = node
        return sim, network, nodes

    def test_message_roundtrip_through_nodes(self):
        sim, network, nodes = self._setup()
        nodes[0].replica.send(1, "ping")
        sim.run()
        assert nodes[1].replica.received == [(0, "ping")]
        assert nodes[0].replica.received == [(1, "ping")]

    def test_cpu_reservation_serializes_work(self):
        cpu = NodeCPUModel(recv_per_message=0.01, send_per_message=0.01, per_byte=0.0)
        sim, network, nodes = self._setup(cpu=cpu)
        for _ in range(5):
            nodes[0].replica.send(1, "x")
        sim.run()
        # 5 sends at 10ms each serialize on node 0's CPU before the last departs.
        assert nodes[0].busy_time_total >= 0.05 - 1e-9
        assert nodes[1].busy_time_total > 0

    def test_crashed_node_ignores_traffic_and_timers(self):
        sim, network, nodes = self._setup()
        nodes[1].crash()
        nodes[0].replica.send(1, "lost")
        sim.run()
        assert nodes[1].replica.received == []
        assert not nodes[1].is_reachable()

    def test_recovered_node_processes_again(self):
        sim, network, nodes = self._setup()
        nodes[1].crash()
        nodes[1].recover()
        nodes[0].replica.send(1, "hello")
        sim.run()
        assert nodes[1].replica.received == [(0, "hello")]

    def test_sluggish_factor_inflates_costs(self):
        cpu = NodeCPUModel(recv_per_message=0.001, send_per_message=0.001, per_byte=0.0)
        sim, network, nodes = self._setup(cpu=cpu)
        nodes[1].set_sluggish(10.0)
        nodes[0].replica.send(1, "x")
        sim.run()
        assert nodes[1].busy_time_total >= 0.01

    def test_sluggish_factor_must_be_positive(self):
        sim, network, nodes = self._setup()
        with pytest.raises(ValueError):
            nodes[0].set_sluggish(0)

    def test_charges_accumulate_busy_time(self):
        sim, network, nodes = self._setup()
        before = nodes[0].busy_time_total
        nodes[0].charge_execution(10)
        nodes[0].charge_graph_work(100)
        nodes[0].charge_overhead(2)
        assert nodes[0].busy_time_total > before


class TestTopologies:
    def test_lan_topology_size(self):
        topology = lan_topology(25)
        assert topology.size == 25
        assert topology.regions == []

    def test_lan_requires_positive_nodes(self):
        with pytest.raises(ConfigurationError):
            lan_topology(0)

    def test_paper_wan_regions_round_robin(self):
        regions = paper_wan_regions(15)
        assert sorted(regions) == ["california", "oregon", "virginia"]
        assert all(len(nodes) == 5 for nodes in regions.values())

    def test_wan_topology_builds_regions_and_matrix(self):
        topology = wan_topology(num_nodes=15)
        assert topology.size == 15
        assert isinstance(topology.latency, WANMatrixLatency)
        assert len(topology.regions) == 3
        assert topology.region_of(0) is not None

    def test_wan_topology_explicit_regions(self):
        topology = wan_topology(region_nodes={"virginia": [0, 1], "oregon": [2]})
        assert topology.nodes_in_region("virginia") == [0, 1]

    def test_wan_topology_requires_input(self):
        with pytest.raises(ConfigurationError):
            wan_topology()


class TestScriptedFaults:
    """Timed faults are ``ScenarioEvent``s, fired by the scenario runner."""

    @staticmethod
    def _run(*events, duration=0.4):
        return run_scenario(Scenario(name="scripted-faults", protocol="paxos", num_nodes=5,
                                     num_clients=1, seed=1, duration=duration,
                                     events=events, checks=()))

    def test_crash_window_is_a_crash_then_a_recover(self):
        result = self._run(ScenarioEvent.crash(0.1, 3), ScenarioEvent.recover(0.2, 3))
        actions = [label.split()[1] for label in result.events_fired]
        assert actions == ["crash", "recover"]
        assert not result.cluster.nodes[3].crashed

    def test_event_after_the_run_rejected(self):
        with pytest.raises(ConfigurationError):
            Scenario(name="late-recover", duration=1.0,
                     events=(ScenarioEvent.crash(0.5, 3), ScenarioEvent.recover(2.0, 3)))

    def test_events_fire_in_time_order(self):
        result = self._run(ScenarioEvent.recover(0.3, 1), ScenarioEvent.crash(0.1, 1))
        times = [label.split()[0] for label in result.events_fired]
        assert times == ["t=0.100", "t=0.300"]

    def test_sluggish_factor_one_restores(self):
        result = self._run(ScenarioEvent.sluggish(0.1, 2, 4.0), ScenarioEvent.sluggish(0.2, 2, 1.0))
        nodes = result.cluster.nodes
        assert nodes[2].metrics.counter("faults.sluggish_changes").value == 2
        # Once restored, node 2 charges work at the cost of a never-slowed peer.
        charged = []
        for node in (nodes[2], nodes[3]):
            before = node.busy_time_total
            node.charge_seconds(0.001)
            charged.append(node.busy_time_total - before)
        assert charged[0] == pytest.approx(charged[1])

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioEvent.crash(-1.0, 0)

    def test_fault_applied_during_run(self):
        result = self._run(ScenarioEvent.crash(0.1, 4), duration=0.2)
        assert result.cluster.nodes[4].crashed

    def test_sever_link_applied_during_run(self):
        result = self._run(ScenarioEvent.sever_link(0.1, 1, 2), duration=0.2)
        assert result.cluster.network.faults.link_severed(2, 1)

    def test_heal_link_restores_a_severed_link(self):
        result = self._run(ScenarioEvent.sever_link(0.1, 1, 2), ScenarioEvent.heal_link(0.2, 1, 2))
        assert not result.cluster.network.faults.link_severed(1, 2)
        assert not result.cluster.network.faults.lossy

    def test_partition_then_heal_partition(self):
        events = (ScenarioEvent.partition(0.1, (3, 4), (0, 1, 2)),)
        faults = self._run(*events, duration=0.2).cluster.network.faults
        assert faults.partitioned(3, 0) and not faults.partitioned(3, 4)
        healed = self._run(*events, ScenarioEvent.heal_partition(0.2)).cluster.network.faults
        assert not healed.partitioned(3, 0)

    def test_set_drop_and_duplicate_storm_rewrite_network_probabilities(self):
        result = self._run(ScenarioEvent.set_drop(0.1, probability=0.25),
                           ScenarioEvent.duplicate_storm(0.1, probability=0.5))
        faults = result.cluster.network.faults
        assert faults.drop_probability == 0.25
        assert faults.duplicate_probability == 0.5

    def test_crash_leader_resolves_the_leader_at_fire_time(self):
        result = self._run(ScenarioEvent.crash_leader(0.2), duration=0.3)
        assert result.events_fired == ["t=0.200 crash_leader (node 0)"]
        assert result.cluster.nodes[0].crashed

    def test_recover_all_recovers_every_crashed_node(self):
        result = self._run(ScenarioEvent.crash(0.1, 3), ScenarioEvent.crash(0.1, 4),
                           ScenarioEvent.recover_all(0.2))
        assert not any(node.crashed for node in result.cluster.nodes.values())


class TestBuilder:
    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterBuilder().protocol("raft")

    def test_builder_wires_nodes_clients_and_replicas(self):
        cluster = (
            ClusterBuilder()
            .protocol("pigpaxos")
            .nodes(5)
            .relay_groups(2)
            .clients(3)
            .seed(11)
            .build()
        )
        assert len(cluster.nodes) == 5
        assert len(cluster.clients) == 3
        assert cluster.protocol == "pigpaxos"
        replica = cluster.nodes[0].replica
        assert replica.overlay.num_groups == 2

    def test_epaxos_clients_use_random_targets(self):
        cluster = build_cluster(protocol="epaxos", num_nodes=3, num_clients=2, seed=1)
        assert all(client._target_policy == "random" for client in cluster.clients)

    def test_paxos_clients_target_leader(self):
        cluster = build_cluster(protocol="paxos", num_nodes=3, num_clients=2, seed=1)
        assert all(client._target_policy == "leader" for client in cluster.clients)

    def test_cluster_run_is_repeatable_for_same_seed(self):
        first = build_cluster(protocol="paxos", num_nodes=5, num_clients=5, seed=9)
        first.run(0.3)
        second = build_cluster(protocol="paxos", num_nodes=5, num_clients=5, seed=9)
        second.run(0.3)
        assert first.total_completed_requests() == second.total_completed_requests()


class TestProtocolPresets:
    """``pigpaxos`` is the paxos replica plus a relay-overlay preset."""

    def test_pigpaxos_honours_a_plain_protocol_config(self):
        config = ProtocolConfig(batch_max_commands=8, session_window=7)
        cluster = build_cluster(protocol="pigpaxos", num_nodes=5, num_clients=20, seed=3,
                                protocol_config=config)
        replica = cluster.nodes[0].replica
        assert isinstance(replica.overlay, RelayFanout)
        assert replica.config.batch_max_commands == 8
        assert replica._client_sessions.window == 7
        cluster.run(0.3)
        assert cluster.sim.metrics.counters().get("batch.commands_batched", 0) > 0
        # With a bounded pipeline the leader packs several commands a slot.
        bounded = build_cluster(protocol="pigpaxos", num_nodes=5, num_clients=20, seed=3,
                                protocol_config=replace(config, pipeline_depth=1))
        bounded.run(0.3)
        assert bounded.sim.metrics.histogram("batch.occupancy").max > 1

    def test_builder_leaves_the_callers_config_unchanged(self):
        # relay_groups= lands on the built replicas only: the caller's
        # config keeps its own group count for the next build.
        config = ProtocolConfig(overlay={"kind": "relay", "relay_timeout": 0.02})
        snapshot = replace(config)
        two = build_cluster(protocol="pigpaxos", num_nodes=7, num_clients=1,
                            relay_groups=2, protocol_config=config)
        default = build_cluster(protocol="pigpaxos", num_nodes=7, num_clients=1,
                                protocol_config=config)
        assert config == snapshot
        assert [c.nodes[0].replica.overlay.num_groups for c in (two, default)] == [2, 3]
        assert all(c.nodes[0].replica.overlay.relay_timeout == 0.02 for c in (two, default))

    @pytest.mark.parametrize("protocol", ["paxos", "epaxos"])
    @pytest.mark.parametrize("overlay", [None, "direct", "thrifty"])
    def test_relay_group_knobs_refused_without_a_relay_overlay(self, protocol, overlay):
        with pytest.raises(ConfigurationError):
            build_cluster(protocol=protocol, num_nodes=5, num_clients=1,
                          overlay=overlay, relay_groups=2)
        with pytest.raises(ConfigurationError):
            build_cluster(protocol=protocol, num_nodes=9, num_clients=1,
                          topology=wan_topology(num_nodes=9), overlay=overlay,
                          use_region_groups=True)

    def test_relay_group_knobs_apply_to_any_relay_overlay(self):
        cluster = build_cluster(protocol="epaxos", num_nodes=5, num_clients=1,
                                overlay="relay", relay_groups=2)
        assert all(n.replica.overlay.num_groups == 2 for n in cluster.nodes.values())


class TestSessionWindowWiring:
    def test_session_window_reaches_both_protocols(self):
        from repro.protocol.config import ProtocolConfig

        config = ProtocolConfig(session_window=4)
        paxos = build_cluster(protocol="paxos", num_nodes=3, num_clients=1, protocol_config=config)
        assert paxos.nodes[0].replica._client_sessions.window == 4
        epaxos = build_cluster(protocol="epaxos", num_nodes=3, num_clients=1, protocol_config=config)
        assert epaxos.nodes[0].replica._session_window == 4

    def test_epaxos_without_config_uses_default_window(self):
        from repro.statemachine.sessions import DEFAULT_SESSION_WINDOW

        cluster = build_cluster(protocol="epaxos", num_nodes=3, num_clients=1)
        assert cluster.nodes[0].replica._session_window == DEFAULT_SESSION_WINDOW

    def test_epaxos_rejects_non_session_config_fields(self):
        from repro.protocol.config import ProtocolConfig

        with pytest.raises(ConfigurationError):
            build_cluster(
                protocol="epaxos", num_nodes=3, num_clients=1,
                protocol_config=ProtocolConfig(heartbeat_interval=0.2),
            )
