"""Compiles a :class:`~repro.scenarios.spec.Scenario` onto the simulator.

``ScenarioRunner`` is the bridge between the declarative spec layer and the
concrete stack: it builds the topology, protocol config, cluster, clients
and history recorder, arms the timed event schedule, runs the simulation,
and applies the requested checkers post-hoc.  The returned
:class:`ScenarioResult` bundles everything a test or benchmark needs: the
cluster (for poking at replica state), the recorded history, the violations
found, throughput stats and a determinism fingerprint.

Example::

    from repro.scenarios import ScenarioRunner, get_scenario

    runner = ScenarioRunner(get_scenario("epaxos-relay-wan-9"))
    result = runner.run()
    assert result.ok, result.violations
    print(result.summary())
    print(result.counters()["net.messages_sent"])
    # Same spec + seed => identical fingerprint, every time:
    assert ScenarioRunner(result.scenario).run().fingerprint() == result.fingerprint()
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List

from repro.checkers.history import History, HistoryRecorder
from repro.checkers.invariants import Violation, run_epaxos_checks, run_log_checks
from repro.checkers.linearizability import check_linearizability
from repro.cluster.builder import Cluster, ClusterBuilder
from repro.cluster.topologies import planet_topology, wan_topology
from repro.errors import ReproError
from repro.protocol.config import ProtocolConfig
from repro.protocol.registry import protocol_spec
from repro.scenarios.spec import Scenario, ScenarioEvent


@dataclass
class ScenarioResult:
    """Everything produced by one scenario run."""

    scenario: Scenario
    cluster: Cluster
    history: History  # empty when the scenario runs no checks
    violations: List[Violation]
    completed_requests: int
    events_processed: int
    virtual_duration: float
    events_fired: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every enabled checker passed."""
        return not self.violations

    def fingerprint(self) -> str:
        """Stable digest of the run; identical for identical (spec, seed)."""
        digest = hashlib.sha256()
        digest.update(self.history.fingerprint().encode("utf-8"))
        digest.update(
            f"|completed={self.completed_requests}"
            f"|events={self.events_processed}"
            f"|now={self.virtual_duration:.9f}".encode("utf-8")
        )
        return digest.hexdigest()

    def counters(self) -> Dict[str, float]:
        return self.cluster.sim.metrics.counters()

    def raise_on_violations(self, max_listed: int = 20) -> None:
        if self.violations:
            listed = self.violations[:max_listed]
            details = "\n".join(str(v) for v in listed)
            if len(self.violations) > max_listed:
                details += f"\n... and {len(self.violations) - max_listed} more"
            raise AssertionError(
                f"scenario {self.scenario.name!r} violated "
                f"{len(self.violations)} invariant(s):\n{details}"
            )

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.violations)} VIOLATION(S)"
        return (
            f"{self.scenario.name}: {status}, "
            f"{self.completed_requests} ops completed, "
            f"{len(self.history)} recorded, "
            f"{self.events_processed} sim events, "
            f"{len(self.events_fired)} faults fired"
        )


class ScenarioRunner:
    """Builds, runs and checks one scenario."""

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario
        # A run with no checkers (a benchmark point) keeps no history.
        self._recorder = HistoryRecorder() if scenario.checks else None

    # ------------------------------------------------------------------ build
    def build(self) -> Cluster:
        """Compile the spec into a ready-to-run cluster (without running)."""
        scenario = self.scenario
        builder = (
            ClusterBuilder()
            .protocol(scenario.protocol)
            .nodes(scenario.num_nodes)
            .clients(scenario.num_clients)
            .seed(scenario.seed)
            .workload(scenario.workload)
            .client_timeout(scenario.client_timeout)
            .history_recorder(self._recorder)
        )
        if scenario.wan:
            builder.topology(wan_topology(num_nodes=scenario.num_nodes))
        if scenario.hierarchy is not None:
            num_regions, zones_per_region = scenario.hierarchy
            builder.topology(
                planet_topology(
                    num_nodes=scenario.num_nodes,
                    num_regions=num_regions,
                    zones_per_region=zones_per_region,
                )
            )
        if scenario.shards != 1:
            builder.shards(scenario.shards)
        if scenario.relay_groups is not None:
            builder.relay_groups(scenario.relay_groups)
        if scenario.use_region_groups:
            builder.region_relay_groups(True)
        if scenario.drop_probability > 0.0:
            builder.message_drop_probability(scenario.drop_probability)
        if scenario.config_overrides:
            builder.protocol_config(ProtocolConfig(**scenario.config_overrides))
        return builder.build()

    # ------------------------------------------------------------------ run
    def run(self) -> ScenarioResult:
        cluster = self.build()
        events_fired: List[str] = []
        cluster.start()
        for event in self.scenario.events:
            cluster.sim.schedule_at(event.at, self._fire, cluster, event, events_fired)
        violations: List[Violation] = []
        try:
            cluster.sim.run(until=self.scenario.duration)
        except ReproError as exc:
            # A broken protocol can trip the stack's own safety guards (e.g.
            # "overwrite committed slot") before the post-hoc checkers see
            # the state.  Report it as a violation and still check whatever
            # partial state exists -- mutation tests rely on this.
            violations.append(
                Violation(
                    checker="runtime",
                    message=f"simulation aborted: {type(exc).__name__}: {exc}",
                )
            )

        history = self._recorder.history() if self._recorder is not None else History([])
        if "log_invariants" in self.scenario.checks:
            violations.extend(self._grouped_checks(cluster, run_log_checks))
        if "epaxos_invariants" in self.scenario.checks:
            violations.extend(self._grouped_checks(cluster, run_epaxos_checks))
        if "linearizability" in self.scenario.checks:
            violations.extend(check_linearizability(history))
        if "progress" in self.scenario.checks:
            completed = cluster.total_completed_requests()
            if completed < self.scenario.min_completed:
                violations.append(
                    Violation(
                        checker="progress",
                        message=(
                            f"liveness floor missed: {completed} operations "
                            f"completed, scenario requires >= "
                            f"{self.scenario.min_completed}"
                        ),
                    )
                )

        return ScenarioResult(
            scenario=self.scenario,
            cluster=cluster,
            history=history,
            violations=violations,
            completed_requests=cluster.total_completed_requests(),
            events_processed=cluster.sim.events_processed,
            virtual_duration=cluster.sim.now,
            events_fired=events_fired,
        )

    @staticmethod
    def _grouped_checks(cluster: Cluster, check) -> List[Violation]:
        """Apply a cluster-shaped checker per consensus group.

        Unsharded clusters go straight through (the historical path); a
        sharded cluster is checked one :class:`ShardGroupView` at a time,
        with each violation labelled by the group it came from.
        """
        if cluster.num_shards == 1:
            return check(cluster)
        violations: List[Violation] = []
        for view in cluster.shard_views():
            for violation in check(view):
                violations.append(
                    Violation(
                        checker=violation.checker,
                        message=f"[shard {view.shard}] {violation.message}",
                    )
                )
        return violations

    # ------------------------------------------------------------------ events
    def _fire(self, cluster: Cluster, event: ScenarioEvent, fired: List[str]) -> None:
        """Apply one scheduled event, resolving dynamic targets now.

        The single place a scripted fault touches the cluster: static
        actions name their target in the event, dynamic ones resolve it
        against the cluster's state at fire time.
        """
        action = event.action
        label = f"t={event.at:.3f} {action}"
        if action == "crash":
            cluster.crash_node(event.node)
        elif action == "recover":
            cluster.recover_node(event.node)
        elif action == "sluggish":
            cluster.nodes[event.node].set_sluggish(event.factor)
        elif action == "sever_link":
            cluster.network.faults.sever_link(event.node, event.peer)
        elif action == "heal_link":
            cluster.network.faults.heal_link(event.node, event.peer)
        elif action == "partition":
            cluster.network.faults.partition(*event.groups)
        elif action == "heal_partition":
            cluster.network.faults.heal_partition()
        elif action == "crash_leader":
            leader = cluster.leader_id()
            if leader is None:
                fired.append(f"{label} (no leader)")
                return
            cluster.crash_node(leader)
            label = f"{label} (node {leader})"
        elif action == "recover_all":
            for node_id, node in cluster.nodes.items():
                if node.crashed:
                    cluster.recover_node(node_id)
        elif action == "reshuffle_relays":
            # Paxos-family: only the leader owns a relay plan.  EPaxos:
            # every replica is a fan-out root with its own plan, so all of
            # them reshuffle.  Non-relay overlays reshuffle as a no-op.
            # Sharded clusters reshuffle every hosted group's eligible
            # replicas.
            leaderless = protocol_spec(cluster.protocol).leaderless
            for node in cluster.all_replica_hosts():
                if not node.crashed and (leaderless or node.replica.is_leader):
                    node.replica.overlay.reshuffle()
        elif action == "set_drop":
            cluster.network.faults.drop_probability = event.probability
        elif action == "duplicate_storm":
            cluster.network.faults.duplicate_probability = event.probability
        fired.append(label)


def run_scenario(scenario: Scenario) -> ScenarioResult:
    """One-call convenience wrapper."""
    return ScenarioRunner(scenario).run()
