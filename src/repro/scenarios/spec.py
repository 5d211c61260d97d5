"""Declarative scenario specifications.

A :class:`Scenario` describes one complete adversarial experiment without
touching any simulator machinery: the cluster shape (protocol, node count,
LAN/WAN topology, relay-group layout), the workload mix, how long to run,
and a timed schedule of :class:`ScenarioEvent` faults.  The
:class:`~repro.scenarios.runner.ScenarioRunner` compiles a spec onto the
existing :class:`~repro.sim.engine.Simulator` /
:class:`~repro.cluster.builder.ClusterBuilder` stack and runs the safety
checkers afterwards.

Events come in two flavours:

* **static** -- the target node is named in the spec (``crash``,
  ``recover``, ``partition``, ``sever_link`` ...), and
* **dynamic** -- the target is resolved when the event fires
  (``crash_leader`` crashes whoever leads at that instant,
  ``reshuffle_relays`` reshuffles the current leader's relay groups,
  ``set_drop`` rewrites the network's drop probability mid-run).

Dynamic events are what make adversarial schedules portable across seeds:
"crash the leader during a round" works no matter which node won the
election.

Example -- a complete scenario, runnable as-is::

    from repro.scenarios import Scenario, ScenarioEvent, run_scenario

    scenario = Scenario(
        name="my-partition-probe",
        protocol="pigpaxos",
        num_nodes=5,
        relay_groups=2,
        duration=2.0,
        seed=7,
        client_timeout=0.5,
        events=(
            ScenarioEvent.partition(0.5, (0, 1, 2), (3, 4)),
            ScenarioEvent.heal_partition(1.3),
        ),
    )
    result = run_scenario(scenario)
    result.raise_on_violations()      # linearizability + log invariants
    print(result.summary())
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.workload.spec import WorkloadSpec

#: Every event action the runner knows how to fire.
EVENT_ACTIONS = (
    "crash",
    "recover",
    "crash_leader",
    "recover_all",
    "partition",
    "heal_partition",
    "sever_link",
    "heal_link",
    "sluggish",
    "reshuffle_relays",
    "set_drop",
    "duplicate_storm",
)

#: Checker names accepted by ``Scenario.checks``.  The first three are
#: safety families (see :mod:`repro.checkers`); ``progress`` is a liveness
#: floor -- it fires when the run completes fewer than
#: ``Scenario.min_completed`` client operations, which is how scenarios
#: catch "safe but stuck" regressions (e.g. a thrifty overlay whose
#: fallback re-send was broken).
CHECK_NAMES = ("linearizability", "log_invariants", "epaxos_invariants", "progress")


@dataclass(frozen=True)
class ScenarioEvent:
    """One timed fault/chaos action within a scenario."""

    at: float
    action: str
    node: Optional[int] = None
    peer: Optional[int] = None
    factor: float = 1.0
    probability: float = 0.0
    groups: Tuple[Tuple[int, ...], ...] = ()

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ConfigurationError("event time must be non-negative")
        if self.action not in EVENT_ACTIONS:
            raise ConfigurationError(
                f"unknown scenario action {self.action!r}; expected one of {EVENT_ACTIONS}"
            )
        if self.action in ("crash", "recover", "sluggish") and self.node is None:
            raise ConfigurationError(f"action {self.action!r} needs a node")
        if self.action in ("sever_link", "heal_link") and (self.node is None or self.peer is None):
            raise ConfigurationError(f"action {self.action!r} needs node and peer")
        if self.action == "partition" and not self.groups:
            raise ConfigurationError("partition needs at least one group")
        if self.action in ("set_drop", "duplicate_storm") and not 0.0 <= self.probability < 1.0:
            # Same invariant the NetworkFaults constructor enforces; the
            # runner assigns the live fault object directly.
            raise ConfigurationError(f"{self.action} probability must be in [0, 1)")
        if self.action == "sluggish" and self.factor <= 0:
            raise ConfigurationError("sluggish factor must be positive")

    # ------------------------------------------------------------- factories
    @staticmethod
    def crash(at: float, node: int) -> "ScenarioEvent":
        return ScenarioEvent(at=at, action="crash", node=node)

    @staticmethod
    def recover(at: float, node: int) -> "ScenarioEvent":
        return ScenarioEvent(at=at, action="recover", node=node)

    @staticmethod
    def crash_leader(at: float) -> "ScenarioEvent":
        """Crash whichever node is leader when the event fires."""
        return ScenarioEvent(at=at, action="crash_leader")

    @staticmethod
    def recover_all(at: float) -> "ScenarioEvent":
        """Recover every node that is crashed when the event fires."""
        return ScenarioEvent(at=at, action="recover_all")

    @staticmethod
    def partition(at: float, *groups: Sequence[int]) -> "ScenarioEvent":
        return ScenarioEvent(
            at=at, action="partition", groups=tuple(tuple(group) for group in groups)
        )

    @staticmethod
    def heal_partition(at: float) -> "ScenarioEvent":
        return ScenarioEvent(at=at, action="heal_partition")

    @staticmethod
    def sever_link(at: float, a: int, b: int) -> "ScenarioEvent":
        return ScenarioEvent(at=at, action="sever_link", node=a, peer=b)

    @staticmethod
    def heal_link(at: float, a: int, b: int) -> "ScenarioEvent":
        return ScenarioEvent(at=at, action="heal_link", node=a, peer=b)

    @staticmethod
    def sluggish(at: float, node: int, factor: float) -> "ScenarioEvent":
        return ScenarioEvent(at=at, action="sluggish", node=node, factor=factor)

    @staticmethod
    def reshuffle_relays(at: float) -> "ScenarioEvent":
        """Reshuffle the current leader's relay groups (relay churn)."""
        return ScenarioEvent(at=at, action="reshuffle_relays")

    @staticmethod
    def set_drop(at: float, probability: float) -> "ScenarioEvent":
        """Rewrite the network-wide message drop probability."""
        return ScenarioEvent(at=at, action="set_drop", probability=probability)

    @staticmethod
    def duplicate_storm(at: float, probability: float) -> "ScenarioEvent":
        """Rewrite the network-wide duplicate-delivery probability.

        While active, every delivered message is re-delivered a second time
        with probability ``probability`` (its own latency draw, so copies
        reorder).  Retransmission torture for reply-accounting bugs; end the
        storm with a second event at probability 0.
        """
        return ScenarioEvent(at=at, action="duplicate_storm", probability=probability)


@dataclass(frozen=True)
class Scenario:
    """A complete, declarative description of one adversarial run.

    Attributes:
        name: Unique scenario name (library key, CLI argument).
        protocol: "paxos", "pigpaxos" or "epaxos".
        num_nodes: Cluster size.
        num_clients: Closed-loop clients driving the workload.
        duration: Virtual seconds to run.
        seed: Master seed; two runs of the same scenario+seed are
            bit-for-bit identical (histories, metrics, everything).
        relay_groups: Relay-overlay group count (None = the overlay's
            own ``num_groups``); refused on a non-relay overlay.
        wan: Use the paper's three-region WAN topology instead of a LAN.
        hierarchy: ``(num_regions, zones_per_region)`` -- deploy on the
            planet-scale region/zone topology of
            :func:`~repro.cluster.topologies.planet_topology` instead of a
            LAN.  Mutually exclusive with ``wan`` (the hierarchy *is* a WAN
            with a finer intra-region structure); combine with
            ``use_region_groups`` and ``relay_levels`` overrides to get
            zone-aligned multi-level relay trees.
        use_region_groups: Align relay groups with WAN regions (relay
            overlay only).
        workload: Client workload; defaults to the contended, identifiable
            ``WorkloadSpec.checking_default()`` the checkers need.
        client_timeout: Client request timeout before rotating targets;
            fault scenarios lower it so clients re-find the leader within
            the scenario's duration.
        shards: Number of independent consensus groups sharing the node set
            (1 = the historical single-group deployment).  Each group owns a
            contiguous key range, leaders spread round-robin across nodes,
            and clients route per key (see :mod:`repro.shard`).  The safety
            checkers apply per group; linearizability stays per-key and
            needs no adaptation.
        drop_probability: Baseline random message-drop probability.
        events: Timed fault schedule.
        config_overrides: :class:`~repro.protocol.config.ProtocolConfig`
            fields, e.g. ``{"batch_max_commands": 4}`` or an overlay
            tuning: ``{"overlay": {"kind": "relay", "relay_timeout": 0.02}}``.
        checks: Which checker families the runner applies post-hoc.
        min_completed: Liveness floor for the ``progress`` check -- the
            minimum number of client operations the run must complete.
            Calibrate well below the healthy throughput for the seed so the
            check only fires on order-of-magnitude collapses, not noise.
        description: One line shown by the CLI and benchmark reports.
    """

    name: str
    protocol: str = "pigpaxos"
    num_nodes: int = 5
    num_clients: int = 4
    duration: float = 1.5
    seed: int = 0
    relay_groups: Optional[int] = None
    wan: bool = False
    hierarchy: Optional[Tuple[int, int]] = None
    use_region_groups: bool = False
    workload: WorkloadSpec = field(default_factory=WorkloadSpec.checking_default)
    client_timeout: float = 2.0
    shards: int = 1
    drop_probability: float = 0.0
    events: Tuple[ScenarioEvent, ...] = ()
    config_overrides: Optional[Mapping[str, object]] = None
    checks: Tuple[str, ...] = ("linearizability", "log_invariants")
    min_completed: int = 0
    description: str = ""

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ConfigurationError("num_nodes must be >= 1")
        if self.num_clients < 1:
            raise ConfigurationError("num_clients must be >= 1")
        if self.duration <= 0:
            raise ConfigurationError("duration must be positive")
        if self.client_timeout is None or self.client_timeout <= 0:
            raise ConfigurationError("client_timeout must be positive")
        if self.shards < 1:
            raise ConfigurationError("shards must be >= 1")
        if self.shards > self.workload.num_keys:
            raise ConfigurationError(
                f"shards={self.shards} exceeds workload num_keys="
                f"{self.workload.num_keys}; every shard needs at least one key"
            )
        if self.min_completed < 0:
            raise ConfigurationError("min_completed must be >= 0")
        if self.hierarchy is not None:
            if self.wan:
                raise ConfigurationError(
                    "hierarchy and wan are mutually exclusive; the "
                    "hierarchical topology already spans regions"
                )
            if len(self.hierarchy) != 2:
                raise ConfigurationError(
                    "hierarchy must be (num_regions, zones_per_region)"
                )
            num_regions, zones_per_region = self.hierarchy
            if num_regions < 1 or zones_per_region < 1:
                raise ConfigurationError(
                    "hierarchy counts must both be >= 1"
                )
            if num_regions > self.num_nodes:
                raise ConfigurationError(
                    f"hierarchy wants {num_regions} regions but the cluster "
                    f"has only {self.num_nodes} nodes"
                )
        for check in self.checks:
            if check not in CHECK_NAMES:
                raise ConfigurationError(
                    f"unknown check {check!r}; expected one of {CHECK_NAMES}"
                )
        for event in self.events:
            if event.at > self.duration:
                raise ConfigurationError(
                    f"event {event.action!r} at t={event.at} fires after the "
                    f"scenario ends (duration={self.duration})"
                )

    def with_seed(self, seed: int) -> "Scenario":
        """The same scenario under a different seed (for seed sweeps)."""
        return replace(self, seed=seed, name=f"{self.name}@{seed}")
