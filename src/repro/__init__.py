"""PigPaxos reproduction library.

This package reproduces the system described in "PigPaxos: Devouring the
Communication Bottlenecks in Distributed Consensus" (Charapko, Ailijiang,
Demirbas, SIGMOD 2021).  It contains:

* ``repro.paxos`` -- Multi-Paxos with a stable leader and commit
  piggybacking.  PigPaxos (the paper's contribution) is this replica with
  the relay overlay and the leader round retry: ``repro.protocol.registry``
  holds the ``"pigpaxos"`` preset.
* ``repro.overlay`` -- the fan-out overlays: direct broadcast, PigPaxos
  relay trees (relay groups, per-round random relay selection, in-network
  aggregation, relay timeouts, partial response collection) and thrifty
  quorum-subset sends.
* ``repro.epaxos`` -- the EPaxos baseline (pre-accept/accept/commit with
  dependency tracking and SCC-ordered execution).
* ``repro.sim`` / ``repro.net`` / ``repro.cluster`` -- the deterministic
  discrete-event substrate standing in for the paper's Paxi/EC2 testbed.
* ``repro.statemachine`` / ``repro.quorum`` -- replicated log, in-memory
  key-value store and quorum systems.
* ``repro.workload`` / ``repro.bench`` -- the Paxi-style benchmark:
  closed-loop clients, key distributions, and measurement windows and
  latency/throughput sweeps over scenario runs (a benchmark point is a
  ``Scenario`` plus a measurement window).
* ``repro.analysis`` -- the paper's analytical message-load model
  (Tables 1 and 2, Section 6).
* ``repro.runtime`` -- an asyncio TCP runtime running the same protocol
  classes over real sockets.
* ``repro.scenarios`` / ``repro.checkers`` -- the one experiment
  description (``Scenario`` with its timed ``ScenarioEvent`` faults,
  compiled onto the simulator) and post-hoc safety checkers (per-key
  linearizability of recorded client histories, cross-replica log
  invariants).
"""

from repro.version import __version__
from repro.cluster.builder import ClusterBuilder, build_cluster
from repro.bench import RunResult, latency_throughput_sweep, measure
from repro.scenarios import Scenario, ScenarioEvent, run_scenario
from repro.workload.spec import WorkloadSpec
from repro.analysis.model import (
    messages_at_leader,
    messages_at_follower,
    leader_overhead,
    message_load_table,
)

__all__ = [
    "__version__",
    "ClusterBuilder",
    "build_cluster",
    "Scenario",
    "ScenarioEvent",
    "run_scenario",
    "measure",
    "latency_throughput_sweep",
    "RunResult",
    "WorkloadSpec",
    "messages_at_leader",
    "messages_at_follower",
    "leader_overhead",
    "message_load_table",
]
