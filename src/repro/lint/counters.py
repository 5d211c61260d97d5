"""The documented counter/metric namespace, as data.

``counter-name-registry`` checks every *string-literal* metric name passed
to the metric helpers (``MetricsRegistry.counter/gauge/histogram``
and ``Replica.count``) against this registry.  A typo'd counter silently
records to a fresh, never-read name -- the regression it causes (a benchmark
column flatlining at zero, a test asserting on nothing) is invisible at run
time, which is exactly why the check is static.

Names built with f-strings (``node.{id}.bytes_in``, ``net.sent.{kind}``)
are not literals and are covered by the prefix list instead.

Adding a counter is a two-line change: the call site, and its name here.
That is deliberate -- the registry *is* the documentation of the metric
namespace, and the lint rule is what keeps it honest.
"""

from __future__ import annotations

from typing import FrozenSet, Tuple

#: Bare names recorded through ``Replica.count(name)`` / ``host.count(name)``;
#: the replica prefixes them with its protocol name (``epaxos.<name>``...).
REPLICA_COUNTERS: FrozenSet[str] = frozenset(
    {
        # --- Paxos family: phase 1 / leadership
        "phase1_started",
        "phase1_retry",
        "phase1_preempted",
        "became_leader",
        "stepped_down",
        "election_triggered",
        # --- Paxos family: phase 2 / commit / execution
        "p2a_rounds",
        "slots_committed",
        "client_requests",
        "client_redirects",
        "client_replies",
        "duplicate_commands_skipped",
        "orphaned_proposal_replies_suppressed",
        "orphaned_batch_replies_suppressed",
        "fill_requests",
        "leader_fill_requests",
        "leader_fill_retries",
        "unknown_message",
        # --- Relay overlay and the leader round retry
        "relay_rounds",
        "relay_fanouts",
        "relay_timeouts",
        "group_reshuffles",
        "late_responses_forwarded",
        "late_aggregates_dropped",
        "duplicate_relay_requests_ignored",
        "commit_fallbacks",
        "commit_fallback_resends",
        "leader_round_retries",
        # --- Thrifty overlay
        "thrifty_rounds",
        "thrifty_fallbacks",
        # --- EPaxos: ordinary rounds
        "instances_led",
        "instances_committed",
        "instances_executed",
        "fast_path_commits",
        "slow_path_rounds",
        "preaccepts_handled",
        "prepares_handled",
        "duplicate_preaccept_replies",
        "duplicate_accept_replies",
        "duplicate_prepare_replies",
        "preaccept_replies_rejected",
        "preaccepts_rejected_ballot",
        "accepts_rejected_ballot",
        "prepares_rejected_ballot",
        "key_index_stale_updates_skipped",
        "conflicting_commit_overwrites_refused",
        # --- EPaxos: explicit-prepare recovery
        "recoveries_started",
        "recoveries_completed",
        "recoveries_adopted_commit",
        "recoveries_from_accept",
        "recoveries_from_default_preaccepts",
        "recoveries_fast_path_disproved",
        "recoveries_repreaccepted",
        "recoveries_noop",
        "recovery_noop_commits",
        "recovery_retries",
    }
)

#: Prefixes of dynamically-formatted ``Replica.count`` families.  The
#: deep-relay fallback records one counter quartet per tree depth
#: (``relay.depth.<d>.ack_rounds/acks/fallbacks/fallback_resends``,
#: overlay/relay.py); depth is data, so the names are f-strings.
REPLICA_COUNTER_PREFIXES: Tuple[str, ...] = (
    "relay.depth.",
)

#: Fully qualified names passed to ``MetricsRegistry`` helpers as literals.
METRIC_NAMES: FrozenSet[str] = frozenset(
    {
        # --- network accounting (net/network.py)
        "net.messages_sent",
        "net.bytes_sent",
        "net.messages_dropped",
        "net.messages_duplicated",
        "net.messages_delivered",
        "net.messages_undeliverable",
        # --- region/zone locality accounting (net/network.py); recorded
        #     via f-strings on the send path, listed here for the tests
        #     and reports that read them back as literals.
        "region.local_messages",
        "region.cross_messages",
        "zone.local_messages",
        "zone.cross_messages",
        # --- fault injection (net/faults.py)
        "faults.crashes",
        "faults.recoveries",
        "faults.sluggish_changes",
        # --- workload clients (workload/client.py)
        "client.latency",
        # --- leader-side batching (protocol/base.py, build_batch_metrics)
        "batch.flush.size",
        "batch.flush.delay",
        "batch.flush.pipeline",
        "batch.flush.conflict",
        "batch.flush.immediate",
        "batch.commands_batched",
        "batch.occupancy",
        # --- asyncio runtime (runtime/server.py)
        "runtime.executed_commands",
        "runtime.graph_vertices",
        "runtime.bookkeeping_units",
        "runtime.charged_seconds",
        "runtime.messages_sent",
        "runtime.messages_received",
        "runtime.send_failures",
    }
)

#: Prefixes of dynamically-formatted families (recorded via f-strings, so a
#: literal starting with one of these is accepted as a deliberate probe of
#: that family -- tests and examples read individual members).
METRIC_NAME_PREFIXES: Tuple[str, ...] = (
    "net.sent.",        # per-message-type send counts
    "net.sent_bytes.",  # per-message-type byte counts
    "node.",            # node.<id>.messages_in/out, bytes_in/out
    "paxos.",           # replica counters, protocol-prefixed form
    "epaxos.",
    "shard.",           # shard.<s>.requests / shard.<s>.completions (workload/client.py)
    "region.",          # region.local/cross_messages (net/network.py)
    "zone.",            # zone.local/cross_messages (net/network.py)
)


def is_known_metric(name: str) -> bool:
    """Whether a fully qualified metric name is in the documented namespace."""
    if name in METRIC_NAMES:
        return True
    return name.startswith(METRIC_NAME_PREFIXES)


def is_known_replica_counter(name: str) -> bool:
    """Whether a bare ``Replica.count`` name is in the documented namespace."""
    if name in REPLICA_COUNTERS:
        return True
    return name.startswith(REPLICA_COUNTER_PREFIXES)
