"""Relay-tree fan-out: the paper's PigPaxos overlay, generalised.

``RelayFanout`` partitions the host's peers into relay groups and, per
wide-cast, picks one random member of each group as that round's relay
(:mod:`repro.overlay.groups`).  The wrapped message travels root → relays →
group members; responses aggregate back up the tree under a tight timeout,
so the fan-out root sends and receives one message per *group* instead of
one per *node* -- the communication-cost reduction at the heart of
conf_sigmod_CharapkoAD21.

The same trees serve both protocol families: Multi-Paxos hosting them is
PigPaxos, and EPaxos routes PreAccept/Accept rounds (and commit
notifications) through them, turning the paper's Multi-Paxos result into a
protocol-agnostic subsystem.  Robustness properties:

* a relay that times out (or hits its early-flush threshold) sends a
  partial aggregate, and *still forwards* late child responses towards the
  root afterwards instead of dropping votes the root may need;
* relays rotate every round, so a crashed relay only costs the rounds in
  flight; :meth:`reshuffle` additionally re-deals group membership
  (Section 4.1) -- within zones on hierarchical topologies, so the rebuilt
  multi-level tree still follows the region/zone boundaries;
* with ``commit_fallback_timeout`` set, fire-and-forget fan-outs demand
  acks hop by hop: the root covers its first-hop relays and (recursively)
  every interior relay covers its own sub-relays, re-sending a silent
  relay's subtree directly, with per-depth ``relay.depth.<d>.*`` counters;
* aggregate accounting counts distinct children only, so a child that
  flushes twice cannot mark a session complete while another child is
  silent.

Example::

    from repro.overlay import RelayFanout

    overlay = RelayFanout(num_groups=3, relay_timeout=0.05)
    # installed via EPaxosReplica(overlay=overlay) or
    # MultiPaxosReplica(overlay=overlay); the builder makes one per replica
    # from OverlayConfig(kind="relay", ...).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional

from repro.errors import ConfigurationError
from repro.net.message import Message
from repro.overlay.base import FanoutOverlay
from repro.overlay.groups import (
    HierarchicalGroupPlan,
    RelayGroupPlan,
    region_groups,
    round_robin_groups,
)
from repro.overlay.messages import RelayAggregate, RelayRequest, RelaySubtree


@dataclass(slots=True)
class _AggregationSession:
    """State a relay keeps while gathering responses for one round."""

    agg_id: int
    parent: int
    expected_children: int
    responses: List[Message] = field(default_factory=list)
    children_heard: int = 0
    children_seen: set = field(default_factory=set)
    threshold: Optional[int] = None
    timer: Optional[object] = None
    flushed: bool = False


@dataclass(slots=True)
class _CommitRound:
    """Durability tracking for one fire-and-forget fan-out hop.

    ``subtrees`` maps each next-hop relay to the subtree it must deliver
    to; a relay that has not acked by the fallback deadline is presumed
    crashed and its subtree is re-sent directly (DirectFanout-style).  The
    fan-out root opens one of these at ``depth`` 0; with recursive fallback
    every interior relay opens its own round (depth 1, 2, ...) covering its
    sub-relays, so a deep sub-relay crash heals at the lowest live ancestor
    instead of surfacing as a lost commit.
    """

    message: Message
    subtrees: Dict[int, object] = field(default_factory=dict)
    acked: set = field(default_factory=set)
    timer: Optional[object] = None
    depth: int = 0


class RelayFanout(FanoutOverlay):
    """Fan out through per-round relay trees and aggregate replies back up."""

    name = "relay"

    #: How many flushed sessions to remember for late-response forwarding.
    _FLUSHED_SESSION_MEMORY = 256

    def __init__(
        self,
        num_groups: int = 3,
        use_region_groups: bool = False,
        region_of: Optional[Dict[int, str]] = None,
        zone_of: Optional[Dict[int, str]] = None,
        relay_timeout: float = 0.05,
        timeout_decay: float = 0.5,
        response_threshold: Optional[float] = None,
        levels: int = 1,
        fixed_relays: bool = False,
        commit_fallback_timeout: Optional[float] = None,
        recursive_commit_fallback: bool = True,
    ) -> None:
        super().__init__()
        self.num_groups = num_groups
        self.use_region_groups = use_region_groups
        self.region_of = dict(region_of or {})
        self.zone_of = dict(zone_of or {})
        if use_region_groups and not self.region_of:
            # Refused at build time: silently falling back to round-robin
            # groups (the historical behaviour) turned a mis-wired WAN
            # deployment into a quietly slower one instead of an error.
            raise ConfigurationError(
                "use_region_groups=True but no region map is available; "
                "build the cluster on a WAN/hierarchical topology (or pass "
                "region_of) or disable region-aligned grouping"
            )
        self.relay_timeout = relay_timeout
        self.timeout_decay = timeout_decay
        self.response_threshold = response_threshold
        self.levels = levels
        self.fixed_relays = fixed_relays
        # Commit durability (ROADMAP item: a relay crashing mid-commit-round
        # used to lose the commit for its whole group).  When set, fire-and-
        # forget fan-outs demand a lightweight ack from each first-hop relay
        # and any subtree whose relay stays silent past the deadline is
        # re-sent directly, node by node.  None (default) keeps the
        # historical ack-free behaviour and recorded fingerprints.
        self.commit_fallback_timeout = commit_fallback_timeout
        # When True (default), interior relays run the same ack/deadline/
        # resend-subtree logic towards their own sub-relays, so a deep
        # sub-relay crash heals inside the tree.  False restores the
        # first-hop-only protocol (ablation / mutation tests).
        self.recursive_commit_fallback = recursive_commit_fallback

        self._plan: Optional[RelayGroupPlan] = None
        self._sessions: Dict[int, _AggregationSession] = {}
        self._agg_counter = 0
        # Parents of recently flushed sessions, so late child responses can
        # still be forwarded towards the fan-out root instead of being lost.
        self._flushed_parents: Dict[int, int] = {}
        # Root-side commit-durability rounds awaiting relay acks.
        self._pending_commits: Dict[int, _CommitRound] = {}

    # ------------------------------------------------------------------ groups
    def plan(self) -> RelayGroupPlan:
        """The current partition of the host's peers into relay groups."""
        if self._plan is None:
            followers = sorted(self.host.peers)
            if self.use_region_groups:
                if self.zone_of:
                    # Hierarchical topology: one group per region with zone
                    # sub-partitions, so multi-level trees follow region
                    # relay -> zone relays -> leaves instead of arbitrary
                    # splits.  At levels <= 1 this is exactly region_groups.
                    self._plan = HierarchicalGroupPlan.from_hierarchy(
                        followers, self.region_of, self.zone_of
                    )
                    return self._plan
                groups = region_groups(followers, self.region_of)
            else:
                groups = round_robin_groups(followers, self.num_groups)
            self._plan = RelayGroupPlan(groups=groups)
        return self._plan

    def set_plan(self, groups: List[List[int]]) -> None:
        """Install an explicit group layout (used by tests and ablations)."""
        self._plan = RelayGroupPlan(groups=[list(group) for group in groups])

    def reshuffle(self) -> RelayGroupPlan:
        """Dynamically reconfigure relay groups (Section 4.1)."""
        self._plan = self.plan().reshuffle(self.host.ctx.rng)
        self.host.count("group_reshuffles")
        return self._plan

    # ------------------------------------------------------------------ sending
    def wide_cast(
        self,
        message: Message,
        *,
        expects_response: bool = True,
        round_id: Optional[Hashable] = None,
        quorum_size: Optional[int] = None,
        exclude: Optional[set] = None,
    ) -> List[int]:
        """Send ``message`` down one freshly built relay tree per group."""
        trees = self.plan().build_trees(
            rng=self.host.ctx.rng,
            levels=self.levels,
            fixed_relays=self.fixed_relays,
            exclude=exclude,
        )
        self._agg_counter += 1
        agg_id = self.host.node_id * 1_000_000_000 + self._agg_counter
        want_ack = not expects_response and self.commit_fallback_timeout is not None
        relays: List[int] = []
        for tree in trees:
            request = RelayRequest(
                inner=message,
                children=tree.children,
                agg_id=agg_id,
                timeout=self.relay_timeout,
                expects_response=expects_response,
                ack=want_ack,
            )
            self.host.send(tree.node_id, request)
            relays.append(tree.node_id)
        if want_ack and relays:
            self._open_commit_round(
                agg_id, message, {tree.node_id: tree for tree in trees}, depth=0
            )
        self.host.count("relay_fanouts")
        return relays

    def _open_commit_round(
        self,
        agg_id: int,
        message: Message,
        subtrees: Dict[int, RelaySubtree],
        depth: int,
    ) -> None:
        """Arm durability tracking for one fan-out hop at ``depth``."""
        commit_round = _CommitRound(message=message, subtrees=subtrees, depth=depth)
        commit_round.timer = self.host.ctx.schedule(
            self.commit_fallback_timeout, self._commit_fallback, agg_id
        )
        self._pending_commits[agg_id] = commit_round
        self.host.count(f"relay.depth.{depth}.ack_rounds")

    # ------------------------------------------------------------------ receiving
    def handle_message(self, src: int, message: Message) -> bool:
        if isinstance(message, RelayRequest):
            self._on_relay_request(src, message)
            return True
        if isinstance(message, RelayAggregate):
            self._on_aggregate(src, message)
            return True
        return False

    # ------------------------------------------------------------------ relay / follower role
    def _on_relay_request(self, src: int, msg: RelayRequest) -> None:
        if msg.expects_response and (
            msg.agg_id in self._sessions or msg.agg_id in self._flushed_parents
        ):
            # Duplicate delivery of a request we are already serving (or just
            # served): opening a fresh session would discard the votes the
            # live session already collected, and the superseded session's
            # timer would flush the replacement early.  Leaf followers have
            # no session to protect; their repeated replies are deduplicated
            # upstream (children_seen / per-voter accounting).
            self.host.count("duplicate_relay_requests_ignored")
            return
        own_response = self.host.process_for_overlay(src, msg.inner)

        if not msg.expects_response:
            # Pure fan-out traffic (heartbeats, commits): forward and stop.
            # With recursive fallback on, this relay also demands acks from
            # its own sub-relays (children that have children) and re-sends
            # a silent sub-relay's subtree directly -- the same protocol the
            # root runs, one level down.  Leaves never ack: losing a leaf
            # loses one node's copy, not a whole subtree.
            sub_relays: Dict[int, RelaySubtree] = {}
            want_child_acks = (
                msg.ack
                and self.recursive_commit_fallback
                and self.commit_fallback_timeout is not None
                and msg.agg_id not in self._pending_commits
            )
            for child in msg.children:
                child_ack = bool(want_child_acks and child.children)
                if child_ack:
                    sub_relays[child.node_id] = child
                self._forward_to_child(child, msg, ack=child_ack)
            if sub_relays:
                self._open_commit_round(msg.agg_id, msg.inner, sub_relays, depth=msg.depth)
            if msg.ack:
                # Commit-durability leg: tell the parent this subtree's relay
                # is alive and has forwarded the round.  Duplicate requests
                # re-ack; the parent's acked-set makes that idempotent.
                self.host.send(
                    src,
                    RelayAggregate(agg_id=msg.agg_id, responses=(), origin=self.host.node_id),
                )
            return

        if not msg.children:
            # Leaf follower: answer the relay immediately.
            responses = (own_response,) if own_response is not None else ()
            self.host.send(
                src, RelayAggregate(agg_id=msg.agg_id, responses=responses, origin=self.host.node_id)
            )
            return

        # Relay role: open an aggregation session, forward to the subtree.
        session = _AggregationSession(
            agg_id=msg.agg_id,
            parent=src,
            expected_children=len(msg.children),
            threshold=self._threshold_for(len(msg.children)),
        )
        if own_response is not None:
            session.responses.append(own_response)
        self._sessions[msg.agg_id] = session
        session.timer = self.host.ctx.schedule(msg.timeout, self._session_timeout, msg.agg_id)
        for child in msg.children:
            self._forward_to_child(child, msg)
        self.host.count("relay_rounds")

    def _forward_to_child(self, child: RelaySubtree, msg: RelayRequest, ack: bool = False) -> None:
        child_timeout = max(msg.timeout * self.timeout_decay, 0.001)
        self.host.send(
            child.node_id,
            RelayRequest(
                inner=msg.inner,
                children=child.children,
                agg_id=msg.agg_id,
                timeout=child_timeout,
                expects_response=msg.expects_response,
                ack=ack,
                depth=msg.depth + 1,
            ),
        )

    def _threshold_for(self, num_children: int) -> Optional[int]:
        if self.response_threshold is None:
            return None
        return max(1, math.ceil(self.response_threshold * num_children))

    def _on_aggregate(self, src: int, msg: RelayAggregate) -> None:
        commit_round = self._pending_commits.get(msg.agg_id)
        if commit_round is not None:
            # Durability ack for a fire-and-forget round this node fanned
            # out: the relay is alive.  Once every relay acked, the round
            # is durable and the fallback is disarmed.
            if msg.origin not in commit_round.acked:
                commit_round.acked.add(msg.origin)
                self.host.count(f"relay.depth.{commit_round.depth}.acks")
            if len(commit_round.acked) >= len(commit_round.subtrees):
                if commit_round.timer is not None:
                    commit_round.timer.cancel()
                del self._pending_commits[msg.agg_id]
            return
        session = self._sessions.get(msg.agg_id)
        if session is not None and not session.flushed:
            # Count distinct children only: a child relay that flushed early
            # may send a second aggregate when its own stragglers arrive, and
            # double-counting it would flush this session "complete" while a
            # different child never reported.
            if msg.origin not in session.children_seen:
                session.children_seen.add(msg.origin)
                session.children_heard += 1
            session.responses.extend(msg.responses)
            done = session.children_heard >= session.expected_children
            early = session.threshold is not None and session.children_heard >= session.threshold
            if done or early:
                self._flush_session(session, complete=done)
            return

        parent = self._flushed_parents.get(msg.agg_id)
        if parent is not None:
            # Late child responses for a session this relay already flushed
            # (timeout or early threshold).  The fan-out root may still need
            # these votes to reach quorum, so forward them up the tree rather
            # than swallowing them; duplicates are idempotent at the root.
            if msg.responses:
                self.host.count("late_responses_forwarded")
                self.host.send(
                    parent,
                    RelayAggregate(
                        agg_id=msg.agg_id,
                        responses=msg.responses,
                        origin=self.host.node_id,
                        complete=False,
                    ),
                )
            else:
                self.host.count("late_aggregates_dropped")
            return

        if msg.responses:
            # No session was ever open for this id: we are the top of the
            # tree (the round's fan-out root).  Unwrap and feed each vote
            # into ordinary handling; stale votes are ignored there.
            for response in msg.responses:
                self.host.deliver_reply(src, response)
        else:
            self.host.count("late_aggregates_dropped")

    def _commit_fallback(self, agg_id: int) -> None:
        """A relay never acked a commit round: re-send its subtree directly.

        The crashed relay's whole group would otherwise silently miss the
        commit and stall its dependency graphs until client retries papered
        over the hole.  Re-broadcast is DirectFanout-style -- one plain copy
        of the inner message per subtree node -- and harmless to nodes that
        did receive the relayed copy (commits are idempotent).  Fires at the
        root (depth 0) for silent first-hop relays and, with recursive
        fallback, at every interior relay for its own silent sub-relays.
        """
        commit_round = self._pending_commits.pop(agg_id, None)
        if commit_round is None:
            return
        resent = 0
        for relay_id, subtree in sorted(commit_round.subtrees.items()):
            if relay_id in commit_round.acked:
                continue
            for node_id in subtree.all_nodes():
                self.host.send(node_id, commit_round.message)
                resent += 1
        if resent:
            self.host.count("commit_fallbacks")
            self.host.count("commit_fallback_resends", resent)
            self.host.count(f"relay.depth.{commit_round.depth}.fallbacks")
            self.host.count(f"relay.depth.{commit_round.depth}.fallback_resends", resent)

    def _session_timeout(self, agg_id: int) -> None:
        session = self._sessions.get(agg_id)
        if session is None or session.flushed:
            return
        self.host.count("relay_timeouts")
        self._flush_session(session, complete=False)

    def _flush_session(self, session: _AggregationSession, complete: bool) -> None:
        session.flushed = True
        if session.timer is not None:
            session.timer.cancel()
        self._sessions.pop(session.agg_id, None)
        self._flushed_parents[session.agg_id] = session.parent
        while len(self._flushed_parents) > self._FLUSHED_SESSION_MEMORY:
            self._flushed_parents.pop(next(iter(self._flushed_parents)))
        aggregate = RelayAggregate(
            agg_id=session.agg_id,
            responses=tuple(session.responses),
            origin=self.host.node_id,
            complete=complete,
        )
        self.host.send(session.parent, aggregate)

    # ------------------------------------------------------------------ lifecycle
    def on_crash(self) -> None:
        # lint: ok(no-unordered-iteration) timer cancellation is order-insensitive; nothing is scheduled here
        for session in self._sessions.values():
            if session.timer is not None:
                session.timer.cancel()
        self._sessions.clear()
        self._flushed_parents.clear()
        # lint: ok(no-unordered-iteration) timer cancellation is order-insensitive; nothing is scheduled here
        for commit_round in self._pending_commits.values():
            if commit_round.timer is not None:
                commit_round.timer.cancel()
        self._pending_commits.clear()

    # ------------------------------------------------------------------ introspection
    @property
    def open_sessions(self) -> int:
        return len(self._sessions)
