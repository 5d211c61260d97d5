"""Unit tests for PigPaxos: Multi-Paxos over a relay overlay with the leader retry.

Relay trees, aggregation, timeouts and the Figure 5b leader round retry,
driven through :class:`MultiPaxosReplica` hosting a :class:`RelayFanout`.
"""

from __future__ import annotations

from helpers import FakeContext
from repro.overlay.messages import RelayAggregate, RelayRequest, RelaySubtree
from repro.overlay.relay import RelayFanout
from repro.paxos.replica import MultiPaxosReplica
from repro.protocol.ballot import Ballot
from repro.protocol.config import ProtocolConfig
from repro.protocol.messages import ClientReply, ClientRequest, Heartbeat, P1a, P1b, P2a, P2b
from repro.statemachine.command import Command, OpType


def make_replica(node_id=0, cluster=9, groups=2, leader=0, **overlay_kwargs):
    ctx = FakeContext(node_id=node_id, all_nodes=list(range(cluster)))
    config = ProtocolConfig(initial_leader=leader, leader_retry_timeout=0.15)
    replica = MultiPaxosReplica(config=config, overlay=RelayFanout(num_groups=groups, **overlay_kwargs))
    replica.bind(ctx)
    return replica, ctx


def client_request(key="k", client_id=1000, request_id=1) -> ClientRequest:
    return ClientRequest(
        command=Command(op=OpType.PUT, key=key, payload_size=8, client_id=client_id, request_id=request_id)
    )


def elect(replica, ctx):
    replica.start()
    for timer in list(ctx.pending_timers()):
        if timer.delay == 0.0:
            timer.fire()
    ballot = replica.ballot
    for voter in replica.peers[: replica.quorum.phase1_size - 1]:
        replica.on_message(voter, RelayAggregate(agg_id=1, responses=(P1b(ballot=ballot, voter=voter, ok=True),)))
    assert replica.is_leader
    ctx.clear_sent()


class TestLeaderFanOut:
    def test_phase1_goes_through_relays_not_broadcast(self):
        replica, ctx = make_replica()
        replica.start()
        for timer in list(ctx.pending_timers()):
            if timer.delay == 0.0:
                timer.fire()
        relay_requests = ctx.sent_of_type(RelayRequest)
        assert len(relay_requests) == 2  # one per relay group, not 8 peers
        assert all(isinstance(msg.inner, P1a) for _, msg in relay_requests)

    def test_phase2_sends_one_wrapped_message_per_group(self):
        replica, ctx = make_replica(groups=2)
        elect(replica, ctx)
        replica.on_message(1000, client_request())
        requests = ctx.sent_of_type(RelayRequest)
        assert len(requests) == 2
        covered = set()
        for dst, msg in requests:
            covered.add(dst)
            covered.update(n for child in msg.children for n in child.all_nodes())
        assert covered == set(replica.peers)

    def test_number_of_groups_respected(self):
        for groups in (2, 3, 4):
            replica, ctx = make_replica(cluster=25, groups=groups)
            elect(replica, ctx)
            replica.on_message(1000, client_request())
            assert len(ctx.sent_of_type(RelayRequest)) == groups

    def test_relays_rotate_across_rounds(self):
        replica, ctx = make_replica(cluster=25, groups=2)
        elect(replica, ctx)
        relay_sets = set()
        for request_id in range(1, 30):
            ctx.clear_sent()
            replica.on_message(1000, client_request(request_id=request_id))
            relay_sets.add(frozenset(dst for dst, _ in ctx.sent_of_type(RelayRequest)))
        assert len(relay_sets) > 3

    def test_fixed_relays_do_not_rotate(self):
        replica, ctx = make_replica(cluster=25, groups=2, fixed_relays=True)
        elect(replica, ctx)
        relay_sets = set()
        for request_id in range(1, 10):
            ctx.clear_sent()
            replica.on_message(1000, client_request(request_id=request_id))
            relay_sets.add(frozenset(dst for dst, _ in ctx.sent_of_type(RelayRequest)))
        assert len(relay_sets) == 1

    def test_heartbeat_wrapped_without_response_expectation(self):
        replica, ctx = make_replica()
        elect(replica, ctx)
        replica._heartbeat_tick()
        requests = ctx.sent_of_type(RelayRequest)
        assert requests and all(not msg.expects_response for _, msg in requests)

    def test_region_groups_used_when_configured(self):
        region_of = {n: ("east" if n % 3 == 0 else "west" if n % 3 == 1 else "central") for n in range(9)}
        replica, ctx = make_replica(use_region_groups=True, region_of=region_of)
        plan = replica.overlay.plan()
        assert len(plan.groups) == 3  # one per region present among followers

    def test_explicit_group_plan_override(self):
        replica, ctx = make_replica()
        replica.overlay.set_plan([[1, 2, 3, 4], [5, 6, 7, 8]])
        assert replica.overlay.plan().groups == [[1, 2, 3, 4], [5, 6, 7, 8]]

    def test_reshuffle_changes_plan_but_not_membership(self):
        replica, ctx = make_replica(cluster=25, groups=3)
        elect(replica, ctx)
        before = replica.overlay.plan()
        after = replica.overlay.reshuffle()
        assert sorted(after.members) == sorted(before.members)


class TestRelayRole:
    def _relay_request(self, replica, children, agg_id=42, timeout=0.05, slot=1):
        ballot = Ballot(1, 0)
        command = Command(op=OpType.PUT, key="x", payload_size=8)
        inner = P2a(ballot=ballot, slot=slot, command=command, commit_upto=0)
        return RelayRequest(inner=inner, children=children, agg_id=agg_id, timeout=timeout)

    def test_leaf_follower_replies_immediately_with_own_vote(self):
        replica, ctx = make_replica(node_id=3)
        replica.on_message(1, self._relay_request(replica, children=()))
        aggregates = ctx.sent_of_type(RelayAggregate)
        assert len(aggregates) == 1
        dst, aggregate = aggregates[0]
        assert dst == 1
        assert len(aggregate.responses) == 1
        assert isinstance(aggregate.responses[0], P2b) and aggregate.responses[0].ok

    def test_relay_forwards_to_children_and_waits(self):
        replica, ctx = make_replica(node_id=1)
        children = (RelaySubtree(2), RelaySubtree(3))
        replica.on_message(0, self._relay_request(replica, children=children))
        forwarded = ctx.sent_of_type(RelayRequest)
        assert {dst for dst, _ in forwarded} == {2, 3}
        assert ctx.sent_of_type(RelayAggregate) == []  # still waiting

    def test_relay_aggregates_after_all_children_respond(self):
        replica, ctx = make_replica(node_id=1)
        children = (RelaySubtree(2), RelaySubtree(3))
        replica.on_message(0, self._relay_request(replica, children=children, agg_id=7))
        ballot = Ballot(1, 0)
        for child in (2, 3):
            replica.on_message(child, RelayAggregate(
                agg_id=7, responses=(P2b(ballot=ballot, slot=1, voter=child, ok=True),), origin=child))
        aggregates = ctx.sent_of_type(RelayAggregate)
        assert len(aggregates) == 1
        dst, aggregate = aggregates[0]
        assert dst == 0
        assert len(aggregate.responses) == 3  # own vote + two children
        assert aggregate.complete

    def test_relay_timeout_flushes_partial_responses(self):
        replica, ctx = make_replica(node_id=1)
        children = (RelaySubtree(2), RelaySubtree(3))
        replica.on_message(0, self._relay_request(replica, children=children, agg_id=9))
        ballot = Ballot(1, 0)
        replica.on_message(2, RelayAggregate(
            agg_id=9, responses=(P2b(ballot=ballot, slot=1, voter=2, ok=True),), origin=2))
        # Child 3 never answers; fire the relay timeout.
        timeout_timers = [t for t in ctx.pending_timers() if t.callback == replica.overlay._session_timeout]
        assert timeout_timers
        timeout_timers[0].fire()
        aggregates = ctx.sent_of_type(RelayAggregate)
        assert len(aggregates) == 1
        assert len(aggregates[0][1].responses) == 2
        assert not aggregates[0][1].complete

    def test_threshold_flushes_early(self):
        replica, ctx = make_replica(node_id=1, response_threshold=0.5)
        children = tuple(RelaySubtree(n) for n in (2, 3, 4, 5))
        replica.on_message(0, self._relay_request(replica, children=children, agg_id=11))
        ballot = Ballot(1, 0)
        for child in (2, 3):
            replica.on_message(child, RelayAggregate(
                agg_id=11, responses=(P2b(ballot=ballot, slot=1, voter=child, ok=True),), origin=child))
        aggregates = ctx.sent_of_type(RelayAggregate)
        assert len(aggregates) == 1  # flushed at 2 of 4 children

    def test_straggler_after_flush_is_dropped(self):
        replica, ctx = make_replica(node_id=1)
        children = (RelaySubtree(2),)
        replica.on_message(0, self._relay_request(replica, children=children, agg_id=13))
        ballot = Ballot(1, 0)
        replica.on_message(2, RelayAggregate(
            agg_id=13, responses=(P2b(ballot=ballot, slot=1, voter=2, ok=True),), origin=2))
        ctx.clear_sent()
        # A duplicate/straggler for the same closed session with no responses.
        replica.on_message(2, RelayAggregate(agg_id=13, responses=(), origin=2))
        assert ctx.sent == []

    def test_relay_request_processes_inner_as_follower(self):
        replica, ctx = make_replica(node_id=4)
        replica.on_message(1, self._relay_request(replica, children=(), slot=3))
        assert replica.log.get(3) is not None

    def test_heartbeat_relay_forwards_without_aggregation(self):
        replica, ctx = make_replica(node_id=1)
        heartbeat = Heartbeat(ballot=Ballot(1, 0), commit_upto=0)
        request = RelayRequest(inner=heartbeat, children=(RelaySubtree(2),), agg_id=5,
                                  timeout=0.05, expects_response=False)
        replica.on_message(0, request)
        assert ctx.sent_of_type(RelayAggregate) == []
        forwarded = ctx.sent_of_type(RelayRequest)
        assert forwarded and forwarded[0][0] == 2


class TestLeaderAggregation:
    def test_leader_commits_from_aggregated_votes(self):
        replica, ctx = make_replica(cluster=5, groups=2)
        elect(replica, ctx)
        replica.on_message(1000, client_request(request_id=3))
        requests = ctx.sent_of_type(RelayRequest)
        slot = requests[0][1].inner.slot
        agg_id = requests[0][1].agg_id
        ballot = replica.ballot
        votes = tuple(P2b(ballot=ballot, slot=slot, voter=voter, ok=True) for voter in (1, 2))
        replica.on_message(1, RelayAggregate(agg_id=agg_id, responses=votes, origin=1))
        assert replica.log.is_committed(slot)
        replies = ctx.sent_of_type(ClientReply)
        assert replies and replies[0][0] == 1000

    def test_leader_retry_uses_fresh_fanout(self):
        replica, ctx = make_replica(cluster=9, groups=2)
        elect(replica, ctx)
        replica.on_message(1000, client_request())
        first_round = ctx.sent_of_type(RelayRequest)
        retry_timers = [t for t in ctx.pending_timers() if t.callback == replica._retry_proposal]
        assert retry_timers
        ctx.clear_sent()
        retry_timers[0].fire()
        second_round = ctx.sent_of_type(RelayRequest)
        assert len(second_round) == 2
        assert second_round[0][1].agg_id != first_round[0][1].agg_id

    def test_retry_skipped_once_committed(self):
        replica, ctx = make_replica(cluster=5, groups=2)
        elect(replica, ctx)
        replica.on_message(1000, client_request())
        requests = ctx.sent_of_type(RelayRequest)
        slot, agg_id = requests[0][1].inner.slot, requests[0][1].agg_id
        ballot = replica.ballot
        votes = tuple(P2b(ballot=ballot, slot=slot, voter=voter, ok=True) for voter in (1, 2))
        replica.on_message(1, RelayAggregate(agg_id=agg_id, responses=votes, origin=1))
        ctx.clear_sent()
        for timer in [t for t in ctx.timers if t.callback == replica._retry_proposal and not t.cancelled]:
            timer.fire()
        assert ctx.sent_of_type(RelayRequest) == []

    def test_crash_clears_open_sessions(self):
        replica, ctx = make_replica(node_id=1)
        ballot = Ballot(1, 0)
        inner = P2a(ballot=ballot, slot=1, command=Command(op=OpType.PUT, key="x"), commit_upto=0)
        replica.on_message(0, RelayRequest(inner=inner, children=(RelaySubtree(2),), agg_id=77, timeout=0.05))
        assert replica.overlay.open_sessions
        replica.on_crash()
        assert not replica.overlay.open_sessions

    def test_leader_plans_one_group_per_configured_relay_group(self):
        replica, ctx = make_replica(cluster=9, groups=2)
        elect(replica, ctx)
        assert replica.status()["is_leader"]
        assert len(replica.overlay.plan().groups) == 2

    def test_retry_disabled_without_leader_retry_timeout(self):
        # Paxos over relays without the preset's retry arms no retry timer.
        ctx = FakeContext(node_id=0, all_nodes=list(range(9)))
        replica = MultiPaxosReplica(config=ProtocolConfig(), overlay=RelayFanout(num_groups=2))
        replica.bind(ctx)
        elect(replica, ctx)
        replica.on_message(1000, client_request())
        assert len(ctx.sent_of_type(RelayRequest)) == 2
        assert [t for t in ctx.pending_timers() if t.callback == replica._retry_proposal] == []


class TestRelayFailureRecovery:
    """Regression tests: a crashed relay must not sink a round or its votes."""

    def test_crashed_relay_round_is_retried_and_still_commits(self):
        replica, ctx = make_replica(cluster=9, groups=2)
        elect(replica, ctx)
        replica.on_message(1000, client_request(request_id=5))
        first_round = ctx.sent_of_type(RelayRequest)
        assert len(first_round) == 2
        slot = first_round[0][1].inner.slot
        first_agg = first_round[0][1].agg_id
        first_relays = {dst for dst, _ in first_round}

        # Both relays crash silently: no aggregates ever come back, the
        # leader's per-proposal retry timer fires instead.
        retry_timers = [t for t in ctx.pending_timers() if t.callback == replica._retry_proposal]
        assert retry_timers
        ctx.clear_sent()
        retry_timers[0].fire()

        second_round = ctx.sent_of_type(RelayRequest)
        assert len(second_round) == 2
        second_agg = second_round[0][1].agg_id
        assert second_agg != first_agg  # a genuinely fresh round
        assert not replica.log.is_committed(slot)

        # The fresh relays answer with a quorum of votes; the slot commits
        # and the client is answered even though round one died entirely.
        ballot = replica.ballot
        votes = tuple(
            P2b(ballot=ballot, slot=slot, voter=voter, ok=True) for voter in (1, 2, 3, 4)
        )
        relay = next(dst for dst, _ in second_round)
        replica.on_message(relay, RelayAggregate(agg_id=second_agg, responses=votes, origin=relay))
        assert replica.log.is_committed(slot)
        assert ctx.sent_of_type(ClientReply)
        assert ctx.metrics.counter("paxos.leader_round_retries").value >= 1
        # Either rotation picked different relays or the rng re-picked the
        # same ones -- both legal; the round id is what must differ.
        assert first_relays  # silence unused-variable linters

    def test_late_child_response_after_timeout_is_forwarded_to_parent(self):
        replica, ctx = make_replica(node_id=1)
        children = (RelaySubtree(2), RelaySubtree(3))
        ballot = Ballot(1, 0)
        command = Command(op=OpType.PUT, key="x", payload_size=8)
        inner = P2a(ballot=ballot, slot=1, command=command, commit_upto=0)
        replica.on_message(0, RelayRequest(inner=inner, children=children, agg_id=33, timeout=0.05))
        replica.on_message(2, RelayAggregate(
            agg_id=33, responses=(P2b(ballot=ballot, slot=1, voter=2, ok=True),), origin=2))
        timeout_timers = [t for t in ctx.pending_timers() if t.callback == replica.overlay._session_timeout]
        timeout_timers[0].fire()  # partial flush: child 3 never answered
        ctx.clear_sent()

        # Child 3's vote finally arrives.  Before the fix this was swallowed
        # by the relay's own (follower) handling and the leader never saw it.
        late_vote = P2b(ballot=ballot, slot=1, voter=3, ok=True)
        replica.on_message(3, RelayAggregate(agg_id=33, responses=(late_vote,), origin=3))
        forwarded = ctx.sent_of_type(RelayAggregate)
        assert len(forwarded) == 1
        dst, aggregate = forwarded[0]
        assert dst == 0  # up the tree, towards the leader
        assert aggregate.responses == (late_vote,)
        assert not aggregate.complete
        assert ctx.metrics.counter("paxos.late_responses_forwarded").value == 1

    def test_late_response_after_threshold_flush_is_forwarded(self):
        replica, ctx = make_replica(node_id=1, response_threshold=0.5)
        children = tuple(RelaySubtree(n) for n in (2, 3, 4, 5))
        ballot = Ballot(1, 0)
        inner = P2a(ballot=ballot, slot=1, command=Command(op=OpType.PUT, key="x"), commit_upto=0)
        replica.on_message(0, RelayRequest(inner=inner, children=children, agg_id=44, timeout=0.05))
        for child in (2, 3):
            replica.on_message(child, RelayAggregate(
                agg_id=44, responses=(P2b(ballot=ballot, slot=1, voter=child, ok=True),), origin=child))
        assert len(ctx.sent_of_type(RelayAggregate)) == 1  # early flush at 2/4
        ctx.clear_sent()
        replica.on_message(4, RelayAggregate(
            agg_id=44, responses=(P2b(ballot=ballot, slot=1, voter=4, ok=True),), origin=4))
        forwarded = ctx.sent_of_type(RelayAggregate)
        assert forwarded and forwarded[0][0] == 0

    def test_flushed_session_memory_is_bounded(self):
        replica, ctx = make_replica(node_id=1)
        ballot = Ballot(1, 0)
        for agg_id in range(replica.overlay._FLUSHED_SESSION_MEMORY + 50):
            inner = P2a(ballot=ballot, slot=agg_id + 1,
                        command=Command(op=OpType.PUT, key="x"), commit_upto=0)
            replica.on_message(0, RelayRequest(
                inner=inner, children=(RelaySubtree(2),), agg_id=agg_id, timeout=0.05))
            replica.on_message(2, RelayAggregate(
                agg_id=agg_id,
                responses=(P2b(ballot=ballot, slot=agg_id + 1, voter=2, ok=True),),
                origin=2))
        assert len(replica.overlay._flushed_parents) <= replica.overlay._FLUSHED_SESSION_MEMORY


class TestAggregateSizeAccounting:
    def test_aggregate_payload_sums_children(self):
        ballot = Ballot(1, 0)
        votes = tuple(P2b(ballot=ballot, slot=1, voter=v, ok=True) for v in range(4))
        aggregate = RelayAggregate(agg_id=1, responses=votes)
        assert aggregate.payload_bytes() == 4 * 8

    def test_relay_request_counts_membership_bytes(self):
        inner = P2a(ballot=Ballot(1, 0), slot=1,
                    command=Command(op=OpType.PUT, key="abcd", payload_size=100), commit_upto=0)
        children = (RelaySubtree(2, (RelaySubtree(3),)), RelaySubtree(4))
        request = RelayRequest(inner=inner, children=children, agg_id=1, timeout=0.05)
        assert request.payload_bytes() == inner.payload_bytes() + 4 * 3

    def test_subtree_size_and_depth(self):
        tree = RelaySubtree(1, (RelaySubtree(2), RelaySubtree(3, (RelaySubtree(4),))))
        assert tree.size() == 4
        assert tree.depth() == 3
        assert sorted(tree.all_nodes()) == [1, 2, 3, 4]
