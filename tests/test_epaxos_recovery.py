"""Unit tests for EPaxos explicit-prepare recovery and its companions.

Covers, on hand-built replica states (FakeContext, no simulator):

* ballot plumbing -- promises, nacks, and the default-ballot fast path
  staying byte-identical;
* every row of the recovery decision table (adopt commit / finish accept /
  quorum of default PreAccepts / re-run PreAccept / no-op);
* lazy arming -- no recovery event is ever scheduled unless execution has
  been blocked on an uncommitted dependency past the deadline;
* the leader-side round retry (``ProtocolConfig.leader_retry_timeout``);
* the relay overlay's commit-durability fallback
  (``OverlayConfig.commit_fallback_timeout``);
* checker legality of recovered no-ops.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from helpers import FakeContext
from repro.checkers.invariants import (
    check_epaxos_conflict_ordering,
    check_epaxos_execution_consistency,
    check_epaxos_execution_order,
    check_epaxos_instance_agreement,
)
from repro.epaxos.messages import (
    EAccept,
    EAcceptReply,
    ECommit,
    EPreAccept,
    EPreAcceptReply,
    EPrepare,
    EPrepareReply,
    initial_ballot,
)
from repro.epaxos.replica import EPaxosReplica
from repro.overlay.messages import RelayAggregate, RelayRequest
from repro.overlay.relay import RelayFanout
from repro.statemachine.command import Command, NoOp, OpType


def _put(key="k", client=7, req=1):
    return Command(op=OpType.PUT, key=key, value="v", client_id=client, request_id=req)


def _replica(node_id=0, recovery_timeout=None, leader_retry_timeout=None, nodes=(0, 1, 2, 3, 4)):
    replica = EPaxosReplica(
        recovery_timeout=recovery_timeout, leader_retry_timeout=leader_retry_timeout
    )
    ctx = FakeContext(node_id=node_id, all_nodes=nodes)
    replica.bind(ctx)
    return replica, ctx


def _prepare_reply(instance, voter, *, status, command, seq=1, deps=frozenset(),
                   ballot, attr_ballot=None, changed=False, ok=True):
    return EPrepareReply(
        instance=instance, voter=voter, ok=ok, ballot=ballot, status=status,
        seq=seq, deps=frozenset(deps), command=command,
        attr_ballot=attr_ballot if attr_ballot is not None else initial_ballot(instance),
        changed=changed,
    )


def _block_and_trip_deadline(replica, ctx, dep=(4, 1), key="k"):
    """Commit an instance depending on ``dep`` and run past the deadline.

    Returns the recovery ballot the replica should be using for ``dep``.
    """
    command = _put(key)
    replica._on_commit(4, ECommit(instance=(4, 2), command=command, seq=2, deps=frozenset({dep})))
    assert (4, 2) in replica._pending_execution  # blocked on the orphan
    ctx.advance(replica._recovery_timeout + 0.01)
    replica._try_execute()
    return (1, replica.node_id)


class TestBallots:
    def test_round_messages_default_to_origin_ballot(self):
        pre = EPreAccept(instance=(3, 9), command=_put(), seq=1, deps=frozenset())
        assert pre.ballot == (0, 3)
        acc = EAccept(instance=(3, 9), command=_put(), seq=1, deps=frozenset())
        assert acc.ballot == (0, 3)

    def test_preaccept_below_promised_ballot_is_nacked(self):
        replica, ctx = _replica(node_id=1)
        instance = (4, 1)
        promise = replica._handle_prepare(EPrepare(instance=instance, ballot=(3, 2)))
        assert promise.ok and promise.status == "unknown"
        reply = replica._handle_preaccept(
            EPreAccept(instance=instance, command=_put(), seq=1, deps=frozenset())
        )
        assert not reply.ok
        assert reply.ballot == (3, 2)

    def test_accept_below_promised_ballot_is_nacked(self):
        replica, ctx = _replica(node_id=1)
        instance = (4, 1)
        replica._handle_prepare(EPrepare(instance=instance, ballot=(3, 2)))
        reply = replica._handle_accept(
            EAccept(instance=instance, command=_put(), seq=1, deps=frozenset())
        )
        assert not reply.ok and reply.ballot == (3, 2)

    def test_stale_prepare_is_nacked_with_current_ballot(self):
        replica, ctx = _replica(node_id=1)
        instance = (4, 1)
        replica._handle_prepare(EPrepare(instance=instance, ballot=(5, 3)))
        reply = replica._handle_prepare(EPrepare(instance=instance, ballot=(2, 2)))
        assert not reply.ok and reply.ballot == (5, 3)

    def test_conflicting_second_commit_is_refused_first_wins(self):
        """Two different commits for one instance (a broken recovery) must
        not silently converge on the last writer: the first commit is kept
        so the instance-agreement checker can still see the divergence."""
        replica, ctx = _replica(node_id=1)
        original = _put("k", client=1, req=1)
        # A dependency on an uncommitted instance keeps (4, 1) committed but
        # un-executed, the window in which an overwrite could still hide.
        deps = frozenset({(4, 9)})
        replica._on_commit(4, ECommit(instance=(4, 1), command=original, seq=2, deps=deps))
        assert replica.instances[(4, 1)].status == "committed"
        impostor = NoOp()
        replica._on_commit(0, ECommit(instance=(4, 1), command=impostor, seq=1, deps=frozenset()))
        assert replica.instances[(4, 1)].command is original
        assert replica.instances[(4, 1)].deps == deps
        assert replica.ctx.metrics.counter(
            "epaxos.conflicting_commit_overwrites_refused").value == 1
        # An identical re-delivery (same uid) is still idempotent and fine.
        replica._on_commit(4, ECommit(instance=(4, 1), command=original, seq=2, deps=deps))
        assert replica.instances[(4, 1)].command is original

    def test_prepare_reports_preaccepted_state_and_changed_flag(self):
        replica, ctx = _replica(node_id=1)
        # Local conflict so the PreAccept answer is "changed".
        other = _put("k")
        replica._on_commit(2, ECommit(instance=(2, 1), command=other, seq=1, deps=frozenset()))
        instance = (4, 1)
        replica._handle_preaccept(
            EPreAccept(instance=instance, command=_put("k"), seq=1, deps=frozenset())
        )
        reply = replica._handle_prepare(EPrepare(instance=instance, ballot=(1, 0)))
        assert reply.ok and reply.status == "preaccepted"
        assert reply.changed  # the local conflict updated the attributes
        assert (2, 1) in reply.deps
        assert reply.attr_ballot == initial_ballot(instance)


class TestLazyArming:
    def test_no_recovery_when_disabled(self):
        replica, ctx = _replica(node_id=0, recovery_timeout=None)
        replica._on_commit(
            4, ECommit(instance=(4, 2), command=_put(), seq=2, deps=frozenset({(4, 1)}))
        )
        ctx.advance(10.0)
        replica._try_execute()
        assert not ctx.timers
        assert not ctx.sent_of_type(EPrepare)
        assert not replica._recoveries

    def test_blocked_dep_arms_exactly_one_deadline_timer(self):
        replica, ctx = _replica(node_id=0, recovery_timeout=0.3)
        replica._on_commit(
            4, ECommit(instance=(4, 2), command=_put(), seq=2, deps=frozenset({(4, 1)}))
        )
        # Blocked: a stamp plus one deadline timer, but no recovery round yet.
        assert len(ctx.pending_timers()) == 1
        assert ctx.pending_timers()[0].delay == 0.3
        assert not ctx.sent_of_type(EPrepare)
        ctx.advance(0.1)
        replica._try_execute()
        # Re-entering before the deadline arms nothing new.
        assert len(ctx.pending_timers()) == 1
        assert not ctx.sent_of_type(EPrepare)
        assert (4, 1) in replica._first_blocked

    def test_quiescent_cluster_recovers_via_the_deadline_timer(self):
        """No further commits arrive after the blockage: the deadline timer
        alone must open the recovery round (a cluster gone quiet must not
        stay blocked forever)."""
        replica, ctx = _replica(node_id=0, recovery_timeout=0.3)
        replica._on_commit(
            4, ECommit(instance=(4, 2), command=_put(), seq=2, deps=frozenset({(4, 1)}))
        )
        [deadline_timer] = ctx.pending_timers()
        ctx.advance(0.3)
        deadline_timer.fire()
        prepares = ctx.sent_of_type(EPrepare)
        assert {dst for dst, _ in prepares} == {1, 2, 3, 4}
        assert (4, 1) in replica._recoveries

    def test_deadline_timer_is_cancelled_when_dep_commits_in_time(self):
        replica, ctx = _replica(node_id=0, recovery_timeout=0.3)
        replica._on_commit(
            4, ECommit(instance=(4, 2), command=_put(), seq=2, deps=frozenset({(4, 1)}))
        )
        [deadline_timer] = ctx.pending_timers()
        replica._on_commit(4, ECommit(instance=(4, 1), command=_put(), seq=1, deps=frozenset()))
        assert deadline_timer.cancelled
        assert not replica._blocked_timers and not replica._first_blocked

    def test_recovery_starts_after_deadline(self):
        replica, ctx = _replica(node_id=0, recovery_timeout=0.3)
        _block_and_trip_deadline(replica, ctx)
        prepares = ctx.sent_of_type(EPrepare)
        assert {dst for dst, _ in prepares} == {1, 2, 3, 4}
        assert all(msg.ballot == (1, 0) for _, msg in prepares)
        assert (4, 1) in replica._recoveries
        assert ctx.pending_timers()  # recovery retry timer (+ deadline timer)

    def test_commit_of_blocked_dep_clears_stamp_and_recovery(self):
        replica, ctx = _replica(node_id=0, recovery_timeout=0.3)
        _block_and_trip_deadline(replica, ctx)
        timer = replica._recoveries[(4, 1)].timer
        replica._on_commit(4, ECommit(instance=(4, 1), command=_put(), seq=1, deps=frozenset()))
        assert (4, 1) not in replica._recoveries
        assert (4, 1) not in replica._first_blocked
        assert timer.cancelled
        # Both instances now execute.
        assert replica.graph.is_executed((4, 1)) and replica.graph.is_executed((4, 2))


class TestDecisionTable:
    def test_commit_evidence_is_adopted_immediately(self):
        replica, ctx = _replica(node_id=0, recovery_timeout=0.3)
        ballot = _block_and_trip_deadline(replica, ctx)
        command = _put()
        reply = _prepare_reply(
            (4, 1), 1, status="committed", command=command, seq=3,
            deps=frozenset(), ballot=ballot,
        )
        replica._on_prepare_reply(1, reply)
        instance = replica.instances[(4, 1)]
        assert instance.status in ("committed", "executed")
        assert instance.seq == 3 and instance.command is command
        commits = [m for _, m in ctx.sent_of_type(ECommit) if m.instance == (4, 1)]
        assert commits and commits[0].seq == 3
        assert (4, 1) not in replica._recoveries

    def test_accepted_evidence_finishes_phase_two(self):
        replica, ctx = _replica(node_id=0, recovery_timeout=0.3)
        ballot = _block_and_trip_deadline(replica, ctx)
        command = _put()
        # Highest attr_ballot must win among accepted replies.
        replica._on_prepare_reply(1, _prepare_reply(
            (4, 1), 1, status="accepted", command=command, seq=4,
            deps=frozenset({(0, 9)}), ballot=ballot, attr_ballot=(0, 4)))
        replica._on_prepare_reply(2, _prepare_reply(
            (4, 1), 2, status="accepted", command=command, seq=6,
            deps=frozenset({(0, 11)}), ballot=ballot, attr_ballot=(1, 3)))
        accepts = [m for _, m in ctx.sent_of_type(EAccept) if m.instance == (4, 1)]
        assert accepts, "recovery must run phase 2"
        assert accepts[0].ballot == ballot
        assert accepts[0].seq == 6 and accepts[0].deps == frozenset({(0, 11)})
        # A quorum of accept acks commits the recovered decision.
        replica._on_accept_reply(1, EAcceptReply(instance=(4, 1), voter=1, ok=True, ballot=ballot))
        replica._on_accept_reply(2, EAcceptReply(instance=(4, 1), voter=2, ok=True, ballot=ballot))
        assert replica.instances[(4, 1)].status in ("committed", "executed")
        assert replica.graph.is_committed((4, 1))

    def test_quorum_of_unchanged_default_preaccepts_recovers_attributes(self):
        replica, ctx = _replica(node_id=0, recovery_timeout=0.3)
        ballot = _block_and_trip_deadline(replica, ctx)
        command = _put()
        attrs = dict(seq=5, deps=frozenset({(2, 3)}))
        # n=5 -> f=2 -> floor((f+1)/2) = 1 identical unchanged default reply
        # (not from the crashed origin) forces these attributes.
        replica._on_prepare_reply(1, _prepare_reply(
            (4, 1), 1, status="preaccepted", command=command, ballot=ballot,
            changed=False, **attrs))
        replica._on_prepare_reply(2, _prepare_reply(
            (4, 1), 2, status="none", command=None, ballot=ballot))
        accepts = [m for _, m in ctx.sent_of_type(EAccept) if m.instance == (4, 1)]
        assert accepts and accepts[0].seq == 5 and accepts[0].deps == frozenset({(2, 3)})
        assert replica.ctx.metrics.counter(
            "epaxos.recoveries_from_default_preaccepts").value == 1

    def test_changed_preaccepts_rerun_phase_one_slow_path(self):
        replica, ctx = _replica(node_id=0, recovery_timeout=0.3)
        ballot = _block_and_trip_deadline(replica, ctx)
        command = _put()
        replica._on_prepare_reply(1, _prepare_reply(
            (4, 1), 1, status="preaccepted", command=command, seq=2,
            deps=frozenset({(1, 1)}), ballot=ballot, changed=True))
        replica._on_prepare_reply(2, _prepare_reply(
            (4, 1), 2, status="none", command=None, ballot=ballot))
        # Row 4: a fresh PreAccept round at the recovery ballot, no Accept yet.
        pres = [m for _, m in ctx.sent_of_type(EPreAccept) if m.instance == (4, 1)]
        assert pres and pres[-1].ballot == ballot
        assert not [m for _, m in ctx.sent_of_type(EAccept) if m.instance == (4, 1)]
        # Acceptors merge fresh conflicts; a majority of replies moves to Accept.
        replica._on_preaccept_reply(1, EPreAcceptReply(
            instance=(4, 1), voter=1, ok=True, seq=7, deps=frozenset({(1, 1), (3, 2)}),
            changed=True, ballot=ballot))
        replica._on_preaccept_reply(2, EPreAcceptReply(
            instance=(4, 1), voter=2, ok=True, seq=2, deps=frozenset({(1, 1)}),
            changed=False, ballot=ballot))
        accepts = [m for _, m in ctx.sent_of_type(EAccept) if m.instance == (4, 1)]
        assert accepts, "re-run PreAccept must finish through the slow path"
        assert accepts[0].seq >= 7 and {(1, 1), (3, 2)} <= set(accepts[0].deps)

    def test_unknown_instance_is_noop_committed_with_no_edges(self):
        replica, ctx = _replica(node_id=0, recovery_timeout=0.3)
        ballot = _block_and_trip_deadline(replica, ctx)
        for voter in (1, 2):
            replica._on_prepare_reply(voter, _prepare_reply(
                (4, 1), voter, status="none", command=None, ballot=ballot))
        accepts = [m for _, m in ctx.sent_of_type(EAccept) if m.instance == (4, 1)]
        assert accepts and isinstance(accepts[0].command, NoOp)
        assert accepts[0].deps == frozenset()
        replica._on_accept_reply(1, EAcceptReply(instance=(4, 1), voter=1, ok=True, ballot=ballot))
        replica._on_accept_reply(2, EAcceptReply(instance=(4, 1), voter=2, ok=True, ballot=ballot))
        # The no-op commits, unblocking the dependent instance.
        assert replica.graph.is_executed((4, 1))
        assert replica.graph.is_executed((4, 2))
        assert replica.ctx.metrics.counter("epaxos.recovery_noop_commits").value == 1
        # The no-op applied without touching the store's keyspace.
        assert "k" in replica.store  # from the dependent instance only

    def test_edge_free_committed_conflict_disproves_the_fast_path(self):
        """A committed same-key conflict with no edge in either direction
        proves the orphan never fast-committed; row 3 must downgrade to the
        PreAccept re-run so the lost edge is restored."""
        replica, ctx = _replica(node_id=0, recovery_timeout=0.3)
        # Commit conflicting W on the same key, no edge to/from the orphan.
        w_command = _put("k", client=9, req=1)
        replica._on_commit(1, ECommit(instance=(1, 1), command=w_command, seq=1, deps=frozenset()))
        ballot = _block_and_trip_deadline(replica, ctx)
        orphan_cmd = _put("k", client=8, req=1)
        # One unchanged default-ballot reply whose attributes miss W.
        replica._on_prepare_reply(1, _prepare_reply(
            (4, 1), 1, status="preaccepted", command=orphan_cmd, seq=1,
            deps=frozenset(), ballot=ballot, changed=False))
        replica._on_prepare_reply(2, _prepare_reply(
            (4, 1), 2, status="none", command=None, ballot=ballot))
        # Not a direct Accept of the edge-missing attrs: a re-run PreAccept.
        assert replica.ctx.metrics.counter(
            "epaxos.recoveries_fast_path_disproved").value == 1
        pres = [m for _, m in ctx.sent_of_type(EPreAccept) if m.instance == (4, 1)]
        assert pres and pres[-1].ballot == ballot
        assert not [m for _, m in ctx.sent_of_type(EAccept) if m.instance == (4, 1)]

    def test_noop_never_answers_the_original_client(self):
        """If a still-alive leader's instance is recovered as a no-op, the
        client must NOT get a success reply for its lost write."""
        from repro.protocol.messages import ClientReply

        replica, ctx = _replica(node_id=0)
        replica._on_client_request(1007, SimpleNamespace(command=_put("k", client=1007, req=1)))
        instance_id = (0, 1)
        assert replica.instances[instance_id].leader_here
        # A recovery elsewhere commits the instance as a no-op.
        replica._on_commit(2, ECommit(instance=instance_id, command=NoOp(), seq=1, deps=frozenset()))
        assert replica.graph.is_executed(instance_id)
        assert not ctx.sent_of_type(ClientReply)

    def test_recovery_preaccept_preserves_leader_bookkeeping(self):
        """A recovery re-PreAccept reaching the alive original leader keeps
        leader_here/client_id, so the leader still answers its client when
        the recovered (real) command commits."""
        from repro.protocol.messages import ClientReply

        replica, ctx = _replica(node_id=0)
        command = _put("k", client=1007, req=1)
        replica._on_client_request(1007, SimpleNamespace(command=command))
        instance_id = (0, 1)
        recovery_pre = EPreAccept(
            instance=instance_id, command=command, seq=1, deps=frozenset(), ballot=(1, 2)
        )
        reply = replica._handle_preaccept(recovery_pre)
        assert reply.ok
        instance = replica.instances[instance_id]
        assert instance.leader_here and instance.client_id == 1007
        assert instance.ballot == (1, 2)
        # The recovery commits the real command: the client gets its answer.
        replica._on_commit(2, ECommit(instance=instance_id, command=command, seq=1, deps=frozenset()))
        replies = ctx.sent_of_type(ClientReply)
        assert replies and replies[0][0] == 1007

    def test_duplicate_prepare_replies_do_not_fake_a_quorum(self):
        replica, ctx = _replica(node_id=0, recovery_timeout=0.3)
        ballot = _block_and_trip_deadline(replica, ctx)
        reply = _prepare_reply((4, 1), 1, status="none", command=None, ballot=ballot)
        replica._on_prepare_reply(1, reply)
        replica._on_prepare_reply(1, reply)  # retransmission
        # Quorum is 3 (self + 2 distinct voters); one duplicated voter is not enough.
        assert not [m for _, m in ctx.sent_of_type(EAccept) if m.instance == (4, 1)]
        assert replica._recoveries[(4, 1)].phase == "prepare"

    def test_preempted_recovery_retries_with_higher_ballot(self):
        replica, ctx = _replica(node_id=0, recovery_timeout=0.3)
        _block_and_trip_deadline(replica, ctx)
        nack = _prepare_reply((4, 1), 1, status="preaccepted", command=None,
                              ballot=(5, 3), ok=False)
        replica._on_prepare_reply(1, nack)
        assert replica._recoveries[(4, 1)].preempted_by == (5, 3)
        retry_timer = replica._recoveries[(4, 1)].timer
        retry_timer.fire()
        new_recovery = replica._recoveries[(4, 1)]
        assert new_recovery.ballot > (5, 3)
        assert new_recovery.ballot[1] == replica.node_id


class TestLeaderRetry:
    def test_stalled_preaccept_round_is_resent(self):
        replica, ctx = _replica(node_id=0, leader_retry_timeout=0.2)
        replica._on_client_request(1007, SimpleNamespace(command=_put()))
        first = ctx.sent_of_type(EPreAccept)
        assert len(first) == 4
        [timer] = ctx.pending_timers()
        timer.fire()
        assert len(ctx.sent_of_type(EPreAccept)) == 8  # re-broadcast
        assert replica.ctx.metrics.counter("epaxos.leader_round_retries").value == 1

    def test_commit_cancels_the_retry_timer(self):
        replica, ctx = _replica(node_id=0, leader_retry_timeout=0.2)
        replica._on_client_request(1007, SimpleNamespace(command=_put()))
        instance_id = (0, 1)
        for voter in (1, 2):
            replica._on_preaccept_reply(voter, EPreAcceptReply(
                instance=instance_id, voter=voter, ok=True,
                seq=1, deps=frozenset(), changed=False))
        assert replica.instances[instance_id].status in ("committed", "executed")
        assert not ctx.pending_timers()

    def test_no_timer_without_the_knob(self):
        replica, ctx = _replica(node_id=0, leader_retry_timeout=None)
        replica._on_client_request(1007, SimpleNamespace(command=_put()))
        assert not ctx.timers

    def test_retry_resends_accept_in_slow_path(self):
        replica, ctx = _replica(node_id=0, leader_retry_timeout=0.2)
        replica._on_client_request(1007, SimpleNamespace(command=_put()))
        instance_id = (0, 1)
        replica._on_preaccept_reply(1, EPreAcceptReply(
            instance=instance_id, voter=1, ok=True,
            seq=2, deps=frozenset({(1, 1)}), changed=True))
        replica._on_preaccept_reply(2, EPreAcceptReply(
            instance=instance_id, voter=2, ok=True,
            seq=1, deps=frozenset(), changed=False))
        assert replica.instances[instance_id].status == "accepted"
        [timer] = ctx.pending_timers()
        before = len(ctx.sent_of_type(EAccept))
        timer.fire()
        assert len(ctx.sent_of_type(EAccept)) == before + 4


class TestRelayCommitFallback:
    def _relay_replica(self, timeout=0.5):
        overlay = RelayFanout(num_groups=2, commit_fallback_timeout=timeout)
        replica = EPaxosReplica(overlay=overlay)
        ctx = FakeContext(node_id=0, all_nodes=(0, 1, 2, 3, 4))
        replica.bind(ctx)
        return replica, overlay, ctx

    def test_fire_and_forget_requests_demand_acks(self):
        replica, overlay, ctx = self._relay_replica()
        commit = ECommit(instance=(0, 1), command=_put(), seq=1, deps=frozenset())
        overlay.wide_cast(commit, expects_response=False)
        requests = ctx.sent_of_type(RelayRequest)
        assert requests and all(msg.ack for _, msg in requests)
        assert overlay._pending_commits

    def test_without_the_knob_no_acks_are_requested(self):
        overlay = RelayFanout(num_groups=2)
        replica = EPaxosReplica(overlay=overlay)
        ctx = FakeContext(node_id=0, all_nodes=(0, 1, 2, 3, 4))
        replica.bind(ctx)
        commit = ECommit(instance=(0, 1), command=_put(), seq=1, deps=frozenset())
        overlay.wide_cast(commit, expects_response=False)
        assert all(not msg.ack for _, msg in ctx.sent_of_type(RelayRequest))
        assert not ctx.timers

    def test_silent_relay_subtree_is_resent_directly(self):
        replica, overlay, ctx = self._relay_replica()
        commit = ECommit(instance=(0, 1), command=_put(), seq=1, deps=frozenset())
        overlay.wide_cast(commit, expects_response=False)
        requests = ctx.sent_of_type(RelayRequest)
        (agg_id,) = {msg.agg_id for _, msg in requests}
        relays = [dst for dst, _ in requests]
        # One relay acks, the other stays silent (crashed).
        alive, dead = relays[0], relays[1]
        overlay._on_aggregate(alive, RelayAggregate(agg_id=agg_id, responses=(), origin=alive))
        ctx.clear_sent()
        [timer] = ctx.pending_timers()
        timer.fire()
        resent = ctx.sent_of_type(ECommit)
        assert resent, "silent relay's subtree must get the commit directly"
        targets = {dst for dst, _ in resent}
        assert dead in targets
        assert alive not in targets
        assert replica.ctx.metrics.counter("epaxos.commit_fallbacks").value == 1

    def test_all_acks_disarm_the_fallback(self):
        replica, overlay, ctx = self._relay_replica()
        commit = ECommit(instance=(0, 1), command=_put(), seq=1, deps=frozenset())
        overlay.wide_cast(commit, expects_response=False)
        requests = ctx.sent_of_type(RelayRequest)
        (agg_id,) = {msg.agg_id for _, msg in requests}
        for relay, _ in requests:
            overlay._on_aggregate(relay, RelayAggregate(agg_id=agg_id, responses=(), origin=relay))
        assert not overlay._pending_commits
        assert all(t.cancelled for t in ctx.timers)

    def test_relay_acks_fire_and_forget_requests_with_ack_flag(self):
        # The *relay* side: process, forward, then ack the parent.
        replica, overlay, ctx = self._relay_replica()
        commit = ECommit(instance=(3, 1), command=_put(), seq=1, deps=frozenset())
        from repro.overlay.messages import RelaySubtree

        request = RelayRequest(
            inner=commit, children=(RelaySubtree(2),), agg_id=42,
            timeout=0.05, expects_response=False, ack=True,
        )
        overlay._on_relay_request(3, request)
        acks = [(dst, m) for dst, m in ctx.sent_of_type(RelayAggregate)]
        assert acks == [(3, acks[0][1])] and acks[0][1].agg_id == 42
        # The commit was also forwarded to the child and applied locally.
        assert [dst for dst, _ in ctx.sent_of_type(RelayRequest)] == [2]
        assert replica.graph.is_committed((3, 1))


class _FakeCluster:
    def __init__(self, replicas):
        self.nodes = {
            node_id: SimpleNamespace(replica=replica)
            for node_id, replica in enumerate(replicas)
        }


class TestRecoveredNoOpsAreLegal:
    """Recovered no-ops must pass the execution-order and conflict checks."""

    def _noop_layout(self):
        first = _put("a", client=1, req=1)
        second = _put("a", client=2, req=1)
        noop = NoOp()
        # (4, 1) was orphaned and recovered as a no-op preserving its edge
        # to (0, 1); (1, 1) conflicts with (0, 1) and depends on both.
        layout = {
            (0, 1): (frozenset(), 1, first, "executed"),
            (4, 1): (frozenset({(0, 1)}), 2, noop, "executed"),
            (1, 1): (frozenset({(0, 1), (4, 1)}), 3, second, "executed"),
        }
        executed = [(0, 1), (4, 1), (1, 1)]
        return layout, executed

    def _ereplica(self, layout, executed):
        from repro.epaxos.graph import DependencyGraph

        instances = {
            iid: SimpleNamespace(instance=iid, deps=deps, seq=seq, command=cmd, status=status)
            for iid, (deps, seq, cmd, status) in layout.items()
        }
        graph = DependencyGraph()
        for iid, (deps, seq, cmd, status) in layout.items():
            if status in ("committed", "executed"):
                graph.add_committed(iid, seq, deps)
        for iid in executed:
            graph.mark_executed(iid)
        return SimpleNamespace(instances=instances, graph=graph, executed_order=list(executed))

    def test_noop_with_preserved_edges_passes_every_check(self):
        layout, executed = self._noop_layout()
        cluster = _FakeCluster([self._ereplica(layout, executed) for _ in range(2)])
        assert check_epaxos_instance_agreement(cluster) == []
        assert check_epaxos_execution_order(cluster) == []
        assert check_epaxos_execution_consistency(cluster) == []
        assert check_epaxos_conflict_ordering(cluster) == []

    def test_noop_must_still_respect_its_preserved_edges(self):
        layout, executed = self._noop_layout()
        # Mutation: the no-op executes before the dependency its recovery
        # preserved -- the execution-order checker must flag it.
        broken = [(4, 1), (0, 1), (1, 1)]
        cluster = _FakeCluster([self._ereplica(layout, broken)])
        violations = check_epaxos_execution_order(cluster)
        assert violations and violations[0].checker == "epaxos_execution_order"

    def test_noop_disagreeing_with_a_real_commit_is_flagged(self):
        layout, executed = self._noop_layout()
        good = self._ereplica(layout, executed)
        # A replica that committed and executed the *real* command for (4, 1)
        # while recovery no-op'ed it elsewhere: instance agreement must fire.
        real = dict(layout)
        real[(4, 1)] = (frozenset({(0, 1)}), 2, _put("a", client=3, req=1), "executed")
        bad = self._ereplica(real, executed)
        violations = check_epaxos_instance_agreement(_FakeCluster([good, bad]))
        assert violations and violations[0].checker == "epaxos_instance_agreement"


class TestConfigWiring:
    def test_builder_threads_recovery_knobs_to_epaxos(self):
        from repro.cluster.builder import build_cluster
        from repro.protocol.config import ProtocolConfig

        cluster = build_cluster(
            protocol="epaxos", num_nodes=3, num_clients=1,
            protocol_config=ProtocolConfig(recovery_timeout=0.5, leader_retry_timeout=0.4),
        )
        replica = cluster.nodes[0].replica
        assert replica._recovery_timeout == 0.5
        assert replica._leader_retry_timeout == 0.4

    def test_invalid_timeouts_rejected(self):
        from repro.errors import ConfigurationError
        from repro.protocol.config import ProtocolConfig

        with pytest.raises(ConfigurationError):
            ProtocolConfig(recovery_timeout=0.0)
        with pytest.raises(ConfigurationError):
            ProtocolConfig(leader_retry_timeout=-1.0)

    def test_paxos_rejects_the_epaxos_only_knobs(self):
        """Silently ignoring a timeout knob is worse than rejecting it."""
        from repro.cluster.builder import build_cluster
        from repro.errors import ConfigurationError
        from repro.protocol.config import ProtocolConfig
        from repro.protocol.registry import resolve_config

        # The leader round retry is a Paxos-family knob too: plain paxos
        # consumes it (re-sending a stuck phase-2 round through its overlay).
        cluster = build_cluster(
            protocol="paxos", num_nodes=3, num_clients=1,
            protocol_config=ProtocolConfig(leader_retry_timeout=0.3),
        )
        assert cluster.nodes[0].replica.config.leader_retry_timeout == 0.3
        for protocol in ("paxos", "pigpaxos"):
            with pytest.raises(ConfigurationError):
                build_cluster(
                    protocol=protocol, num_nodes=3, num_clients=1,
                    protocol_config=ProtocolConfig(recovery_timeout=0.3),
                )
        # The pigpaxos preset turns the Fig-5b retry on by default.
        assert resolve_config("pigpaxos").leader_retry_timeout == 0.15

    def test_commit_fallback_timeout_rejected_when_non_positive(self):
        from repro.errors import ConfigurationError
        from repro.overlay.config import OverlayConfig

        with pytest.raises(ConfigurationError):
            OverlayConfig(kind="relay", commit_fallback_timeout=0.0)
        config = OverlayConfig(kind="relay", commit_fallback_timeout=0.2)
        assert config.commit_fallback_timeout == 0.2
