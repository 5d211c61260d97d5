"""Multi-Paxos replica with a stable leader and commit piggybacking.

The replica plays all three classical roles (proposer, acceptor, learner).
Its phase-1/phase-2/heartbeat fan-outs route through the replica's
:class:`~repro.overlay.base.FanoutOverlay` -- :class:`DirectFanout` by
default (plain broadcast), :class:`ThriftyFanout` for quorum-subset sends,
and :class:`RelayFanout` for PigPaxos.

PigPaxos is this replica with a relay overlay and the leader round retry
of Figure 5b (``ProtocolConfig.leader_retry_timeout``): a phase-2 round
that has not reached a quorum in time is re-sent through the overlay, which
under relays means freshly chosen ones.  Decision making is untouched, which
is the property the paper relies on to reuse Paxos' correctness argument:
only the message-passing layer differs (see :mod:`repro.protocol.registry`
for the ``"pigpaxos"`` preset).
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any, Dict, List, Optional, Tuple

from repro.overlay.base import FanoutOverlay
from repro.overlay.messages import OverlayMessage, RelayAggregate, RelayRequest
from repro.protocol.ballot import Ballot
from repro.protocol.base import Replica, TimerLike, build_batch_metrics
from repro.protocol.config import ProtocolConfig
from repro.protocol.messages import (
    ClientReply,
    ClientRequest,
    Commit,
    FillReply,
    FillRequest,
    Heartbeat,
    P1a,
    P1b,
    P2a,
    P2b,
)
from repro.quorum.systems import MajorityQuorum, QuorumSystem
from repro.quorum.tracker import BallotVoteTracker, VoteTracker
from repro.statemachine.command import CommandBatch, NoOp
from repro.statemachine.kvstore import KVStore
from repro.statemachine.log import ReplicatedLog
from repro.statemachine.sessions import ClientSessionCache


@dataclass
class _Proposal:
    """Leader-side bookkeeping for one in-flight slot.

    ``batch_clients`` is only set for :class:`CommandBatch` proposals: one
    ``(client_id, request_id)`` pair per sub-command, in batch order, so
    execution can reply per command (``client_id``/``request_id`` stay at
    their defaults then -- the per-command pairs are the reply routing).
    """

    slot: int
    command: object
    tracker: VoteTracker
    client_id: Optional[int] = None
    request_id: int = 0
    committed: bool = False
    retry_timer: Optional[TimerLike] = None
    batch_clients: Optional[Tuple[Tuple[int, int], ...]] = None


class MultiPaxosReplica(Replica):
    """A Multi-Paxos node: proposer + acceptor + learner in one process."""

    protocol_name = "paxos"

    def __init__(
        self,
        config: Optional[ProtocolConfig] = None,
        quorum: Optional[QuorumSystem] = None,
        overlay: Optional[FanoutOverlay] = None,
    ) -> None:
        super().__init__(overlay=overlay)
        self.config = config or ProtocolConfig()
        self._quorum = quorum

        # Acceptor state (conceptually on stable storage).
        self.promised: Ballot = Ballot.zero()
        self.log = ReplicatedLog()
        self.store = KVStore()
        # Client sessions: a bounded LRU of applied request ids (with
        # results) per client, used to make command execution at-most-once
        # (see :meth:`_apply_command`).  Survives crashes alongside log/store.
        self._client_sessions = ClientSessionCache(window=self.config.session_window)

        # Proposer / leader state.
        self.ballot: Ballot = Ballot.zero()
        self.is_leader = False
        self.leader_id: Optional[int] = None
        self.next_slot = 1
        self.commit_upto = 0
        self._proposals: Dict[int, _Proposal] = {}
        self._pending_requests: List[Tuple[int, ClientRequest]] = []
        self._phase1_tracker: Optional[BallotVoteTracker] = None
        self._phase1_timer: Optional[TimerLike] = None

        # Leader-side command batching & pipelining (PR 9).  All off when
        # batch_max_commands == 1 (the default): no buffer is ever filled,
        # no timer armed, no metric registered, so unbatched runs schedule
        # exactly the events they always did and recorded fingerprints stay
        # byte-identical.
        self._batch_enabled = self.config.batch_max_commands > 1
        self._batch_buffer: List[Tuple[object, int]] = []
        self._batch_timer: Optional[TimerLike] = None
        self._inflight_slots = 0
        self._batch_metrics = None

        # Failure detection.
        self._last_leader_contact = 0.0
        self._election_timeout = 0.0
        self._heartbeat_timer: Optional[TimerLike] = None
        self._fill_pending = False

        # Incremental commit-frontier scan state (see _apply_commit_frontier):
        # slots examined once and found uncommitted; a lazy min-heap mirror
        # of that set for the "anything missing at or below the announced
        # frontier?" verdict; gap slots not yet re-judged against the current
        # announcing ballot; the highest slot ever scanned; and the ballot
        # of the most recent scan.
        self._frontier_gaps: set = set()
        self._frontier_gap_heap: List[int] = []
        self._frontier_stale: set = set()
        self._frontier_scanned_upto = 0
        self._last_frontier_ballot: Optional[Ballot] = None

    # ------------------------------------------------------------------ setup
    @property
    def quorum(self) -> QuorumSystem:
        if self._quorum is None:
            self._quorum = MajorityQuorum(self.cluster_size)
        return self._quorum

    def start(self) -> None:
        """Bootstrap: the configured initial leader runs phase-1, everyone arms timeouts."""
        rng = self.ctx.rng
        self._election_timeout = rng.uniform(
            self.config.election_timeout_min, self.config.election_timeout_max
        )
        self._last_leader_contact = self.ctx.now
        if self.config.initial_leader is not None and self.node_id == self.config.initial_leader:
            self.ctx.schedule(0.0, self._start_phase1)
        self.ctx.schedule(self._election_timeout, self._check_leader_liveness)

    # ------------------------------------------------------------------ dispatch
    def on_message(self, src: int, message: Any) -> None:
        # The handler table is built lazily on first dispatch (subclasses
        # extend _handlers()); afterwards dispatch is one dict lookup.
        try:
            handler = self._cached_handlers.get(type(message))
        except AttributeError:
            self._cached_handlers = self._handlers()
            handler = self._cached_handlers.get(type(message))
        if handler is None:
            self.count("unknown_message")
            return
        handler(src, message)

    def _handlers(self) -> Dict[type, Any]:
        handlers = {
            ClientRequest: self._on_client_request,
            P1a: self._on_p1a,
            P1b: self._on_p1b,
            P2a: self._on_p2a,
            P2b: self._on_p2b,
            Commit: self._on_commit,
            Heartbeat: self._on_heartbeat,
            FillRequest: self._on_fill_request,
            FillReply: self._on_fill_reply,
            RelayRequest: self._on_overlay_message,
            RelayAggregate: self._on_overlay_message,
        }
        # When the bound overlay is the relay fan-out, dispatch its wire
        # types straight to its handlers, skipping two generic hops per
        # relayed message (the overlay indirection and its isinstance chain).
        request_handler = getattr(self._overlay, "_on_relay_request", None)
        aggregate_handler = getattr(self._overlay, "_on_aggregate", None)
        if request_handler is not None and aggregate_handler is not None:
            handlers[RelayRequest] = request_handler
            handlers[RelayAggregate] = aggregate_handler
        return handlers

    def _on_overlay_message(self, src: int, msg: OverlayMessage) -> None:
        if not self._overlay.handle_message(src, msg):
            self.count("unknown_message")

    # ------------------------------------------------------------------ overlay host hooks
    def process_for_overlay(self, src: int, inner: Any) -> Optional[Any]:
        """Apply a relayed inner message as a follower; return the vote (if any)."""
        if isinstance(inner, P2a):
            return self._process_p2a(inner)
        if isinstance(inner, P1a):
            return self._process_p1a(inner)
        if isinstance(inner, Heartbeat):
            self._on_heartbeat(src, inner)
            return None
        # Fall back to ordinary handling for anything else wrapped by the
        # overlay (e.g. explicit Commit messages).
        self.on_message(src, inner)
        return None

    # ------------------------------------------------------------------ phase 1
    def _start_phase1(self) -> None:
        """Try to become leader with a ballot higher than anything seen."""
        if self.is_leader:
            return
        base = max(self.promised, self.ballot)
        self.ballot = base.next_for(self.node_id)
        self.promised = self.ballot
        self.count("phase1_started")
        tracker = BallotVoteTracker(self.quorum.phase1_size)
        tracker.ack(self.node_id, self._accepted_entries(), self.commit_upto)
        self._phase1_tracker = tracker
        if tracker.satisfied:  # single-node cluster
            self._become_leader()
            return
        self._fanout_phase1(P1a(ballot=self.ballot))
        if self._phase1_timer is not None:
            self._phase1_timer.cancel()
        self._phase1_timer = self.ctx.schedule(self.config.phase1_timeout, self._phase1_timed_out)

    def _phase1_timed_out(self) -> None:
        if self.is_leader or self._phase1_tracker is None:
            return
        self.count("phase1_retry")
        self._phase1_tracker = None
        self._start_phase1()

    def _fanout_phase1(self, p1a: P1a) -> None:
        """Disseminate phase-1a through the fan-out overlay."""
        self._overlay.wide_cast(
            p1a, round_id=("p1", p1a.ballot), quorum_size=self.quorum.phase1_size
        )

    def _accepted_entries(self) -> Dict[int, Tuple[Ballot, object]]:
        """This node's accepted-but-possibly-uncommitted entries, for P1b."""
        entries: Dict[int, Tuple[Ballot, object]] = {}
        for entry in self.log.entries():
            if not entry.executed:
                entries[entry.slot] = (entry.ballot, entry.command)
        return entries

    def _process_p1a(self, msg: P1a) -> P1b:
        """Acceptor logic for a phase-1a; returns the promise without sending it."""
        if msg.ballot >= self.promised:
            self.promised = msg.ballot
            self._observe_leader(msg.ballot)
            return P1b(ballot=msg.ballot, voter=self.node_id, ok=True,
                       accepted=self._accepted_entries(), commit_upto=self.commit_upto)
        return P1b(ballot=self.promised, voter=self.node_id, ok=False)

    def _on_p1a(self, src: int, msg: P1a) -> None:
        self.send(src, self._process_p1a(msg))

    def _on_p1b(self, src: int, msg: P1b) -> None:
        if self.is_leader or self._phase1_tracker is None:
            return
        if msg.ok and msg.ballot == self.ballot:
            if self._phase1_tracker.ack(msg.voter, msg.accepted, msg.commit_upto):
                self._become_leader()
        elif not msg.ok and msg.ballot > self.ballot:
            # Someone promised a higher ballot; adopt it and back off.
            self.promised = max(self.promised, msg.ballot)
            self.count("phase1_preempted")

    def _become_leader(self) -> None:
        tracker = self._phase1_tracker
        self._phase1_tracker = None
        if self._phase1_timer is not None:
            self._phase1_timer.cancel()
            self._phase1_timer = None
        self.is_leader = True
        self.leader_id = self.node_id
        self.count("became_leader")
        self._overlay.complete_round(("p1", self.ballot))

        # Re-propose every command reported by the promise quorum, fill gaps
        # with no-ops.  Slots at or below the quorum's committed frontier are
        # already decided somewhere; re-proposing the quorum's highest-ballot
        # accepted command there is still safe (classic synod recovery -- for
        # a committed slot that command necessarily equals the chosen one),
        # but a slot whose entry was executed (and therefore pruned from
        # every promise) must not be filled with a fresh no-op: it is fetched
        # from the reporting voters instead.
        to_repropose = tracker.commands_to_repropose() if tracker else {}
        quorum_commit_upto = tracker.max_commit_upto if tracker else 0
        highest = max(list(to_repropose) + [self.log.max_slot, self.commit_upto, quorum_commit_upto, 0])
        self.next_slot = highest + 1
        for slot in range(self.commit_upto + 1, self.next_slot):
            if self.log.is_committed(slot):
                continue
            command = to_repropose.get(slot)
            if command is None:
                if slot <= quorum_commit_upto:
                    continue  # pruned/executed elsewhere: fetch, don't overwrite
                existing = self.log.get(slot)
                command = existing.command if existing is not None else NoOp()
            self._propose_in_slot(slot, command, client_id=None, request_id=0)
        if quorum_commit_upto > self.commit_upto and tracker:
            self._fetch_committed_slots(tracker.commit_reports(), quorum_commit_upto)

        for client_src, request in self._pending_requests:
            self._propose(request, client_src)
        self._pending_requests.clear()
        self._schedule_heartbeat()

    def _fetch_committed_slots(self, commit_reports: Dict[int, int], upto: int) -> None:
        """Ask promise voters for committed slots this new leader is missing.

        Requests go to every voter whose reported frontier exceeds ours;
        replies are idempotent (``log.commit`` tolerates duplicates of the
        same command), so over-asking only costs messages.  A retry timer
        re-requests (from every peer) until the gap closes: under message
        loss a one-shot request could strand the leader behind a permanent
        gap it will never propose into.
        """
        missing = tuple(
            slot for slot in range(self.commit_upto + 1, upto + 1)
            if not self.log.is_committed(slot)
        )
        if not missing:
            return
        self.count("leader_fill_requests")
        # lint: ok(no-unordered-iteration) insertion order is promise-arrival order, deterministic under the sim; sorting would shift recorded fingerprints
        for voter, reported in commit_reports.items():
            if voter == self.node_id or reported <= self.commit_upto:
                continue
            wanted = tuple(slot for slot in missing if slot <= reported)
            if wanted:
                self.send(voter, FillRequest(slots=wanted, requester=self.node_id))
        self.ctx.schedule(self.config.fill_gap_timeout, self._leader_fill_check, upto)

    def _leader_fill_check(self, upto: int) -> None:
        """Re-request committed slots still missing after recovery."""
        if not self.is_leader or self.commit_upto >= upto:
            return
        missing = tuple(
            slot for slot in range(self.commit_upto + 1, upto + 1)
            if not self.log.is_committed(slot)
        )
        if missing:
            self.count("leader_fill_retries")
            for peer in self.peers:
                self.send(peer, FillRequest(slots=missing, requester=self.node_id))
        self.ctx.schedule(self.config.fill_gap_timeout, self._leader_fill_check, upto)

    # ------------------------------------------------------------------ client path
    def _on_client_request(self, src: int, msg: ClientRequest) -> None:
        self.count("client_requests")
        if self.is_leader:
            self._propose(msg, src)
        elif self.leader_id is not None and self.leader_id != self.node_id:
            # Redirect the client to the current leader.  (Paxi forwards the
            # request instead; a redirect behaves identically for throughput
            # but also works over transports where the leader has no return
            # path to a client that never connected to it.)
            client_id = msg.command.client_id if msg.command.client_id >= 0 else src
            self.send(client_id, ClientReply(
                command_uid=msg.command.uid,
                request_id=msg.command.request_id,
                client_id=client_id,
                success=False,
                leader_hint=self.leader_id,
            ))
            self.count("client_redirects")
        else:
            self._pending_requests.append((src, msg))

    def _propose(self, request: ClientRequest, client_src: int) -> None:
        command = request.command
        client_id = command.client_id if command.client_id >= 0 else client_src
        if self._batch_enabled:
            self._buffer_for_batch(command, client_id)
            return
        slot = self.next_slot
        self.next_slot += 1
        self._propose_in_slot(slot, command, client_id=client_id, request_id=command.request_id)

    # ------------------------------------------------------------------ batching
    def _batch_counters(self):
        """Lazily bound ``batch.*`` metrics (batching-enabled runs only)."""
        if self._batch_metrics is None:
            self._batch_metrics = build_batch_metrics(self.ctx.metrics)
        return self._batch_metrics

    def _pipeline_full(self) -> bool:
        depth = self.config.pipeline_depth
        return depth is not None and self._inflight_slots >= depth

    def _buffer_for_batch(self, command: object, client_id: int) -> None:
        """Queue a client command and flush by the batching rules.

        Flush triggers, in precedence order (each counted under
        ``batch.flush.<trigger>``):

        * **size** -- the buffer reached ``batch_max_commands``;
        * **delay** -- ``batch_max_delay`` elapsed since the oldest
          buffered command (timer armed only while a partial buffer waits);
        * **pipeline** -- a slot committed while commands were parked
          behind a full pipeline;
        * **immediate** -- a partial buffer with pipeline room and no delay
          bound flushes right away (light load degenerates to unbatched).

        While the pipeline is full nothing flushes; commands keep
        accumulating (up to ``batch_max_commands`` per eventual flush).
        """
        self._batch_buffer.append((command, client_id))
        if (
            self.config.batch_max_delay is not None
            and self._batch_timer is None
            and len(self._batch_buffer) < self.config.batch_max_commands
        ):
            self._batch_timer = self.ctx.schedule(
                self.config.batch_max_delay, self._batch_delay_fired
            )
        self._maybe_flush_batch("immediate")

    def _batch_delay_fired(self) -> None:
        self._batch_timer = None
        if self._batch_buffer and self.is_leader:
            self._maybe_flush_batch("delay", force_partial=True)

    def _maybe_flush_batch(self, trigger: str, force_partial: bool = False) -> None:
        buffer = self._batch_buffer
        max_commands = self.config.batch_max_commands
        while buffer and not self._pipeline_full():
            if len(buffer) >= max_commands:
                self._flush_batch(max_commands, "size")
                continue
            if self._batch_timer is not None and not force_partial:
                return  # a delay flush is pending; keep accumulating
            self._flush_batch(len(buffer), trigger)
        if not buffer and self._batch_timer is not None:
            self._batch_timer.cancel()
            self._batch_timer = None

    def _flush_batch(self, count: int, trigger: str) -> None:
        buffer = self._batch_buffer
        flushed = buffer[:count]
        del buffer[:count]
        by_trigger, commands_batched, occupancy = self._batch_counters()
        by_trigger[trigger].value += 1
        commands_batched.value += count
        occupancy.observe(count)
        slot = self.next_slot
        self.next_slot += 1
        if count == 1:
            command, client_id = flushed[0]
            self._propose_in_slot(slot, command, client_id=client_id,
                                  request_id=command.request_id)
            return
        batch = CommandBatch(command for command, _ in flushed)
        batch_clients = tuple(
            (client_id, command.request_id) for command, client_id in flushed
        )
        self._propose_in_slot(slot, batch, client_id=None, request_id=0,
                              batch_clients=batch_clients)

    def _reset_batching(self) -> None:
        """Drop buffered commands on leadership loss; clients retry them."""
        self._batch_buffer.clear()
        self._inflight_slots = 0
        if self._batch_timer is not None:
            self._batch_timer.cancel()
            self._batch_timer = None

    def _propose_in_slot(
        self,
        slot: int,
        command: object,
        client_id: Optional[int],
        request_id: int,
        batch_clients: Optional[Tuple[Tuple[int, int], ...]] = None,
    ) -> None:
        self.log.accept(slot, self.ballot, command)
        tracker = VoteTracker(self.quorum.phase2_size)
        tracker.ack(self.node_id)
        proposal = _Proposal(slot=slot, command=command, tracker=tracker,
                             client_id=client_id, request_id=request_id,
                             batch_clients=batch_clients)
        self._proposals[slot] = proposal
        self._inflight_slots += 1
        p2a = P2a(ballot=self.ballot, slot=slot, command=command, commit_upto=self.commit_upto)
        self.count("p2a_rounds")
        if tracker.satisfied:  # single-node cluster
            self._commit_slot(slot)
            return
        self._fanout_phase2(p2a, proposal)

    def _fanout_phase2(self, p2a: P2a, proposal: _Proposal) -> None:
        """Disseminate phase-2a through the fan-out overlay and arm its retry."""
        self._overlay.wide_cast(
            p2a,
            round_id=("p2", p2a.ballot, p2a.slot),
            quorum_size=self.quorum.phase2_size,
        )
        if self.config.leader_retry_timeout is not None:
            self._arm_proposal_retry(proposal, p2a)

    def _arm_proposal_retry(self, proposal: _Proposal, p2a: P2a) -> None:
        if proposal.retry_timer is not None:
            proposal.retry_timer.cancel()
        proposal.retry_timer = self.ctx.schedule(
            self.config.leader_retry_timeout, self._retry_proposal, proposal, p2a
        )

    def _retry_proposal(self, proposal: _Proposal, p2a: P2a) -> None:
        """Leader timeout (Fig. 5b): re-send the round through the overlay."""
        if proposal.committed or not self.is_leader or p2a.ballot != self.ballot:
            return
        self.count("leader_round_retries")
        self._overlay.wide_cast(p2a, expects_response=True)
        self._arm_proposal_retry(proposal, p2a)

    # ------------------------------------------------------------------ acceptor path
    def _process_p2a(self, msg: P2a) -> P2b:
        """Acceptor logic for a phase-2a; returns the vote without sending it."""
        if msg.ballot >= self.promised:
            self.promised = msg.ballot
            self._observe_leader(msg.ballot)
            self.log.accept(msg.slot, msg.ballot, msg.command)
            self._apply_commit_frontier(msg.commit_upto, msg.ballot)
            return P2b(ballot=msg.ballot, slot=msg.slot, voter=self.node_id, ok=True)
        return P2b(ballot=self.promised, slot=msg.slot, voter=self.node_id, ok=False)

    def _on_p2a(self, src: int, msg: P2a) -> None:
        self.send(src, self._process_p2a(msg))

    def _on_p2b(self, src: int, msg: P2b) -> None:
        if not self.is_leader:
            return
        if not msg.ok:
            if msg.ballot > self.ballot:
                self._step_down(msg.ballot)
            return
        if msg.ballot != self.ballot:
            return
        proposal = self._proposals.get(msg.slot)
        if proposal is None or proposal.committed:
            return
        if proposal.tracker.ack(msg.voter):
            self._commit_slot(msg.slot)

    # ------------------------------------------------------------------ commit & execute
    def _commit_slot(self, slot: int) -> None:
        proposal = self._proposals.get(slot)
        if proposal is None or proposal.committed:
            return
        proposal.committed = True
        if proposal.retry_timer is not None:
            proposal.retry_timer.cancel()
        self._overlay.complete_round(("p2", self.ballot, slot))
        self.log.commit(slot, self.ballot, proposal.command)
        self.count("slots_committed")
        if self._inflight_slots > 0:
            self._inflight_slots -= 1
        self._advance_commit_frontier()
        self._execute_ready()
        if self._batch_enabled and self._batch_buffer and self.is_leader:
            self._maybe_flush_batch("pipeline")

    def _advance_commit_frontier(self) -> None:
        frontier = self.commit_upto
        while self.log.is_committed(frontier + 1):
            frontier += 1
        self.commit_upto = frontier

    def _apply_command(self, command) -> object:
        """Apply ``command`` with at-most-once client-session filtering.

        The same client command can legitimately be *committed in two
        different slots*: a client retries a timed-out request against a new
        leader while the old leader's proposal survives in some follower's
        log and is re-proposed during recovery.  Both slots must commit (a
        committed slot can never change), but applying the command twice
        would let the second application clobber writes ordered between the
        two slots -- a linearizability violation the scenario checkers catch.
        Every replica executes the same committed prefix, so filtering
        duplicates here keeps all state machines identical.

        Applied ids are tracked per client (not as a high-water mark):
        open-loop clients keep several requests in flight, so a client's
        commands may commit out of request-id order and a mark would drop
        legitimate first executions.  The cache is a bounded LRU window
        (:class:`~repro.statemachine.sessions.ClientSessionCache`): retries
        only ever target requests still inside the window, so eviction never
        breaks the at-most-once guarantee in practice.
        """
        if type(command) is CommandBatch:
            # Unpack in batch order on every replica -- leader or follower --
            # applying each sub-command through this very method, so the
            # per-client dedup behaves exactly as if the commands had
            # occupied consecutive slots and all state machines stay
            # identical.  The tuple of per-command results is what the
            # leader's reply path fans back out.
            return tuple(self._apply_command(sub) for sub in command.commands)
        try:
            client_id = command.client_id
            request_id = command.request_id
        except AttributeError:
            return self.store.apply(command)
        if client_id is None or client_id < 0 or request_id <= 0:
            return self.store.apply(command)
        cached = self._client_sessions.get(client_id, request_id)
        if cached is not None:
            self.count("duplicate_commands_skipped")
            return cached
        result = self.store.apply(command)
        self._client_sessions.put(client_id, request_id, result)
        return result

    def _execute_ready(self) -> None:
        executed = self.log.execute_ready(self._apply_command)
        if not executed:
            return
        self.ctx.charge_execution(len(executed))
        for entry, result in executed:
            proposal = self._proposals.pop(entry.slot, None)
            if proposal is None:
                continue
            if proposal.batch_clients is not None:
                self._reply_batch(proposal, entry, result)
                continue
            if proposal.client_id is None:
                continue
            if getattr(entry.command, "uid", -1) != getattr(proposal.command, "uid", -1):
                # The slot was decided with a different command than this
                # node proposed into it: a new leader's recovery re-proposal
                # (often a gap-filling NoOp) won the slot after we lost the
                # ballot.  Replying would acknowledge the client's command
                # with the winner's result -- e.g. a NoOp's empty result for
                # a GET, a phantom "not found" read the linearizability
                # checker flags.  Stay silent; the client retries against
                # the new leader.  (Fuzz-found, seed 257.)
                self.count("orphaned_proposal_replies_suppressed")
                continue
            reply = ClientReply(
                command_uid=getattr(entry.command, "uid", -1),
                request_id=proposal.request_id,
                client_id=proposal.client_id,
                success=True,
                result=result,
                leader_hint=self.node_id,
            )
            self.send(proposal.client_id, reply)
            self.count("client_replies")

    def _reply_batch(self, proposal: _Proposal, entry, result) -> None:
        """Fan a batch's per-command results back to the issuing clients."""
        if getattr(entry.command, "uid", -1) != getattr(proposal.command, "uid", -1):
            # Same orphan case as the single-command path: a recovery
            # re-proposal won the slot over our batch.  Stay silent once for
            # the whole batch; every client inside retries.
            self.count("orphaned_proposal_replies_suppressed")
            return
        for (client_id, request_id), command, sub_result in zip(
            proposal.batch_clients, entry.command.commands, result
        ):
            if client_id is None or client_id < 0:
                continue
            self.send(client_id, ClientReply(
                command_uid=command.uid,
                request_id=request_id,
                client_id=client_id,
                success=True,
                result=sub_result,
                leader_hint=self.node_id,
            ))
            self.count("client_replies")

    def _apply_commit_frontier(self, commit_upto: int, ballot: Ballot) -> None:
        """Follower-side phase-3: mark slots <= commit_upto committed.

        A follower only trusts its local entry for a slot if that entry was
        accepted under the same ballot as the message announcing the commit;
        otherwise the slot is left for gap-filling.

        The scan is incremental: a naive implementation rescans the whole
        ``(commit_upto_local, commit_upto]`` window on every message, which
        is quadratic across a recovery gap (a node returning from a crash
        rescanned thousands of slots per P2a).  Instead, each slot is
        examined once; slots found uncommitted are remembered in a gap set
        and re-examined only when their log entry actually changed
        (``ReplicatedLog.dirty_slots``: late accepts, fill commits) or when
        the announcing ballot changed -- exactly the cases in which the full
        rescan could have newly committed them.  Commit decisions, the
        ``missing`` verdict and the resulting fill-request scheduling are
        bit-for-bit identical to the full rescan (the golden-fingerprint
        tests cover this).
        """
        if commit_upto <= self.commit_upto:
            return
        log = self.log
        gaps = self._frontier_gaps
        dirty = log.dirty_slots
        stale = self._frontier_stale
        if ballot != self._last_frontier_ballot:
            # A different ballot is announcing commits: every remembered gap
            # must be re-judged against it (the full rescan would have).
            self._last_frontier_ballot = ballot
            stale.clear()
            stale.update(gaps)
        if gaps:
            # Re-examine exactly the gap slots the old full rescan could have
            # newly committed, bounded by the announced frontier: slots whose
            # entries changed (late accepts, fill commits) and slots not yet
            # judged against the current ballot.
            if dirty:
                pending = {s for s in gaps & dirty if s <= commit_upto}
            else:
                pending = set()
            if stale:
                pending.update(s for s in stale if s <= commit_upto)
            for slot in sorted(pending):
                stale.discard(slot)
                entry = log.get(slot)
                if entry is None:
                    continue
                if entry.committed:
                    gaps.discard(slot)
                elif entry.ballot == ballot:
                    log.commit(slot, entry.ballot, entry.command)
                    gaps.discard(slot)
        if dirty:
            # Retain dirt for gap slots beyond this announcement: they were
            # not re-judged (the full rescan would not have reached them
            # either) and must be rechecked when a later announcement covers
            # them.  Everything else has been consumed or is irrelevant.
            if gaps:
                keep = [s for s in dirty if s > commit_upto and s in gaps]
                dirty.clear()
                dirty.update(keep)
            else:
                dirty.clear()
        heap = self._frontier_gap_heap
        start = self._frontier_scanned_upto + 1
        low = self.commit_upto + 1
        if start < low:
            start = low
        for slot in range(start, commit_upto + 1):
            entry = log.get(slot)
            if entry is None or (entry.ballot != ballot and not entry.committed):
                gaps.add(slot)
                heappush(heap, slot)
                continue
            if not entry.committed:
                log.commit(slot, entry.ballot, entry.command)
        if commit_upto > self._frontier_scanned_upto:
            self._frontier_scanned_upto = commit_upto
        self._advance_commit_frontier()
        self.commit_upto = max(self.commit_upto, 0)
        self._execute_ready()
        while heap and heap[0] not in gaps:
            heappop(heap)
        missing = bool(heap) and heap[0] <= commit_upto
        if missing and not self._fill_pending and self.leader_id is not None:
            self._fill_pending = True
            self.ctx.schedule(self.config.fill_gap_timeout, self._request_fill, commit_upto)

    def _request_fill(self, commit_upto: int) -> None:
        self._fill_pending = False
        if self.is_leader or self.leader_id is None:
            return
        missing = tuple(
            slot for slot in range(self.log.next_execute_slot, commit_upto + 1)
            if not self.log.is_committed(slot)
        )
        if missing:
            self.count("fill_requests")
            self.send(self.leader_id, FillRequest(slots=missing, requester=self.node_id))

    def _on_fill_request(self, src: int, msg: FillRequest) -> None:
        entries = []
        for slot in msg.slots:
            entry = self.log.get(slot)
            if entry is not None and entry.committed:
                entries.append((slot, entry.ballot, entry.command))
        if entries:
            self.send(msg.requester, FillReply(entries=tuple(entries)))

    def _on_fill_reply(self, src: int, msg: FillReply) -> None:
        for slot, ballot, command in msg.entries:
            self.log.commit(slot, ballot, command)
        self._advance_commit_frontier()
        self._execute_ready()

    def _on_commit(self, src: int, msg: Commit) -> None:
        self.log.commit(msg.slot, msg.ballot, msg.command)
        self._observe_leader(msg.ballot)
        self._apply_commit_frontier(msg.commit_upto, msg.ballot)
        self._advance_commit_frontier()
        self._execute_ready()

    # ------------------------------------------------------------------ liveness
    def _observe_leader(self, ballot: Ballot) -> None:
        self._last_leader_contact = self.ctx.now
        # ballot.node_id is the proposer (.leader is a property alias; the
        # plain field skips a Python-level call on every message).
        if ballot.node_id != self.node_id:
            self.leader_id = ballot.node_id
            if self.is_leader and ballot > self.ballot:
                self._step_down(ballot)

    def _step_down(self, higher: Ballot) -> None:
        self.count("stepped_down")
        self.is_leader = False
        self.promised = max(self.promised, higher)
        self.leader_id = higher.leader
        if self._heartbeat_timer is not None:
            self._heartbeat_timer.cancel()
            self._heartbeat_timer = None
        if self._batch_enabled:
            self._reset_batching()

    def _schedule_heartbeat(self) -> None:
        if not self.is_leader:
            return
        self._heartbeat_timer = self.ctx.schedule(self.config.heartbeat_interval, self._heartbeat_tick)

    def _heartbeat_tick(self) -> None:
        if not self.is_leader:
            return
        heartbeat = Heartbeat(ballot=self.ballot, commit_upto=self.commit_upto)
        self._fanout_heartbeat(heartbeat)
        self._schedule_heartbeat()

    def _fanout_heartbeat(self, heartbeat: Heartbeat) -> None:
        """Disseminate the heartbeat; never thinned (every follower needs it)."""
        self._overlay.wide_cast(heartbeat, expects_response=False)

    def _on_heartbeat(self, src: int, msg: Heartbeat) -> None:
        if msg.ballot >= self.promised:
            self.promised = msg.ballot
            self._observe_leader(msg.ballot)
            self._apply_commit_frontier(msg.commit_upto, msg.ballot)

    def _check_leader_liveness(self) -> None:
        if not self.is_leader:
            silent_for = self.ctx.now - self._last_leader_contact
            if silent_for >= self._election_timeout:
                self.count("election_triggered")
                self._start_phase1()
                self._last_leader_contact = self.ctx.now
        self.ctx.schedule(self._election_timeout, self._check_leader_liveness)

    # ------------------------------------------------------------------ crash / recover
    def on_crash(self) -> None:
        # Promised ballot, log and store model stable storage and survive;
        # leader-volatile state (and overlay session state) does not.
        super().on_crash()
        self.is_leader = False
        self._proposals.clear()
        self._pending_requests.clear()
        self._phase1_tracker = None
        if self._heartbeat_timer is not None:
            self._heartbeat_timer.cancel()
            self._heartbeat_timer = None
        if self._batch_enabled:
            self._reset_batching()

    def on_recover(self) -> None:
        self._last_leader_contact = self.ctx.now
        self.ctx.schedule(self._election_timeout, self._check_leader_liveness)

    # ------------------------------------------------------------------ introspection
    def status(self) -> Dict[str, object]:
        """Diagnostic snapshot used by tests and examples."""
        return {
            "node": self.node_id,
            "is_leader": self.is_leader,
            "leader_id": self.leader_id,
            "ballot": tuple(self.ballot),
            "promised": tuple(self.promised),
            "commit_upto": self.commit_upto,
            "executed": self.log.executed_count,
            "log_size": len(self.log),
            "kv_size": len(self.store),
        }
