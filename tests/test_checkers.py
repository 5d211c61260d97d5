"""Unit tests for the safety checkers: history recording, linearizability,
log invariants.  Violation *detection* is tested on hand-built histories and
clusters; whole-stack acceptance runs live in tests/test_scenarios.py."""

from __future__ import annotations

from types import SimpleNamespace


from repro.checkers.history import History, HistoryRecorder, Operation
from repro.checkers.invariants import (
    check_execution_frontier,
    check_prefix_agreement,
    check_quorum_sanity,
    check_slot_agreement,
    run_log_checks,
)
from repro.checkers.linearizability import check_linearizability
from repro.protocol.messages import ClientReply
from repro.statemachine.command import Command, CommandBatch, CommandResult, OpType
from repro.statemachine.log import ReplicatedLog


def op(client, rid, kind, key, value=None, inv=0.0, ret=None, output=None, found=None):
    return Operation(
        client_id=client, request_id=rid, op=kind, key=key, value=value,
        invoked_at=inv, completed_at=ret, output=output, found=found,
    )


def lin(*ops):
    return check_linearizability(History(list(ops)))


class TestLinearizabilityChecker:
    def test_empty_history_is_linearizable(self):
        assert lin() == []

    def test_sequential_writes_and_reads_pass(self):
        assert lin(
            op(1, 1, "put", "k", value="a", inv=0.0, ret=1.0),
            op(1, 2, "get", "k", inv=2.0, ret=3.0, output="a", found=True),
            op(2, 1, "put", "k", value="b", inv=4.0, ret=5.0),
            op(1, 3, "get", "k", inv=6.0, ret=7.0, output="b", found=True),
        ) == []

    def test_read_of_unwritten_key_returns_absent(self):
        assert lin(op(1, 1, "get", "k", inv=0.0, ret=1.0, output=None, found=False)) == []

    def test_stale_read_is_flagged(self):
        violations = lin(
            op(1, 1, "put", "k", value="a", inv=0.0, ret=1.0),
            op(2, 1, "put", "k", value="b", inv=2.0, ret=3.0),
            # Reads "a" strictly after "b" completed: not linearizable.
            op(3, 1, "get", "k", inv=4.0, ret=5.0, output="a", found=True),
        )
        assert len(violations) == 1
        assert violations[0].checker == "linearizability"
        assert "'k'" in violations[0].message

    def test_read_from_nowhere_is_flagged(self):
        violations = lin(
            op(1, 1, "put", "k", value="a", inv=0.0, ret=1.0),
            op(2, 1, "get", "k", inv=2.0, ret=3.0, output="ghost", found=True),
        )
        assert len(violations) == 1

    def test_lost_update_is_flagged(self):
        violations = lin(
            op(1, 1, "put", "k", value="a", inv=0.0, ret=1.0),
            op(2, 1, "get", "k", inv=2.0, ret=3.0, output=None, found=False),
        )
        assert len(violations) == 1

    def test_concurrent_read_may_observe_either_value(self):
        base = [
            op(1, 1, "put", "k", value="a", inv=0.0, ret=1.0),
            op(1, 2, "put", "k", value="b", inv=2.0, ret=6.0),
        ]
        overlapping_old = op(2, 1, "get", "k", inv=3.0, ret=4.0, output="a", found=True)
        overlapping_new = op(2, 1, "get", "k", inv=3.0, ret=4.0, output="b", found=True)
        assert lin(*base, overlapping_old) == []
        assert lin(*base, overlapping_new) == []

    def test_pending_write_may_have_taken_effect(self):
        assert lin(
            op(1, 1, "put", "k", value="a", inv=0.0, ret=None),  # never completed
            op(2, 1, "get", "k", inv=5.0, ret=6.0, output="a", found=True),
        ) == []

    def test_pending_write_may_also_never_take_effect(self):
        assert lin(
            op(1, 1, "put", "k", value="a", inv=0.0, ret=None),
            op(2, 1, "get", "k", inv=5.0, ret=6.0, output=None, found=False),
        ) == []

    def test_program_order_is_enforced_even_with_equal_timestamps(self):
        # Client 1 writes "a" then "b" back-to-back (reply and next invoke
        # share a timestamp, as in the simulator).  A later read must not
        # observe "a".
        violations = lin(
            op(1, 1, "put", "k", value="a", inv=0.0, ret=1.0),
            op(1, 2, "put", "k", value="b", inv=1.0, ret=2.0),
            op(2, 1, "get", "k", inv=3.0, ret=4.0, output="a", found=True),
        )
        assert len(violations) == 1

    def test_keys_are_checked_independently(self):
        violations = lin(
            op(1, 1, "put", "good", value="x", inv=0.0, ret=1.0),
            op(2, 1, "get", "good", inv=2.0, ret=3.0, output="x", found=True),
            op(1, 2, "put", "bad", value="y", inv=4.0, ret=5.0),
            op(2, 2, "get", "bad", inv=6.0, ret=7.0, output="ghost", found=True),
        )
        assert len(violations) == 1
        assert "'bad'" in violations[0].message

    def test_delete_makes_key_absent(self):
        assert lin(
            op(1, 1, "put", "k", value="a", inv=0.0, ret=1.0),
            op(1, 2, "delete", "k", inv=2.0, ret=3.0),
            op(2, 1, "get", "k", inv=4.0, ret=5.0, output=None, found=False),
        ) == []


class TestHistoryRecorder:
    def _command(self, client_id=1000, request_id=1, key="k", value="v"):
        return Command(op=OpType.PUT, key=key, value=value,
                       client_id=client_id, request_id=request_id)

    def _reply(self, command, value=None, existed=False):
        return ClientReply(
            command_uid=command.uid,
            request_id=command.request_id,
            client_id=command.client_id,
            success=True,
            result=CommandResult(command_uid=command.uid, success=True,
                                 value=value, existed=existed),
        )

    def test_invoke_is_idempotent_across_retries(self):
        recorder = HistoryRecorder()
        command = self._command()
        recorder.invoke(command, at=1.0)
        recorder.invoke(command, at=2.5)  # client retry re-sends the same command
        history = recorder.history()
        assert len(history) == 1
        assert history.operations()[0].invoked_at == 1.0

    def test_complete_records_result(self):
        recorder = HistoryRecorder()
        get = Command(op=OpType.GET, key="k", client_id=7, request_id=3)
        recorder.invoke(get, at=1.0)
        recorder.complete(self._reply(get, value="seen", existed=True), at=2.0)
        operation = recorder.history().operations()[0]
        assert operation.completed_at == 2.0
        assert operation.output == "seen"
        assert operation.found is True
        assert not operation.pending

    def test_unreplied_operations_stay_pending(self):
        recorder = HistoryRecorder()
        recorder.invoke(self._command(), at=1.0)
        assert recorder.history().pending()[0].pending

    def test_placeholder_value_matches_kvstore(self):
        recorder = HistoryRecorder()
        recorder.invoke(Command(op=OpType.PUT, key="k", payload_size=64,
                                client_id=1, request_id=1), at=0.0)
        assert recorder.history().operations()[0].value == "<64B>"

    def test_fingerprint_ignores_global_command_uids(self):
        def record():
            recorder = HistoryRecorder()
            command = self._command()  # fresh object, fresh uid
            recorder.invoke(command, at=1.0)
            recorder.complete(self._reply(command), at=2.0)
            return recorder.history().fingerprint()

        assert record() == record()


class _FakeCluster:
    """Just enough Cluster surface for the invariant checkers."""

    def __init__(self, replicas):
        self.nodes = {
            node_id: SimpleNamespace(replica=replica)
            for node_id, replica in enumerate(replicas)
        }


def _replica(quorum=None):
    return SimpleNamespace(log=ReplicatedLog(), commit_upto=0, quorum=quorum)


def _put(key="k", uid=None):
    return Command(op=OpType.PUT, key=key, value="v", uid=uid)


def _pairs(violations):
    return [(violation.checker, violation.message) for violation in violations]


class TestLogInvariants:
    def test_agreeing_logs_pass(self):
        command = _put()
        replicas = [_replica(), _replica()]
        for replica in replicas:
            replica.log.commit(1, (1, 0), command)
            replica.commit_upto = 1
        cluster = _FakeCluster(replicas)
        assert check_slot_agreement(cluster) == []
        assert check_prefix_agreement(cluster) == []
        assert check_execution_frontier(cluster) == []

    def test_conflicting_slot_is_flagged(self):
        a, b = _replica(), _replica()
        a.log.commit(1, (1, 0), _put())
        b.log.commit(1, (1, 0), _put())  # different command, same slot
        violations = check_slot_agreement(_FakeCluster([a, b]))
        assert len(violations) == 1
        assert violations[0].checker == "slot_agreement"

    def test_diverging_prefix_is_flagged(self):
        shared = _put()
        a, b = _replica(), _replica()
        for replica in (a, b):
            replica.log.commit(1, (1, 0), shared)
        a.log.commit(2, (1, 0), _put())
        b.log.commit(2, (1, 0), _put())
        violations = check_prefix_agreement(_FakeCluster([a, b]))
        assert violations and violations[0].checker == "prefix_agreement"
        assert "slot 2" in violations[0].message

    def test_commit_frontier_beyond_committed_slots_is_flagged(self):
        lying = _replica()
        lying.commit_upto = 3  # nothing actually committed
        violations = check_execution_frontier(_FakeCluster([lying]))
        assert violations and violations[0].checker == "execution_frontier"

    def test_execution_beyond_committed_prefix_is_flagged(self):
        """A replica whose executed prefix contains a slot that is no longer
        committed (slot 2 lost its commit flag after executing)."""
        replica = _replica()
        for slot in (1, 2, 3):
            replica.log.commit(slot, (1, 0), _put())
        replica.log.execute_ready(lambda command: None)
        replica.log.get(2).committed = False
        assert _pairs(check_execution_frontier(_FakeCluster([replica]))) == [
            ("execution_frontier",
             "node 0 executed through slot 3 but slot 2 is not committed"),
        ]

    def test_non_intersecting_quorums_are_flagged(self):
        bad = SimpleNamespace(n=2, phase1_size=1, phase2_size=1)
        violations = check_quorum_sanity(_FakeCluster([_replica(bad), _replica(bad)]))
        assert violations and violations[0].checker == "quorum_sanity"

    def test_mis_sized_quorum_is_flagged(self):
        wrong_n = SimpleNamespace(n=5, phase1_size=3, phase2_size=3)
        violations = check_quorum_sanity(_FakeCluster([_replica(wrong_n)]))
        assert violations and "n=5" in violations[0].message

    def test_each_call_reads_the_cluster_afresh(self):
        a, b = _replica(), _replica()
        shared = _put()
        for replica in (a, b):
            replica.log.commit(1, (1, 0), shared)
        cluster = _FakeCluster([a, b])
        assert run_log_checks(cluster) == []
        a.log.commit(2, (1, 0), _put(uid=7))
        b.log.commit(2, (1, 0), _put(uid=8))
        assert [v.checker for v in run_log_checks(cluster)] == [
            "slot_agreement", "prefix_agreement"]

    def test_three_replicas_with_two_conflicting_slots_each(self):
        """Every violation is listed, in node-then-slot order: slots 2 and 3
        differ on all three replicas, and node 2 also differs past a gap."""
        replicas = [_replica(), _replica(), _replica()]
        for node, replica in enumerate(replicas):
            base = 100 * (node + 1)
            replica.log.commit(1, (1, 0), _put(uid=1))
            replica.log.commit(2, (1, 0), _put(uid=base + 2))
            replica.log.commit(3, (1, 0), _put(uid=base + 3))
            replica.log.commit(5, (1, 0), _put(uid=505 if node == 2 else 5))
            replica.log.execute_ready(lambda command: None)
            replica.commit_upto = 3
        replicas[2].commit_upto = 5
        cluster = _FakeCluster(replicas)
        assert _pairs(run_log_checks(cluster)) == [
            ("slot_agreement", "slot 2: node 0 committed command uid=102 but node 1 committed uid=202"),
            ("slot_agreement", "slot 3: node 0 committed command uid=103 but node 1 committed uid=203"),
            ("slot_agreement", "slot 2: node 0 committed command uid=102 but node 2 committed uid=302"),
            ("slot_agreement", "slot 3: node 0 committed command uid=103 but node 2 committed uid=303"),
            ("slot_agreement", "slot 5: node 0 committed command uid=5 but node 2 committed uid=505"),
            ("prefix_agreement", "nodes 0 and 1 diverge at slot 2: uid 102 vs 202"),
            ("prefix_agreement", "nodes 0 and 2 diverge at slot 2: uid 102 vs 302"),
            ("prefix_agreement", "nodes 1 and 2 diverge at slot 2: uid 202 vs 302"),
            ("execution_frontier",
             "node 2 advertises commit_upto=5 but slot 4 is not committed locally"),
        ]


# --------------------------------------------------------------------------
# EPaxos invariants on hand-built replica states.
# --------------------------------------------------------------------------

from repro.checkers.invariants import (  # noqa: E402
    check_epaxos_conflict_ordering,
    check_epaxos_execution_consistency,
    check_epaxos_execution_order,
    check_epaxos_instance_agreement,
)
from repro.epaxos.graph import DependencyGraph  # noqa: E402


def _einstance(instance, command, seq, deps, status="executed"):
    return SimpleNamespace(
        instance=instance, command=command, seq=seq, deps=frozenset(deps), status=status
    )


def _einstances(layout):
    """``{id: (key or command, seq, deps[, status])}`` -> executed instances."""
    instances = {}
    for instance_id, (command, seq, deps, *status) in layout.items():
        if isinstance(command, str):
            command = _put(command)
        instances[instance_id] = _einstance(instance_id, command, seq, deps, *status)
    return instances


def _ereplica(instances, executed_order):
    """A fake EPaxos replica: instances dict + graph + executed order."""
    graph = DependencyGraph()
    for instance in instances.values():
        if instance.status in ("committed", "executed"):
            graph.add_committed(instance.instance, instance.seq, frozenset(instance.deps))
    for instance_id in executed_order:
        graph.mark_executed(instance_id)
    return SimpleNamespace(instances=instances, graph=graph, executed_order=list(executed_order))


class TestEPaxosInvariants:
    def test_agreeing_replicas_pass_all_checks(self):
        first, second = _put("a"), _put("a")
        layout = {
            (0, 1): ((), 1, first),
            (1, 1): (((0, 1),), 2, second),
        }
        replicas = []
        for _ in range(2):
            instances = {
                iid: _einstance(iid, cmd, seq, deps)
                for iid, (deps, seq, cmd) in layout.items()
            }
            replicas.append(_ereplica(instances, [(0, 1), (1, 1)]))
        cluster = _FakeCluster(replicas)
        assert check_epaxos_instance_agreement(cluster) == []
        assert check_epaxos_execution_order(cluster) == []
        assert check_epaxos_execution_consistency(cluster) == []
        assert check_epaxos_conflict_ordering(cluster) == []

    def test_seq_disagreement_is_flagged(self):
        command = _put("a")
        a = _ereplica({(0, 1): _einstance((0, 1), command, 1, ())}, [(0, 1)])
        b = _ereplica({(0, 1): _einstance((0, 1), command, 2, ())}, [(0, 1)])
        violations = check_epaxos_instance_agreement(_FakeCluster([a, b]))
        assert violations and violations[0].checker == "epaxos_instance_agreement"

    def test_deps_disagreement_is_flagged(self):
        command = _put("a")
        a = _ereplica({(0, 1): _einstance((0, 1), command, 1, ())}, [])
        b = _ereplica({(0, 1): _einstance((0, 1), command, 1, {(4, 2)})}, [])
        violations = check_epaxos_instance_agreement(_FakeCluster([a, b]))
        assert violations and "deps" in violations[0].message

    def test_execution_before_dependency_is_flagged(self):
        first, second = _put("a"), _put("a")
        instances = {
            (0, 1): _einstance((0, 1), first, 1, ()),
            (1, 1): _einstance((1, 1), second, 2, {(0, 1)}),
        }
        replica = _ereplica(instances, [(1, 1), (0, 1)])  # dependent first!
        violations = check_epaxos_execution_order(_FakeCluster([replica]))
        assert violations and violations[0].checker == "epaxos_execution_order"
        assert "before its dependency" in violations[0].message

    def test_cycle_members_may_execute_in_seq_order(self):
        """Mutual dependencies (one SCC) execute as a batch: no violation."""
        first, second = _put("a"), _put("a")
        instances = {
            (0, 1): _einstance((0, 1), first, 1, {(1, 1)}),
            (1, 1): _einstance((1, 1), second, 2, {(0, 1)}),
        }
        replica = _ereplica(instances, [(0, 1), (1, 1)])
        assert check_epaxos_execution_order(_FakeCluster([replica])) == []

    def test_cycle_executed_out_of_seq_order_is_flagged(self):
        """The cycle tie-break is (seq, id); id-only ordering is a planner
        bug even when every replica does it identically."""
        first, second = _put("a"), _put("a")
        instances = {
            (0, 1): _einstance((0, 1), first, 2, {(1, 1)}),   # higher seq...
            (1, 1): _einstance((1, 1), second, 1, {(0, 1)}),  # ...runs second
        }
        replica = _ereplica(instances, [(0, 1), (1, 1)])  # id order, not seq
        violations = check_epaxos_execution_order(_FakeCluster([replica]))
        assert violations and "out of (seq, id) order" in violations[0].message

    def test_executed_with_unexecuted_dependency_is_flagged(self):
        first, second = _put("a"), _put("a")
        instances = {
            (0, 1): _einstance((0, 1), first, 1, (), status="committed"),
            (1, 1): _einstance((1, 1), second, 2, {(0, 1)}),
        }
        replica = _ereplica(instances, [(1, 1)])
        violations = check_epaxos_execution_order(_FakeCluster([replica]))
        assert violations and "never executed" in violations[0].message

    def test_double_execution_is_flagged(self):
        command = _put("a")
        instances = {(0, 1): _einstance((0, 1), command, 1, ())}
        replica = _ereplica(instances, [(0, 1), (0, 1)])
        violations = check_epaxos_execution_order(_FakeCluster([replica]))
        assert violations and "more than once" in violations[0].message

    def test_cross_replica_order_divergence_is_flagged(self):
        first, second = _put("a"), _put("a")
        instances = {
            (0, 1): _einstance((0, 1), first, 1, ()),
            (1, 1): _einstance((1, 1), second, 1, ()),
        }
        a = _ereplica(dict(instances), [(0, 1), (1, 1)])
        b = _ereplica(dict(instances), [(1, 1), (0, 1)])
        violations = check_epaxos_execution_consistency(_FakeCluster([a, b]))
        assert violations and violations[0].checker == "epaxos_execution_consistency"

    def test_shorter_execution_prefix_is_not_divergence(self):
        """A replica that missed late commits executes a prefix, not a fork."""
        first, second = _put("a"), _put("a")
        instances = {
            (0, 1): _einstance((0, 1), first, 1, ()),
            (1, 1): _einstance((1, 1), second, 2, {(0, 1)}),
        }
        a = _ereplica(dict(instances), [(0, 1), (1, 1)])
        b = _ereplica({(0, 1): instances[(0, 1)]}, [(0, 1)])
        assert check_epaxos_execution_consistency(_FakeCluster([a, b])) == []

    def test_conflicting_instances_without_path_are_flagged(self):
        """Two executed same-key instances with no dependency path: the
        exact state a reply-accounting bug produces."""
        first, second = _put("a"), _put("a")
        instances = {
            (0, 1): _einstance((0, 1), first, 1, ()),
            (1, 1): _einstance((1, 1), second, 1, ()),  # no edge either way
        }
        replica = _ereplica(instances, [(0, 1), (1, 1)])
        violations = check_epaxos_conflict_ordering(_FakeCluster([replica]))
        assert violations and violations[0].checker == "epaxos_conflict_ordering"
        assert "no dependency path" in violations[0].message

    def test_transitive_path_satisfies_conflict_ordering(self):
        a_cmd, b_cmd, c_cmd = _put("a"), _put("a"), _put("a")
        instances = {
            (0, 1): _einstance((0, 1), a_cmd, 1, ()),
            (1, 1): _einstance((1, 1), b_cmd, 2, {(0, 1)}),
            (2, 1): _einstance((2, 1), c_cmd, 3, {(1, 1)}),
        }
        replica = _ereplica(instances, [(0, 1), (1, 1), (2, 1)])
        assert check_epaxos_conflict_ordering(_FakeCluster([replica])) == []

    def test_different_keys_never_need_ordering(self):
        instances = {
            (0, 1): _einstance((0, 1), _put("a"), 1, ()),
            (1, 1): _einstance((1, 1), _put("b"), 1, ()),
        }
        replica = _ereplica(instances, [(0, 1), (1, 1)])
        assert check_epaxos_conflict_ordering(_FakeCluster([replica])) == []

    def test_every_incomparable_pair_of_a_key_is_listed(self):
        """Key 'a' has six components, one of them a cycle and one a batch
        that also touches key 'b'; every incomparable pair is named by the
        smallest member of each component.  Key 'b' is totally ordered."""
        instances = _einstances({
            (0, 1): ("a", 1, ()),
            (0, 2): ("a", 2, {(0, 1)}),
            (1, 1): ("a", 1, ()),
            (2, 1): ("a", 3, {(2, 2), (1, 1)}),
            (2, 2): ("a", 3, {(2, 1)}),
            (3, 1): ("a", 3, {(0, 2)}),
            (4, 1): ("b", 1, ()),
            (4, 2): (CommandBatch([_put("b"), _put("a")]), 3, {(4, 1), (0, 2)}),
            (4, 3): ("b", 4, {(4, 2)}),
            (3, 2): ("a", 5, {(3, 1), (9, 9)}, "committed"),
        })
        executed = [(0, 1), (0, 2), (1, 1), (2, 1), (2, 2), (3, 1), (4, 1), (4, 2), (4, 3)]
        violations = check_epaxos_conflict_ordering(
            _FakeCluster([_ereplica(instances, executed)]))
        assert _pairs(violations) == [
            ("epaxos_conflict_ordering",
             f"conflicting executed instances {pair} on key 'a' have no dependency path "
             f"between them (lost conflict edge)")
            for pair in (
                "(0, 1) and (1, 1)",
                "(0, 1) and (2, 1)",
                "(0, 2) and (1, 1)",
                "(0, 2) and (2, 1)",
                "(1, 1) and (3, 1)",
                "(1, 1) and (4, 2)",
                "(2, 1) and (3, 1)",
                "(2, 1) and (4, 2)",
                "(3, 1) and (4, 2)",
            )
        ]

    def test_two_cycles_out_of_seq_order_are_both_listed(self):
        instances = _einstances({
            (0, 1): ("a", 2, {(1, 1)}),
            (1, 1): ("a", 1, {(0, 1)}),
            (0, 2): ("a", 5, {(1, 2), (0, 1), (1, 1)}),
            (1, 2): ("a", 4, {(2, 2)}),
            (2, 2): ("a", 3, {(0, 2)}),
        })
        executed = [(0, 1), (1, 1), (0, 2), (1, 2), (2, 2)]  # id order, not seq
        violations = check_epaxos_execution_order(
            _FakeCluster([_ereplica(instances, executed)]))
        assert _pairs(violations) == [
            ("epaxos_execution_order",
             "node 0 executed dependency cycle [(0, 1), (1, 1)] out of (seq, id) order: "
             "ran [(0, 1), (1, 1)], expected [(1, 1), (0, 1)]"),
            ("epaxos_execution_order",
             "node 0 executed dependency cycle [(0, 2), (1, 2), (2, 2)] out of (seq, id) "
             "order: ran [(0, 2), (1, 2), (2, 2)], expected [(2, 2), (1, 2), (0, 2)]"),
        ]

    def test_dependency_violations_are_listed_in_dependency_order(self):
        instances = _einstances({
            (0, 1): ("a", 1, ()),
            (1, 1): ("a", 1, (), "committed"),
            (2, 1): ("a", 3, {(3, 1), (1, 1), (0, 1), (2, 2)}),
            (2, 2): ("a", 4, ()),
        })
        replica = _ereplica(instances, [(2, 2), (2, 1), (0, 1)])
        assert _pairs(check_epaxos_execution_order(_FakeCluster([replica]))) == [
            ("epaxos_execution_order",
             "node 0 executed (2, 1) (position 1) before its dependency (0, 1) (position 2)"),
            ("epaxos_execution_order",
             "node 0 executed (2, 1) whose dependency (1, 1) was never executed"),
            ("epaxos_execution_order",
             "node 0 executed (2, 1) whose dependency (3, 1) is not committed locally"),
        ]

    def test_paxos_cluster_is_skipped_by_epaxos_checks(self):
        cluster = _FakeCluster([_replica(), _replica()])
        assert check_epaxos_instance_agreement(cluster) == []
        assert check_epaxos_execution_order(cluster) == []
        assert check_epaxos_execution_consistency(cluster) == []
        assert check_epaxos_conflict_ordering(cluster) == []


# --------------------------------------------------------------------------
# Conflict ordering and SCCs against a brute-force oracle.
# --------------------------------------------------------------------------

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.checkers.invariants import _committed_sccs  # noqa: E402
from repro.statemachine.command import NoOp  # noqa: E402

_UNKNOWN = (9, 9)  # a dependency no replica ever committed
_DECIDED = ("committed", "executed")


@st.composite
def _committed_graphs(draw):
    """Two replicas over one small dependency graph.

    Commands touch one of 2-3 keys, both keys of a two-key batch, or no key
    (a recovery no-op).  Deps are random, so cycles are common; some point
    at an instance that never committed.  Each replica commits its own
    subset and executes part of it, which leaves some committed instances
    unexecuted: mostly in planner order (dependency-closed, cycles as one
    ``(seq, id)``-sorted batch), sometimes perturbed or in random order.
    """
    keys = ("a", "b", "c")[: draw(st.integers(2, 3))]
    ids = [(index % 3, index // 3 + 1) for index in range(draw(st.integers(2, 10)))]
    layout = {}
    for instance_id in ids:
        kind = draw(st.sampled_from(("key", "key", "key", "batch", "noop")))
        if kind == "key":
            command = _put(draw(st.sampled_from(keys)))
        elif kind == "batch":
            pair = draw(st.permutations(keys))[:2]
            command = CommandBatch([_put(pair[0]), _put(pair[1])])
        else:
            command = NoOp()
        deps = draw(st.sets(st.sampled_from(ids), max_size=2)) - {instance_id}
        if not draw(st.integers(0, 9)):
            deps.add(_UNKNOWN)
        layout[instance_id] = (command, draw(st.integers(1, 4)), frozenset(deps))
    replicas = []
    for _ in range(2):
        committed = [i for i in ids if draw(st.integers(0, 9))]
        style = draw(st.sampled_from(("planned", "planned", "swapped", "random")))
        if style == "random":
            executed = draw(st.permutations(committed))[: draw(st.integers(0, len(committed)))]
        else:
            executed = _planned_order(
                {i: layout[i][2] for i in committed}, {i: layout[i][1] for i in committed})
            executed = executed[: draw(st.integers(0, len(executed)))]
            if style == "swapped" and len(executed) > 1:
                a, b = draw(st.lists(st.integers(0, len(executed) - 1),
                                     min_size=2, max_size=2, unique=True))
                executed[a], executed[b] = executed[b], executed[a]
        instances = {
            i: _einstance(i, command, seq, deps,
                          "executed" if i in executed else
                          "committed" if i in committed else "preaccepted")
            for i, (command, seq, deps) in layout.items()
        }
        replicas.append(_ereplica(instances, executed))
    return replicas


def _planned_order(deps, seq):
    """What a correct planner executes: components whose every dependency is
    committed, dependencies first, each cycle sorted by ``(seq, id)``."""
    component = _oracle_components(deps)
    order, done = [], set()
    while True:
        ready = sorted(
            {c for c in component.values() if not c & done
             and all(d in done or d in c for v in c for d in deps[v])},
            key=min,
        )
        if not ready:
            return order
        order.extend(sorted(ready[0], key=lambda v: (seq[v], v)))
        done |= ready[0]


def _oracle_components(deps):
    """Mutual reachability by breadth-first search from every vertex."""
    reach = {}
    for start in deps:
        seen, frontier = {start}, [start]
        while frontier:
            frontier = [d for v in frontier for d in deps[v] if d in deps and d not in seen]
            seen.update(frontier)
        reach[start] = seen
    return {v: frozenset(w for w in deps if w in reach[v] and v in reach[w]) for v in deps}


def _decided(replica):
    return {i: inst for i, inst in replica.instances.items() if inst.status in _DECIDED}


def _command_keys_of(command):
    if isinstance(command, CommandBatch):
        return set(command.keys())
    return {command.key} if isinstance(command, Command) else set()


def _oracle_conflict_messages(replicas, component_id):
    """Every incomparable pair of components of each key, per its definition.

    A key's vertices are the components holding an executed instance of
    the key; its edges are the deps of those instances that land in
    another such component.  Pairs are ordered by ``component_id``.
    """
    deps, keys, executed = {}, {}, set()
    for replica in replicas:
        executed.update(replica.executed_order)
        for instance_id, instance in _decided(replica).items():
            deps.setdefault(instance_id, instance.deps)
            keys.setdefault(instance_id, set()).update(_command_keys_of(instance.command))
    component = _oracle_components(deps)
    messages = []
    for key in sorted({key for ks in keys.values() for key in ks}):
        members = sorted(i for i in deps if key in keys[i] and i in executed)
        vertices = {component[m] for m in members}
        edges = {c: set() for c in vertices}
        for member in members:
            for dep in deps[member]:
                if dep in deps and component[dep] in vertices and component[dep] != component[member]:
                    edges[component[member]].add(component[dep])

        def reaches(source, target):
            seen, frontier = {source}, [source]
            while frontier:
                frontier = [d for c in frontier for d in edges[c] if d not in seen]
                seen.update(frontier)
            return target in seen

        ordered = sorted(vertices, key=lambda c: component_id[min(c)])
        for index, a in enumerate(ordered):
            for b in ordered[index + 1:]:
                if not reaches(a, b) and not reaches(b, a):
                    sample_a = min(m for m in members if m in a)
                    sample_b = min(m for m in members if m in b)
                    messages.append(
                        f"conflicting executed instances {sample_a} and {sample_b} on key "
                        f"{key!r} have no dependency path between them (lost conflict edge)"
                    )
    return deps, component, messages


def _oracle_execution_order_messages(replica, component_id):
    """The execution-order rules checked one by one on BFS components;
    cycles are listed in ``component_id`` order."""
    executed = replica.executed_order
    if len(set(executed)) != len(executed):
        dupes = sorted({i for i in executed if executed.count(i) > 1})
        return [f"node 0 executed instances {dupes} more than once"]
    position = {instance: at for at, instance in enumerate(executed)}
    decided = _decided(replica)
    deps = {i: instance.deps for i, instance in decided.items()}
    component = _oracle_components(deps)
    messages = []
    for instance in executed:
        for dep in sorted(deps.get(instance, ())):
            if dep not in deps:
                messages.append(f"node 0 executed {instance} whose dependency {dep} "
                                f"is not committed locally")
            elif dep not in position:
                messages.append(f"node 0 executed {instance} whose dependency {dep} "
                                f"was never executed")
            elif component[dep] != component.get(instance) and position[dep] > position[instance]:
                messages.append(f"node 0 executed {instance} (position {position[instance]}) "
                                f"before its dependency {dep} (position {position[dep]})")
    cycles = {}
    for instance in executed:
        if instance in deps:
            cycles.setdefault(component[instance], []).append(instance)
    for members in sorted(cycles.values(), key=lambda m: component_id[m[0]]):
        expected = sorted(members, key=lambda i: (decided[i].seq, i))
        if members != expected:
            messages.append(f"node 0 executed dependency cycle {sorted(members)} out of "
                            f"(seq, id) order: ran {members}, expected {expected}")
    return messages


def _assert_sccs_match(deps, component, component_id):
    """The SCC partition is mutual reachability, and ascending component ids
    are a reverse topological order of the condensed graph."""
    assert set(component_id) == set(deps)
    for v in deps:
        assert {w for w in deps if component_id[w] == component_id[v]} == component[v]
        for dep in deps[v]:
            if dep in deps:
                assert component_id[dep] <= component_id[v]


class TestCheckersAgainstOracles:
    @settings(max_examples=200, deadline=None)
    @given(_committed_graphs())
    def test_conflict_ordering_matches_brute_force(self, replicas):
        union = {}
        for replica in replicas:
            for instance_id, instance in _decided(replica).items():
                union.setdefault(instance_id, instance.deps)
        component_id = _committed_sccs(union, lambda i: union.get(i, frozenset()))
        deps, component, expected = _oracle_conflict_messages(replicas, component_id)
        _assert_sccs_match(deps, component, component_id)

        violations = check_epaxos_conflict_ordering(_FakeCluster(replicas))
        assert {v.checker for v in violations} <= {"epaxos_conflict_ordering"}
        assert [v.message for v in violations] == expected

    @settings(max_examples=200, deadline=None)
    @given(_committed_graphs())
    def test_execution_order_matches_brute_force(self, replicas):
        for replica in replicas:
            graph = replica.graph
            component_id = _committed_sccs(graph.committed_instances(), graph.deps_of)
            deps = {i: instance.deps for i, instance in _decided(replica).items()}
            _assert_sccs_match(deps, _oracle_components(deps), component_id)

            violations = check_epaxos_execution_order(_FakeCluster([replica]))
            assert {v.checker for v in violations} <= {"epaxos_execution_order"}
            assert [v.message for v in violations] == (
                _oracle_execution_order_messages(replica, component_id))


@st.composite
def _small_logs(draw):
    """Three replicas' logs over slots 1-6 with two candidate uids per slot;
    some execute their prefix and then lose a commit flag, and
    ``commit_upto`` is arbitrary."""
    replicas = []
    for _ in range(3):
        replica = _replica()
        for slot in range(1, 7):
            state = draw(st.sampled_from(("absent", "accepted", "committed", "committed")))
            if state != "absent":
                command = _put(uid=draw(st.integers(1, 2)))
                if state == "accepted":
                    replica.log.accept(slot, (1, 0), command)
                else:
                    replica.log.commit(slot, (1, 0), command)
        if draw(st.booleans()):
            executed = replica.log.execute_ready(lambda command: None)
            if executed and draw(st.booleans()):
                executed[draw(st.integers(0, len(executed) - 1))][0].committed = False
        replica.commit_upto = draw(st.one_of(st.none(), st.integers(0, 7)))
        replicas.append(replica)
    return replicas


def _reference_log_messages(replicas):
    """The log checks' rules applied slot by slot, pair by pair."""
    messages = []
    chosen = {}
    for node_id, replica in enumerate(replicas):
        for entry in replica.log.entries():
            if entry.committed:
                previous = chosen.setdefault(entry.slot, (node_id, entry.command.uid))
                if previous[1] != entry.command.uid:
                    messages.append(("slot_agreement",
                                     f"slot {entry.slot}: node {previous[0]} committed command "
                                     f"uid={previous[1]} but node {node_id} committed "
                                     f"uid={entry.command.uid}"))
    prefixes = [replica.log.committed_prefix_uids() for replica in replicas]
    for a_id, a in enumerate(prefixes):
        for b_id in range(a_id + 1, len(prefixes)):
            b = prefixes[b_id]
            for index in range(min(len(a), len(b))):
                if a[index] != b[index]:
                    messages.append(("prefix_agreement",
                                     f"nodes {a_id} and {b_id} diverge at slot {index + 1}: "
                                     f"uid {a[index]} vs {b[index]}"))
                    break
    for node_id, replica in enumerate(replicas):
        log = replica.log
        for slot in range(1, log.next_execute_slot):
            if not log.is_committed(slot):
                messages.append(("execution_frontier",
                                 f"node {node_id} executed through slot "
                                 f"{log.next_execute_slot - 1} but slot {slot} is not committed"))
                break
        for slot in range(1, (replica.commit_upto or 0) + 1):
            if not log.is_committed(slot):
                messages.append(("execution_frontier",
                                 f"node {node_id} advertises commit_upto={replica.commit_upto} "
                                 f"but slot {slot} is not committed locally"))
                break
    return messages


class TestLogChecksAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(_small_logs())
    def test_log_checks_match_slot_by_slot_reference(self, replicas):
        assert _pairs(run_log_checks(_FakeCluster(replicas))) == (
            _reference_log_messages(replicas))
