"""Property-based tests (hypothesis) for core data structures and invariants."""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.analysis.model import messages_at_follower, messages_at_leader
from repro.overlay.groups import RelayGroupPlan, contiguous_groups, round_robin_groups
from repro.protocol.ballot import Ballot
from repro.quorum.systems import FastQuorum, FlexibleQuorum, MajorityQuorum
from repro.sim.events import EventQueue
from repro.sim.metrics import Histogram
from repro.statemachine.command import Command, OpType
from repro.statemachine.kvstore import KVStore
from repro.statemachine.log import ReplicatedLog


# --------------------------------------------------------------------------- sim
@given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=200))
def test_event_queue_pops_in_nondecreasing_time_order(times):
    queue = EventQueue()
    for time in times:
        queue.push(time, lambda: None)
    popped = []
    while True:
        event = queue.pop()
        if event is None:
            break
        popped.append(event.time)
    assert popped == sorted(popped)
    assert len(popped) == len(times)


@given(st.lists(st.floats(min_value=0.0, max_value=1e3, allow_nan=False), min_size=1, max_size=200),
       st.integers(min_value=0, max_value=100))
def test_histogram_percentiles_are_monotone_and_bounded(values, percentile):
    histogram = Histogram("h")
    for value in values:
        histogram.observe(value)
    p = histogram.percentile(float(percentile))
    assert histogram.min <= p <= histogram.max
    assert histogram.percentile(0) == histogram.min
    assert histogram.percentile(100) == histogram.max


# --------------------------------------------------------------------------- log
@given(st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=60, unique=True))
def test_log_executes_exactly_the_gap_free_committed_prefix(slots):
    log = ReplicatedLog()
    ballot = Ballot(1, 0)
    for slot in slots:
        log.commit(slot, ballot, Command(op=OpType.PUT, key=f"k{slot}", payload_size=1))
    executed = log.execute_ready(lambda c: None)
    expected_prefix_length = 0
    slot = 1
    committed = set(slots)
    while slot in committed:
        expected_prefix_length += 1
        slot += 1
    assert len(executed) == expected_prefix_length
    assert [entry.slot for entry, _ in executed] == list(range(1, expected_prefix_length + 1))


@given(st.lists(st.tuples(st.sampled_from(["put", "get", "delete"]),
                          st.integers(min_value=0, max_value=5),
                          st.text(min_size=0, max_size=4)),
                max_size=80))
def test_kvstore_matches_reference_dict(operations):
    store = KVStore()
    reference = {}
    for op_name, key_index, value in operations:
        key = f"k{key_index}"
        if op_name == "put":
            store.apply(Command(op=OpType.PUT, key=key, value=value))
            reference[key] = value
        elif op_name == "delete":
            store.apply(Command(op=OpType.DELETE, key=key))
            reference.pop(key, None)
        else:
            result = store.apply(Command(op=OpType.GET, key=key))
            assert result.value == reference.get(key)
    assert store.items() == reference


# --------------------------------------------------------------------------- quorums
@given(st.integers(min_value=1, max_value=201))
def test_majority_quorums_always_intersect(n):
    quorum = MajorityQuorum(n)
    assert quorum.phase1_size + quorum.phase2_size > n
    assert quorum.max_failures == (n - 1) // 2


@given(st.integers(min_value=2, max_value=100), st.data())
def test_flexible_quorums_intersect_by_construction(n, data):
    q2 = data.draw(st.integers(min_value=1, max_value=n))
    q1 = data.draw(st.integers(min_value=n - q2 + 1, max_value=n))
    quorum = FlexibleQuorum(n, q1=q1, q2=q2)
    assert quorum.phase1_size + quorum.phase2_size > n


@given(st.integers(min_value=3, max_value=99).filter(lambda n: n % 2 == 1))
def test_fast_quorum_at_least_majority(n):
    quorum = FastQuorum(n)
    assert quorum.fast_path_size >= quorum.phase2_size - 1
    assert quorum.fast_path_size <= n


# --------------------------------------------------------------------------- relay groups
@given(st.lists(st.integers(min_value=1, max_value=500), min_size=1, max_size=60, unique=True),
       st.integers(min_value=1, max_value=10))
def test_partitioners_cover_members_exactly_once(members, num_groups):
    for partition in (contiguous_groups(members, num_groups), round_robin_groups(members, num_groups)):
        flat = [node for group in partition for node in group]
        assert sorted(flat) == sorted(members)
        assert len(partition) <= num_groups
        assert all(group for group in partition)


@given(st.lists(st.integers(min_value=1, max_value=500), min_size=2, max_size=40, unique=True),
       st.integers(min_value=1, max_value=6),
       st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60)
def test_relay_trees_cover_every_group_member(members, num_groups, levels, seed):
    plan = RelayGroupPlan(groups=round_robin_groups(members, num_groups))
    trees = plan.build_trees(rng=random.Random(seed), levels=levels)
    covered = sorted(node for tree in trees for node in tree.all_nodes())
    assert covered == sorted(members)
    assert len(trees) == plan.num_groups


@given(st.lists(st.integers(min_value=1, max_value=500), min_size=3, max_size=40, unique=True),
       st.integers(min_value=2, max_value=5),
       st.integers(min_value=0, max_value=1000))
@settings(max_examples=40)
def test_reshuffle_preserves_partition_invariants(members, num_groups, seed):
    plan = RelayGroupPlan(groups=round_robin_groups(members, num_groups))
    shuffled = plan.reshuffle(random.Random(seed))
    assert sorted(shuffled.members) == sorted(members)
    assert [len(g) for g in shuffled.groups] == [len(g) for g in plan.groups]


# --------------------------------------------------------------------------- analytical model
@given(st.integers(min_value=3, max_value=500), st.data())
def test_leader_load_dominates_average_follower_load(n, data):
    r = data.draw(st.integers(min_value=1, max_value=n - 1))
    leader = messages_at_leader(r)
    follower = messages_at_follower(n, r)
    # Section 6.3: the leader handles at least as many messages as the average
    # follower for every configuration, so it remains the bottleneck.
    assert leader >= follower - 1e-9
    assert 2.0 <= follower <= 4.0


@given(st.integers(min_value=3, max_value=500))
def test_paxos_is_the_degenerate_pigpaxos_configuration(n):
    assert messages_at_leader(n - 1) == 2 * (n - 1) + 2
    assert messages_at_follower(n, n - 1) == 2.0


# --------------------------------------------------------------------------- ballots
@given(st.tuples(st.integers(0, 100), st.integers(0, 50)),
       st.tuples(st.integers(0, 100), st.integers(0, 50)))
def test_ballot_ordering_is_total_and_next_is_greater(a, b):
    ballot_a, ballot_b = Ballot(*a), Ballot(*b)
    assert (ballot_a < ballot_b) or (ballot_b < ballot_a) or (ballot_a == ballot_b)
    assert ballot_a.next_for(7) > ballot_a
    assert ballot_a.next_for(7).leader == 7
