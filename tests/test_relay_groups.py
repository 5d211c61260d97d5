"""Unit tests for relay-group partitioning and relay-tree construction."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.overlay.config import OverlayConfig
from repro.overlay.groups import (
    RelayGroupPlan,
    contiguous_groups,
    hash_groups,
    region_groups,
    round_robin_groups,
)
from repro.protocol.config import ProtocolConfig
from repro.protocol.registry import resolve_config


class TestPartitioners:
    def test_contiguous_groups_cover_and_balance(self):
        groups = contiguous_groups(list(range(1, 25)), 3)
        assert sorted(n for g in groups for n in g) == list(range(1, 25))
        assert [len(g) for g in groups] == [8, 8, 8]

    def test_contiguous_uneven_split(self):
        groups = contiguous_groups(list(range(10)), 3)
        assert sorted(len(g) for g in groups) == [3, 3, 4]

    def test_round_robin_interleaves(self):
        groups = round_robin_groups([1, 2, 3, 4, 5, 6], 2)
        assert groups == [[1, 3, 5], [2, 4, 6]]

    def test_more_groups_than_members_collapses(self):
        groups = round_robin_groups([1, 2], 5)
        assert len(groups) == 2

    def test_hash_groups_cover_all_members(self):
        members = list(range(1, 25))
        groups = hash_groups(members, 4)
        assert sorted(n for g in groups for n in g) == members
        assert len(groups) == 4

    def test_region_groups_follow_regions(self):
        region_of = {1: "east", 2: "east", 3: "west", 4: "west", 5: "central"}
        groups = region_groups([1, 2, 3, 4, 5], region_of)
        assert [1, 2] in groups and [3, 4] in groups and [5] in groups

    def test_region_groups_collect_unassigned_nodes(self):
        groups = region_groups([1, 2, 3], {1: "east"})
        assert [1] in groups and sorted([2, 3]) in groups

    def test_invalid_group_count_rejected(self):
        with pytest.raises(ConfigurationError):
            contiguous_groups([1, 2, 3], 0)


class TestRelayGroupPlan:
    def test_plan_rejects_overlapping_groups(self):
        with pytest.raises(ConfigurationError):
            RelayGroupPlan(groups=[[1, 2], [2, 3]])

    def test_plan_rejects_empty_group(self):
        with pytest.raises(ConfigurationError):
            RelayGroupPlan(groups=[[1], []])

    def test_group_of_lookup(self):
        plan = RelayGroupPlan(groups=[[1, 2], [3, 4]])
        assert plan.group_of(3) == 1
        assert plan.group_of(99) is None

    def test_reshuffle_preserves_members_and_sizes(self):
        plan = RelayGroupPlan(groups=[[1, 2, 3], [4, 5], [6]])
        shuffled = plan.reshuffle(random.Random(3))
        assert sorted(shuffled.members) == sorted(plan.members)
        assert sorted(len(g) for g in shuffled.groups) == sorted(len(g) for g in plan.groups)

    def test_build_trees_one_per_group_covering_members(self):
        plan = RelayGroupPlan(groups=[[1, 2, 3, 4], [5, 6, 7, 8]])
        trees = plan.build_trees(rng=random.Random(1))
        assert len(trees) == 2
        covered = sorted(n for tree in trees for n in tree.all_nodes())
        assert covered == list(range(1, 9))
        for tree in trees:
            assert tree.depth() == 2  # relay + leaves

    def test_relay_rotation_uses_rng(self):
        plan = RelayGroupPlan(groups=[[1, 2, 3, 4, 5, 6, 7, 8]])
        rng = random.Random(0)
        relays = {plan.build_trees(rng=rng)[0].node_id for _ in range(50)}
        assert len(relays) > 1  # random rotation picks different relays over rounds

    def test_fixed_relays_pin_first_member(self):
        plan = RelayGroupPlan(groups=[[3, 1, 2], [6, 4, 5]])
        trees = plan.build_trees(rng=random.Random(0), fixed_relays=True)
        assert [tree.node_id for tree in trees] == [3, 6]

    def test_exclude_avoids_suspected_relays(self):
        plan = RelayGroupPlan(groups=[[1, 2, 3]])
        trees = plan.build_trees(rng=random.Random(0), exclude={1})
        assert trees[0].node_id in (2, 3)

    def test_multi_level_tree_nests(self):
        plan = RelayGroupPlan(groups=[list(range(1, 14))])
        tree = plan.build_trees(rng=random.Random(2), levels=2)[0]
        assert tree.depth() == 3
        assert sorted(tree.all_nodes()) == list(range(1, 14))

    def test_single_member_group_has_no_children(self):
        plan = RelayGroupPlan(groups=[[9]])
        tree = plan.build_trees(rng=random.Random(0))[0]
        assert tree.node_id == 9
        assert tree.children == ()


class TestPigPaxosPreset:
    def test_defaults_are_valid(self):
        config = resolve_config("pigpaxos")
        assert config.overlay.kind == "relay"
        assert config.overlay.num_groups == 3
        assert config.overlay.relay_timeout == pytest.approx(0.05)
        assert config.leader_retry_timeout == pytest.approx(0.15)

    def test_pigpaxos_always_retries(self):
        # None is leader_retry_timeout's unset value, so pigpaxos fills in
        # its preset; the no-retry form is paxos over relays.
        explicit_none = ProtocolConfig(leader_retry_timeout=None)
        assert resolve_config("pigpaxos", explicit_none).leader_retry_timeout == pytest.approx(0.15)
        no_retry = resolve_config("paxos", replace(explicit_none, overlay="relay"))
        assert no_retry.overlay.kind == "relay" and no_retry.leader_retry_timeout is None

    def test_invalid_group_count(self):
        with pytest.raises(ConfigurationError):
            OverlayConfig(kind="relay", num_groups=0)

    def test_leader_retry_must_exceed_relay_timeout(self):
        slow_relays = ProtocolConfig(overlay={"kind": "relay", "relay_timeout": 0.2})
        with pytest.raises(ConfigurationError):
            resolve_config("pigpaxos", slow_relays)
        with pytest.raises(ConfigurationError):
            resolve_config("paxos", replace(slow_relays, leader_retry_timeout=0.1))
        assert resolve_config("paxos", slow_relays).leader_retry_timeout is None

    def test_threshold_range_checked(self):
        with pytest.raises(ConfigurationError):
            OverlayConfig(kind="relay", group_response_threshold=1.5)
        config = OverlayConfig(kind="relay", group_response_threshold=0.5)
        assert config.group_response_threshold == 0.5

    def test_relay_levels_validated(self):
        with pytest.raises(ConfigurationError):
            OverlayConfig(kind="relay", relay_levels=0)
