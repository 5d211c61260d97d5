"""Relay-group construction and per-round relay tree building.

The paper (Section 3.2) partitions all followers into a fixed number of
disjoint relay groups, either arbitrarily (hash / round-robin) or following
the cluster topology (one group per region in the WAN deployment).  Per
round, the fan-out root picks one random member of each group as the relay.
This module provides the partitioners, the per-round tree builder (including
the optional multi-level nesting of Section 6.3) and dynamic reshuffling
(Section 4.1).  :class:`~repro.overlay.relay.RelayFanout` drives it for both
protocol families.

Hierarchical topologies (region -> zone -> node) get a topology-aware plan:
:class:`HierarchicalGroupPlan` keeps one group per region (the one-level
special case is exactly :func:`region_groups`) and, at ``relay_levels > 1``,
nests one sub-relay per *zone* inside each region's tree instead of the
arbitrary contiguous sqrt-splitting -- region relays -> zone relays ->
leaves, so each tree edge crosses the cheapest link that can carry it.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.overlay.messages import RelaySubtree


def contiguous_groups(members: Sequence[int], num_groups: int) -> List[List[int]]:
    """Split ``members`` into ``num_groups`` contiguous, near-equal groups."""
    members = list(members)
    if num_groups < 1:
        raise ConfigurationError("num_groups must be >= 1")
    num_groups = min(num_groups, len(members)) or 1
    groups: List[List[int]] = [[] for _ in range(num_groups)]
    base, extra = divmod(len(members), num_groups)
    index = 0
    for group_index in range(num_groups):
        size = base + (1 if group_index < extra else 0)
        groups[group_index] = members[index:index + size]
        index += size
    return [group for group in groups if group]


def round_robin_groups(members: Sequence[int], num_groups: int) -> List[List[int]]:
    """Deal ``members`` into groups round-robin (interleaved membership)."""
    members = list(members)
    if num_groups < 1:
        raise ConfigurationError("num_groups must be >= 1")
    num_groups = min(num_groups, len(members)) or 1
    groups: List[List[int]] = [[] for _ in range(num_groups)]
    for position, member in enumerate(members):
        groups[position % num_groups].append(member)
    return [group for group in groups if group]


def hash_groups(members: Sequence[int], num_groups: int) -> List[List[int]]:
    """Assign members to groups by hashing their id (paper: 'with the help of a hash function')."""
    members = list(members)
    if num_groups < 1:
        raise ConfigurationError("num_groups must be >= 1")
    num_groups = min(num_groups, len(members)) or 1
    groups: List[List[int]] = [[] for _ in range(num_groups)]
    for member in members:
        # crc32, not builtin hash(): hash() of a tuple containing ints is
        # stable today, but the determinism contract wants a digest that can
        # never pick up per-process salting (PYTHONHASHSEED).
        digest = zlib.crc32(f"pig-group:{member}".encode("ascii"))
        groups[digest % num_groups].append(member)
    populated = [group for group in groups if group]
    if len(populated) < num_groups:
        # Hashing left some groups empty (small clusters); fall back to a
        # deterministic partition so the requested group count is honoured.
        return contiguous_groups(members, num_groups)
    return populated


def region_groups(members: Sequence[int], region_of: Dict[int, str]) -> List[List[int]]:
    """One relay group per region, as in the paper's WAN deployment (Fig. 9)."""
    by_region: Dict[str, List[int]] = {}
    leftovers: List[int] = []
    for member in members:
        region = region_of.get(member)
        if region is None:
            leftovers.append(member)
        else:
            by_region.setdefault(region, []).append(member)
    groups = [sorted(nodes) for _, nodes in sorted(by_region.items())]
    if leftovers:
        groups.append(sorted(leftovers))
    if not groups:
        raise ConfigurationError("region grouping produced no groups")
    return groups


@dataclass
class RelayGroupPlan:
    """The current partition of followers into relay groups, plus tree building.

    The plan is recomputed whenever the leader (and therefore the follower
    set) changes, and may be reshuffled on demand (Section 4.1).
    """

    groups: List[List[int]]

    def __post_init__(self) -> None:
        seen: set = set()
        for group in self.groups:
            if not group:
                raise ConfigurationError("relay groups must be non-empty")
            for member in group:
                if member in seen:
                    raise ConfigurationError(f"node {member} appears in more than one relay group")
                seen.add(member)

    @property
    def num_groups(self) -> int:
        return len(self.groups)

    @property
    def members(self) -> List[int]:
        return [member for group in self.groups for member in group]

    def group_of(self, node: int) -> Optional[int]:
        for index, group in enumerate(self.groups):
            if node in group:
                return index
        return None

    def reshuffle(self, rng: random.Random) -> "RelayGroupPlan":
        """Return a new plan with the same group sizes but shuffled membership."""
        members = self.members
        rng.shuffle(members)
        sizes = [len(group) for group in self.groups]
        regrouped: List[List[int]] = []
        index = 0
        for size in sizes:
            regrouped.append(members[index:index + size])
            index += size
        return RelayGroupPlan(groups=regrouped)

    # ------------------------------------------------------------------ trees
    def build_trees(
        self,
        rng: random.Random,
        levels: int = 1,
        fixed_relays: bool = False,
        exclude: Optional[set] = None,
    ) -> List[RelaySubtree]:
        """Build one relay tree per group for a single round.

        ``exclude`` removes nodes the leader believes are down (used by the
        retry path so a fresh round avoids the relays that just timed out).
        """
        trees: List[RelaySubtree] = []
        for group in self.groups:
            candidates = [n for n in group if not exclude or n not in exclude]
            if not candidates:
                candidates = list(group)
            tree = self._build_group_tree(candidates, rng, levels, fixed_relays)
            trees.append(tree)
        return trees

    def _build_group_tree(
        self,
        members: List[int],
        rng: random.Random,
        levels: int,
        fixed_relays: bool,
    ) -> RelaySubtree:
        relay = members[0] if fixed_relays else rng.choice(members)
        rest = [member for member in members if member != relay]
        if levels <= 1 or len(rest) <= 1:
            children = tuple(RelaySubtree(node_id=member) for member in rest)
            return RelaySubtree(node_id=relay, children=children)
        # Multi-level: split the remainder into sub-groups, one sub-relay each.
        num_subgroups = max(1, int(round(len(rest) ** 0.5)))
        subgroups = contiguous_groups(rest, num_subgroups)
        children = tuple(
            self._build_group_tree(subgroup, rng, levels - 1, fixed_relays)
            for subgroup in subgroups
        )
        return RelaySubtree(node_id=relay, children=children)


@dataclass
class HierarchicalGroupPlan(RelayGroupPlan):
    """A region-aligned plan whose groups are further partitioned by zone.

    ``groups`` holds one group per region (plus a trailing leftover group
    for members outside every region), exactly as :func:`region_groups`
    produces them; ``zones`` is the parallel per-group partition into zone
    member lists.  At ``relay_levels <= 1`` the plan behaves identically to
    a plain region plan (same trees, same RNG draws); deeper levels route
    region relay -> zone relays -> leaves.  Reshuffling preserves both
    boundaries: membership is re-dealt *within* each zone only, so the
    rebuilt multi-level tree still follows the topology.
    """

    zones: List[List[List[int]]] = field(default_factory=list)

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.zones) != len(self.groups):
            raise ConfigurationError("need one zone partition per relay group")
        for group, zone_partition in zip(self.groups, self.zones):
            flattened = [m for zone in zone_partition for m in zone]
            if sorted(flattened) != sorted(group):
                raise ConfigurationError(
                    "zone partition does not partition its relay group"
                )

    @classmethod
    def from_hierarchy(
        cls,
        members: Sequence[int],
        region_of: Dict[int, str],
        zone_of: Dict[int, str],
    ) -> "HierarchicalGroupPlan":
        """Plan from a region map + zone map (unzoned members form a
        pseudo-zone per group, regionless members a trailing group)."""
        groups = region_groups(members, region_of)
        zones: List[List[List[int]]] = []
        for group in groups:
            by_zone: Dict[str, List[int]] = {}
            unzoned: List[int] = []
            for member in group:
                zone = zone_of.get(member)
                if zone is None:
                    unzoned.append(member)
                else:
                    by_zone.setdefault(zone, []).append(member)
            partition = [sorted(nodes) for _, nodes in sorted(by_zone.items())]
            if unzoned:
                partition.append(sorted(unzoned))
            zones.append(partition)
        # Re-order each group to its zone-partition order so tree building
        # and reshuffling can walk groups and zones in lockstep.
        regrouped = [[m for zone in partition for m in zone] for partition in zones]
        return cls(groups=regrouped, zones=zones)

    def reshuffle(self, rng: random.Random) -> "HierarchicalGroupPlan":
        """Re-deal membership within each zone (boundaries are topology)."""
        new_groups: List[List[int]] = []
        new_zones: List[List[List[int]]] = []
        for zone_partition in self.zones:
            shuffled_partition: List[List[int]] = []
            for zone_members in zone_partition:
                members = list(zone_members)
                rng.shuffle(members)
                shuffled_partition.append(members)
            new_zones.append(shuffled_partition)
            new_groups.append([m for zone in shuffled_partition for m in zone])
        return HierarchicalGroupPlan(groups=new_groups, zones=new_zones)

    def build_trees(
        self,
        rng: random.Random,
        levels: int = 1,
        fixed_relays: bool = False,
        exclude: Optional[set] = None,
    ) -> List[RelaySubtree]:
        if levels <= 1:
            # One-level trees are zone-blind; the base builder draws the
            # same relays a plain region plan would.
            return super().build_trees(rng, levels, fixed_relays, exclude)
        trees: List[RelaySubtree] = []
        for group, zone_partition in zip(self.groups, self.zones):
            candidates = [n for n in group if not exclude or n not in exclude]
            if not candidates:
                candidates = list(group)
            relay = candidates[0] if fixed_relays else rng.choice(candidates)
            children: List[RelaySubtree] = []
            for zone_members in zone_partition:
                rest = [
                    n
                    for n in zone_members
                    if n != relay and (not exclude or n not in exclude)
                ]
                if not rest:
                    continue
                children.append(
                    self._build_group_tree(rest, rng, levels - 1, fixed_relays)
                )
            trees.append(RelaySubtree(node_id=relay, children=tuple(children)))
        return trees
