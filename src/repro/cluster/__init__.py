"""Cluster substrate: simulated nodes, topology presets, builder.

A :class:`~repro.cluster.node.SimNode` hosts a protocol replica and models the
node's CPU as a single-server queue: every received and sent message (and
every command execution) costs processing time, so a node that must handle
many messages per consensus round -- the Paxos leader -- saturates first.
This is the same bottleneck structure the paper measures on EC2 and models
analytically in its Section 6.
"""

from repro.cluster.cpu import NodeCPUModel
from repro.cluster.node import SimNode
from repro.cluster.topologies import (
    lan_topology,
    wan_topology,
    paper_wan_regions,
    hierarchical_topology,
    planet_topology,
    planet_zone_layout,
)
from repro.cluster.builder import Cluster, ClusterBuilder, build_cluster

__all__ = [
    "NodeCPUModel",
    "SimNode",
    "lan_topology",
    "wan_topology",
    "paper_wan_regions",
    "hierarchical_topology",
    "planet_topology",
    "planet_zone_layout",
    "Cluster",
    "ClusterBuilder",
    "build_cluster",
]
