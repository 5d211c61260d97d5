"""Shared protocol infrastructure.

Everything that Multi-Paxos, PigPaxos and EPaxos have in common lives here:
ballot numbers, the client-facing and Paxos wire messages, the replica base
class, and the :class:`~repro.protocol.base.NodeContext` interface through
which replicas reach the outside world (transport, timers, randomness,
CPU-cost accounting).  Keeping protocols behind this interface is what lets
the same replica classes run both in the discrete-event simulator and in the
asyncio runtime.

:mod:`repro.protocol.registry` builds every replica from a protocol name and
a :class:`ProtocolConfig`.  It is not re-exported here because it imports
the replica classes, which import this package.
"""

from repro.protocol.ballot import Ballot
from repro.protocol.config import ProtocolConfig
from repro.protocol.messages import (
    ClientRequest,
    ClientReply,
    P1a,
    P1b,
    P2a,
    P2b,
    Commit,
    FillRequest,
    FillReply,
    Heartbeat,
)
from repro.protocol.base import NodeContext, Replica

__all__ = [
    "Ballot",
    "ProtocolConfig",
    "ClientRequest",
    "ClientReply",
    "P1a",
    "P1b",
    "P2a",
    "P2b",
    "Commit",
    "FillRequest",
    "FillReply",
    "Heartbeat",
    "NodeContext",
    "Replica",
]
