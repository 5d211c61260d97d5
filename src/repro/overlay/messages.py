"""Wire messages of the relay fan-out overlay.

The relay overlay wraps ordinary protocol messages: a :class:`RelayRequest`
carries the inner message (P1a, P2a, EPreAccept, ECommit...) plus the
subtree the recipient is responsible for, and a :class:`RelayAggregate`
carries the inner responses collected within that subtree back towards the
node that started the fan-out.

Aggregation saves per-message header overhead and -- crucially for the
paper's WAN argument (Section 6.4) -- reduces the number of messages the
fan-out root sends and receives, but it does not shrink the payloads
themselves: ``RelayAggregate.payload_bytes`` is the sum of its children's
payloads.
"""

from __future__ import annotations

from typing import Tuple

from repro.net.message import Message


class OverlayMessage(Message):
    """Marker base class for overlay-level wrapper messages.

    Replica dispatch uses it to hand any overlay traffic to the replica's
    bound :class:`~repro.overlay.base.FanoutOverlay` without knowing which
    overlay (if any) is installed.
    """

    __slots__ = ()


class RelaySubtree:
    """One node of the relay tree, with the subtrees it must fan out to.

    A plain slotted class, immutable by convention (trees are shared across
    the requests fanned down one round).  The subtree size is computed once
    at construction: ``RelayRequest`` wire sizes need it at least twice per
    relayed send, and recomputing it was a recursive walk each time.
    """

    __slots__ = ("node_id", "children", "_size")

    def __init__(self, node_id: int, children: Tuple["RelaySubtree", ...] = ()) -> None:
        self.node_id = node_id
        self.children = children
        size = 1
        for child in children:
            size += child._size
        self._size = size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RelaySubtree({self.node_id}, children={self.children!r})"

    def size(self) -> int:
        """Total number of nodes in this subtree (including this node)."""
        return self._size

    def depth(self) -> int:
        if not self.children:
            return 1
        return 1 + max(child.depth() for child in self.children)

    def all_nodes(self) -> Tuple[int, ...]:
        nodes = [self.node_id]
        for child in self.children:
            nodes.extend(child.all_nodes())
        return tuple(nodes)


class RelayRequest(OverlayMessage):
    """A wrapped fan-out message travelling down the relay tree.

    A hand-slotted class (one is allocated per tree edge per round);
    immutable by convention, like every message.

    Attributes:
        inner: The ordinary protocol message being disseminated.
        children: Subtrees this recipient must forward the message to.
        agg_id: Aggregation session id; the recipient's RelayAggregate reply
            carries the same id so the parent can match it.  Ids embed the
            fan-out root's node id, so concurrent fan-outs from different
            roots (every EPaxos replica is one) never collide.
        timeout: How long the recipient may wait for its children before
            flushing a partial aggregate.
        expects_response: False for pure fan-out traffic (heartbeats,
            commit notifications) where the root does not need the fan-in
            leg.
        ack: True when the sender wants a delivery acknowledgement from the
            recipient relay even though the traffic itself expects no
            responses (commit-durability tracking: a relay that never acks
            is presumed crashed and its subtree is re-sent directly).  Set
            by the fan-out root when its overlay is configured with a
            ``commit_fallback_timeout``, and propagated by each interior
            relay to its own sub-relays (recursive fallback), so a deep
            sub-relay crash heals at the lowest live ancestor.
        depth: Tree depth of the recipient (first-hop relays sit at 1);
            feeds the per-depth ``relay.depth.<d>.*`` durability counters.
    """

    __slots__ = ("inner", "children", "agg_id", "timeout", "expects_response", "ack", "depth")

    def __init__(
        self,
        inner: Message,
        children: Tuple[RelaySubtree, ...],
        agg_id: int,
        timeout: float,
        expects_response: bool = True,
        ack: bool = False,
        depth: int = 1,
    ) -> None:
        self.inner = inner
        self.children = children
        self.agg_id = agg_id
        self.timeout = timeout
        self.expects_response = expects_response
        self.ack = ack
        self.depth = depth

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RelayRequest(agg_id={self.agg_id} inner={self.inner!r})"

    def payload_bytes(self) -> int:
        inner_payload = self.inner.payload_bytes()
        # The membership list adds ~4 bytes per node id mentioned in the tree.
        membership = 0
        for subtree in self.children:
            membership += subtree._size
        return inner_payload + 4 * membership


class RelayAggregate(OverlayMessage):
    """Aggregated responses travelling back up the relay tree."""

    __slots__ = ("agg_id", "responses", "origin", "complete")

    def __init__(
        self,
        agg_id: int,
        responses: Tuple[Message, ...],
        origin: int = -1,
        complete: bool = True,
    ) -> None:
        self.agg_id = agg_id
        self.responses = responses
        self.origin = origin
        self.complete = complete

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RelayAggregate(agg_id={self.agg_id} n={len(self.responses)})"

    def payload_bytes(self) -> int:
        total = 0
        for response in self.responses:
            total += response.payload_bytes() + 8
        return total
