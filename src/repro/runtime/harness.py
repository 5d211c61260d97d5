"""Local asyncio cluster harness.

``LocalCluster`` boots N :class:`~repro.runtime.server.NodeServer` processes
inside one asyncio event loop on localhost ports -- the quickest way to run
the protocols over real sockets (used by the runtime example and the runtime
integration tests).
"""

from __future__ import annotations

import asyncio
import socket
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.protocol.config import ProtocolConfig
from repro.protocol.registry import replica_factory
from repro.runtime.client import KVClient
from repro.runtime.server import NodeServer

Address = Tuple[str, int]


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class LocalCluster:
    """N protocol nodes on localhost, all inside the current event loop.

    ``protocol_config`` carries the overlay, batching and session settings
    exactly as in the simulator, e.g. two relay groups for PigPaxos::

        LocalCluster("pigpaxos", 5, protocol_config=ProtocolConfig(
            overlay={"kind": "relay", "num_groups": 2}))
    """

    def __init__(
        self,
        protocol: str = "pigpaxos",
        num_nodes: int = 3,
        host: str = "127.0.0.1",
        protocol_config: Optional[ProtocolConfig] = None,
    ) -> None:
        if num_nodes < 1:
            raise ConfigurationError("num_nodes must be >= 1")
        self.protocol = protocol
        self.num_nodes = num_nodes
        self._make_replica = replica_factory(protocol, protocol_config)
        self.config = self._make_replica.config
        self._host = host
        self.addresses: Dict[int, Address] = {}
        self.servers: List[NodeServer] = []

    # ------------------------------------------------------------------ lifecycle
    async def start(self) -> None:
        self.addresses = {node_id: (self._host, _free_port()) for node_id in range(self.num_nodes)}
        for node_id in range(self.num_nodes):
            peers = {other: addr for other, addr in self.addresses.items() if other != node_id}
            replica = self._make_replica()
            server = NodeServer(
                node_id=node_id,
                listen=self.addresses[node_id],
                peers=peers,
                replica=replica,
            )
            self.servers.append(server)
        for server in self.servers:
            await server.start()
        # Give the initial leader a moment to finish phase-1.
        await asyncio.sleep(0.3)

    async def stop(self) -> None:
        for server in self.servers:
            await server.stop()
        self.servers.clear()

    async def __aenter__(self) -> "LocalCluster":
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    # ------------------------------------------------------------------ helpers
    def client(self, request_timeout: float = 5.0) -> KVClient:
        return KVClient(nodes=dict(self.addresses), request_timeout=request_timeout)

    def leader_id(self) -> Optional[int]:
        for server in self.servers:
            if getattr(server.replica, "is_leader", False):
                return server.node_id
        return None
