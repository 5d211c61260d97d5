"""Run PigPaxos over real TCP sockets with the asyncio runtime.

Boots a 5-node PigPaxos cluster on localhost (2 relay groups), writes a small
"user profile" working set through the replicated key-value API, reads it
back, and shows that followers converge on the same state.

Run with:  python examples/asyncio_cluster.py
"""

from __future__ import annotations

import asyncio
import time

from repro.protocol.config import ProtocolConfig
from repro.runtime import LocalCluster


async def main() -> None:
    config = ProtocolConfig(overlay={"kind": "relay", "num_groups": 2})
    async with LocalCluster(protocol="pigpaxos", num_nodes=5, protocol_config=config) as cluster:
        leader = cluster.leader_id()
        print(f"Started 5 PigPaxos nodes on localhost; leader is node {leader}.\n")

        client = cluster.client()
        await client.connect(leader or 0)

        profiles = {
            "user:1": "alice,admin",
            "user:2": "bob,developer",
            "user:3": "carol,auditor",
        }
        start = time.perf_counter()
        for key, value in profiles.items():
            await client.put(key, value)
        elapsed_ms = 1000 * (time.perf_counter() - start)
        print(f"Wrote {len(profiles)} profiles through consensus in {elapsed_ms:.1f} ms total.")

        for key in profiles:
            value = await client.get(key)
            print(f"  {key} -> {value}")
        await client.delete("user:3")
        print(f"  user:3 after delete -> {await client.get('user:3')}")
        await client.close()

        # Give heartbeats a moment to carry the commit frontier to followers.
        await asyncio.sleep(0.3)
        sizes = {server.node_id: len(server.replica.store) for server in cluster.servers}
        print(f"\nKey-value store sizes per node (should converge): {sizes}")


if __name__ == "__main__":
    asyncio.run(main())
