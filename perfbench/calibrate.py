"""Wall time at a fixed reference speed.

The benchmark shares its machine, and the machine's speed for the same
pure-Python work swings by half within a minute (cache and core sharing,
not CPU steal: process time tracks wall time).  Raw wall times of
identical passes spread by a quarter; so :func:`probe` times a fixed piece
of pure-Python work -- a small discrete-event loop that uses no repository
code -- between the stages it measures, and :class:`ReferenceTimer`
scales each stage by how much slower than :data:`REFERENCE_S` the probes
on either side of it ran.  On identical passes this cut the spread of
simulation time from 27% to 6% (interquartile range over median).

The probe runs with the cyclic garbage collector off: it makes no
cycles, and a collection inside it would scan the program's heap, so its
time would depend on how many objects the program keeps.  With the
collector off, a change to the program does not move the probe, and a
faster program still reads faster.  Reported wall metrics are therefore
seconds on a machine that runs one probe in :data:`REFERENCE_S`.
"""

from __future__ import annotations

import gc
import time
from heapq import heappop, heappush
from typing import Any, Callable, List, Tuple

#: Seconds one probe takes on the 2-core Intel Xeon dev box with CPython
#: 3.11.7 when nothing slows it: about the fastest of a few hundred probes.
#: Only the ratio to measured probes matters.
REFERENCE_S = 0.0045

#: Events one probe simulates.
_PROBE_EVENTS = 4000


class _Peer:
    __slots__ = ("peer_id", "links", "received", "log")

    def __init__(self, peer_id: int, links: List[int]) -> None:
        self.peer_id = peer_id
        self.links = links
        self.received = 0
        self.log = {}

    def deliver(self, queue: list, now: float, src: int, payload: int) -> None:
        self.received += 1
        self.log[payload & 255] = (src, now)
        if payload & 3:
            for link in self.links:
                delay = 0.001 * ((payload * 7 + link) % 13 + 1)
                event = (now + delay, payload * 31 % 100003, link, self.peer_id, payload >> 1)
                heappush(queue, event)


def probe() -> float:
    """Wall seconds for one fixed run of the probe's event loop, with the
    cyclic collector off."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        peers = [_Peer(i, [(i + 1) % 9, (i + 4) % 9]) for i in range(9)]
        queue = [(0.0, 0, 0, 0, 99991)]
        start = time.perf_counter()
        for done in range(_PROBE_EVENTS):
            now, _, dst, src, payload = heappop(queue)
            peers[dst].deliver(queue, now, src, payload)
            if not queue:
                heappush(queue, (now + 0.001, done, done % 9, 0, 99991 + done))
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


class ReferenceTimer:
    """Times consecutive stages at the reference speed.

    A probe runs after every stage (and one at creation), and each stage's
    wall time is divided by the stage's slowdown: the mean of the probes
    just before and just after it over :data:`REFERENCE_S`.
    """

    def __init__(self) -> None:
        self._last_probe = probe()
        #: Slowdown of every stage timed so far, in order.
        self.slowdowns: List[float] = []

    def time(self, fn: Callable[..., Any], *args: Any) -> Tuple[Any, float]:
        """Run ``fn(*args)``; returns its result and its reference-speed seconds."""
        start = time.perf_counter()
        result = fn(*args)
        wall_s = time.perf_counter() - start
        after = probe()
        slowdown = (self._last_probe + after) / (2.0 * REFERENCE_S)
        self._last_probe = after
        self.slowdowns.append(slowdown)
        return result, wall_s / slowdown
