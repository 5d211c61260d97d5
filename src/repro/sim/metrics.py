"""Lightweight metrics used by the simulator, nodes, protocols and clients.

The registry deliberately mirrors what the Paxi benchmark records: message
counters per node and latency histograms per client.  Throughput over time
(the paper's Figure 13) is computed after a run from the clients' completion
records (``repro.bench.completion_rates``).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple


class Counter:
    """A monotonically increasing counter.

    ``increment`` is branch-free: it is called for every message sent,
    delivered and counted per-type, so it must stay a single add.  The
    monotonicity contract (non-negative amounts) is the caller's to honour;
    every in-repo call site passes a count or a byte size.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def increment(self, amount: float = 1.0) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0.0


class Gauge:
    """A value that can move up and down (e.g. queue depth)."""

    __slots__ = ("name", "value", "max_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.max_value = 0.0

    def set(self, value: float) -> None:
        self.value = value
        self.max_value = max(self.max_value, value)

    def add(self, amount: float) -> None:
        self.set(self.value + amount)


class Histogram:
    """An exact histogram of observations with percentile queries.

    Observations are recorded with a plain append (O(1)) and sorted lazily
    the first time a read needs order (min/max/percentiles); the sort result
    is reused until the next observation.  The previous implementation kept
    the list sorted on every ``observe`` via ``insort``, which is an O(n)
    memmove per sample -- O(n^2) per run over the tens of thousands of
    latency samples a scenario records, all to serve a handful of end-of-run
    percentile reads.  Exact (non-approximated) percentiles are preserved.
    """

    __slots__ = ("name", "_values", "_sum", "_unsorted")

    def __init__(self, name: str) -> None:
        self.name = name
        self._values: List[float] = []
        self._sum = 0.0
        self._unsorted = False

    def observe(self, value: float) -> None:
        self._values.append(value)
        self._sum += value
        self._unsorted = True

    def _sorted_values(self) -> List[float]:
        if self._unsorted:
            self._values.sort()
            self._unsorted = False
        return self._values

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / len(self._values) if self._values else 0.0

    @property
    def min(self) -> float:
        return self._sorted_values()[0] if self._values else 0.0

    @property
    def max(self) -> float:
        return self._sorted_values()[-1] if self._values else 0.0

    def percentile(self, p: float) -> float:
        """Return the ``p``-th percentile (0 <= p <= 100) by linear interpolation."""
        if not self._values:
            return 0.0
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be within [0, 100], got {p!r}")
        values = self._sorted_values()
        if len(values) == 1:
            return values[0]
        rank = (p / 100.0) * (len(values) - 1)
        low = math.floor(rank)
        high = math.ceil(rank)
        if low == high:
            return values[int(rank)]
        low_value, high_value = values[low], values[high]
        if low_value == high_value:
            return low_value
        fraction = rank - low
        interpolated = low_value * (1.0 - fraction) + high_value * fraction
        # Clamp to the neighbouring samples: interpolation may stray by one ulp.
        return min(max(interpolated, low_value), high_value)

    @property
    def median(self) -> float:
        return self.percentile(50.0)

    def snapshot(self) -> Dict[str, float]:
        """Summary statistics as a plain dictionary."""
        return {
            "count": float(self.count),
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50.0),
            "p90": self.percentile(90.0),
            "p99": self.percentile(99.0),
        }


class MetricsRegistry:
    """A named collection of counters, gauges and histograms.

    The getters are single-dict-lookup on the hit path: hot callers cache the
    returned metric object, but enough call sites resolve by name per event
    (protocol ``count()``, client latency observes) that the lookup itself
    must stay cheap.
    """

    __slots__ = ("_clock", "_counters", "_gauges", "_histograms")

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self._clock = clock or (lambda: 0.0)
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    @property
    def now(self) -> float:
        return self._clock()

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def histogram(self, name: str) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name)
        return histogram

    def counters(self) -> Dict[str, float]:
        return {name: c.value for name, c in sorted(self._counters.items())}

    def histograms(self) -> Dict[str, Dict[str, float]]:
        return {name: h.snapshot() for name, h in sorted(self._histograms.items())}

    def snapshot(self) -> Dict[str, object]:
        """A JSON-friendly dump of everything recorded so far."""
        return {
            "counters": self.counters(),
            "gauges": {name: g.value for name, g in sorted(self._gauges.items())},
            "histograms": self.histograms(),
        }


# --------------------------------------------------------------------------
# Communication-cost aggregation
#
# The network and the nodes record per-node directional traffic counters
# (``node.<id>.messages_in/out`` and ``node.<id>.bytes_in/out``) plus
# per-message-type counters (``net.sent.<Kind>``, ``net.sent_bytes.<Kind>``).
# These helpers fold a counter dump into the per-node / bottleneck views the
# paper's communication-cost tables are built from.

#: The directional traffic fields recorded per node.
TRAFFIC_FIELDS = ("messages_in", "messages_out", "bytes_in", "bytes_out")


def node_traffic(counters: Dict[str, float]) -> Dict[int, Dict[str, float]]:
    """Per-node traffic from a counter dump.

    Returns ``{node_id: {messages_in, messages_out, bytes_in, bytes_out,
    messages_total, bytes_total}}``, parsed from the ``node.<id>.*``
    counters recorded by :class:`repro.cluster.node.SimNode`.
    """
    traffic: Dict[int, Dict[str, float]] = {}
    for name, value in sorted(counters.items()):
        if not name.startswith("node."):
            continue
        _, node_id_text, field = name.split(".", 2)
        if field not in TRAFFIC_FIELDS:
            continue
        traffic.setdefault(int(node_id_text), dict.fromkeys(TRAFFIC_FIELDS, 0.0))[field] = value
    for stats in traffic.values():  # lint: ok(no-unordered-iteration) independent per-node in-place update; no cross-node state
        stats["messages_total"] = stats["messages_in"] + stats["messages_out"]
        stats["bytes_total"] = stats["bytes_in"] + stats["bytes_out"]
    return traffic


def bottleneck_node(counters: Dict[str, float]) -> Tuple[Optional[int], Dict[str, float]]:
    """The node touching the most messages, with its traffic breakdown.

    "Touches" is sends plus receives -- the quantity the paper's message-load
    tables bound at the leader, and the one the fan-out overlays exist to
    shrink.  Returns ``(None, {})`` when no per-node counters exist yet.
    """
    traffic = node_traffic(counters)
    if not traffic:
        return None, {}
    node_id = max(traffic, key=lambda nid: (traffic[nid]["messages_total"], -nid))
    return node_id, traffic[node_id]


def sent_by_kind(counters: Dict[str, float]) -> Dict[str, Dict[str, float]]:
    """Per-message-type ``{kind: {count, bytes}}`` from a counter dump."""
    by_kind: Dict[str, Dict[str, float]] = {}
    for name, value in sorted(counters.items()):
        if name.startswith("net.sent_bytes."):
            kind = name[len("net.sent_bytes."):]
            by_kind.setdefault(kind, {"count": 0.0, "bytes": 0.0})["bytes"] = value
        elif name.startswith("net.sent."):
            kind = name[len("net.sent."):]
            by_kind.setdefault(kind, {"count": 0.0, "bytes": 0.0})["count"] = value
    return by_kind


# --------------------------------------------------------------------------
# Per-shard aggregation
#
# Sharded clusters record ``shard.<s>.requests`` / ``shard.<s>.completions``
# from the routing clients (one request per issued command, one completion
# per successful reply; retries re-use the original request's count).  The
# physical ``node.<id>.*`` counters above deliberately stay machine-level --
# co-hosted shard instances bill traffic to their host -- so these helpers
# are the *logical* per-group view that sits alongside them.


def shard_traffic(counters: Dict[str, float]) -> Dict[int, Dict[str, float]]:
    """Per-shard workload traffic from a counter dump.

    Returns ``{shard: {requests, completions}}`` parsed from the
    ``shard.<s>.*`` counters; empty for unsharded runs (which record none).
    """
    traffic: Dict[int, Dict[str, float]] = {}
    for name, value in sorted(counters.items()):
        if not name.startswith("shard."):
            continue
        _, shard_text, field = name.split(".", 2)
        if field not in ("requests", "completions"):
            continue
        traffic.setdefault(int(shard_text), {"requests": 0.0, "completions": 0.0})[field] = value
    return traffic


def shard_summary(counters: Dict[str, float]) -> Dict[str, float]:
    """Cluster-wide totals plus balance statistics across shards.

    ``hottest_share`` is the hottest shard's fraction of all completions
    (1/num_shards = perfectly balanced, 1.0 = one shard took everything) --
    the single number that tells a scaling benchmark whether its win came
    from real load-spreading or from one group doing all the work.
    """
    traffic = shard_traffic(counters)
    if not traffic:
        return {}
    completions = [stats["completions"] for _, stats in sorted(traffic.items())]
    total = sum(completions)
    return {
        "num_shards": float(len(traffic)),
        "requests_total": sum(stats["requests"] for stats in traffic.values()),
        "completions_total": total,
        "hottest_shard_completions": max(completions),
        "hottest_share": (max(completions) / total) if total else 0.0,
    }
