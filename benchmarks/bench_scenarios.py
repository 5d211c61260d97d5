"""Adversarial scenario sweep + protocol x overlay communication-cost table.

Two benchmark-shaped views of the scenario/checker stack:

* ``test_scenario_library_safety_sweep`` runs the whole canned scenario
  library from ``repro.scenarios`` -- leader crashes, partitions, drop
  storms, relay churn, overlay faults -- and reports, per scenario, client
  throughput, a *post-crash-recovery* throughput column (ops/s over the
  window after the scenario's last crash event; the number the EPaxos
  explicit-prepare recovery path exists to keep from collapsing), fault
  counters and the checkers' verdict.  Any future scale/speed PR can
  eyeball this table to see whether an optimization traded away
  correctness under adversity.

* ``test_communication_cost_matrix`` reproduces the paper's headline
  comparison on a fault-free 9-node WAN deployment, extended to the
  leaderless protocol: for each protocol x fan-out overlay cell it measures
  messages and bytes at the *bottleneck node* (the busiest node -- the
  leader for the Paxos family, the busiest opportunistic leader for EPaxos)
  and asserts that relay and thrifty EPaxos beat direct all-to-all
  broadcast, with every safety checker still green.

Both tests merge their results into ``benchmarks/results/BENCH_scenarios.json``
(per-scenario throughput plus message/byte accounting) so the performance
trajectory is machine-trackable across PRs.
"""

from __future__ import annotations

import json

import pytest

from _common import RESULTS_DIR, comparison_table, report
from repro.scenarios import all_scenarios, run_scenario
from repro.scenarios.library import EPAXOS_CHECK_NAMES
from repro.scenarios.spec import Scenario
from repro.sim.metrics import bottleneck_node, sent_by_kind, shard_summary
from repro.workload.spec import WorkloadSpec

BENCH_JSON = RESULTS_DIR / "BENCH_scenarios.json"

#: The protocol x overlay cells of the communication-cost comparison.
#: PigPaxos *is* paxos + relay, so it fills that cell of the matrix.
COMM_MATRIX = (
    ("paxos", "direct"),
    ("pigpaxos", "relay"),
    ("epaxos", "direct"),
    ("epaxos", "relay"),
    ("epaxos", "thrifty"),
)


def _merge_into_json(section: str, payload) -> None:
    """Merge one section into BENCH_scenarios.json (tests run in any order)."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    data = {}
    if BENCH_JSON.exists():
        try:
            data = json.loads(BENCH_JSON.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            data = {}
    data[section] = payload
    BENCH_JSON.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Library safety sweep


def _post_crash_ops_per_sec(result):
    """Throughput over the window after the scenario's last crash event.

    The post-crash-recovery column of the sweep: before explicit-prepare
    recovery (PR 5) the EPaxos crash scenarios collapsed here even though
    their full-run averages looked healthy, because the pre-crash half of
    the run hid the stall.  ``None`` for fault-free scenarios.
    """
    crash_times = [
        event.at
        for event in result.scenario.events
        if event.action in ("crash", "crash_leader")
    ]
    if not crash_times:
        return None
    since = max(crash_times)
    window = result.scenario.duration - since
    if window <= 0:
        return None
    completed_after = sum(
        1 for op in result.history.completed() if op.completed_at > since
    )
    return round(completed_after / window, 1)


def _run_library():
    records = []
    for name in sorted(all_scenarios()):
        result = run_scenario(all_scenarios()[name])
        counters = result.counters()
        node, hot = bottleneck_node(counters)
        post_crash = _post_crash_ops_per_sec(result)
        records.append(
            {
                "scenario": name,
                "protocol": result.scenario.protocol,
                "nodes": result.scenario.num_nodes,
                "completed": result.completed_requests,
                "ops_per_sec": round(result.completed_requests / result.scenario.duration, 1),
                "post_crash_ops_per_sec": post_crash,
                "messages_sent": int(counters.get("net.messages_sent", 0)),
                "bytes_sent": int(counters.get("net.bytes_sent", 0)),
                "crashes": int(counters.get("faults.crashes", 0)),
                "drops": int(counters.get("net.messages_dropped", 0)),
                "dups": int(counters.get("net.messages_duplicated", 0)),
                "relay_timeouts": int(
                    counters.get("paxos.relay_timeouts", 0)
                    + counters.get("epaxos.relay_timeouts", 0)
                ),
                "bottleneck_node": node,
                "bottleneck_messages": int(hot.get("messages_total", 0)),
                "violations": len(result.violations),
                "ok": result.ok,
            }
        )
    return records


@pytest.mark.benchmark(group="scenarios")
def test_scenario_library_safety_sweep(benchmark):
    records = benchmark.pedantic(_run_library, rounds=1, iterations=1)

    rows = [
        (
            r["scenario"],
            r["protocol"],
            r["nodes"],
            f"{r['ops_per_sec']:.0f}",
            "-" if r["post_crash_ops_per_sec"] is None else f"{r['post_crash_ops_per_sec']:.0f}",
            r["crashes"],
            r["drops"],
            r["dups"],
            r["relay_timeouts"],
            "OK" if r["ok"] else f"{r['violations']} VIOLATIONS",
        )
        for r in records
    ]
    lines = comparison_table(
        ["scenario", "protocol", "nodes", "ops/s", "post-crash ops/s", "crashes", "drops", "dups", "relay t/o", "checkers"],
        rows,
    )
    report("scenario_safety_sweep", "Adversarial scenario sweep (safety checkers enabled)", lines)
    _merge_into_json("scenario_sweep", records)

    verdicts = [(r["scenario"], r["ok"]) for r in records]
    assert all(ok for _, ok in verdicts), verdicts


# ---------------------------------------------------------------------------
# Communication-cost matrix (9-node WAN, protocol x overlay)


def _comm_scenario(protocol: str, overlay: str) -> Scenario:
    """One fault-free 9-node WAN cell of the communication-cost matrix."""
    common = dict(
        num_nodes=9,
        wan=True,
        num_clients=6,
        duration=2.0,
        seed=5,
        client_timeout=1.0,
    )
    if protocol == "pigpaxos":
        return Scenario(
            name=f"comm-{protocol}-{overlay}",
            protocol="pigpaxos",
            use_region_groups=True,
            description="communication-cost cell",
            **common,
        )
    checks = EPAXOS_CHECK_NAMES if protocol == "epaxos" else ("linearizability", "log_invariants")
    overrides = None
    if overlay == "relay":
        overrides = {"overlay": {"kind": "relay", "use_region_groups": True}}
    elif overlay == "thrifty":
        overrides = {"overlay": {"kind": "thrifty", "thrifty_fallback_timeout": 0.3}}
    return Scenario(
        name=f"comm-{protocol}-{overlay}",
        protocol=protocol,
        checks=checks,
        config_overrides=overrides,
        description="communication-cost cell",
        **common,
    )


def _run_matrix():
    records = []
    for protocol, overlay in COMM_MATRIX:
        result = run_scenario(_comm_scenario(protocol, overlay))
        counters = result.counters()
        node, hot = bottleneck_node(counters)
        completed = max(result.completed_requests, 1)
        records.append(
            {
                "protocol": protocol,
                "overlay": overlay,
                "completed": result.completed_requests,
                "ops_per_sec": round(result.completed_requests / result.scenario.duration, 1),
                "bottleneck_node": node,
                "bottleneck_messages": int(hot.get("messages_total", 0)),
                "bottleneck_msgs_per_op": round(hot.get("messages_total", 0) / completed, 2),
                "bottleneck_bytes": int(hot.get("bytes_total", 0)),
                "bottleneck_bytes_per_op": round(hot.get("bytes_total", 0) / completed, 1),
                "total_messages": int(counters.get("net.messages_sent", 0)),
                "total_bytes": int(counters.get("net.bytes_sent", 0)),
                "sent_by_kind": {
                    kind: {"count": int(stats["count"]), "bytes": int(stats["bytes"])}
                    for kind, stats in sorted(sent_by_kind(counters).items())
                },
                "violations": len(result.violations),
                "ok": result.ok,
            }
        )
    return records


@pytest.mark.benchmark(group="scenarios")
def test_communication_cost_matrix(benchmark):
    records = benchmark.pedantic(_run_matrix, rounds=1, iterations=1)

    rows = [
        (
            f"{r['protocol']}+{r['overlay']}",
            f"{r['ops_per_sec']:.0f}",
            r["bottleneck_node"],
            r["bottleneck_msgs_per_op"],
            r["bottleneck_bytes_per_op"],
            r["total_messages"],
            "OK" if r["ok"] else f"{r['violations']} VIOLATIONS",
        )
        for r in records
    ]
    lines = comparison_table(
        [
            "protocol+overlay",
            "ops/s",
            "hot node",
            "hot msgs/op",
            "hot bytes/op",
            "total msgs",
            "checkers",
        ],
        rows,
    )
    report(
        "communication_cost_matrix",
        "Communication cost at the bottleneck node -- 9-node WAN, protocol x overlay",
        lines,
    )
    _merge_into_json("communication_cost", records)

    by_cell = {(r["protocol"], r["overlay"]): r for r in records}
    assert all(r["ok"] for r in records), [
        (r["protocol"], r["overlay"], r["violations"]) for r in records
    ]
    # The paper's claim, extended to the leaderless protocol: both overlay
    # strategies must shrink per-op message touches at the busiest node
    # compared to direct all-to-all broadcast.
    direct = by_cell[("epaxos", "direct")]["bottleneck_msgs_per_op"]
    relay = by_cell[("epaxos", "relay")]["bottleneck_msgs_per_op"]
    thrifty = by_cell[("epaxos", "thrifty")]["bottleneck_msgs_per_op"]
    assert relay < direct, (relay, direct)
    assert thrifty < direct, (thrifty, direct)
    # And PigPaxos must beat plain Paxos at the leader, as in the paper.
    assert (
        by_cell[("pigpaxos", "relay")]["bottleneck_msgs_per_op"]
        < by_cell[("paxos", "direct")]["bottleneck_msgs_per_op"]
    )


# ---------------------------------------------------------------------------
# Shard scaling curve (1 -> 64 consensus groups on one 9-node set)

#: Group counts of the scaling sweep.  64 groups on 9 nodes is deliberately
#: past the useful range: the curve must flatten there (every machine is
#: already saturated by 16 groups), and showing the plateau is the point.
SHARD_SCALING_CELLS = (1, 4, 16, 64)


def _scaling_scenario(shards: int) -> Scenario:
    """One cell of the scaling curve: only ``shards`` varies.

    A single 9-node machine set throughout -- sharding adds consensus
    groups, never hardware -- with enough closed-loop clients (32) that the
    single-group cell is leader-CPU-bound and the sharded cells have load
    left over to spread.
    """
    return Scenario(
        name=f"shard-scaling-{shards}",
        protocol="paxos",
        num_nodes=9,
        num_clients=32,
        duration=1.0,
        seed=2,
        shards=shards,
        workload=WorkloadSpec.checking_default(num_keys=256),
        checks=("linearizability", "log_invariants"),
        description="shard scaling cell",
    )


def _run_scaling():
    records = []
    for shards in SHARD_SCALING_CELLS:
        result = run_scenario(_scaling_scenario(shards))
        counters = result.counters()
        node, hot = bottleneck_node(counters)
        summary = shard_summary(counters)
        records.append(
            {
                "shards": shards,
                "completed": result.completed_requests,
                "ops_per_sec": round(result.completed_requests / result.scenario.duration, 1),
                "hottest_share": round(summary.get("hottest_share", 1.0), 3),
                "bottleneck_node": node,
                "bottleneck_messages": int(hot.get("messages_total", 0)),
                "total_messages": int(counters.get("net.messages_sent", 0)),
                "violations": len(result.violations),
                "ok": result.ok,
            }
        )
    base = records[0]["ops_per_sec"] or 1.0
    for record in records:
        record["speedup"] = round(record["ops_per_sec"] / base, 2)
    return records


@pytest.mark.benchmark(group="scenarios")
def test_shard_scaling_curve(benchmark):
    records = benchmark.pedantic(_run_scaling, rounds=1, iterations=1)

    rows = [
        (
            r["shards"],
            f"{r['ops_per_sec']:.0f}",
            f"{r['speedup']:.2f}x",
            f"{r['hottest_share']:.2f}",
            r["bottleneck_node"],
            r["bottleneck_messages"],
            "OK" if r["ok"] else f"{r['violations']} VIOLATIONS",
        )
        for r in records
    ]
    lines = comparison_table(
        ["groups", "ops/s", "speedup", "hottest share", "hot node", "hot msgs", "checkers"],
        rows,
    )
    report(
        "shard_scaling_curve",
        "Sharded consensus scaling -- N groups sharing one 9-node set (paxos)",
        lines,
    )
    _merge_into_json("shard_scaling", records)

    by_shards = {r["shards"]: r for r in records}
    assert all(r["ok"] for r in records), [(r["shards"], r["violations"]) for r in records]
    # The tentpole's acceptance bar: 16 co-hosted groups must deliver at
    # least 3x the single-group throughput on the same machines.  (Seeded
    # and single-threaded, so the measured curve is deterministic.)
    assert by_shards[16]["ops_per_sec"] >= 3.0 * by_shards[1]["ops_per_sec"], (
        by_shards[16]["ops_per_sec"],
        by_shards[1]["ops_per_sec"],
    )
    # Past saturation the curve flattens rather than regresses.
    assert by_shards[64]["ops_per_sec"] >= 0.95 * by_shards[16]["ops_per_sec"]


# ---------------------------------------------------------------------------
# Batching frontier (batch size x offered load, 25-node Multi-Paxos)

#: Batch sizes of the frontier sweep; 1 is the unbatched control.
FRONTIER_BATCH_CELLS = (1, 4, 8, 16)

#: Offered-load lever: closed-loop client counts.  6 matches the
#: paxos-throughput-25 scenario (light load, latency end of the frontier);
#: 48 drives the 25-node leader well past saturation (throughput end).
FRONTIER_CLIENT_CELLS = (6, 24, 48)

#: The reduced frontier CI's perf job runs (report-only quick tier): the
#: unbatched control and one batched column, at both ends of the load axis.
FRONTIER_QUICK_CELLS = tuple(
    (batch, clients) for batch in (1, 8) for clients in (6, 48)
)


def _frontier_scenario(batch: int, clients: int) -> Scenario:
    """One frontier cell: paxos-throughput-25's cluster, varying load/batch.

    ``pipeline_depth=2`` for the batched cells: batching on this path
    emerges from pipeline back-pressure (commands buffer while two slots
    are in flight and flush as a batch when one commits), so an unbounded
    pipeline would degenerate to one command per slot at any load.
    """
    overrides = None
    if batch > 1:
        overrides = {"batch_max_commands": batch, "pipeline_depth": 2}
    return Scenario(
        name=f"frontier-b{batch}-c{clients}",
        protocol="paxos",
        num_nodes=25,
        num_clients=clients,
        duration=1.0,
        seed=7,
        checks=("linearizability", "log_invariants"),
        config_overrides=overrides,
        description="batching frontier cell",
    )


def _latencies(result) -> list:
    return sorted(
        op.completed_at - op.invoked_at
        for op in result.history.completed()
        if op.completed_at is not None
    )


def _run_frontier(cells) -> list:
    records = []
    for batch, clients in cells:
        result = run_scenario(_frontier_scenario(batch, clients))
        counters = result.counters()
        node, hot = bottleneck_node(counters)
        latencies = _latencies(result)
        completed = max(result.completed_requests, 1)
        p50 = latencies[len(latencies) // 2] if latencies else None
        p99 = latencies[min(len(latencies) - 1, int(len(latencies) * 0.99))] if latencies else None
        records.append(
            {
                "batch_max_commands": batch,
                "clients": clients,
                "completed": result.completed_requests,
                "ops_per_sec": round(result.completed_requests / result.scenario.duration, 1),
                "latency_p50_ms": None if p50 is None else round(p50 * 1e3, 2),
                "latency_p99_ms": None if p99 is None else round(p99 * 1e3, 2),
                "bottleneck_node": node,
                "bottleneck_messages": int(hot.get("messages_total", 0)),
                "bottleneck_msgs_per_op": round(hot.get("messages_total", 0) / completed, 2),
                "bottleneck_bytes_per_op": round(hot.get("bytes_total", 0) / completed, 1),
                "total_messages": int(counters.get("net.messages_sent", 0)),
                "batch_flushes": int(
                    sum(v for k, v in counters.items() if k.startswith("batch.flush."))
                ),
                "commands_batched": int(counters.get("batch.commands_batched", 0)),
                "violations": len(result.violations),
                "ok": result.ok,
            }
        )
    return records


def frontier_table(records) -> list:
    rows = [
        (
            r["batch_max_commands"],
            r["clients"],
            f"{r['ops_per_sec']:.0f}",
            "-" if r["latency_p50_ms"] is None else f"{r['latency_p50_ms']:.1f}",
            "-" if r["latency_p99_ms"] is None else f"{r['latency_p99_ms']:.1f}",
            r["bottleneck_msgs_per_op"],
            r["bottleneck_bytes_per_op"],
            "OK" if r["ok"] else f"{r['violations']} VIOLATIONS",
        )
        for r in records
    ]
    return comparison_table(
        [
            "batch",
            "clients",
            "ops/s",
            "p50 ms",
            "p99 ms",
            "hot msgs/op",
            "hot bytes/op",
            "checkers",
        ],
        rows,
    )


@pytest.mark.benchmark(group="scenarios")
def test_batching_frontier_sweep(benchmark):
    cells = [(b, c) for b in FRONTIER_BATCH_CELLS for c in FRONTIER_CLIENT_CELLS]
    records = benchmark.pedantic(_run_frontier, args=(cells,), rounds=1, iterations=1)

    report(
        "batching_frontier",
        "Latency-vs-throughput frontier -- batch size x offered load, 25-node Multi-Paxos",
        frontier_table(records),
    )
    _merge_into_json("batching_frontier", records)

    by_cell = {(r["batch_max_commands"], r["clients"]): r for r in records}
    assert all(r["ok"] for r in records), [
        (r["batch_max_commands"], r["clients"], r["violations"]) for r in records
    ]
    # The tentpole's acceptance bar: at saturating load the batched leader
    # must deliver at least 2x the unbatched ops/sec on the same cluster --
    # amortizing the 2(N-1) per-slot messages is the whole point.  (Seeded
    # and single-threaded, so the measured frontier is deterministic.)
    saturated = max(FRONTIER_CLIENT_CELLS)
    unbatched = by_cell[(1, saturated)]["ops_per_sec"]
    batched = max(
        by_cell[(batch, saturated)]["ops_per_sec"] for batch in FRONTIER_BATCH_CELLS[1:]
    )
    assert batched >= 2.0 * unbatched, (batched, unbatched)
    # Batching must also slash per-op traffic at the bottleneck node.
    assert (
        by_cell[(8, saturated)]["bottleneck_msgs_per_op"]
        < 0.5 * by_cell[(1, saturated)]["bottleneck_msgs_per_op"]
    )
    # At light load the unbatched control keeps the lower p50: the
    # frontier's latency end must show the cost side of the trade-off.
    light = min(FRONTIER_CLIENT_CELLS)
    assert by_cell[(1, light)]["latency_p50_ms"] is not None


# ---------------------------------------------------------------------------
# Bottleneck-vs-N curve (planet hierarchy, direct vs one- and two-level trees)

#: Cluster sizes of the curve -- perfect squares so the sqrt-sized relay
#: trees stay balanced, spanning LAN scale (9) to planet scale (81).
BOTTLENECK_CURVE_SIZES = (9, 25, 49, 81)

#: Fan-out variants: plain Multi-Paxos broadcasts direct; PigPaxos routes
#: through zone-aligned relay trees, one or two levels deep.
BOTTLENECK_CURVE_VARIANTS = ("direct", "relay-1", "relay-2")


def _bottleneck_scenario(variant: str, num_nodes: int) -> Scenario:
    """One fault-free cell: the same planet deployment, varying fan-out.

    Every cell runs on the 3-region x 3-zone planet topology so the relay
    variants get real hierarchy to align with and the direct control pays
    the same WAN latencies; only the fan-out strategy varies.
    """
    common = dict(
        num_nodes=num_nodes,
        hierarchy=(3, 3),
        num_clients=8,
        duration=1.5,
        seed=11,
        client_timeout=1.0,
        checks=("linearizability", "log_invariants"),
        description="bottleneck curve cell",
    )
    if variant == "direct":
        return Scenario(name=f"bottleneck-direct-{num_nodes}", protocol="paxos", **common)
    levels = int(variant.rsplit("-", 1)[1])
    return Scenario(
        name=f"bottleneck-{variant}-{num_nodes}",
        protocol="pigpaxos",
        use_region_groups=True,
        config_overrides={"overlay": {"kind": "relay", "relay_levels": levels}},
        **common,
    )


def _run_bottleneck_curve():
    records = []
    for variant in BOTTLENECK_CURVE_VARIANTS:
        for num_nodes in BOTTLENECK_CURVE_SIZES:
            result = run_scenario(_bottleneck_scenario(variant, num_nodes))
            counters = result.counters()
            node, hot = bottleneck_node(counters)
            completed = max(result.completed_requests, 1)
            records.append(
                {
                    "variant": variant,
                    "nodes": num_nodes,
                    "completed": result.completed_requests,
                    "ops_per_sec": round(result.completed_requests / result.scenario.duration, 1),
                    "bottleneck_node": node,
                    "bottleneck_messages": int(hot.get("messages_total", 0)),
                    "bottleneck_msgs_per_op": round(hot.get("messages_total", 0) / completed, 2),
                    "bottleneck_bytes_per_op": round(hot.get("bytes_total", 0) / completed, 1),
                    "region_cross_messages": int(counters.get("region.cross_messages", 0)),
                    "zone_cross_messages": int(counters.get("zone.cross_messages", 0)),
                    "total_messages": int(counters.get("net.messages_sent", 0)),
                    "violations": len(result.violations),
                    "ok": result.ok,
                }
            )
    return records


@pytest.mark.benchmark(group="scenarios")
def test_bottleneck_vs_cluster_size_curve(benchmark):
    records = benchmark.pedantic(_run_bottleneck_curve, rounds=1, iterations=1)

    rows = [
        (
            r["variant"],
            r["nodes"],
            f"{r['ops_per_sec']:.0f}",
            r["bottleneck_node"],
            r["bottleneck_msgs_per_op"],
            r["bottleneck_bytes_per_op"],
            "OK" if r["ok"] else f"{r['violations']} VIOLATIONS",
        )
        for r in records
    ]
    lines = comparison_table(
        ["fan-out", "nodes", "ops/s", "hot node", "hot msgs/op", "hot bytes/op", "checkers"],
        rows,
    )
    report(
        "bottleneck_vs_n",
        "Bottleneck-node messages vs cluster size -- planet hierarchy, direct vs relay trees",
        lines,
    )
    _merge_into_json("bottleneck_vs_n", records)

    by_cell = {(r["variant"], r["nodes"]): r for r in records}
    assert all(r["ok"] for r in records), [
        (r["variant"], r["nodes"], r["violations"]) for r in records
    ]
    # The paper's scaling argument, measured: direct fan-out's per-op
    # message count at the leader grows roughly linearly with N, while the
    # relay trees keep it near-flat (the leader only ever talks to its
    # relays).  Compare the 9 -> 81 growth factors: direct must at least
    # quintuple; each tree variant must grow by well under half of
    # direct's factor, and at 81 nodes must undercut direct outright.
    small, large = BOTTLENECK_CURVE_SIZES[0], BOTTLENECK_CURVE_SIZES[-1]
    direct_growth = (
        by_cell[("direct", large)]["bottleneck_msgs_per_op"]
        / by_cell[("direct", small)]["bottleneck_msgs_per_op"]
    )
    assert direct_growth >= 5.0, direct_growth
    for variant in ("relay-1", "relay-2"):
        growth = (
            by_cell[(variant, large)]["bottleneck_msgs_per_op"]
            / by_cell[(variant, small)]["bottleneck_msgs_per_op"]
        )
        assert growth <= 0.5 * direct_growth, (variant, growth, direct_growth)
        assert (
            by_cell[(variant, large)]["bottleneck_msgs_per_op"]
            < by_cell[("direct", large)]["bottleneck_msgs_per_op"]
        ), variant


def main(argv=None) -> int:
    """Report-only quick frontier tier for CI's perf job.

    Runs the reduced cell set and writes the records to ``--json`` (the CI
    artifact); exits non-zero only on a checker violation, never on a
    number -- shared-runner speed is noise, simulated semantics are not.
    """
    import argparse

    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("--json", default=None, help="write frontier records to this path")
    args = parser.parse_args(argv)
    records = _run_frontier(FRONTIER_QUICK_CELLS)
    for line in frontier_table(records):
        print(line)
    if args.json:
        from pathlib import Path

        Path(args.json).write_text(
            json.dumps({"batching_frontier_quick": records}, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    return 0 if all(r["ok"] for r in records) else 1


if __name__ == "__main__":
    raise SystemExit(main())
