"""The traced run: per-layer metrics of one workload.

One untraced pass gives the reference fingerprint, the exact per-op counts
and the untraced wall time.  Then :class:`perfbench.trace.Tracer` wraps the
layer boundaries at class level and traced passes repeat until the time is
up.  Each traced pass must reproduce the reference fingerprint and counts,
and every wrapped boundary must see at least one call; otherwise the run
fails.  Self times are seconds at reference speed per pass (checkers: per
call), medians over the traced passes.

Layers and their boundaries:

* ``sim`` -- the ``Simulator.run`` span minus everything below: the event
  loop plus the glue no boundary covers (delivery scheduling, timers); and
  the cyclic collection the run defers (:func:`perfbench.workloads.run_once`).
* ``net`` -- ``SimNetwork.send``.
* ``cluster`` -- ``SimNode.deliver`` and ``SimNode.send`` (the node CPU model).
  Its ``leader_*`` metrics describe the hot node (``bottleneck_node``): the
  leader under PigPaxos, the busiest replica under EPaxos.
* ``overlay`` -- ``wide_cast`` of the fan-out in use, plus replica
  ``on_message`` calls carrying a relay wire type.  The replica dispatches
  those straight to the relay's handlers, so ``RelayFanout.handle_message``
  never runs and is not a boundary.
* ``paxos`` / ``epaxos`` -- replica ``on_message`` for every other wire
  type, and ``process_for_overlay`` (labelled by the relayed inner type).
* ``workload`` -- ``ClosedLoopClient.deliver``.
* ``checkers`` -- the checker functions.
"""

from __future__ import annotations

import gc
import json
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

from perfbench import stats
from perfbench.trace import Key, Tracer
from perfbench.workloads import (
    CHECK_REPEATS,
    Budget,
    Workload,
    busy_fracs,
    client_totals,
    exact_counts,
    failures,
    run_once,
    warm_up,
)

#: ``name -> unit`` of the per-layer metrics, in print order.
PER_LAYER = {
    "sim.events_per_op": "count",
    "sim.events_per_s": "1/s",
    "sim.self_s": "s",
    "net.msgs_per_op": "count",
    "net.bytes_per_op": "B",
    "net.send_self_s": "s",
    "net.undeliverable_frac": "ratio",
    "cluster.hot_node_msgs_per_op": "count",
    "cluster.leader_busy_frac": "ratio",
    "cluster.max_busy_frac": "ratio",
    "cluster.leader_queue_wait_ms_p50": "ms",
    "cluster.leader_queue_wait_ms_p99": "ms",
    "cluster.node_self_s": "s",
    "overlay.relay_rounds_per_op": "count",
    "overlay.self_s": "s",
    "overlay.relay_timeout_frac": "ratio",
    "overlay.commit_fallback_frac": "ratio",
    "paxos.self_s": "s",
    "paxos.self_s.ClientRequest": "s",
    "paxos.self_s.P2a": "s",
    "paxos.self_s.P2b": "s",
    "paxos.handler_calls_per_op": "count",
    "paxos.phase1_started": "count",
    "paxos.phase1_retry": "count",
    "epaxos.self_s": "s",
    "epaxos.self_s.ClientRequest": "s",
    "epaxos.self_s.EPreAccept": "s",
    "epaxos.self_s.EPreAcceptReply": "s",
    "epaxos.self_s.ECommit": "s",
    "epaxos.fast_path_frac": "ratio",
    "epaxos.handler_calls_per_op": "count",
    "checkers.linearizability_s": "s",
    "checkers.invariants_s": "s",
    "checkers.ops_checked": "count",
    "workload.retries_per_op": "ratio",
    "workload.self_s": "s",
    "trace.overhead": "ratio",
}

#: Per-layer metrics that repeat exactly for a seed: counts and ratios of
#: the program's work, no wall time.
EXACT = [
    name
    for name in PER_LAYER
    if not name.endswith("_s") and ".self_s." not in name and name != "trace.overhead"
]

LEDGER = Path(__file__).with_name("ledger.json")

LAYERS = ("sim", "net", "cluster", "overlay", "paxos", "epaxos", "workload", "checkers")


def install(tracer: Tracer, protocol: str, waits: Dict[int, List[float]]) -> None:
    """Wrap the layer boundaries a workload running ``protocol`` calls:
    PigPaxos runs the relay overlay, EPaxos direct fan-out.

    ``waits[node]`` collects, before each ``SimNode.deliver`` on a live
    node, how long the message will queue for that node's CPU.
    """
    from repro.cluster.node import SimNode
    from repro.epaxos.replica import EPaxosReplica
    from repro.net.network import SimNetwork
    from repro.overlay.direct import DirectFanout
    from repro.overlay.messages import RelayAggregate, RelayRequest
    from repro.overlay.relay import RelayFanout
    from repro.paxos.replica import MultiPaxosReplica
    from repro.workload.client import ClosedLoopClient

    def queue_wait(args) -> None:
        node = args[0]
        if not node.crashed:
            waits[node.node_id].append(max(node.busy_until - node.now, 0.0))

    relay_types = (RelayRequest, RelayAggregate)
    family = "epaxos" if protocol == "epaxos" else "paxos"

    def replica_key(args):
        kind = type(args[2])
        return ("overlay" if kind in relay_types else family, kind.__name__)

    tracer.wrap(SimNetwork, "send", lambda args: ("net", "send"))
    tracer.wrap(SimNode, "deliver", lambda args: ("cluster", "deliver"), before=queue_wait)
    tracer.wrap(SimNode, "send", lambda args: ("cluster", "send"))
    tracer.wrap(ClosedLoopClient, "deliver", lambda args: ("workload", "deliver"))
    if family == "paxos":
        tracer.wrap(MultiPaxosReplica, "on_message", replica_key)
        tracer.wrap(
            MultiPaxosReplica, "process_for_overlay", lambda args: ("paxos", type(args[2]).__name__)
        )
        tracer.wrap(RelayFanout, "wide_cast", lambda args: ("overlay", "wide_cast"))
    else:
        tracer.wrap(EPaxosReplica, "on_message", replica_key)
        tracer.wrap(DirectFanout, "wide_cast", lambda args: ("overlay", "wide_cast"))


def _traced_values(self_s: Dict[Key, float], calls: Dict[Key, int], ops: int) -> Dict[str, float]:
    def layer_s(layer: str) -> float:
        return sum(s for (lay, _), s in self_s.items() if lay == layer)

    values = {
        "sim.self_s": layer_s("sim"),
        "net.send_self_s": layer_s("net"),
        "cluster.node_self_s": layer_s("cluster"),
        "overlay.self_s": layer_s("overlay"),
        "workload.self_s": layer_s("workload"),
        "checkers.linearizability_s": (
            self_s.get(("checkers", "linearizability"), 0.0) / CHECK_REPEATS
        ),
        "checkers.invariants_s": (
            self_s.get(("checkers", "log_invariants"), 0.0)
            + self_s.get(("checkers", "epaxos_invariants"), 0.0)
        )
        / CHECK_REPEATS,
    }
    for family in ("paxos", "epaxos"):
        values[f"{family}.self_s"] = layer_s(family)
        values[f"{family}.handler_calls_per_op"] = (
            sum(n for (lay, _), n in calls.items() if lay == family) / ops
        )
        for name in PER_LAYER:
            if name.startswith(f"{family}.self_s."):
                label = name.rsplit(".", 1)[1]
                values[name] = self_s.get((family, label), 0.0)
    return values


def measure_layers(workload: Workload, seed: int, seconds: float, duration=None):
    """Returns ``(correct, totals, {name: (value, unit)})``.

    ``duration`` shortens the virtual run (smoke tests).
    """
    budget = Budget(seconds)
    scenario = workload.scenario(seed, duration)
    warm_up(workload, seed, scenario.duration)
    budget.start()
    reference = run_once(scenario)
    budget.another()  # the reference pass spends the run's time too; one traced pass always runs
    fingerprint = reference.result.fingerprint()
    counts = exact_counts(workload, reference.cluster)
    hot_node = counts["cluster.hot_node"]
    exact = dict(busy_fracs(reference.cluster, hot_node))
    exact["checkers.ops_checked"] = len(reference.result.history)
    totals = client_totals(reference.cluster)
    problems = failures(reference.result)
    untraced_s = reference.sim_s + reference.check_s
    events_per_s = reference.result.events_processed / reference.sim_s
    ops = reference.result.completed_requests
    del reference
    gc.collect()

    tracer = Tracer()
    waits: Dict[int, List[float]] = defaultdict(list)
    install(tracer, scenario.protocol, waits)
    samples: Dict[str, List[float]] = defaultdict(list)
    try:
        while True:
            tracer.reset()
            waits.clear()
            done = run_once(scenario, tracer.call)
            if done.result.fingerprint() != fingerprint:
                problems.append("traced pass fingerprint differs from the untraced pass")
            if exact_counts(workload, done.cluster) != counts:
                problems.append("traced pass counts differ from the untraced pass")
            problems += [f"boundary {b} recorded 0 calls" for b in tracer.silent_boundaries()]
            self_s = {key: s / done.slowdown for key, s in tracer.self_s.items()}
            calls = dict(tracer.calls)
            for name, value in _traced_values(self_s, calls, ops).items():
                samples[name].append(value)
            samples["trace.overhead"].append((done.sim_s + done.check_s) / untraced_s)
            hot_waits = waits[hot_node]
            exact["cluster.leader_queue_wait_ms_p50"] = stats.percentile(hot_waits, 50.0) * 1e3
            exact["cluster.leader_queue_wait_ms_p99"] = stats.percentile(hot_waits, 99.0) * 1e3
            del done
            gc.collect()
            if not budget.another():
                break
    finally:
        tracer.unwrap_all()

    values = {name: counts[name] for name in PER_LAYER if name in counts}
    values.update(exact)
    values["sim.events_per_s"] = events_per_s
    values.update({name: stats.median(runs) for name, runs in samples.items()})
    passes = len(samples["trace.overhead"])
    by_key = sorted(self_s.items(), key=lambda item: -item[1])

    print(f"workload {workload.name} seed {seed} traced: {passes} traced passes after 1 untraced")
    print(f"  fingerprint {fingerprint}; {ops} ops, {counts['events']} events, hot node {hot_node}")
    traced_total = sum(s for (layer, _), s in by_key if layer != "checkers")
    print(f"  {'layer':<10} {'self_s':>10} {'share':>7} {'calls':>10}   (last traced pass)")
    for layer in LAYERS:
        layer_s = sum(s for (lay, _), s in by_key if lay == layer)
        n = sum(c for (lay, _), c in calls.items() if lay == layer)
        share = f"{layer_s / traced_total:7.1%}" if layer != "checkers" else "      -"
        print(f"  {layer:<10} {layer_s:10.4f} {share} {n:10d}")
    print("  by label:")
    for (layer, label), label_s in by_key:
        print(f"    {layer + '.' + label:<32} {label_s:10.4f} s {calls[(layer, label)]:10d} calls")
    for name, unit in PER_LAYER.items():
        print(f"  {name:<34} {values[name]:>16.6f} {unit}")
    recorded = json.loads(LEDGER.read_text()).get("counts", {}).get(workload.name, {})
    if str(seed) in recorded:
        changed = [
            f"{name} {recorded[str(seed)][name]:.6f} -> {values[name]:.6f}"
            for name in EXACT
            if recorded[str(seed)].get(name) != values[name]
        ]
        print("  counts vs ledger.json: " + ("; ".join(changed) or "unchanged"))
    for problem in dict.fromkeys(problems):
        print(f"FAIL {problem}")
    return not problems, totals, {name: (values[name], unit) for name, unit in PER_LAYER.items()}
