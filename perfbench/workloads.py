"""The benchmark's workloads and one measured pass over each.

Every workload is a :class:`~repro.scenarios.Scenario`: a closed loop of
``ClosedLoopClient``s (the paper's Paxi client model) at a fixed client
count, driven through the public stack -- ``ScenarioRunner.build``,
``Simulator.run`` and the checker functions of :mod:`repro.checkers`.
:func:`run_once` times those three stages separately; its fingerprint
equals ``ScenarioRunner(scenario).run().fingerprint()``.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from perfbench import calibrate, stats
from repro.checkers import check_linearizability, run_epaxos_checks, run_log_checks
from repro.cluster.builder import Cluster
from repro.scenarios import Scenario, ScenarioEvent, ScenarioResult, ScenarioRunner
from repro.sim.metrics import bottleneck_node
from repro.workload.spec import WorkloadSpec

#: A checker failure whose message contains this gave up rather than decided.
ABORTED_SEARCH = "search aborted"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Builds the scenario for a seed, optionally at a shorter virtual
    #: duration (smoke tests); fault times scale with the duration.
    scenario: Callable[[int, Optional[float]], Scenario]
    #: The first share of the virtual run is warm-up, not measured.
    warmup_share: float


def _pig25(seed: int, duration: Optional[float] = None) -> Scenario:
    return Scenario(
        name="pig25-saturated",
        protocol="pigpaxos",
        num_nodes=25,
        relay_groups=3,
        num_clients=60,
        # 0.4 virtual seconds (0.1 of them warm-up) keep a pass short enough
        # to repeat several times in one run.  Throughput and median latency
        # match a 0.6 s run within 1% on seeds 1-2; p99, the tail of a few
        # dozen samples, moves by up to 6%.
        duration=duration or 0.4,
        seed=seed,
        workload=WorkloadSpec(num_keys=1000, read_ratio=0.5, unique_values=True),
        checks=("linearizability", "log_invariants"),
    )


def _epaxos5(seed: int, duration: Optional[float] = None) -> Scenario:
    return Scenario(
        name="epaxos5-hotkeys",
        protocol="epaxos",
        num_nodes=5,
        # At 16-20 clients the linearizability search on the hottest key
        # turns heavy-tailed (1.8-8.6 s per seed at 20); 12 keep it steady.
        num_clients=12,
        duration=duration or 2.0,
        seed=seed,
        workload=WorkloadSpec(
            num_keys=10,
            read_ratio=0.2,
            distribution="zipfian",
            zipf_theta=0.99,
            unique_values=True,
        ),
        checks=("linearizability", "log_invariants", "epaxos_invariants"),
    )


def _pig7(seed: int, duration: Optional[float] = None) -> Scenario:
    duration = duration or 3.0
    return Scenario(
        name="pig7-leader-crash",
        protocol="pigpaxos",
        num_nodes=7,
        relay_groups=2,
        num_clients=20,
        duration=duration,
        seed=seed,
        client_timeout=0.3,
        # Clients re-send every 0.3 s, so the outage they see snaps to a
        # multiple of it.  Under the default 0.4-0.8 s election timeout the
        # election lands on either side of a retry depending on the seed
        # (0.6 s or 0.9 s outages); a narrow range keeps one side.
        config_overrides={"election_timeout_min": 0.4, "election_timeout_max": 0.45},
        events=(
            ScenarioEvent.crash_leader(duration / 3.0),
            ScenarioEvent.recover_all(2.0 * duration / 3.0),
        ),
        checks=("linearizability", "log_invariants"),
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="pig25-saturated",
            why="PigPaxos, 25 LAN nodes, 3 relay groups, 60 closed-loop clients just past the "
            "knee (paper Fig 7/8): relay overlay, leader CPU queue and network dominate",
            scenario=_pig25,
            warmup_share=1 / 4,
        ),
        Workload(
            name="epaxos5-hotkeys",
            why="EPaxos, 5 nodes, 12 closed-loop clients on 10 zipfian keys, 80% writes: "
            "conflicts, the EPaxos replica and the checkers dominate, the relay overlay never runs",
            scenario=_epaxos5,
            warmup_share=0.1,
        ),
        Workload(
            name="pig7-leader-crash",
            why="PigPaxos, 7 nodes, 20 closed-loop clients, leader crash at 1 s and recovery "
            "at 2 s: elections, client retries and relay timeouts on the engine",
            scenario=_pig7,
            warmup_share=0.2 / 3,
        ),
    )
}


# ---------------------------------------------------------------------------
# One pass


#: ``Simulator.run`` is called this many times per pass, each time up to the
#: next equal share of the virtual duration, with a speed probe after each.
#: On identical passes 60 slices spread calibrated simulation time by 3%
#: (coefficient of variation), 20 slices by 4-5%, 5 slices by 8%.
SIM_SLICES = 60

#: The checkers are pure functions of the finished run; they run this many
#: times per pass and each stage reports its median, because a single
#: call of a fraction of a second swings by a fifth on a shared machine.
CHECK_REPEATS = 3


@dataclass
class Pass:
    """One build-run-check pass.

    Stage times are wall seconds at the reference speed (see
    :class:`perfbench.calibrate.ReferenceTimer`); ``slowdown`` is the mean
    over the pass's stages, for scaling spans timed inside them.  Checker
    times are per call.
    """

    result: ScenarioResult
    build_s: float
    sim_s: float
    invariants_s: float
    linearizability_s: float
    slowdown: float

    @property
    def check_s(self) -> float:
        return self.invariants_s + self.linearizability_s

    @property
    def cluster(self) -> Cluster:
        return self.result.cluster


def _fire(cluster: Cluster, event: ScenarioEvent) -> None:
    """The two dynamic faults the workloads use, as ``ScenarioRunner`` fires them."""
    if event.action == "crash_leader":
        leader = cluster.leader_id()
        if leader is not None:
            cluster.crash_node(leader)
    elif event.action == "recover_all":
        for node_id, node in cluster.nodes.items():
            if node.crashed:
                cluster.recover_node(node_id)
    else:
        raise ValueError(f"workload event {event.action!r} is not supported")


def timed_builds(scenario: Scenario, count: int) -> List[float]:
    """Seconds at reference speed of ``count`` builds."""
    timer = calibrate.ReferenceTimer()
    return [timer.time(ScenarioRunner(scenario).build)[1] for _ in range(count)]


class Budget:
    """Wall time for a run: set-up and repeated passes.

    The deadline is ``seconds`` after the budget's creation, so set-up
    spends from it too.  :meth:`start` marks where the first pass begins;
    :meth:`another` is asked after each pass and allows one more only if a
    pass as long as the longest so far still ends by the deadline, so a
    run keeps to its time.
    """

    def __init__(self, seconds: float) -> None:
        self._last = time.perf_counter()
        self._deadline = self._last + seconds
        self._longest = 0.0

    def start(self) -> None:
        self._last = time.perf_counter()

    def another(self) -> bool:
        now = time.perf_counter()
        self._longest = max(self._longest, now - self._last)
        self._last = now
        return now + self._longest <= self._deadline


def warm_up(workload: Workload, seed: int, duration: float) -> None:
    """One untimed pass at a tenth of ``duration``: first-call costs
    (lazy tables, allocator growth) land here, not in a timed pass."""
    run_once(workload.scenario(seed, duration / 10.0))
    gc.collect()


def run_once(scenario: Scenario, call=None) -> Pass:
    """Build, simulate and check ``scenario`` once.

    ``call(key, fn, *args)`` runs each stage; the default calls it
    directly, a :class:`perfbench.trace.Tracer` makes each stage a span.
    Slicing the run changes nothing the simulation does: the pass's
    fingerprint equals that of ``ScenarioRunner(scenario).run()``.
    """
    call = call or (lambda key, fn, *args: fn(*args))
    timer = calibrate.ReferenceTimer()
    cluster, build_s = timer.time(ScenarioRunner(scenario).build)
    cluster.start()
    for event in scenario.events:
        cluster.sim.schedule_at(event.at, _fire, cluster, event)

    # One unsliced ``Simulator.run`` keeps the cyclic collector off for the
    # whole run; keeping it off across the slices makes slicing add no
    # collections.  The collector's deferred work over what the run kept
    # (in ``ScenarioRunner.run``: a generation-0 collection at the first
    # allocation after the run, a generation-1 one some collections later)
    # is charged to the simulation as one full collection that ends the
    # stage.
    sim_s = 0.0
    gc.disable()
    try:
        for step in range(1, SIM_SLICES + 1):
            until = scenario.duration * step / SIM_SLICES
            sim_s += timer.time(call, ("sim", "run"), cluster.sim.run, until)[1]
    finally:
        gc.enable()
    sim_s += timer.time(call, ("sim", "collect"), gc.collect)[1]

    def invariants() -> list:
        found = call(("checkers", "log_invariants"), run_log_checks, cluster)
        if "epaxos_invariants" in scenario.checks:
            found += call(("checkers", "epaxos_invariants"), run_epaxos_checks, cluster)
        return found

    # Every checker call starts on a collected heap (an untimed full
    # collection), so its repeats measure the same work: the collections
    # its own allocations cause, and no garbage of the call before.  On
    # identical EPaxos passes this cut the spread of one call's time from
    # 17% to 11% (invariants) and from 36% to 9% (linearizability).
    history = cluster.history_recorder.history()
    invariants_s, linearizability_s = [], []
    for _ in range(CHECK_REPEATS):
        gc.collect()
        violations, seconds = timer.time(invariants)
        invariants_s.append(seconds)
        gc.collect()
        found, seconds = timer.time(
            call, ("checkers", "linearizability"), check_linearizability, history
        )
        violations += found
        linearizability_s.append(seconds)

    result = ScenarioResult(
        scenario=scenario,
        cluster=cluster,
        history=history,
        violations=violations,
        completed_requests=cluster.total_completed_requests(),
        events_processed=cluster.sim.events_processed,
        virtual_duration=cluster.sim.now,
    )
    return Pass(
        result,
        build_s,
        sim_s,
        stats.median(invariants_s),
        stats.median(linearizability_s),
        stats.mean(timer.slowdowns),
    )


def failures(result: ScenarioResult) -> List[str]:
    """Why the pass is not a success: checker violations and aborted searches."""
    reasons = []
    for violation in result.violations:
        kind = "aborted search" if ABORTED_SEARCH in violation.message else "violation"
        reasons.append(f"{kind}: [{violation.checker}] {violation.message}")
    return reasons


# ---------------------------------------------------------------------------
# Metrics of one pass


def client_totals(cluster: Cluster) -> Dict[str, int]:
    """Requests issued, retried and completed, summed over the clients.

    A closed-loop client has at most one request outstanding; any more
    would be requests it abandoned.
    """
    totals = dict.fromkeys(("issued", "retries", "completed", "in_flight", "abandoned"), 0)
    for client in cluster.clients:
        issued = client.stats.sent - client.stats.retries  # a retry re-sends
        outstanding = issued - client.stats.received
        totals["issued"] += issued
        totals["retries"] += client.stats.retries
        totals["completed"] += client.stats.received
        totals["in_flight"] += min(outstanding, 1)
        totals["abandoned"] += max(outstanding - 1, 0)
    return totals


def virtual_metrics(workload: Workload, scenario: Scenario, cluster: Cluster) -> Dict[str, float]:
    """The end-to-end metrics on the simulated clock; exact for a seed."""
    completions = [point for c in cluster.clients for point in c.stats.completions]
    warmup = workload.warmup_share * scenario.duration
    measured = [latency for at, latency in completions if at >= warmup]
    if not measured:
        raise RuntimeError(f"{scenario.name}: no completion after warm-up")
    totals = client_totals(cluster)
    crashes = [event.at for event in scenario.events if event.action == "crash_leader"]
    gap_from = crashes[0] if crashes else warmup
    # Each client's longest wait for service in the window, then the
    # median client: a fault shows as the outage every client sat through,
    # and without one this stays a steady tail of per-client waits (the
    # single longest cluster-wide gap is an extreme value that swings by
    # a fifth between seeds).
    client_gaps = [
        stats.longest_gap((at for at, _ in c.stats.completions), gap_from, scenario.duration)
        for c in cluster.clients
    ]
    failed = stats.failed_frac(totals["retries"], totals["issued"])
    return {
        "throughput_ops_s": len(measured) / (scenario.duration - warmup),
        "latency_p50_ms": stats.percentile(measured, 50.0) * 1e3,
        "latency_p99_ms": stats.percentile(measured, 99.0) * 1e3,
        "latency_samples": len(measured),
        "latency_p99_tail": stats.samples_beyond(len(measured), 99.0),
        "failed_frac": failed,
        "ok_frac": 1.0 - failed,
        "unavailable_s": stats.median(client_gaps),
    }


def exact_counts(workload: Workload, cluster: Cluster) -> Dict[str, float]:
    """Per-op work counts from the program's own counters; exact for a seed."""
    counters = cluster.sim.metrics.counters()
    ops = cluster.total_completed_requests()
    hot_node, hot = bottleneck_node(counters)

    def protocol_counter(name: str) -> float:
        return sum(counters.get(f"{p}.{name}", 0.0) for p in ("paxos", "pigpaxos", "epaxos"))

    committed = protocol_counter("instances_committed")
    relay_rounds = protocol_counter("relay_rounds")
    sent = counters.get("net.messages_sent", 0.0)
    return {
        "ops": ops,
        "events": cluster.sim.events_processed,
        "sim.events_per_op": cluster.sim.events_processed / ops,
        "net.msgs_per_op": sent / ops,
        "net.bytes_per_op": counters.get("net.bytes_sent", 0.0) / ops,
        "net.undeliverable_frac": counters.get("net.messages_undeliverable", 0.0) / sent,
        "cluster.hot_node": hot_node,
        "cluster.hot_node_msgs_per_op": hot.get("messages_total", 0.0) / ops,
        "overlay.relay_rounds_per_op": relay_rounds / ops,
        "overlay.relay_timeout_frac": (
            protocol_counter("relay_timeouts") / relay_rounds if relay_rounds else 0.0
        ),
        "overlay.commit_fallback_frac": (
            protocol_counter("commit_fallbacks") / relay_rounds if relay_rounds else 0.0
        ),
        "paxos.phase1_started": protocol_counter("phase1_started"),
        "paxos.phase1_retry": protocol_counter("phase1_retry"),
        "epaxos.fast_path_frac": (
            protocol_counter("fast_path_commits") / committed if committed else 0.0
        ),
        "workload.retries_per_op": client_totals(cluster)["retries"] / ops,
    }


def busy_fracs(cluster: Cluster, hot_node: int) -> Dict[str, float]:
    """Share of the virtual run each node's CPU model was busy."""
    elapsed = cluster.sim.now
    busy = {nid: node.busy_time_total / elapsed for nid, node in cluster.nodes.items()}
    return {
        "cluster.leader_busy_frac": busy[hot_node],
        "cluster.max_busy_frac": max(busy.values()),
    }

