"""Log-level safety invariants checked across replicas after a run.

These invariants follow directly from the Paxos correctness argument that
PigPaxos inherits (the paper's central claim): no schedule of crashes,
partitions, drops or relay churn may ever

* commit two different commands in the same slot on different replicas
  (:func:`check_slot_agreement`),
* let two replicas disagree on the common part of their gap-free committed
  prefixes (:func:`check_prefix_agreement`),
* execute a slot that is not part of a committed, gap-free prefix
  (:func:`check_execution_frontier`), or
* run with quorums that do not intersect (:func:`check_quorum_sanity`).

EPaxos has no shared slot-ordered log, so the slot checks above do not apply
to it; its correctness argument is per-instance and per-dependency-graph
instead (Moraru et al., SOSP'13), and is covered by a parallel family of
checks:

* every pair of replicas that committed an instance must agree on its
  ``(seq, deps, command)`` triple (:func:`check_epaxos_instance_agreement`),
* each replica's local execution order must be a valid linearisation of its
  committed dependency graph -- dependencies outside an instance's strongly
  connected component execute first, and nothing executes with an
  uncommitted or unexecuted dependency
  (:func:`check_epaxos_execution_order`),
* any two replicas must execute the instances touching one key in the same
  order, prefix-wise (:func:`check_epaxos_execution_consistency`) -- the
  state-machine-equivalence property that dependency tracking exists to
  provide, and
* any two executed instances touching one key must be joined by a path in
  the cluster-wide committed dependency graph
  (:func:`check_epaxos_conflict_ordering`) -- the edge whose loss lets them
  commute even before any replica diverges.

Explicit-prepare recovery may legally commit an instance as a *no-op*: a
keyless :class:`~repro.statemachine.command.NoOp` committed with seq 1 and
empty deps.  It is an ordinary vertex of the committed graph without
out-edges: :func:`check_epaxos_execution_order` still checks when it runs
relative to the instances that depend on it.  The per-key families skip it
(a no-op touches no key, so it neither creates a conflict pair nor appears
in a per-key executed sequence), and the per-key closure of
:func:`check_epaxos_conflict_ordering` walks only components that hold an
executed instance of that key.  What recovery must still never do is
commit a no-op for an instance some replica committed (or executed) with
the real command: that divergence is exactly what
:func:`check_epaxos_instance_agreement` and
:func:`check_epaxos_execution_consistency` flag, and the forced-no-op
mutation test in ``tests/test_scenarios.py`` keeps them honest.

Each check takes the :class:`~repro.cluster.builder.Cluster` post-run and
returns a list of :class:`Violation` records; an empty list means the
invariant held.  Replicas without a ``log`` attribute (EPaxos) are skipped
by the log checks, and the EPaxos checks skip every replica without a
dependency graph.

Each verdict costs about linear time in the replicas' logs and dependency
graphs.  The slot checks, the execution-order check and the
conflict-ordering check decide in one indexed pass whether any violation
exists, and run the slower enumeration that lists each violation only
where one does.  Nothing is cached between calls: each call reads the
cluster afresh.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional, Set, Tuple


@dataclass(frozen=True)
class Violation:
    """One invariant violation found by a checker."""

    checker: str
    message: str

    def __str__(self) -> str:
        return f"[{self.checker}] {self.message}"


class _IndexedLog(NamedTuple):
    """One replica's log, read once for every log check."""

    replica: object
    log: object
    #: uids of the gap-free committed prefix; slot ``i + 1`` holds ``prefix[i]``.
    prefix: List[Optional[int]]


def _indexed_logs(cluster) -> Dict[int, _IndexedLog]:
    logs: Dict[int, _IndexedLog] = {}
    for node_id, node in sorted(cluster.nodes.items()):
        log = getattr(node.replica, "log", None)
        if log is not None:
            logs[node_id] = _IndexedLog(node.replica, log, log.committed_prefix_uids())
    return logs


def _longest_prefix(logs: Dict[int, _IndexedLog]) -> List[Optional[int]]:
    return max((indexed.prefix for indexed in logs.values()), key=len, default=[])


def _prefixes_agree(logs: Dict[int, _IndexedLog], longest: List[Optional[int]]) -> bool:
    """True when every prefix is a prefix of ``longest``, so all pairs agree."""
    return all(
        indexed.prefix == longest[: len(indexed.prefix)] for indexed in logs.values()
    )


def _slots_agree(logs: Dict[int, _IndexedLog]) -> bool:
    """True when no two replicas committed different uids in one slot.

    Every prefix must extend the longest one, and every slot committed past
    a gap must match the longest prefix or the other replicas' slots past it.
    """
    longest = _longest_prefix(logs)
    if not _prefixes_agree(logs, longest):
        return False
    past_longest: Dict[int, Optional[int]] = {}
    # lint: ok(no-unordered-iteration) the verdict is the same in any order: every slot must agree
    for indexed in logs.values():
        log = indexed.log
        for slot in range(len(indexed.prefix) + 2, log.max_slot + 1):
            entry = log.get(slot)
            if entry is None or not entry.committed:
                continue
            uid = getattr(entry.command, "uid", None)
            if slot <= len(longest):
                expected = longest[slot - 1]
            else:
                expected = past_longest.setdefault(slot, uid)
            if expected != uid:
                return False
    return True


def _slot_agreement(logs: Dict[int, _IndexedLog]) -> List[Violation]:
    if _slots_agree(logs):
        return []
    violations: List[Violation] = []
    chosen: Dict[int, Tuple[int, Optional[int]]] = {}  # slot -> (node, uid)
    # lint: ok(no-unordered-iteration) logs insertion order is ascending node id (built from sorted nodes)
    for node_id, indexed in logs.items():
        for entry in indexed.log.entries():
            if not entry.committed:
                continue
            uid = getattr(entry.command, "uid", None)
            previous = chosen.get(entry.slot)
            if previous is None:
                chosen[entry.slot] = (node_id, uid)
            elif previous[1] != uid:
                violations.append(
                    Violation(
                        checker="slot_agreement",
                        message=(
                            f"slot {entry.slot}: node {previous[0]} committed command "
                            f"uid={previous[1]} but node {node_id} committed uid={uid}"
                        ),
                    )
                )
    return violations


def _prefix_agreement(logs: Dict[int, _IndexedLog]) -> List[Violation]:
    if _prefixes_agree(logs, _longest_prefix(logs)):
        return []
    violations: List[Violation] = []
    node_ids = list(logs)
    for i, a_id in enumerate(node_ids):
        for b_id in node_ids[i + 1:]:
            a, b = logs[a_id].prefix, logs[b_id].prefix
            common = min(len(a), len(b))
            if a[:common] == b[:common]:
                continue
            slot_index = next(index for index in range(common) if a[index] != b[index])
            violations.append(
                Violation(
                    checker="prefix_agreement",
                    message=(
                        f"nodes {a_id} and {b_id} diverge at slot "
                        f"{slot_index + 1}: uid {a[slot_index]} vs {b[slot_index]}"
                    ),
                )
            )
    return violations


def _execution_frontier(logs: Dict[int, _IndexedLog]) -> List[Violation]:
    # Slot ``len(prefix) + 1`` is the first one that is not committed, so a
    # frontier past the prefix names exactly that slot.
    violations: List[Violation] = []
    # lint: ok(no-unordered-iteration) logs insertion order is ascending node id (built from sorted nodes)
    for node_id, indexed in logs.items():
        first_gap = len(indexed.prefix) + 1
        executed_through = indexed.log.next_execute_slot - 1
        if executed_through >= first_gap:
            violations.append(
                Violation(
                    checker="execution_frontier",
                    message=(
                        f"node {node_id} executed through slot {executed_through} "
                        f"but slot {first_gap} is not committed"
                    ),
                )
            )
        commit_upto = getattr(indexed.replica, "commit_upto", None)
        if commit_upto is not None and commit_upto >= first_gap:
            violations.append(
                Violation(
                    checker="execution_frontier",
                    message=(
                        f"node {node_id} advertises commit_upto={commit_upto} "
                        f"but slot {first_gap} is not committed locally"
                    ),
                )
            )
    return violations


def check_slot_agreement(cluster) -> List[Violation]:
    """At most one command may ever be committed per slot, cluster-wide."""
    return _slot_agreement(_indexed_logs(cluster))


def check_prefix_agreement(cluster) -> List[Violation]:
    """Every pair of replicas must agree on their common committed prefix."""
    return _prefix_agreement(_indexed_logs(cluster))


def check_execution_frontier(cluster) -> List[Violation]:
    """Execution must only ever cover a committed, gap-free prefix."""
    return _execution_frontier(_indexed_logs(cluster))


def check_quorum_sanity(cluster) -> List[Violation]:
    """Phase-1 and phase-2 quorums must intersect (q1 + q2 > n)."""
    violations: List[Violation] = []
    cluster_size = len(cluster.nodes)
    for node_id, node in sorted(cluster.nodes.items()):
        quorum = getattr(node.replica, "quorum", None)
        if quorum is None:
            continue
        if quorum.n != cluster_size:
            violations.append(
                Violation(
                    checker="quorum_sanity",
                    message=(
                        f"node {node_id} sizes quorums for n={quorum.n} "
                        f"but the cluster has {cluster_size} nodes"
                    ),
                )
            )
        if quorum.phase1_size + quorum.phase2_size <= quorum.n:
            violations.append(
                Violation(
                    checker="quorum_sanity",
                    message=(
                        f"node {node_id} quorums do not intersect: "
                        f"q1={quorum.phase1_size} + q2={quorum.phase2_size} <= n={quorum.n}"
                    ),
                )
            )
    return violations


def run_log_checks(cluster) -> List[Violation]:
    """Run every log/cluster invariant check and concatenate the violations.

    The logs are indexed once per call and shared by the slot checks.
    """
    logs = _indexed_logs(cluster)
    return (
        _slot_agreement(logs)
        + _prefix_agreement(logs)
        + _execution_frontier(logs)
        + check_quorum_sanity(cluster)
    )


# --------------------------------------------------------------------------
# EPaxos invariants (instance/dependency-graph based, no shared log).
# --------------------------------------------------------------------------

#: Instance statuses that mean "this replica learned the commit decision".
_EPAXOS_DECIDED = ("committed", "executed")


def _epaxos_replicas(cluster) -> Dict[int, object]:
    replicas: Dict[int, object] = {}
    for node_id, node in sorted(cluster.nodes.items()):
        replica = node.replica
        if getattr(replica, "graph", None) is not None and hasattr(replica, "instances"):
            replicas[node_id] = replica
    return replicas


def check_epaxos_instance_agreement(cluster) -> List[Violation]:
    """Replicas that committed an instance agree on its (seq, deps, command)."""
    violations: List[Violation] = []
    chosen: Dict[Tuple[int, int], Tuple[int, Tuple]] = {}
    for node_id, replica in sorted(_epaxos_replicas(cluster).items()):
        for instance_id, instance in sorted(replica.instances.items()):
            if instance.status not in _EPAXOS_DECIDED:
                continue
            record = (
                instance.seq,
                frozenset(instance.deps),
                getattr(instance.command, "uid", None),
            )
            previous = chosen.get(instance_id)
            if previous is None:
                chosen[instance_id] = (node_id, record)
            elif previous[1] != record:
                violations.append(
                    Violation(
                        checker="epaxos_instance_agreement",
                        message=(
                            f"instance {instance_id}: node {previous[0]} committed "
                            f"(seq={previous[1][0]}, deps={sorted(previous[1][1])}, "
                            f"uid={previous[1][2]}) but node {node_id} committed "
                            f"(seq={record[0]}, deps={sorted(record[1])}, uid={record[2]})"
                        ),
                    )
                )
    return violations


def _committed_sccs(
    nodes: Iterable[Tuple[int, int]],
    deps_of,
) -> Dict[Tuple[int, int], int]:
    """Strongly connected components of the committed dependency graph.

    Returns instance -> component id.  Edges to instances outside ``nodes``
    (uncommitted at this replica) are ignored; such instances cannot be part
    of a committed cycle.  Iterative Tarjan over integer vertex ids, same
    shape as the planner in :mod:`repro.epaxos.graph`.  Vertex ids follow
    sorted instance order, so roots and each vertex's dependencies are
    visited in ascending instance order and component ids are
    deterministic.  Ascending ids are a reverse topological order: a
    dependency's component never has a larger id than its dependent's.
    """
    order = sorted(nodes)
    vertex_of = {instance: vertex for vertex, instance in enumerate(order)}
    successors: List[List[int]] = []
    for instance in order:
        targets = [vertex_of[dep] for dep in deps_of(instance) if dep in vertex_of]
        targets.sort()
        successors.append(targets)
    indices = [-1] * len(order)
    lowlink = [0] * len(order)
    on_stack = [False] * len(order)
    component_of = [0] * len(order)
    stack: List[int] = []
    counter = 0
    components = 0

    for root in range(len(order)):
        if indices[root] >= 0:
            continue
        indices[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(successors[root]))]
        while work:
            node, dep_iter = work[-1]
            for dep in dep_iter:
                if indices[dep] < 0:
                    indices[dep] = lowlink[dep] = counter
                    counter += 1
                    stack.append(dep)
                    on_stack[dep] = True
                    work.append((dep, iter(successors[dep])))
                    break
                if on_stack[dep] and indices[dep] < lowlink[node]:
                    lowlink[node] = indices[dep]
            else:
                work.pop()
                if lowlink[node] == indices[node]:
                    while True:
                        member = stack.pop()
                        on_stack[member] = False
                        component_of[member] = components
                        if member == node:
                            break
                    components += 1
                if work:
                    parent = work[-1][0]
                    if lowlink[node] < lowlink[parent]:
                        lowlink[parent] = lowlink[node]
    return dict(zip(order, component_of))


def _dependency_violations(node_id, instance, graph, committed, position, scc):
    """Every broken dependency of one executed ``instance``, in dependency order."""
    violations: List[Violation] = []
    for dep in sorted(graph.deps_of(instance)):
        if dep not in committed:
            violations.append(
                Violation(
                    checker="epaxos_execution_order",
                    message=(
                        f"node {node_id} executed {instance} whose "
                        f"dependency {dep} is not committed locally"
                    ),
                )
            )
        elif dep not in position:
            violations.append(
                Violation(
                    checker="epaxos_execution_order",
                    message=(
                        f"node {node_id} executed {instance} whose "
                        f"dependency {dep} was never executed"
                    ),
                )
            )
        elif scc.get(dep) != scc.get(instance) and position[dep] > position[instance]:
            violations.append(
                Violation(
                    checker="epaxos_execution_order",
                    message=(
                        f"node {node_id} executed {instance} (position "
                        f"{position[instance]}) before its dependency {dep} "
                        f"(position {position[dep]})"
                    ),
                )
            )
    return violations


def _execution_order_holds(executed, position, committed, graph) -> bool:
    """Whether one replica's execution order has no violation, in O(V + E).

    The exact verdict of :func:`check_epaxos_execution_order` without a
    whole-graph SCC pass.  Once every dependency of an executed instance is
    committed and executed, the executed set is closed under dependencies,
    so every cycle through an executed instance is executed.  A cycle needs
    a *forward* edge (a dependency executed after its dependent).  Merging
    the position intervals that forward edges span gives blocks no edge
    leaves upward and no path re-enters from below; so every cycle lies in
    one block, and the SCCs of a block's induced subgraph are the
    committed graph's.  Only the blocks need an SCC pass.
    """
    reach = list(range(len(executed)))  # furthest position each instance's deps reach
    forward: List[Tuple[Tuple[int, int], Tuple[int, int]]] = []
    for at, instance in enumerate(executed):
        for dep in graph.deps_of(instance):
            where = position.get(dep)
            if where is None or dep not in committed:
                return False
            if where > at:
                forward.append((instance, dep))
                if where > reach[at]:
                    reach[at] = where
    if not forward:
        return True
    blocks: List[Tuple[int, int]] = []
    start = end = -1
    for at, furthest in enumerate(reach):
        if furthest == at and at > end:
            continue
        if at > end:
            if end > start:
                blocks.append((start, end))
            start = at
        end = max(end, furthest)
    if end > start:
        blocks.append((start, end))
    scc: Dict[Tuple[int, int], int] = {}
    for start, end in blocks:
        block = executed[start:end + 1]
        local = _committed_sccs(block, graph.deps_of)
        members: Dict[int, List[Tuple[int, int]]] = {}
        for instance in block:  # position order
            members.setdefault(local[instance], []).append(instance)
            scc[instance] = (start, local[instance])
        if any(
            by_position != sorted(by_position, key=lambda inst: (graph.seq_of(inst), inst))
            for by_position in members.values()
            if len(by_position) > 1
        ):
            return False
    return all(scc[instance] == scc[dep] for instance, dep in forward)


def check_epaxos_execution_order(cluster) -> List[Violation]:
    """Each replica's execution order must respect its dependency graph.

    For every executed instance X and every dependency D of X: D must be
    committed and executed on that replica, and -- unless D and X sit in the
    same strongly connected component (a dependency cycle, which executes as
    one batch) -- D must execute strictly before X.  Within one component
    the batch must execute in ``(seq, instance id)`` order, the protocol's
    deterministic cycle tie-break.  An instance may also never execute
    twice.  Recovered no-op instances participate like any other vertex;
    they commit with no dependencies of their own, so what is enforced is
    that every instance depending on one executes after it.
    """
    violations: List[Violation] = []
    for node_id, replica in sorted(_epaxos_replicas(cluster).items()):
        graph = replica.graph
        executed = list(getattr(replica, "executed_order", []))
        position = {instance: i for i, instance in enumerate(executed)}
        if len(position) != len(executed):
            dupes = sorted({i for i in executed if executed.count(i) > 1})
            violations.append(
                Violation(
                    checker="epaxos_execution_order",
                    message=f"node {node_id} executed instances {dupes} more than once",
                )
            )
            continue
        committed = graph.committed_instances()
        if _execution_order_holds(executed, position, committed, graph):
            continue
        scc = _committed_sccs(committed, graph.deps_of)
        for instance in executed:
            component = scc.get(instance)
            at = position[instance]
            for dep in graph.deps_of(instance):
                if (
                    dep not in committed
                    or dep not in position
                    or (position[dep] > at and scc.get(dep) != component)
                ):
                    violations.extend(_dependency_violations(
                        node_id, instance, graph, committed, position, scc))
                    break
        # Members of one committed cycle must execute in (seq, id) order --
        # no member can execute until every member is committed, so the
        # planner emits the whole component as one deterministically sorted
        # batch; any other relative order is a planner bug.  Members are
        # gathered in execution order, which is their order by position.
        members_by_component: Dict[int, List[Tuple[int, int]]] = {}
        for instance in executed:
            component = scc.get(instance)
            if component is not None:
                members_by_component.setdefault(component, []).append(instance)
        for component, by_position in sorted(members_by_component.items()):
            if len(by_position) < 2:
                continue
            by_seq = sorted(by_position, key=lambda inst: (graph.seq_of(inst), inst))
            if by_position != by_seq:
                violations.append(
                    Violation(
                        checker="epaxos_execution_order",
                        message=(
                            f"node {node_id} executed dependency cycle "
                            f"{sorted(by_position)} out of (seq, id) order: "
                            f"ran {by_position}, expected {by_seq}"
                        ),
                    )
                )
    return violations


def _command_keys(command) -> Tuple[str, ...]:
    """Every key a committed command touches.

    A :class:`~repro.statemachine.command.CommandBatch` touches each of its
    sub-commands' keys (its ``keys()`` method); a plain command touches one;
    a recovery no-op touches none.  The per-key checks must treat a batch as
    a first-class vertex on *every* key inside it, or the dependency paths
    that run through batches look lost and per-key executed sequences skip
    the batch's writes.
    """
    keys = getattr(command, "keys", None)
    if callable(keys):
        return tuple(keys())
    key = getattr(command, "key", None)
    return () if key is None else (key,)


def _per_key_executed_uids(replica) -> Dict[str, List[Optional[int]]]:
    by_key: Dict[str, List[Optional[int]]] = {}
    for instance_id in getattr(replica, "executed_order", []):
        instance = replica.instances.get(instance_id)
        if instance is None:
            continue
        for key in _command_keys(instance.command):
            by_key.setdefault(key, []).append(getattr(instance.command, "uid", None))
    return by_key


def check_epaxos_execution_consistency(cluster) -> List[Violation]:
    """Any two replicas execute the instances of one key in the same order.

    Conflicting (same-key) instances are totally ordered by the dependency
    graph, so per key every replica's executed sequence of command uids must
    agree pairwise on the common prefix; a replica that missed late commits
    simply stops earlier.  This is the state-machine-equivalence property:
    if it holds for every key, all KV stores converge.
    """
    violations: List[Violation] = []
    sequences = {
        node_id: _per_key_executed_uids(replica)
        for node_id, replica in sorted(_epaxos_replicas(cluster).items())
    }
    node_ids = sorted(sequences)
    for i, a_id in enumerate(node_ids):
        for b_id in node_ids[i + 1:]:
            a_keys, b_keys = sequences[a_id], sequences[b_id]
            for key in sorted(set(a_keys) & set(b_keys)):
                a, b = a_keys[key], b_keys[key]
                common = min(len(a), len(b))
                for index in range(common):
                    if a[index] != b[index]:
                        violations.append(
                            Violation(
                                checker="epaxos_execution_consistency",
                                message=(
                                    f"nodes {a_id} and {b_id} diverge on key {key!r} "
                                    f"at executed position {index}: "
                                    f"uid {a[index]} vs {b[index]}"
                                ),
                            )
                        )
                        break
    return violations


def check_epaxos_conflict_ordering(cluster) -> List[Violation]:
    """Conflicting executed instances must be dependency-connected.

    The EPaxos safety argument rests on the preaccept quorums of any two
    conflicting commands intersecting, which guarantees at least one of the
    two carries a committed dependency path to the other -- that path is
    what pins their relative execution order on every replica.  A reply-
    accounting bug (e.g. counting a retransmitted vote twice) commits on an
    undersized quorum and silently loses that path; the two instances then
    commute in the executor even though they touch the same key.  This check
    exposes the lost edge directly instead of waiting for replicas to
    actually diverge: for every pair of same-key instances that some replica
    executed, the cluster-wide committed graph must contain a path between
    them (same strongly connected component counts).
    """
    violations: List[Violation] = []
    replicas = _epaxos_replicas(cluster)
    if not replicas:
        return violations

    # Union committed graph + executed set + key per instance.  Instance
    # agreement (checked separately) makes the union well-defined.
    # A command object another replica already contributed adds no key.
    deps: Dict[Tuple[int, int], frozenset] = {}
    commands: Dict[Tuple[int, int], object] = {}
    by_key: Dict[str, Set[Tuple[int, int]]] = {}
    executed: Set[Tuple[int, int]] = set()
    for _, replica in sorted(replicas.items()):
        executed.update(getattr(replica, "executed_order", []))
        # lint: ok(no-unordered-iteration) each instance id occurs once per replica; only sets and first writers per id are built
        for instance_id, instance in replica.instances.items():
            if instance.status not in _EPAXOS_DECIDED:
                continue
            command = instance.command
            if instance_id not in deps:
                deps[instance_id] = frozenset(instance.deps)
                commands[instance_id] = command
            elif commands[instance_id] is command:
                continue
            for key in _command_keys(command):
                by_key.setdefault(key, set()).add(instance_id)

    def deps_of(instance_id):
        return deps.get(instance_id, frozenset())

    scc = _committed_sccs(deps, deps_of)
    for key in sorted(by_key):
        members = sorted(i for i in by_key[key] if i in executed)
        if len(members) < 2:
            continue
        components = sorted({scc[m] for m in members})
        if _totally_ordered(members, components, scc, deps):
            continue
        # Reachability over the condensed (acyclic) graph, restricted to
        # this key's instances: deps never cross keys, so the per-key
        # subgraph is self-contained.  Command batches are members of every
        # key they touch (``_command_keys``), which keeps paths that run
        # through a batch inside the subgraph.  Bitmask DP over components.
        comp_index = {component: i for i, component in enumerate(components)}
        comp_members: Dict[int, List[Tuple[int, int]]] = {}
        for member in members:
            comp_members.setdefault(comp_index[scc[member]], []).append(member)
        edges: Dict[int, Set[int]] = {i: set() for i in range(len(components))}
        for member in members:
            src = comp_index[scc[member]]
            for dep in deps_of(member):
                dst = comp_index.get(scc.get(dep, -1))
                if dst is not None and dst != src:
                    edges[src].add(dst)
        # Transitive closure by bitmask DP.  Ascending component ids are a
        # reverse topological order (see ``_committed_sccs``), so ascending
        # id order visits every successor before the components that need it.
        reach: Dict[int, int] = {}
        for component in components:  # already sorted ascending
            index = comp_index[component]
            mask = 0
            for successor in edges[index]:
                mask |= (1 << successor) | reach[successor]
            reach[index] = mask
        for a_pos, a in enumerate(components):
            for b in components[a_pos + 1:]:
                ia, ib = comp_index[a], comp_index[b]
                if not (reach[ia] >> ib) & 1 and not (reach[ib] >> ia) & 1:
                    sample_a = min(comp_members[ia])
                    sample_b = min(comp_members[ib])
                    violations.append(
                        Violation(
                            checker="epaxos_conflict_ordering",
                            message=(
                                f"conflicting executed instances {sample_a} and "
                                f"{sample_b} on key {key!r} have no dependency "
                                f"path between them (lost conflict edge)"
                            ),
                        )
                    )
    return violations


def _totally_ordered(members, components, scc, deps) -> bool:
    """Whether one key's components form a chain, in O(V + E).

    Every edge of the per-key component graph runs from a larger component
    id to a smaller one (ascending ids are a reverse topological order).
    So the components are pairwise comparable exactly when each one has a
    direct edge to the next smaller one: a path between neighbours in id
    order could pass through no other component of the key.
    """
    next_lower = dict(zip(components[1:], components))
    linked: Set[int] = set()
    for member in members:
        component = scc[member]
        target = next_lower.get(component)
        if target is None or component in linked:
            continue
        for dep in deps[member]:
            if scc.get(dep) == target:
                linked.add(component)
                break
    return len(linked) == len(next_lower)


#: All EPaxos-specific checks, in the order the scenario runner applies them.
EPAXOS_CHECKS = (
    check_epaxos_instance_agreement,
    check_epaxos_execution_order,
    check_epaxos_execution_consistency,
    check_epaxos_conflict_ordering,
)


def run_epaxos_checks(cluster) -> List[Violation]:
    """Run every EPaxos invariant check and concatenate the violations."""
    violations: List[Violation] = []
    for check in EPAXOS_CHECKS:
        violations.extend(check(cluster))
    return violations
