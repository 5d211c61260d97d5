"""The repo-specific rule set: the determinism contract, statically enforced.

Each rule encodes one clause of the determinism contract in
``docs/ARCHITECTURE.md`` (or one of the PR-4/PR-5 performance conventions)
as an AST check.  The catalogue lives in the ``RULES`` registry at the
bottom; ``scripts/check_docs.py`` cross-checks it against the rule table in
the architecture doc so the two cannot drift.

Scoping: rules see paths relative to the ``repro`` package root
(``sim/metrics.py``), so they apply identically to the real tree and to the
synthetic fixture files the tests feed through
:meth:`repro.lint.core.LintEngine.lint_source`.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple, Type

from repro.lint.core import FileContext, Rule
from repro.lint.counters import is_known_metric, is_known_replica_counter

# ---------------------------------------------------------------- helpers

#: Directories whose iteration order can leak into event order (the
#: simulation stack) or into recorded verdicts (the checkers).
SIM_SCOPE: Tuple[str, ...] = (
    "protocol",
    "paxos",
    "epaxos",
    "overlay",
    "quorum",
    "net",
    "sim",
    "core",
    "cluster",
    "statemachine",
    "checkers",
)


def _in_dirs(relpath: str, dirs: Tuple[str, ...]) -> bool:
    head, _, _ = relpath.partition("/")
    return head in dirs


def _dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _call_func_name(func: ast.AST) -> Optional[str]:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _is_str_constant(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


# ------------------------------------------------------------ no-wall-clock

_BANNED_TIME = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "time.clock_gettime",
    "time.localtime",
    "time.gmtime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: Bare names that are wall-clock reads when imported from ``time``.
_BANNED_TIME_FROM = {
    "time",
    "time_ns",
    "monotonic",
    "monotonic_ns",
    "perf_counter",
    "perf_counter_ns",
    "process_time",
    "process_time_ns",
}


class NoWallClock(Rule):
    """Contract clause 1: time is the simulator's virtual clock."""

    id = "no-wall-clock"
    title = "no wall-clock reads in simulation code"
    contract = (
        "Determinism contract #1: nothing reads the wall clock; virtual time "
        "comes from sim.now / ctx.now only"
    )
    hint = "use the simulator clock (sim.now / ctx.now); bench/ is exempt"

    def applies(self, relpath: str) -> bool:
        return not relpath.startswith("bench/")

    def begin_file(self, ctx: FileContext) -> None:
        self._module_alias: Dict[str, str] = {}
        self._from_names: Dict[str, str] = {}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in ("time", "datetime"):
                        self._module_alias[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.ImportFrom):
                if node.module == "time":
                    for alias in node.names:
                        if alias.name in _BANNED_TIME_FROM:
                            self._from_names[alias.asname or alias.name] = (
                                f"time.{alias.name}"
                            )
                elif node.module == "datetime":
                    for alias in node.names:
                        if alias.name in ("datetime", "date"):
                            self._module_alias[alias.asname or alias.name] = (
                                f"datetime.{alias.name}"
                            )

    def _resolve(self, dotted: str) -> Optional[str]:
        root, _, rest = dotted.partition(".")
        real_root = self._module_alias.get(root)
        if real_root is None:
            return None
        return f"{real_root}.{rest}" if rest else real_root

    def visit_Attribute(self, node: ast.Attribute, ctx: FileContext) -> None:
        dotted = _dotted_name(node)
        if dotted is None:
            return
        resolved = self._resolve(dotted)
        if resolved in _BANNED_TIME:
            ctx.report(self, node, f"wall-clock read {resolved}()")

    def visit_Name(self, node: ast.Name, ctx: FileContext) -> None:
        if not isinstance(node.ctx, ast.Load):
            return
        resolved = self._from_names.get(node.id)
        if resolved is not None:
            ctx.report(self, node, f"wall-clock read {resolved}() (from-import)")


# ------------------------------------------------------ no-unseeded-random


class NoUnseededRandom(Rule):
    """Contract clause 2: all randomness flows through named seeded streams."""

    id = "no-unseeded-random"
    title = "no module-level random.* calls"
    contract = (
        "Determinism contract #2: randomness comes from sim/rng.py streams or "
        "an explicitly passed random.Random, never the global random module"
    )
    hint = (
        "draw from sim.random.stream(<name>) / ctx.rng, or accept a "
        "random.Random parameter"
    )

    _ALLOWED_ATTRS = {"Random", "SystemRandom"}

    def begin_file(self, ctx: FileContext) -> None:
        self._aliases: Set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        self._aliases.add(alias.asname or alias.name)

    def visit_Attribute(self, node: ast.Attribute, ctx: FileContext) -> None:
        if (
            isinstance(node.value, ast.Name)
            and node.value.id in self._aliases
            and node.attr not in self._ALLOWED_ATTRS
        ):
            ctx.report(
                self, node, f"global random-module state used: random.{node.attr}"
            )

    def visit_ImportFrom(self, node: ast.ImportFrom, ctx: FileContext) -> None:
        if node.module != "random":
            return
        for alias in node.names:
            if alias.name not in self._ALLOWED_ATTRS:
                ctx.report(
                    self,
                    node,
                    f"from random import {alias.name} binds global random state",
                )


# -------------------------------------------------- no-unordered-iteration

#: Calls whose result does not depend on argument order (for a pure
#: element function), so feeding them an unordered iterable is safe.
_SAFE_CONSUMERS = {
    "sorted",
    "min",
    "max",
    "sum",
    "len",
    "set",
    "frozenset",
    "dict",
    "any",
    "all",
    "Counter",
}

#: Calls that *iterate* their argument into an ordered result, so feeding
#: them a set leaks its hash order.
_ORDER_LEAKING_CONSUMERS = {"list", "tuple", "enumerate", "iter", "reversed", "join"}

_DICT_VIEWS = {"keys", "values", "items"}


class NoUnorderedIteration(Rule):
    """Contract clause 3: decisions never ride on set/hash iteration order."""

    id = "no-unordered-iteration"
    title = "no unordered iteration where order can leak into event order"
    contract = (
        "Determinism contract #3: iteration orders that feed decisions are "
        "sorted or insertion-ordered, never set-ordered; dict views must be "
        "wrapped in sorted() or carry a written insertion-order justification"
    )
    hint = (
        "wrap in sorted(...), consume with an order-insensitive reducer, or "
        "justify insertion order with # lint: ok(no-unordered-iteration) <why>"
    )

    def applies(self, relpath: str) -> bool:
        return _in_dirs(relpath, SIM_SCOPE)

    # ------------------------------------------------------------- set typing
    #
    # Names are tracked per enclosing function scope: ``executed`` being a
    # set in one checker must not taint a list named ``executed`` in
    # another.  ``self.<attr>`` assignments stay file-wide (class state).
    def begin_file(self, ctx: FileContext) -> None:
        names: Set[Tuple[int, str]] = set()
        attrs: Set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assign) and self._is_set_value(node.value):
                for target in node.targets:
                    self._record_target(target, node, ctx, names, attrs)
            elif isinstance(node, ast.AnnAssign):
                if self._is_set_annotation(node.annotation) or (
                    node.value is not None and self._is_set_value(node.value)
                ):
                    self._record_target(node.target, node, ctx, names, attrs)
            elif isinstance(node, ast.arg):
                if node.annotation is not None and self._is_set_annotation(
                    node.annotation
                ):
                    names.add((self._scope_of(node, ctx), node.arg))
        self._set_names = names
        self._set_attrs = attrs

    @staticmethod
    def _scope_of(node: ast.AST, ctx: FileContext) -> int:
        for ancestor in ctx.ancestors(node):
            if isinstance(
                ancestor, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                return id(ancestor)
        return id(ctx.tree)

    def _record_target(
        self,
        target: ast.AST,
        site: ast.AST,
        ctx: FileContext,
        names: Set[Tuple[int, str]],
        attrs: Set[str],
    ) -> None:
        if isinstance(target, ast.Name):
            names.add((self._scope_of(site, ctx), target.id))
        elif isinstance(target, ast.Attribute) and isinstance(
            target.value, ast.Name
        ):
            if target.value.id == "self":
                attrs.add(target.attr)

    @staticmethod
    def _is_set_value(node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("set", "frozenset")
        return False

    def _is_set_annotation(self, annotation: ast.AST) -> bool:
        # Unwrap Optional[...] one level; then the outermost type must be a
        # set.  Dict[..., Set[...]] deliberately does NOT mark the name.
        if isinstance(annotation, ast.Subscript):
            root = _dotted_name(annotation.value)
            if root in ("Optional", "typing.Optional"):
                return self._is_set_annotation(annotation.slice)
            return root in ("Set", "FrozenSet", "set", "frozenset",
                            "typing.Set", "typing.FrozenSet")
        root = _dotted_name(annotation)
        return root in ("Set", "FrozenSet", "set", "frozenset",
                        "typing.Set", "typing.FrozenSet")

    def _is_set_expr(self, node: ast.AST, ctx: FileContext) -> bool:
        if self._is_set_value(node):
            return True
        if isinstance(node, ast.Name):
            return (self._scope_of(node, ctx), node.id) in self._set_names
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            return node.value.id == "self" and node.attr in self._set_attrs
        return False

    # ------------------------------------------------------------ dict views
    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _DICT_VIEWS
            and not node.args
            and not node.keywords
        ):
            if not self._view_consumed_safely(node, ctx):
                owner = _dotted_name(func.value) or "<expr>"
                ctx.report(
                    self,
                    node,
                    f"iteration order of {owner}.{func.attr}() feeds an ordered "
                    f"result; sort it or justify insertion order",
                )
            return
        # A set handed to an order-leaking consumer (list(s), "".join(s)...).
        name = _call_func_name(func)
        if name in _ORDER_LEAKING_CONSUMERS:
            for arg in node.args:
                if self._is_set_expr(arg, ctx):
                    ctx.report(
                        self,
                        node,
                        f"{name}(...) materialises a set in hash order",
                    )

    def _view_consumed_safely(self, view: ast.Call, ctx: FileContext) -> bool:
        parent = ctx.parent(view)
        if isinstance(parent, ast.Call):
            name = _call_func_name(parent.func)
            if view in parent.args and (
                name in _SAFE_CONSUMERS or name == "update"
            ):
                return True
            return False
        if isinstance(parent, ast.Compare) and view in parent.comparators:
            return all(isinstance(op, (ast.In, ast.NotIn)) for op in parent.ops)
        if isinstance(parent, ast.comprehension) and parent.iter is view:
            owner = ctx.parent(parent)
            if isinstance(owner, ast.SetComp):
                return True  # result is a set; no order to leak
            if isinstance(owner, (ast.ListComp, ast.GeneratorExp)):
                consumer = ctx.parent(owner)
                if isinstance(consumer, ast.Call) and owner in consumer.args:
                    return _call_func_name(consumer.func) in _SAFE_CONSUMERS
            return False
        return False

    # -------------------------------------------------------- set iteration
    def visit_For(self, node: ast.For, ctx: FileContext) -> None:
        if self._is_set_expr(node.iter, ctx):
            ctx.report(
                self,
                node.iter,
                "for-loop over a set iterates in hash order",
            )

    def _check_generators(self, node, ctx: FileContext, ordered_result: bool) -> None:
        for generator in node.generators:
            if self._is_set_expr(generator.iter, ctx) and ordered_result:
                ctx.report(
                    self,
                    generator.iter,
                    "comprehension over a set builds an ordered result in "
                    "hash order",
                )

    def visit_ListComp(self, node: ast.ListComp, ctx: FileContext) -> None:
        consumer = ctx.parent(node)
        safe = (
            isinstance(consumer, ast.Call)
            and node in consumer.args
            and _call_func_name(consumer.func) in _SAFE_CONSUMERS
        )
        self._check_generators(node, ctx, ordered_result=not safe)

    def visit_GeneratorExp(self, node: ast.GeneratorExp, ctx: FileContext) -> None:
        consumer = ctx.parent(node)
        safe = (
            isinstance(consumer, ast.Call)
            and node in consumer.args
            and _call_func_name(consumer.func) in _SAFE_CONSUMERS
        )
        self._check_generators(node, ctx, ordered_result=not safe)

    def visit_DictComp(self, node: ast.DictComp, ctx: FileContext) -> None:
        self._check_generators(node, ctx, ordered_result=True)


# -------------------------------------------------------------- no-hash-order


class NoHashOrder(Rule):
    """Builtin ``hash()`` output must never shape simulation behaviour."""

    id = "no-hash-order"
    title = "no builtin hash() in simulation decisions"
    contract = (
        "Determinism contract #3 corollary: str/bytes hashes are salted per "
        "process (PYTHONHASHSEED), so hash()-derived keys, buckets or sort "
        "orders diverge between the serial and parallel sweep workers"
    )
    hint = "use a keyed deterministic digest (zlib.crc32, hashlib) instead"

    def applies(self, relpath: str) -> bool:
        return _in_dirs(relpath, SIM_SCOPE)

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        if isinstance(node.func, ast.Name) and node.func.id == "hash":
            ctx.report(
                self,
                node,
                "builtin hash() is process-salted for str/bytes keys",
            )


# ---------------------------------------------------------- wire-type-hygiene

#: Constructor/field names that mean "this message carries variable-size
#: data" and therefore must be priced by a payload_bytes override.
_PAYLOAD_FIELDS = {
    "command",
    "commands",
    "value",
    "values",
    "result",
    "results",
    "responses",
    "inner",
    "accepted",
    "payload",
    "data",
}

_MESSAGE_BASES = {"Message", "OverlayMessage"}


class _ClassInfo:
    __slots__ = ("node", "bases", "has_slots", "has_payload_bytes", "fields")

    def __init__(self, node: ast.ClassDef) -> None:
        self.node = node
        self.bases = [
            base for base in (_dotted_name(b) for b in node.bases) if base
        ]
        self.has_slots = False
        self.has_payload_bytes = False
        self.fields: Set[str] = set()


class WireTypeHygiene(Rule):
    """PR-4 message conventions: hand-slotted, and priced when they carry data."""

    id = "wire-type-hygiene"
    title = "wire types declare __slots__ and price their payloads"
    contract = (
        "PR-4 hot-path rule: every class in a */messages.py is a hand-slotted "
        "plain class; PR-5 sizing rule: a message carrying variable-size data "
        "overrides payload_bytes so SizeModel prices it"
    )
    hint = (
        "add __slots__ (or dataclass(slots=True)); override payload_bytes for "
        "payload-carrying messages"
    )

    def applies(self, relpath: str) -> bool:
        return relpath.endswith("messages.py") or relpath == "net/message.py"

    def begin_file(self, ctx: FileContext) -> None:
        self._classes: Dict[str, _ClassInfo] = {}
        for node in ctx.tree.body if isinstance(ctx.tree, ast.Module) else []:
            if not isinstance(node, ast.ClassDef):
                continue
            info = _ClassInfo(node)
            for decorator in node.decorator_list:
                if isinstance(decorator, ast.Call):
                    if _dotted_name(decorator.func) in ("dataclass", "dataclasses.dataclass"):
                        for keyword in decorator.keywords:
                            if (
                                keyword.arg == "slots"
                                and isinstance(keyword.value, ast.Constant)
                                and keyword.value.value is True
                            ):
                                info.has_slots = True
            for statement in node.body:
                if isinstance(statement, ast.Assign):
                    for target in statement.targets:
                        if isinstance(target, ast.Name) and target.id == "__slots__":
                            info.has_slots = True
                elif isinstance(statement, ast.AnnAssign):
                    if isinstance(statement.target, ast.Name):
                        if statement.target.id == "__slots__":
                            info.has_slots = True
                        else:
                            info.fields.add(statement.target.id)
                elif isinstance(statement, ast.FunctionDef):
                    if statement.name == "payload_bytes":
                        info.has_payload_bytes = True
                    elif statement.name == "__init__":
                        info.fields.update(
                            arg.arg
                            for arg in statement.args.args
                            if arg.arg != "self"
                        )
            self._classes[node.name] = info

    def _is_message(self, name: str, seen: Optional[Set[str]] = None) -> bool:
        if name in _MESSAGE_BASES:
            return True
        seen = seen or set()
        info = self._classes.get(name)
        if info is None or name in seen:
            return False
        seen.add(name)
        return any(self._is_message(base, seen) for base in info.bases)

    def _prices_payload(self, name: str, seen: Optional[Set[str]] = None) -> bool:
        info = self._classes.get(name)
        seen = seen or set()
        if info is None or name in seen:
            return False
        seen.add(name)
        if info.has_payload_bytes:
            return True
        return any(self._prices_payload(base, seen) for base in info.bases)

    def end_file(self, ctx: FileContext) -> None:
        for name, info in self._classes.items():
            if not info.has_slots:
                ctx.report(
                    self,
                    info.node,
                    f"class {name} in a wire-type module has no __slots__",
                )
            if ctx.relpath == "net/message.py":
                continue  # the base classes define the convention itself
            payload_fields = sorted(info.fields & _PAYLOAD_FIELDS)
            if (
                payload_fields
                and self._is_message(name)
                and not self._prices_payload(name)
            ):
                ctx.report(
                    self,
                    info.node,
                    f"message {name} carries {', '.join(payload_fields)} but "
                    f"does not override payload_bytes; SizeModel will price "
                    f"it as header-only",
                )


# ------------------------------------------------ no-frozen-dataclass-hot-path


class NoFrozenDataclassHotPath(Rule):
    """Frozen dataclasses are banned in the hot message/event modules."""

    id = "no-frozen-dataclass-hot-path"
    title = "no frozen dataclasses in message/event modules"
    contract = (
        "PR-4 hot-path rule: per-message/per-event types are hand-slotted "
        "plain classes (immutable by convention); the frozen-dataclass "
        "constructor is ~2.5x slower on the allocation-heavy paths"
    )
    hint = (
        "write a plain __slots__ class; suppress only for types allocated "
        "rarely (e.g. once per leader change)"
    )

    _HOT_MODULES = ("net/message.py", "sim/events.py", "statemachine/command.py")

    def applies(self, relpath: str) -> bool:
        return relpath.endswith("messages.py") or relpath in self._HOT_MODULES

    def visit_ClassDef(self, node: ast.ClassDef, ctx: FileContext) -> None:
        for decorator in node.decorator_list:
            if not isinstance(decorator, ast.Call):
                continue
            if _dotted_name(decorator.func) not in ("dataclass", "dataclasses.dataclass"):
                continue
            for keyword in decorator.keywords:
                if (
                    keyword.arg == "frozen"
                    and isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is True
                ):
                    ctx.report(
                        self,
                        decorator,
                        f"frozen dataclass {node.name} in a hot wire-type module",
                    )


# ------------------------------------------------------------ scenario-hygiene


class ScenarioHygiene(Rule):
    """Every canned scenario must be checkable and hold a liveness floor."""

    id = "scenario-hygiene"
    title = "library scenarios declare checks and a progress floor"
    contract = (
        "Scenario-library convention: every canned Scenario declares its "
        "checker families explicitly and holds a min_completed liveness "
        "floor wired to the progress check, so 'safe but stuck' regressions "
        "cannot slip into the sweep"
    )
    hint = (
        'declare checks=(... , "progress") and a calibrated min_completed '
        "(well below the seed's healthy completion count)"
    )

    def applies(self, relpath: str) -> bool:
        return relpath == "scenarios/library.py"

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        if _call_func_name(node.func) != "Scenario":
            return
        keywords = {kw.arg: kw.value for kw in node.keywords if kw.arg}
        name_node = keywords.get("name")
        label = (
            name_node.value
            if isinstance(name_node, ast.Constant) and isinstance(name_node.value, str)
            else "<scenario>"
        )
        checks = keywords.get("checks")
        if checks is None:
            ctx.report(
                self, node, f"scenario {label} does not declare checks explicitly"
            )
        elif isinstance(checks, (ast.Tuple, ast.List)) and not checks.elts:
            ctx.report(self, node, f"scenario {label} declares empty checks")
        floor = keywords.get("min_completed")
        if floor is None or (
            isinstance(floor, ast.Constant)
            and isinstance(floor.value, int)
            and floor.value <= 0
        ):
            ctx.report(
                self,
                node,
                f"scenario {label} has no positive min_completed liveness floor",
            )
        elif checks is not None and not self._mentions_progress(checks):
            ctx.report(
                self,
                node,
                f"scenario {label} sets min_completed but its checks do not "
                f'visibly include "progress" (floor would be inert)',
            )

    @staticmethod
    def _mentions_progress(checks: ast.AST) -> bool:
        for node in ast.walk(checks):
            if isinstance(node, ast.Constant) and node.value == "progress":
                return True
        return False


# -------------------------------------------------------- counter-name-registry


class CounterNameRegistry(Rule):
    """String-literal metric names must exist in the documented namespace."""

    id = "counter-name-registry"
    title = "metric name literals match the documented counter namespace"
    contract = (
        "Metrics convention: a typo'd counter records to a fresh name and "
        "silently reads as zero; every literal name must appear in "
        "repro/lint/counters.py, which doubles as the namespace doc"
    )
    hint = "fix the typo, or add the new counter to repro/lint/counters.py"

    _REGISTRY_HELPERS = {"counter", "gauge", "histogram"}

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if not node.args or not _is_str_constant(node.args[0]):
            return
        name = node.args[0].value
        if func.attr in self._REGISTRY_HELPERS:
            # Only metric-registry receivers (a name/attribute chain), not
            # arbitrary expressions, to dodge unrelated APIs.
            if not isinstance(func.value, (ast.Name, ast.Attribute)):
                return
            if not is_known_metric(name):
                ctx.report(
                    self,
                    node,
                    f"metric name {name!r} is not in the documented namespace",
                )
        elif func.attr == "count":
            receiver = func.value
            is_replica_call = (
                isinstance(receiver, ast.Name) and receiver.id == "self"
            ) or (isinstance(receiver, ast.Attribute) and receiver.attr == "host")
            if is_replica_call and not is_known_replica_counter(name):
                ctx.report(
                    self,
                    node,
                    f"replica counter {name!r} is not in the documented namespace",
                )


# --------------------------------------------------------- suppression-hygiene


class SuppressionHygiene(Rule):
    """Suppressions must name a real rule, carry a reason, and still match."""

    id = "suppression-hygiene"
    title = "suppression comments are auditable"
    contract = (
        "Suppression policy: # lint: ok(<rule>) <reason> -- the reason is "
        "mandatory, the rule id must exist, and stale suppressions (matching "
        "no finding) are themselves findings"
    )
    hint = "write the reason after the closing paren, or delete the comment"

    def __init__(self, known_rule_ids: Optional[Set[str]] = None) -> None:
        self.known_rule_ids = known_rule_ids or set(RULES)

    def end_file(self, ctx: FileContext) -> None:
        for suppression in ctx.suppressions:
            problems = False
            if not suppression.rules:
                ctx.report_unsuppressable(
                    self, suppression.line, "suppression names no rule id"
                )
                problems = True
            for rule_id in suppression.rules:
                if rule_id not in self.known_rule_ids:
                    ctx.report_unsuppressable(
                        self,
                        suppression.line,
                        f"suppression names unknown rule {rule_id!r}",
                    )
                    problems = True
            if not suppression.reason:
                ctx.report_unsuppressable(
                    self,
                    suppression.line,
                    "suppression has no written reason (reasons are mandatory)",
                )
                problems = True
            if (
                not problems
                and not suppression.used
                and ctx.all_rules_active
                and all(r in ctx.active_rule_ids for r in suppression.rules)
            ):
                ctx.report_unsuppressable(
                    self,
                    suppression.line,
                    "stale suppression: no finding of "
                    f"{', '.join(suppression.rules)} on its target line",
                )


# -------------------------------------------------------------------- parse-error


class ParseError(Rule):
    """Framework rule: the file must parse before anything can be checked.

    Reported by the engine itself when ``ast.parse`` fails; listed here so
    the rule catalogue and ``--rule`` filtering know the id.
    """

    id = "parse-error"
    title = "file does not parse"
    contract = "Framework precondition: repro.lint needs a valid AST"
    hint = "fix the syntax error"


# ------------------------------------------------------------------- registry

#: The rule catalogue, in execution order.  ``suppression-hygiene`` must run
#: last: it audits whether the other rules' suppressions were actually used.
RULES: Dict[str, Type[Rule]] = {
    "no-wall-clock": NoWallClock,
    "no-unseeded-random": NoUnseededRandom,
    "no-unordered-iteration": NoUnorderedIteration,
    "no-hash-order": NoHashOrder,
    "wire-type-hygiene": WireTypeHygiene,
    "no-frozen-dataclass-hot-path": NoFrozenDataclassHotPath,
    "scenario-hygiene": ScenarioHygiene,
    "counter-name-registry": CounterNameRegistry,
    "suppression-hygiene": SuppressionHygiene,
    "parse-error": ParseError,
}


def default_rules(only: Optional[List[str]] = None) -> List[Rule]:
    """Instantiate the rule set, optionally restricted to ``only`` ids."""
    selected = list(RULES) if not only else list(only)
    unknown = [rule_id for rule_id in selected if rule_id not in RULES]
    if unknown:
        raise ValueError(f"unknown rule id(s): {', '.join(unknown)}")
    rules: List[Rule] = []
    for rule_id in selected:
        if rule_id == "suppression-hygiene":
            continue  # appended last, below
        if rule_id == "parse-error":
            continue  # engine-reported, no visitor
        rules.append(RULES[rule_id]())
    if "suppression-hygiene" in selected:
        rules.append(SuppressionHygiene(set(RULES)))
    return rules
