"""The one place a protocol name and a config become a replica.

Every front end -- :class:`~repro.cluster.builder.ClusterBuilder`, the
scenario runner and the asyncio :class:`~repro.runtime.harness.LocalCluster`
-- builds replicas through :func:`replica_factory`, so each protocol has one
config surface (:class:`~repro.protocol.config.ProtocolConfig`) and one set
of rules about which of its fields it consumes.

PigPaxos is not a replica class of its own: it is Multi-Paxos hosting a
relay overlay with the Figure 5b leader round retry switched on.  The
``"pigpaxos"`` preset supplies exactly those two defaults
(``overlay=OverlayConfig(kind="relay")``, ``leader_retry_timeout=0.15``)
and refuses any other overlay kind; ``"paxos"`` with a relay overlay is the
same replica without the retry.

Example::

    from repro.protocol.config import ProtocolConfig
    from repro.protocol.registry import replica_factory

    build = replica_factory("pigpaxos", ProtocolConfig(batch_max_commands=8))
    replicas = [build() for _ in range(5)]
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Dict, FrozenSet, Optional, Tuple

from repro.epaxos.replica import EPaxosReplica
from repro.errors import ConfigurationError
from repro.overlay.config import OVERLAY_KINDS, OverlayConfig, build_overlay
from repro.paxos.replica import MultiPaxosReplica
from repro.protocol.config import ProtocolConfig

_DEFAULTS = ProtocolConfig()
_FIELDS = tuple(f.name for f in fields(ProtocolConfig))

#: The Paxos family consumes every field except the EPaxos recovery knob.
_PAXOS_KNOBS = frozenset(_FIELDS) - {"recovery_timeout"}

_EPAXOS_KNOBS = frozenset(
    {
        "session_window",
        "overlay",
        "recovery_timeout",
        "leader_retry_timeout",
        "batch_max_commands",
        "batch_max_delay",
        "pipeline_depth",
    }
)


@dataclass(frozen=True)
class ProtocolSpec:
    """What one protocol name means.

    Attributes:
        knobs: The :class:`ProtocolConfig` fields the replica consumes; any
            other field must be left unset.
        overlay_kinds: The overlay kinds the protocol accepts.
        preset: ``(field, default)`` pairs filled into fields the caller
            left unset.
        leaderless: True for EPaxos: no ``initial_leader``, clients pick
            random targets.
    """

    knobs: FrozenSet[str]
    overlay_kinds: Tuple[str, ...] = OVERLAY_KINDS
    preset: Tuple[Tuple[str, object], ...] = ()
    leaderless: bool = False


SPECS: Dict[str, ProtocolSpec] = {
    "paxos": ProtocolSpec(_PAXOS_KNOBS),
    "pigpaxos": ProtocolSpec(
        _PAXOS_KNOBS,
        overlay_kinds=("relay",),
        preset=(("overlay", OverlayConfig(kind="relay")), ("leader_retry_timeout", 0.15)),
    ),
    "epaxos": ProtocolSpec(_EPAXOS_KNOBS, leaderless=True),
}

#: Every protocol name the stack can build.
PROTOCOLS = tuple(SPECS)


def protocol_spec(protocol: str) -> ProtocolSpec:
    """The :class:`ProtocolSpec` of ``protocol``; unknown names are refused."""
    spec = SPECS.get(protocol)
    if spec is None:
        raise ConfigurationError(f"unknown protocol {protocol!r}; expected one of {PROTOCOLS}")
    return spec


def _unset(name: str, value: object) -> bool:
    # The shared class default counts as unset -- DEFAULT_RECOVERY_TIMEOUT
    # included -- and recovery_timeout=None (recovery off) is what a
    # protocol without recovery does anyway.
    return value == getattr(_DEFAULTS, name) or (name == "recovery_timeout" and value is None)


def resolve_config(
    protocol: str,
    config: Optional[ProtocolConfig] = None,
    overlay: Optional[OverlayConfig] = None,
    relay_groups: Optional[int] = None,
    use_region_groups: bool = False,
) -> ProtocolConfig:
    """Validate ``config`` for ``protocol`` and fill in its preset.

    ``overlay`` (a builder-level choice) takes precedence over
    ``config.overlay``.  ``relay_groups``/``use_region_groups`` are the
    front ends' shortcuts for the relay overlay's ``num_groups`` and
    ``use_region_groups``; any other overlay refuses them.  Never mutates
    ``config``; returns it unchanged when nothing needed filling in.

    ``pigpaxos`` always retries: ``leader_retry_timeout=None`` is the unset
    value, so the preset's 0.15 s fills it in.  The no-retry form is
    ``paxos`` with a relay overlay.
    """
    spec = protocol_spec(protocol)
    config = config if config is not None else ProtocolConfig()
    ignored = [
        name
        for name in _FIELDS
        if name not in spec.knobs and not _unset(name, getattr(config, name))
    ]
    if ignored:
        raise ConfigurationError(
            f"{protocol} does not consume {', '.join(ignored)}; "
            "it would silently ignore them"
        )
    changes: Dict[str, object] = {}
    if overlay is not None and overlay != config.overlay:
        changes["overlay"] = overlay
    for name, value in spec.preset:
        if _unset(name, changes.get(name, getattr(config, name))):
            changes[name] = value
    overlay = changes.get("overlay", config.overlay)
    kind = overlay.kind if overlay is not None else "direct"
    if kind not in spec.overlay_kinds:
        raise ConfigurationError(
            f"{protocol} takes a {' or '.join(spec.overlay_kinds)} overlay, not {kind!r}"
        )
    if relay_groups is not None or use_region_groups:
        if kind != "relay":
            raise ConfigurationError(
                f"relay_groups/use_region_groups need a relay overlay, not {kind!r}"
            )
        changes["overlay"] = overlay = replace(
            overlay,
            num_groups=overlay.num_groups if relay_groups is None else relay_groups,
            use_region_groups=overlay.use_region_groups or use_region_groups,
        )
    if changes:
        config = replace(config, **changes)
    if (
        kind == "relay"
        and config.leader_retry_timeout is not None
        and config.leader_retry_timeout <= overlay.relay_timeout
    ):
        raise ConfigurationError(
            "leader_retry_timeout must exceed relay_timeout, otherwise the leader "
            "retries before relays have had a chance to flush"
        )
    return config


def replica_factory(
    protocol: str,
    config: Optional[ProtocolConfig] = None,
    overlay: Optional[OverlayConfig] = None,
    relay_groups: Optional[int] = None,
    use_region_groups: bool = False,
):
    """Resolve ``config`` for ``protocol`` once; return a replica constructor.

    The arguments are those of :func:`resolve_config`; the resolved config
    is exposed as ``build.config``.  The returned
    ``build(initial_leader=None, region_of=None, zone_of=None)`` makes one
    fresh replica per call (overlays hold per-node state).
    ``initial_leader`` overrides the config's bootstrap leader (sharded
    groups spread theirs round-robin); leaderless protocols ignore it.
    ``region_of``/``zone_of`` feed a relay overlay's topology-aligned
    groups.
    """
    spec = protocol_spec(protocol)
    config = resolve_config(protocol, config, overlay, relay_groups, use_region_groups)

    def build(
        initial_leader: Optional[int] = None,
        region_of: Optional[Dict[int, str]] = None,
        zone_of: Optional[Dict[int, str]] = None,
    ):
        overlay = build_overlay(config.overlay, region_of=region_of, zone_of=zone_of)
        if spec.leaderless:
            return EPaxosReplica(
                session_window=config.session_window,
                overlay=overlay,
                recovery_timeout=config.recovery_timeout,
                leader_retry_timeout=config.leader_retry_timeout,
                batch_max_commands=config.batch_max_commands,
                batch_max_delay=config.batch_max_delay,
                pipeline_depth=config.pipeline_depth,
            )
        replica_config = config
        if initial_leader is not None:
            replica_config = replace(config, initial_leader=initial_leader)
        return MultiPaxosReplica(config=replica_config, overlay=overlay)

    build.config = config
    return build
