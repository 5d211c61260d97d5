"""Fuzz-tier gates: grammar determinism, shrinking, mutation calibration.

The fuzzer's value rests on three properties, each pinned here:

* **Determinism** -- the same fuzz seed regenerates a bit-identical
  ``Scenario``, so any finding is replayable from its seed alone.
* **Shrinking** -- a checker-violating schedule shrinks to a strictly
  smaller scenario that still trips the same checker family, and the
  emitted literal round-trips back into an equal scenario.
* **Calibration** -- with each of the three re-seeded historical EPaxos
  bugs patched in (``repro.fuzz.mutations``), the fleet actually finds a
  violation within a few seeds; a fuzzer that cannot re-find known bugs
  proves nothing when it runs clean.

Plus the parallel sweep contract: ``sweep(..., parallel=N)`` must produce
the same per-scenario fingerprints as the serial path, in the same order.
"""

from __future__ import annotations

import itertools
import json
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro.statemachine.command as command_module
from repro.errors import ConfigurationError
from repro.fuzz import (
    DEFAULT_PROFILE,
    MUTATIONS,
    FuzzProfile,
    apply_mutation,
    generate_scenario,
    run_fleet,
    scenario_literal,
    shrink,
)
from repro.fuzz.shrink import _cost
from repro.scenarios.library import EPAXOS_CHECK_NAMES, get_scenario
from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import Scenario, ScenarioEvent
from repro.scenarios.sweep import SweepOutcome, run_outcome, sweep
from repro.workload.spec import WorkloadSpec

#: Cheapest fuzz seed per mutation whose generated schedule violates a
#: checker under that mutation (epaxos-only profile; found by sweeping
#: seeds from 0 and pinned so the calibration tests stay fast).
CALIBRATION_SEEDS = {
    "vote-dedup": 12,
    "key-index": 1,
    "planner-order": 0,
}

EPAXOS_PROFILE = replace(DEFAULT_PROFILE, protocols=("epaxos",))

#: Every ``[checker, message]`` each calibration run reports, in order.
CALIBRATION_VIOLATIONS = Path(__file__).with_name("calibration_violations.json")


# ---------------------------------------------------------------- grammar
class TestGrammar:
    def test_same_seed_same_schedule(self):
        for seed in (0, 7, 42, 1234, 99999):
            assert generate_scenario(seed) == generate_scenario(seed)

    def test_same_seed_same_literal(self):
        for seed in (3, 42):
            a = scenario_literal(generate_scenario(seed))
            b = scenario_literal(generate_scenario(seed))
            assert a == b

    def test_seeds_generate_distinct_schedules(self):
        schedules = {scenario_literal(generate_scenario(seed)) for seed in range(20)}
        assert len(schedules) > 15  # collisions would mean a broken RNG feed

    def test_many_seeds_build_valid_scenarios(self):
        # Scenario/ScenarioEvent validate on construction, so building is
        # the property; spot-check the profile's promises on top.
        for seed in range(120):
            scenario = generate_scenario(seed)
            assert scenario.protocol in DEFAULT_PROFILE.protocols
            assert 3 <= scenario.num_nodes <= 25
            assert scenario.seed == seed
            assert len(scenario.events) <= DEFAULT_PROFILE.max_events
            for event in scenario.events:
                assert 0 < event.at < scenario.duration

    def test_profile_restricts_protocols(self):
        for seed in range(30):
            assert generate_scenario(seed, EPAXOS_PROFILE).protocol == "epaxos"

    def test_profile_validation(self):
        with pytest.raises(ConfigurationError):
            FuzzProfile(protocols=("raft",))
        with pytest.raises(ConfigurationError):
            FuzzProfile(min_events=5, max_events=2)

    def test_client_timeout_must_be_positive(self):
        # Fuzz-found: client_timeout=None used to crash deep inside the
        # client's timer scheduling instead of failing validation.
        with pytest.raises(ConfigurationError):
            Scenario(name="bad", client_timeout=None)
        with pytest.raises(ConfigurationError):
            Scenario(name="bad", client_timeout=0.0)


# ---------------------------------------------------------------- mutations
class TestMutations:
    def test_unknown_mutation_rejected(self):
        with pytest.raises(KeyError):
            with apply_mutation("no-such-bug"):
                pass

    def test_none_is_noop(self):
        with apply_mutation(None):
            pass

    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_mutations_are_reversible(self, name):
        from repro.epaxos.graph import DependencyGraph
        from repro.epaxos.replica import EPaxosReplica

        before = (
            EPaxosReplica.__dict__["_register_vote"],
            EPaxosReplica.__dict__["_record_key"],
            DependencyGraph.__dict__["execution_order"],
        )
        with apply_mutation(name):
            after = (
                EPaxosReplica.__dict__["_register_vote"],
                EPaxosReplica.__dict__["_record_key"],
                DependencyGraph.__dict__["execution_order"],
            )
            assert after != before  # the patch actually landed
        restored = (
            EPaxosReplica.__dict__["_register_vote"],
            EPaxosReplica.__dict__["_record_key"],
            DependencyGraph.__dict__["execution_order"],
        )
        assert restored == before

    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_fleet_refinds_reseeded_bug(self, name):
        seed = CALIBRATION_SEEDS[name]
        report = run_fleet(
            start_seed=seed,
            count=1,
            profile=EPAXOS_PROFILE,
            mutation=name,
            shrink_findings=False,
        )
        assert len(report.findings) == 1
        assert report.findings[0].checkers  # names the violated checkers

    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_calibration_violation_lists_are_pinned(self, name, monkeypatch):
        """The checkers list exactly the recorded violations, in order.

        Command uids are process-global and some messages quote them, so
        the run starts the uid counter at 1, as a fresh process does.
        """
        monkeypatch.setattr(command_module, "_command_uids", itertools.count(1))
        scenario = generate_scenario(CALIBRATION_SEEDS[name], EPAXOS_PROFILE)
        with apply_mutation(name):
            result = run_scenario(scenario)
        expected = json.loads(CALIBRATION_VIOLATIONS.read_text())[name]
        assert [[v.checker, v.message] for v in result.violations] == expected


# ---------------------------------------------------------------- shrinker
class TestShrinker:
    def test_shrink_requires_a_violation(self):
        clean = get_scenario("epaxos-baseline-5")
        with pytest.raises(ValueError):
            shrink(clean)

    def test_shrink_preserves_checker_and_reduces_cost(self):
        # key-index on its calibration seed: the cheapest real violation.
        seed = CALIBRATION_SEEDS["key-index"]
        scenario = generate_scenario(seed, EPAXOS_PROFILE)
        with apply_mutation("key-index"):
            result = shrink(scenario, max_runs=60)
            still = {v.checker for v in run_scenario(result.shrunk).violations}
        assert still & result.checkers, "shrunk repro stopped violating"
        assert _cost(result.shrunk) < _cost(scenario)
        assert result.runs <= 60
        assert result.shrunk.name == f"{scenario.name}-min"

    def test_shrink_drops_overlay_knobs_one_at_a_time(self, monkeypatch):
        # Seed 16 is pigpaxos with two relay knobs in one overlay override.
        # A stand-in run that "violates" while relay_timeout is set must
        # keep that knob and shed group_response_threshold on its own.
        scenario = generate_scenario(16)
        assert set(scenario.config_overrides["overlay"]) == {
            "kind", "relay_timeout", "group_response_threshold"}

        def fake_run(candidate):
            overlay = (candidate.config_overrides or {}).get("overlay") or {}
            violations = [SimpleNamespace(checker="progress")] if "relay_timeout" in overlay else []
            return SimpleNamespace(violations=violations)

        monkeypatch.setattr(sys.modules["repro.fuzz.shrink"], "run_scenario", fake_run)
        result = shrink(scenario, max_runs=200)
        assert result.shrunk.config_overrides == {
            "overlay": {"kind": "relay", "relay_timeout": 0.02}}
        assert "drop overlay 'group_response_threshold'" in result.steps

    def test_shrink_is_deterministic(self):
        seed = CALIBRATION_SEEDS["planner-order"]
        scenario = generate_scenario(seed, EPAXOS_PROFILE)
        with apply_mutation("planner-order"):
            a = shrink(scenario, max_runs=40)
            b = shrink(scenario, max_runs=40)
        assert a.shrunk == b.shrunk
        assert a.steps == b.steps


# ---------------------------------------------------------------- literal
class TestScenarioLiteral:
    def _roundtrip(self, scenario):
        source = scenario_literal(scenario)
        namespace = {
            "Scenario": Scenario,
            "E": ScenarioEvent,
            "WorkloadSpec": WorkloadSpec,
            "EPAXOS_CHECK_NAMES": EPAXOS_CHECK_NAMES,
        }
        return eval(source, namespace)  # noqa: S307 - our own emitted source

    @pytest.mark.parametrize("seed", [0, 1, 12, 42, 77, 1234])
    def test_fuzzed_scenarios_round_trip(self, seed):
        scenario = generate_scenario(seed)
        assert self._roundtrip(scenario) == scenario

    def test_library_scenario_round_trips(self):
        scenario = get_scenario("epaxos-even-cluster-retry")
        assert self._roundtrip(scenario) == scenario


# ---------------------------------------------------------------- regression
class TestFuzzFoundRegressions:
    def test_even_cluster_retry_repro_passes(self):
        # The shrunk seed-42 repro: even-cluster fast quorums + WAN client
        # retries.  Green only because FastQuorum floors the fast path at
        # a majority; see test_quorum.py for the size-level pin.
        result = run_scenario(get_scenario("epaxos-even-cluster-retry"))
        assert result.ok, result.violations
        assert result.completed_requests >= 10

    def test_deposed_leader_phantom_read_repro_passes(self):
        # The shrunk fleet-seed-257 repro: a deposed PigPaxos leader whose
        # slot was NoOp-filled by the takeover must not acknowledge the
        # orphaned client command with the NoOp's empty result.
        result = run_scenario(get_scenario("pig-deposed-leader-phantom-read"))
        assert result.ok, result.violations
        assert result.completed_requests >= 40

    def test_region_partition_recovery_repro_passes(self):
        # The shrunk fleet-seed-462 repro: explicit-prepare recovery under a
        # region partition must respect latest-per-origin deps semantics in
        # its fast-commit disproof.
        result = run_scenario(get_scenario("epaxos-region-partition-recovery"))
        assert result.ok, result.violations
        assert result.completed_requests >= 10


# ---------------------------------------------------------------- replay
#: Run fingerprints of fuzz seeds 7-16, recorded before the PigPaxos replica
#: class and its config type were folded into the paxos replica plus the
#: ``"pigpaxos"`` preset.  Seeds 7, 9 and 16 are pigpaxos runs whose
#: relay_timeout / group_response_threshold / relay_levels draws now land
#: in an ``{"overlay": {"kind": "relay", ...}}`` override, so these pin both
#: the grammar's draw order and the preset's behaviour, byte for byte.
REPLAY_FINGERPRINTS = {
    7: "de9d5d7e822cff1f0b44a5ef253c2e8fffd87b48eb68098f230f299017d35105",
    8: "b11d0d8577c625820678fae69861daf748bd1115c43b298cd994772eed3adbbb",
    9: "6f1222d41d3ecd723d86967e5d741859fff9795cd819f93275040963e8f03f48",
    10: "3dee8d4a0d0baba3c2f194534d4d6c22c8a9341882b2a46fb4f49de9039828e5",
    11: "ab36910dfa5f0b8128e47cf37626b6ee8751ceadded1758a49db489ec176e6df",
    12: "8641966e1618918df69273e54a2b1278f262c3c871adecf3d9c0997cfdfd83ba",
    13: "a2046bec7567e1e0364f117485a48e7bf61786549d34773ed2362103bceb8b4f",
    14: "c3eb707386ae0783717eb51753c1c8f3a2202aa0ece1f1ce6616daff7968355b",
    15: "58185c904fe91b161040791acf2a55175ce5db91673bb3e553795b55f7663ed9",
    16: "e31368222358c77b755b782c0dc5f4454b580ef1486385a939f9389c13dac189",
}


class TestSeedReplay:
    def test_window_holds_tuned_pigpaxos_seeds(self):
        relay_knobs = {"relay_timeout", "group_response_threshold", "relay_levels"}
        tuned = []
        for seed in REPLAY_FINGERPRINTS:
            scenario = generate_scenario(seed)
            overlay = (scenario.config_overrides or {}).get("overlay", {})
            if scenario.protocol == "pigpaxos" and relay_knobs & set(overlay):
                tuned.append(seed)
        assert tuned == [7, 9, 16]

    @pytest.mark.parametrize("seed", sorted(REPLAY_FINGERPRINTS))
    def test_seed_replays_its_recorded_fingerprint(self, seed):
        outcome = run_outcome(generate_scenario(seed))
        assert outcome.ok, outcome.violations
        assert outcome.fingerprint == REPLAY_FINGERPRINTS[seed]


# ---------------------------------------------------------------- parallel
class TestParallelSweep:
    NAMES = ("pig-lossy-background", "epaxos-thrifty-severed-links",
             "epaxos-drop-storm")

    def test_parallel_matches_serial(self):
        scenarios = [get_scenario(name) for name in self.NAMES]
        serial = sweep(scenarios)
        parallel = sweep(scenarios, parallel=2)
        assert [o.name for o in parallel] == [o.name for o in serial]
        assert [o.fingerprint for o in parallel] == [o.fingerprint for o in serial]
        assert all(o.ok for o in parallel)

    def test_outcome_is_picklable(self):
        import pickle

        outcome = run_outcome(get_scenario("pig-lossy-background"))
        clone = pickle.loads(pickle.dumps(outcome))
        assert clone == outcome
        assert isinstance(clone, SweepOutcome)
