"""Command-line front end for the scenario engine.

Used by CI for smoke runs and by developers to replay a scenario::

    PYTHONPATH=src python -m repro.scenarios --list
    PYTHONPATH=src python -m repro.scenarios --run pig-baseline-5 [--seed 7]
    PYTHONPATH=src python -m repro.scenarios --all [--protocol epaxos]
    PYTHONPATH=src python -m repro.scenarios --smoke --parallel 4
    PYTHONPATH=src python -m repro.scenarios --smoke --sharded --parallel 0

``--protocol`` filters ``--list``/``--all``/``--smoke`` to one protocol so a
protocol-specific sweep is one flag; ``--sharded`` restricts to the
multi-group scenarios (with ``--smoke``, the sharded smoke subset --
CI's cross-shard correctness step).  ``--parallel N`` fans a sweep out to
``N`` worker processes (``--parallel 0`` = one per core); runs stay
single-core deterministic, so results and fingerprints are identical to the
serial sweep -- only wall-clock changes.  Exit status is non-zero when any
checker reports a violation.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from repro.protocol.registry import PROTOCOLS
from repro.scenarios.library import (
    SHARDED_SMOKE_SCENARIOS,
    SMOKE_SCENARIOS,
    all_scenarios,
    get_scenario,
    scenarios_for_protocol,
)
from repro.scenarios.runner import run_scenario
from repro.scenarios.sweep import sweep


def _run_one(scenario, verbose: bool = True) -> bool:
    result = run_scenario(scenario)
    print(result.summary())
    if verbose and result.events_fired:
        for line in result.events_fired:
            print(f"    fault: {line}")
    for violation in result.violations:
        print(f"    {violation}")
    return result.ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro.scenarios", description=__doc__)
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--list", action="store_true", help="list canned scenarios")
    group.add_argument("--run", metavar="NAME", help="run one canned scenario")
    group.add_argument("--all", action="store_true", help="run every canned scenario")
    group.add_argument("--smoke", action="store_true", help="run the CI smoke subset")
    parser.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    parser.add_argument(
        "--protocol", choices=PROTOCOLS, default=None,
        help="restrict --list/--all/--smoke to one protocol's scenarios",
    )
    parser.add_argument(
        "--parallel", type=int, default=None, metavar="N",
        help="run --all/--smoke sweeps across N worker processes "
             "(0 = one per core); per-scenario results are identical to "
             "the serial sweep",
    )
    parser.add_argument(
        "--sharded", action="store_true",
        help="restrict --list/--all to multi-group scenarios (shards > 1); "
             "with --smoke, run the sharded smoke subset instead",
    )
    args = parser.parse_args(argv)

    selected = (
        scenarios_for_protocol(args.protocol) if args.protocol else all_scenarios()
    )
    if args.sharded:
        selected = {
            name: scenario
            for name, scenario in selected.items()
            if scenario.shards > 1
        }

    if args.list:
        for name, scenario in sorted(selected.items()):
            print(f"{name:36s} [{scenario.protocol}] {scenario.description}")
        return 0

    if args.run:
        try:
            scenario = get_scenario(args.run)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        if args.protocol is not None and scenario.protocol != args.protocol:
            print(
                f"error: scenario {args.run!r} is protocol "
                f"{scenario.protocol!r}, not {args.protocol!r}",
                file=sys.stderr,
            )
            return 2
        if args.seed is not None:
            scenario = replace(scenario, seed=args.seed)
        return 0 if _run_one(scenario) else 1

    if args.smoke:
        names = SHARDED_SMOKE_SCENARIOS if args.sharded else SMOKE_SCENARIOS
    else:
        names = sorted(selected)
    names = [name for name in names if name in selected]
    if not names:
        subset = "smoke scenarios" if args.smoke else "scenarios"
        qualifier = " (sharded)" if args.sharded else ""
        print(
            f"error: no {subset}{qualifier} for protocol {args.protocol!r}",
            file=sys.stderr,
        )
        return 2
    scenarios = [get_scenario(name) for name in names]
    if args.seed is not None:
        scenarios = [replace(s, seed=args.seed) for s in scenarios]
    outcomes = sweep(scenarios, parallel=args.parallel)
    ok = True
    for outcome in outcomes:
        print(outcome.summary())
        for _, message in outcome.violations:
            print(f"    {message}")
        ok = ok and outcome.ok
    print("ALL OK" if ok else "VIOLATIONS FOUND")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
