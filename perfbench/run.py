"""Run one benchmark workload and print its metrics.

Usage, from the checkout root::

    python3 perfbench/run.py --workload pig25-saturated --seed 1 --seconds 30 --trace 0

A run repeats one pass -- build, ``Simulator.run``, checkers -- on the
workload's scenario for the seed, starting another pass only while one
more still fits in ``--seconds`` (at least one pass).  Every pass must
reproduce the first one's fingerprint and pass every checker; otherwise
the run exits 1.  ``--trace 0`` reports the end-to-end metrics
(:mod:`perfbench.endtoend`), ``--trace 1`` the per-layer ones
(:mod:`perfbench.layers`).  Wall times are scaled to a reference machine
speed (:mod:`perfbench.calibrate`).

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``,
where ``attempted`` counts client requests issued and ``failed`` those a
client abandoned.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _emit(correct, totals, metrics):
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": totals["issued"],
                "failed": totals["abandoned"],
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no source tree at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if args.trace:
        from perfbench.layers import measure_layers as measure_run
    else:
        from perfbench.endtoend import measure as measure_run
    correct, totals, metrics = measure_run(workload, args.seed, args.seconds)
    _emit(correct, totals, metrics)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
