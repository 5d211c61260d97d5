"""Rewrite the ``counts`` section of ``perfbench/ledger.json``.

Usage, from the checkout root::

    PYTHONPATH=src python3 perfbench/record.py [--seeds 1 2 3]

``counts`` holds the exact per-op counts of one traced run per workload
and seed.  The hand-written sections (``loop_model``, ``predictions``,
``known_limits``) are kept as they are; the workloads' parameters live in
:data:`perfbench.workloads.WORKLOADS` only.  A later change that moves a
count shows as a diff of this file and in the ``counts vs ledger.json``
line of ``run.py --trace 1`` output.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LEDGER = Path(__file__).with_name("ledger.json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.layers import EXACT, measure_layers
    from perfbench.workloads import WORKLOADS

    ledger = json.loads(LEDGER.read_text())
    counts = {}
    for name, workload in WORKLOADS.items():
        counts[name] = {}
        for seed in args.seeds:
            with contextlib.redirect_stdout(io.StringIO()) as report:
                correct, _, metrics = measure_layers(workload, seed, 0.001)
            if not correct:
                print(report.getvalue())
                print(f"error: {name} seed {seed} failed; ledger not written", file=sys.stderr)
                return 1
            counts[name][str(seed)] = {metric: metrics[metric][0] for metric in EXACT}
            print(f"recorded {name} seed {seed}")
    ledger["counts"] = counts
    LEDGER.write_text(json.dumps(ledger, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
