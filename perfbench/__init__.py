"""The repository benchmark: three closed-loop workloads run end to end.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload from the checkout root.  The workloads
and why each exists are in :mod:`perfbench.workloads`; see
``perfbench/ledger.json`` for the loop model, the per-layer predictions,
known checker limits and the exact per-op counts recorded for seeds 1-3.
"""
