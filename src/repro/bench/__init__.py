"""Benchmark harness.

Turns Scenario runs into the measurements the paper reports: a benchmark
point is a :class:`~repro.scenarios.spec.Scenario` plus a measurement
window (:func:`measure`), latency/throughput curves and maximum throughput
come from client-count sweeps (Figures 7-12), and per-window completion
rates come from a finished run (Figure 13).  Each module in
``benchmarks/`` drives these helpers with the paper's parameters and prints
paper-vs-measured tables.
"""

from repro.bench.results import RunResult, SweepResult
from repro.bench.measurement import completion_rates, latency_throughput_sweep, measure
from repro.bench.plots import ascii_chart, format_table

__all__ = [
    "RunResult",
    "SweepResult",
    "measure",
    "latency_throughput_sweep",
    "completion_rates",
    "ascii_chart",
    "format_table",
]
