"""Tests for the benchmark harness: results, measurement windows, sweeps, rates, plots."""

from __future__ import annotations

import json

import pytest

from repro.bench import completion_rates, latency_throughput_sweep, measure
from repro.bench.measurement import COOLDOWN
from repro.bench.plots import ascii_chart, format_table
from repro.bench.results import RunResult, SweepResult
from repro.errors import BenchmarkError
from repro.scenarios import Scenario, ScenarioEvent, run_scenario
from repro.workload.spec import WorkloadSpec


def _point(workload: WorkloadSpec, **fields) -> Scenario:
    """A benchmark point: no checkers, only the measurement matters."""
    return Scenario(name="bench-point", workload=workload, checks=(), **fields)


def _result(throughput: float, latency: float = 0.002, clients: int = 10) -> RunResult:
    return RunResult(
        protocol="paxos",
        num_nodes=5,
        num_clients=clients,
        duration=1.0,
        measured_window=0.8,
        completed_requests=int(throughput * 0.8),
        throughput=throughput,
        latency_mean=latency,
        latency_p50=latency,
        latency_p95=latency * 1.5,
        latency_p99=latency * 2,
        latency_max=latency * 3,
    )


class TestResults:
    def test_run_result_serialization(self):
        result = _result(1000.0)
        data = result.to_dict()
        assert data["throughput"] == 1000.0
        assert data["latency_p99_ms"] == pytest.approx(4.0)
        json.loads(result.to_json())  # valid JSON

    def test_sweep_series_and_max(self):
        sweep = SweepResult(label="test")
        for throughput, latency in [(100, 0.001), (500, 0.002), (480, 0.01)]:
            sweep.add(_result(throughput, latency))
        assert sweep.max_throughput() == 500
        assert sweep.best_run().throughput == 500
        series = sweep.latency_throughput_series()
        assert series[0] == (100, 1.0)
        assert len(series) == 3

    def test_saturation_run_respects_latency_budget(self):
        sweep = SweepResult(label="test")
        sweep.add(_result(500, 0.002))
        sweep.add(_result(900, 0.050))
        assert sweep.saturation_run(latency_budget_ms=10).throughput == 500
        assert sweep.saturation_run().throughput == 900

    def test_unknown_percentile_rejected(self):
        sweep = SweepResult(label="test")
        sweep.add(_result(100))
        with pytest.raises(ValueError):
            sweep.latency_throughput_series(percentile="p75")


class TestMeasure:
    def test_measure_produces_throughput_and_latency(self, tiny_workload):
        point = _point(tiny_workload, protocol="paxos", num_nodes=3, num_clients=4,
                       duration=0.4, seed=2)
        result = measure(run_scenario(point), warmup=0.1)
        assert result.completed_requests > 0
        assert result.throughput > 0
        assert 0 < result.latency_mean < 0.1
        assert result.latency_p99 >= result.latency_p50

    def test_invalid_window_rejected(self, tiny_workload):
        point = _point(tiny_workload, protocol="paxos", num_nodes=3, num_clients=1,
                       duration=0.2, seed=2)
        with pytest.raises(BenchmarkError):
            measure(run_scenario(point), warmup=0.2)

    def test_window_ends_a_cooldown_before_the_run(self, tiny_workload):
        point = _point(tiny_workload, protocol="paxos", num_nodes=3, num_clients=4,
                       duration=0.4, seed=2)
        result = run_scenario(point)
        measured = measure(result, warmup=0.1)
        assert measured.measured_window == 0.4 - COOLDOWN - 0.1
        after_warmup = sum(len(client.stats.latencies(0.1)) for client in result.cluster.clients)
        assert 0 < measured.completed_requests < after_warmup

    def test_relay_groups_recorded_in_extra(self, tiny_workload):
        point = _point(tiny_workload, protocol="pigpaxos", num_nodes=5, num_clients=2,
                       relay_groups=2, duration=0.4, seed=2)
        result = measure(run_scenario(point), warmup=0.1)
        assert result.extra["relay_groups"] == 2

    def test_same_seed_reproducible(self, tiny_workload):
        point = _point(tiny_workload, protocol="pigpaxos", num_nodes=5, num_clients=3,
                       relay_groups=2, duration=0.4, seed=7)
        first = measure(run_scenario(point), warmup=0.1)
        assert first.throughput == measure(run_scenario(point), warmup=0.1).throughput

    def test_fault_events_flow_through(self, tiny_workload):
        point = _point(tiny_workload, protocol="paxos", num_nodes=3, num_clients=2,
                       duration=0.4, seed=2, events=(ScenarioEvent.crash(0.1, 2),))
        result = measure(run_scenario(point), warmup=0.1)
        assert result.completed_requests > 0  # majority still alive

    def test_point_without_checks_records_no_history(self, tiny_workload):
        point = _point(tiny_workload, protocol="paxos", num_nodes=3, num_clients=2,
                       duration=0.2, seed=2)
        result = run_scenario(point)
        assert result.completed_requests > 0
        assert len(result.history) == 0

    def test_reproduces_the_retired_experiment_runner(self):
        # Recorded from the experiment runner this measurement window
        # replaced, on the same point: 5-node PigPaxos, 2 relay groups,
        # 10 clients, the paper's workload, seed 2, window [0.1, 0.35].
        point = _point(WorkloadSpec.paper_default(), protocol="pigpaxos", num_nodes=5,
                       num_clients=10, relay_groups=2, duration=0.4, seed=2)
        result = measure(run_scenario(point), warmup=0.1)
        assert result.completed_requests == 1367
        assert result.throughput == 5468.0
        assert result.latency_p50 == 0.0018243468854843292
        assert result.latency_p99 == 0.0021257536498012087


class TestSweeps:
    def test_latency_throughput_sweep_runs_each_point(self, tiny_workload):
        point = _point(tiny_workload, protocol="paxos", num_nodes=3, duration=0.3, seed=2)
        sweep = latency_throughput_sweep(point, [1, 2, 4], warmup=0.1)
        assert len(sweep) == 3
        assert [run.num_clients for run in sweep] == [1, 2, 4]

    def test_throughput_grows_then_saturates(self, tiny_workload):
        point = _point(tiny_workload, protocol="paxos", num_nodes=3, duration=0.3, seed=2)
        sweep = latency_throughput_sweep(point, [1, 8], warmup=0.1)
        assert sweep.runs[1].throughput > sweep.runs[0].throughput

    def test_best_run_is_the_maximum_throughput(self, tiny_workload):
        point = _point(tiny_workload, protocol="paxos", num_nodes=3, duration=0.3, seed=2)
        sweep = latency_throughput_sweep(point, [1, 4, 8], warmup=0.1)
        assert sweep.best_run().throughput == sweep.max_throughput()


class TestCompletionRates:
    def test_completion_rates_cover_run(self, tiny_workload):
        point = _point(tiny_workload, protocol="paxos", num_nodes=3, num_clients=4,
                       duration=1.0, seed=2)
        result = run_scenario(point)
        series = completion_rates(result, interval=0.25)
        assert len(series) == 4
        assert sum(rate * 0.25 for _, rate in series) == result.completed_requests
        assert sum(rate for _, rate in series[1:]) > 0

    def test_crash_window_rates_match_the_retired_time_series(self):
        # Recorded from the per-completion ``client.completions`` time
        # series the clients used to keep, registered before the run at a
        # 0.1 s interval: 9-node PigPaxos, 3 relay groups, node 4 down
        # over [0.3, 0.6).
        point = _point(WorkloadSpec.paper_default(), protocol="pigpaxos", num_nodes=9,
                       num_clients=10, relay_groups=3, duration=1.0, seed=21,
                       events=(ScenarioEvent.crash(0.3, 4), ScenarioEvent.recover(0.6, 4)))
        recorded = [2440.0, 5080.0, 5100.0, 5000.0, 4900.0, 4900.0, 5200.0, 5100.0, 5100.0]
        assert completion_rates(run_scenario(point), interval=0.1) == [
            (window * 0.1, rate) for window, rate in enumerate(recorded)
        ]

    def test_trailing_partial_window_dropped(self, tiny_workload):
        point = _point(tiny_workload, protocol="paxos", num_nodes=3, num_clients=2,
                       duration=1.0, seed=2)
        series = completion_rates(run_scenario(point), interval=0.3)
        assert [start for start, _ in series] == pytest.approx([0.0, 0.3, 0.6])

    def test_non_positive_interval_rejected(self, tiny_workload):
        point = _point(tiny_workload, protocol="paxos", num_nodes=3, num_clients=1,
                       duration=0.2, seed=2)
        with pytest.raises(BenchmarkError):
            completion_rates(run_scenario(point), interval=0.0)


class TestPlots:
    def test_format_table_aligns_columns(self):
        table = format_table(["name", "value"], [["paxos", 2000.0], ["pigpaxos", 7000.0]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert "paxos" in lines[2] and "pigpaxos" in lines[3]

    def test_ascii_chart_renders_series(self):
        chart = ascii_chart({"paxos": [(0, 1), (10, 2)], "pig": [(0, 1.5), (10, 1.6)]},
                            width=20, height=5)
        assert "legend" in chart
        assert "*" in chart and "o" in chart

    def test_ascii_chart_empty(self):
        assert ascii_chart({}) == "(no data)"
