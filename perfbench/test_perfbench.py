"""Tests of the benchmark's own arithmetic, tracing and workloads.

Run from the checkout root with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from perfbench import stats
from perfbench.endtoend import END_TO_END, measure
from perfbench.layers import PER_LAYER, measure_layers
from perfbench.trace import Tracer
from perfbench.workloads import WORKLOADS, failures, run_once
from repro.checkers import Violation
from repro.scenarios import ScenarioRunner

#: Short virtual durations that still leave completions after warm-up.
SMOKE_DURATION = {"pig25-saturated": 0.06, "epaxos5-hotkeys": 0.2, "pig7-leader-crash": 0.6}


# ------------------------------------------------------------------ arithmetic
def test_percentile_interpolates_and_counts_the_tail():
    values = [float(v) for v in range(100, 0, -1)]
    assert stats.percentile(values, 50.0) == pytest.approx(50.5)
    assert stats.percentile(values, 99.0) == pytest.approx(99.01)
    assert stats.percentile([7.0], 99.0) == 7.0
    assert stats.samples_beyond(100, 99.0) == 1
    assert stats.samples_beyond(2744, 99.0) == 28
    assert stats.samples_beyond(0, 99.0) == 0
    with pytest.raises(ValueError):
        stats.percentile([], 50.0)


def test_longest_gap_counts_window_edges_and_ignores_outside_events():
    assert stats.longest_gap([0.5, 0.6, 1.5], 0.2, 2.0) == pytest.approx(0.9)
    # The edges bound a gap: nothing happens from 1.5 to the end at 3.0.
    assert stats.longest_gap([0.5, 1.5], 0.2, 3.0) == pytest.approx(1.5)
    assert stats.longest_gap([0.1, 5.0], 1.0, 2.0) == pytest.approx(1.0)
    assert stats.longest_gap([], 1.0, 1.25) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        stats.longest_gap([], 2.0, 1.0)


def test_failed_frac_is_retries_per_issued_request():
    assert stats.failed_frac(117, 16868) == pytest.approx(117 / 16868)
    assert stats.failed_frac(0, 10) == 0.0
    with pytest.raises(ValueError):
        stats.failed_frac(1, 0)


def test_self_times_subtract_direct_children_only():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a.inner", 2.0, 3.0, 1),
        ("b", 5.0, 6.0, 0),
    ]
    assert stats.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


# --------------------------------------------------------------------- tracing
class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_tracer_self_time_matches_stored_span_arithmetic():
    clock = _FakeClock()
    tracer = Tracer(clock=clock)

    def work(seconds, *children):
        clock.now += seconds
        for key, child_args in children:
            tracer.call(key, work, *child_args)
        clock.now += seconds

    # root (1+1) > a (1.5+1.5) > a.inner (0.5+0.5), then b (0.5+0.5)
    tracer.call(
        ("sim", "run"),
        work,
        1.0,
        (("paxos", "a"), (1.5, (("net", "send"), (0.5,)))),
        (("paxos", "b"), (0.5,)),
    )
    spans = [
        ("root", 0.0, 7.0, -1),
        ("a", 1.0, 5.0, 0),
        ("a.inner", 2.5, 3.5, 1),
        ("b", 5.0, 6.0, 0),
    ]
    root, a, inner, b = stats.self_times(spans)
    assert tracer.self_s[("sim", "run")] == pytest.approx(root)
    assert tracer.self_s[("paxos", "a")] == pytest.approx(a)
    assert tracer.self_s[("net", "send")] == pytest.approx(inner)
    assert tracer.self_s[("paxos", "b")] == pytest.approx(b)
    assert tracer.calls[("paxos", "a")] == tracer.calls[("paxos", "b")] == 1


def test_tracer_wraps_inherited_methods_and_restores_them():
    class Base:
        def ping(self, value):
            return value + 1

        def idle(self):
            return None

    class Child(Base):
        pass

    tracer = Tracer()
    tracer.wrap(Child, "ping", lambda args: ("workload", type(args[1]).__name__))
    tracer.wrap(Base, "idle", lambda args: ("workload", "idle"))
    assert Child().ping(1) == 2
    assert tracer.boundary_calls == {"Child.ping": 1, "Base.idle": 0}
    assert tracer.calls[("workload", "int")] == 1
    assert tracer.silent_boundaries() == ["Base.idle"]
    tracer.reset()
    assert tracer.boundary_calls["Child.ping"] == 0 and not tracer.calls
    tracer.unwrap_all()
    assert "ping" not in Child.__dict__
    assert Child.idle is Base.__dict__["idle"]


def test_aborted_linearizability_search_is_a_failure():
    result = SimpleNamespace(
        violations=[
            Violation(
                checker="linearizability",
                message="history of key 'k1' is not linearizable: search aborted "
                "after 2000000 states (history too concurrent to decide)",
            ),
            Violation(checker="slot_agreement", message="slot 3 chose two values"),
        ]
    )
    reasons = failures(result)
    assert reasons[0].startswith("aborted search: [linearizability]")
    assert reasons[1].startswith("violation: [slot_agreement]")


# ------------------------------------------------------------------ workloads
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_benchmark_pass_is_the_scenario_runner_run(name):
    scenario = WORKLOADS[name].scenario(1, SMOKE_DURATION[name])
    done = run_once(scenario)
    assert done.result.ok, done.result.violations
    assert done.result.fingerprint() == ScenarioRunner(scenario).run().fingerprint()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_reports_every_metric(name, capsys):
    workload = WORKLOADS[name]
    correct, totals, metrics = measure(workload, 2, 0.001, SMOKE_DURATION[name])
    assert correct and totals["abandoned"] == 0
    assert list(metrics) == list(END_TO_END)
    assert all(value > 0 for value, _ in metrics.values())
    correct, _, layers = measure_layers(workload, 2, 0.001, SMOKE_DURATION[name])
    assert correct, capsys.readouterr().out
    assert list(layers) == list(PER_LAYER)
    assert layers["sim.self_s"][0] > 0 and layers["trace.overhead"][0] > 0
