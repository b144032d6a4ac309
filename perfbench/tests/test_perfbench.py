"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests

They cover the tail-percentile rule, the per-op reading of the end-to-end
metrics, failure counting, the independent reference, and a tiny-size run
of every workload.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[0:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness, reference, run  # noqa: E402
from perfbench.spans import Tracer  # noqa: E402
from perfbench.workloads import Mismatch, Op  # noqa: E402


class TestTail:
    def test_eleventh_largest_with_enough_samples(self):
        values = list(range(1, 101))  # 1..100
        value, pct, n = harness.tail(values)
        assert (value, n) == (90, 100)
        assert pct == pytest.approx(90.0)
        assert sum(v > value for v in values) == 10

    def test_capped_at_p99(self):
        values = list(range(1, 5001))
        value, pct, n = harness.tail(values)
        assert (value, pct, n) == (4950, 99.0, 5000)
        assert sum(v > value for v in values) == 50

    def test_order_does_not_matter(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0] * 5
        assert harness.tail(values) == harness.tail(sorted(values))

    def test_exactly_eleven_samples_gives_the_minimum(self):
        value, pct, n = harness.tail(list(range(11)))
        assert (value, n) == (0, 11)
        assert pct == pytest.approx(100.0 / 11)

    def test_too_few_samples_give_the_maximum(self):
        assert harness.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)

    def test_no_samples(self):
        with pytest.raises(ValueError):
            harness.tail([])


class TestEndToEnd:
    def outcome(self):
        # Two ops a round, five rounds; op "b" stalls in one round.
        a = [1.0, 2.0, 3.0, 4.0, 5.0]
        b = [10.0, 10.0, 10.0, 10.0, 90.0]
        out = harness.Outcome(round_size=2, rounds=5, units=10.0, attempted=10, wall_s=150.0)
        out.samples = [s for pair in zip(a, b) for s in (("a", pair[0], True), ("b", pair[1], True))]
        return out

    def test_quantile_interpolates(self):
        assert harness.quantile([1.0, 2.0, 3.0, 4.0, 5.0], 0.75) == 4.0
        assert harness.quantile([4.0, 1.0, 2.0, 3.0], 0.75) == pytest.approx(3.25)
        assert harness.quantile([7.0], 0.9) == 7.0

    def test_round_quantile_keeps_three_rounds_above(self):
        assert harness.round_quantile(2) == 0.5
        assert harness.round_quantile(12) == pytest.approx(0.75)
        assert harness.round_quantile(100) == 0.9

    def test_metrics_come_from_per_op_quantiles(self):
        out = self.outcome()
        # Five rounds: the median of each op's times.
        assert harness.op_latencies(out) == [3.0, 10.0]
        m = harness.end_to_end(out)
        assert m["units_per_s"][0] == pytest.approx(2.0 / 13.0)
        assert m["op_p50_ms"][0] == pytest.approx(10.0e3)
        assert m["op_tail_ms"][0] == pytest.approx(10.0e3)
        assert (m["op_tail_ops"][0], m["op_samples"][0]) == (2, 10)
        assert m["run.units_per_s"][0] == pytest.approx(10.0 / 150.0)


def _raise_mismatch():
    raise Mismatch("outside tolerance")


def _raise_error():
    raise ZeroDivisionError("boom")


class TestFailureCounting:
    def ops(self):
        return [
            Op("ok", lambda: None),
            Op("miss", _raise_mismatch),
            Op("raises", _raise_error),
            Op("known", _raise_mismatch, known_defect="documented"),
        ]

    def test_each_failure_is_counted(self):
        out = harness.run_rounds(self.ops(), 3)
        assert (out.attempted, out.failed, out.unexpected) == (12, 9, 6)
        assert {name for name, _, _ in out.failures} == {"miss", "raises", "known"}
        assert [ok for _, _, ok in out.samples[:4]] == [True, False, False, False]

    def test_fail_frac_and_correct(self):
        out = harness.run_rounds(self.ops(), 2)
        assert harness.end_to_end(out)["fail_frac"][0] == pytest.approx(0.75)
        known_only = harness.run_rounds(self.ops()[::3], 2)
        assert (known_only.attempted, known_only.failed) == (4, 2)
        assert known_only.unexpected == 0

    def test_run_for_finishes_whole_rounds(self):
        out = harness.run_for(self.ops(), 0.0)
        assert out.rounds == 1 and out.attempted == 4


class TestSpans:
    def test_child_spans_and_self_time(self):
        tracer = Tracer()
        f = tracer.wrap("layer.f", lambda x: x + 1)
        tracer.begin_op("a")
        assert f(1) == 2 and f(2) == 3
        tracer.end_op()
        stats = tracer.layer_stats()
        assert stats["layer.f"]["calls"] == 2 and stats["op.a"]["calls"] == 1
        assert list(tracer.parent) == [-1, 0, 0]
        assert list(tracer.op) == [1, 1, 1]
        assert len(tracer.by_op("layer.f")["op.a"]) == 2
        op_s = stats["op.a"]["busy_s"]
        assert 0.0 <= tracer.self_seconds() <= op_s


class TestReference:
    def test_noiseless_randomizing_instance(self):
        # Reviewers (1, 0) and (1, 1), scores (0.5, 1): the CLI default.
        r = reference.stats(1.0, 0.0, 1.0, 1.0, 0.0, 0.5, 1.0)
        assert r.randomizing
        lo, hi = r.ec_range()
        assert (lo, hi) == pytest.approx((0.0, 1.0))
        # Slope 1 up to the ceiling m, then flat.
        assert reference.max_adversary_error(r, 0.5 * r.m) == pytest.approx(0.5 * r.m)
        assert reference.frontier_end_ec(r) == pytest.approx(r.m)
        assert reference.max_adversary_error(r, 1.5) is None

    def test_truthful_policy_has_the_lowest_error(self):
        r = reference.stats(1.2, -0.3, 0.8, 0.6, 0.4, 0.3, 0.1)
        ec, ea = reference.policy_errors(r, 1.0, 1.0)
        assert ec == pytest.approx(min(r.ec_range()))
        if r.randomizing:
            assert ea == pytest.approx(0.0)


@pytest.mark.parametrize(
    "workload, fail_frac",
    [
        ("instance_sweep", 0.0),
        ("monte_carlo", 0.0),
        # The sinh population at default quadrature settings is a known
        # defect: one op in four fails.
        ("average_case", 0.25),
        ("cli_defaults", 0.0),
    ],
)
def test_tiny_run(workload, fail_frac):
    out, metrics = run.measure(workload, seed=3, seconds=0.0, trace=False, scale=0.02, probes=0)
    assert metrics["fail_frac"][0] == pytest.approx(fail_frac)
    assert out.unexpected == 0, out.failures
    for name in ("units_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb"):
        assert metrics[name][0] > 0.0


def test_traced_tiny_run_fills_declared_metrics():
    out, metrics = run.measure(
        "monte_carlo", seed=4, seconds=0.0, trace=True, scale=0.02, probes=0
    )
    line = run.result_line(out, metrics | {"setup.import_s": (1.0, "s"), "setup.inputs_s": (1.0, "s")}, trace=True)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert list(line["metrics"]) == [m["name"] for m in declared]
    assert line["metrics"]["simlab.simulate_instance.calls"]["value"] > 0
    assert line["metrics"]["simlab.scaling_2t"]["value"] > 0
    # The average-case layers, measured on the traced monte_carlo run
    # without the known-defect population.
    assert line["metrics"]["mechanism.zeta_eta.sinh6.integrand_calls"]["value"] > 0
    assert line["metrics"]["simlab.Alg2Rule.calls"]["value"] == 3
    assert (line["correct"], line["failed"]) == (True, 0)
    assert all(math.isfinite(m["value"]) for m in line["metrics"].values())


def test_traced_tiny_sweep_measures_the_cli_layers():
    out, metrics = run.measure(
        "instance_sweep", seed=5, seconds=0.0, trace=True, scale=0.02, probes=0
    )
    assert out.unexpected == 0, out.failures
    for cmd in ("frontier", "policy", "simulate", "study"):
        assert metrics[f"cli.{cmd}.csv_bytes"][0] > 0
    assert metrics["simlab.run_calibration_study.calls"][0] > 0
    assert metrics["simlab.kendall_tau_distance.calls"][0] > 0
