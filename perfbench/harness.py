"""Closed-loop runner and the metrics computed from its samples.

One client runs the ops of a round back to back and starts the next op
only when the previous one has returned. Rounds are never cut short, so
every run sees the workload's op mix in the same proportions, and every
op of the round is timed once per round.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Optional

from .spans import Tracer

_clock = time.perf_counter


@dataclass
class Outcome:
    """Samples of one run of the loop."""

    # (op name, seconds, passed)
    samples: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    unexpected: int = 0
    units: float = 0.0
    wall_s: float = 0.0
    rounds: int = 0
    # Ops in one round: sample i ran the op at position i % round_size.
    round_size: int = 0
    # (op name, reason, known defect or None), first few only
    failures: list = field(default_factory=list)

    def add(self, other: "Outcome") -> None:
        self.samples += other.samples
        self.attempted += other.attempted
        self.failed += other.failed
        self.unexpected += other.unexpected
        self.units += other.units
        self.wall_s += other.wall_s
        self.rounds += other.rounds
        self.failures += other.failures[: 10 - len(self.failures)]


def run_op(op, tracer: Optional[Tracer], out: Outcome) -> None:
    """Run one op, timing it and counting its failure in out."""
    if tracer is not None:
        tracer.begin_op(op.name)
    reason = None
    t0 = _clock()
    try:
        op.fn()
    except Exception as exc:  # every failure is counted, none stops the run
        reason = f"{type(exc).__name__}: {exc}"
    dt = _clock() - t0
    if tracer is not None:
        tracer.end_op()
    out.samples.append((op.name, dt, reason is None))
    out.attempted += 1
    out.units += op.units
    if reason is not None:
        out.failed += 1
        if op.known_defect is None:
            out.unexpected += 1
        if len(out.failures) < 10:
            out.failures.append((op.name, reason, op.known_defect))


def _loop(ops: list, tracer: Optional[Tracer], more) -> Outcome:
    out = Outcome(round_size=len(ops))
    # Objects made during set-up (inputs and reference values) are frozen
    # out of garbage collection, so that full collections in the loop
    # scan only what privcal allocates, not the benchmark's own data.
    gc.collect()
    gc.freeze()
    try:
        t0 = _clock()
        while True:
            for op in ops:
                run_op(op, tracer, out)
            out.rounds += 1
            if not more(out.rounds, _clock() - t0):
                break
        out.wall_s = _clock() - t0
    finally:
        gc.unfreeze()
    return out


def run_rounds(ops: list, rounds: int, tracer: Optional[Tracer] = None) -> Outcome:
    """Run every op of the round, rounds times (at least once)."""
    return _loop(ops, tracer, lambda done, _: done < rounds)


def run_for(ops: list, seconds: float, tracer: Optional[Tracer] = None) -> Outcome:
    """Run whole rounds until at least seconds have passed (at least one)."""
    return _loop(ops, tracer, lambda _, elapsed: elapsed < seconds)


def tail(values: list) -> tuple[float, float, int]:
    """(value, percentile, sample count) of the tail latency.

    The tail is the highest percentile, capped at p99, that has at least
    10 samples above it. With fewer than 11 samples no percentile
    qualifies, and the maximum is reported at percentile 100.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n < 11:
        return xs[-1], 100.0, n
    above = max(10, n // 100)
    return xs[n - above - 1], 100.0 * (n - above) / n, n


def peak_rss_mb() -> float:
    """Peak resident set of this process (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quantile(values, p: float) -> float:
    """The p-quantile, interpolated between order statistics."""
    xs = sorted(values)
    pos = p * (len(xs) - 1)
    i = int(pos)
    if i + 1 == len(xs):
        return xs[i]
    return xs[i] + (xs[i + 1] - xs[i]) * (pos - i)


def round_quantile(rounds: int) -> float:
    """The quantile over rounds that op_latencies reads: the highest one,
    up to 0.9, with three rounds above it, and at least the median."""
    return min(0.9, max(0.5, 1.0 - 3.0 / rounds))


def op_latencies(out: Outcome) -> list[float]:
    """The latency of each op of the round: a high quantile of its times
    over the run's rounds (round_quantile).

    Every op of a round is a fixed input, run once per round. Each vCPU
    of the host flips between a fast and a slow state, 1.35x apart or
    more, for seconds at a time. The slow state holds in every run, the
    fast one for a share of it that changes from run to run, up to most
    of the run. A high quantile reads the slow state in every run; with
    three rounds above it, a single stalled round does not set it.
    """
    k = out.round_size
    p = round_quantile(out.rounds)
    return [quantile((dt for _, dt, _ in out.samples[i::k]), p) for i in range(k)]


def end_to_end(out: Outcome) -> dict:
    """The user-visible metrics of an untraced run, as {name: (value, unit)}.

    Throughput, median and tail are read from the per-op latencies of
    op_latencies: throughput is the work of one round over the sum of
    its ops' latencies, and median and tail are taken across the round's
    ops. The median is the upper one of an even count, the latency of one
    op rather than the mean of two different kinds of op. Whole-run
    throughput and median are reported beside.
    """
    ops = op_latencies(out)
    tail_s, tail_pct, n = tail(ops)
    lat = [dt for _, dt, _ in out.samples]
    metrics = {
        "units_per_s": (out.units / out.rounds / sum(ops), "1/s"),
        "op_p50_ms": (statistics.median_high(ops) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "op_tail_percentile": (tail_pct, "%"),
        "op_tail_ops": (n, "count"),
        "op_samples": (len(lat), "count"),
        "op_round_quantile": (round_quantile(out.rounds), "1"),
        "fail_frac": (out.failed / out.attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "run.rounds": (out.rounds, "count"),
        "run.units_per_s": (out.units / out.wall_s, "1/s"),
        "run.op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
    }
    by_name: dict[str, list[float]] = {}
    for name, dt, _ in out.samples:
        by_name.setdefault(name, []).append(dt)
    for name, ds in by_name.items():
        metrics[f"op.{name}.p50_ms"] = (statistics.median(ds) * 1e3, "ms")
    return metrics


def layer_metrics(tracer: Tracer, traced_wall_s: float) -> dict:
    """Per span name: calls, busy seconds, median latency, calls per busy
    second, and busy time as a share of the traced wall time."""
    metrics = {}
    for name, st in tracer.layer_stats().items():
        if name.startswith("op."):
            continue
        busy = st["busy_s"]
        metrics[f"{name}.calls"] = (st["calls"], "count")
        metrics[f"{name}.busy_s"] = (busy, "s")
        metrics[f"{name}.p50_us"] = (st["p50_us"], "us")
        metrics[f"{name}.calls_per_s"] = (st["calls"] / busy, "1/s")
        metrics[f"{name}.busy_frac"] = (busy / traced_wall_s, "ratio")
    return metrics
