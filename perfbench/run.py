#!/usr/bin/env python3
"""The privcal benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the workload's inputs from the
seed, runs it closed-loop in this process for S seconds (whole rounds),
checks every result, and prints every metric by name and unit. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; metrics holds the end-to-end metrics of
BENCHMARK.json with --trace 0, and its per-layer metrics with --trace 1,
which come from a separate run with a span around every library call.
Reports and traces are also written to .perfbench_out/.

Exits with code 2, and prints no result, when the checkout holds no
privcal source tree.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# Fresh interpreters started per run to measure set-up; the median is
# reported, since import time alone spreads by about 17 % between runs.
SETUP_PROBES = 6
# Units of per-layer metrics that read 0 on a workload that bypasses the layer.
_ZERO_WHEN_BYPASSED = {"count", "ratio", "1/s", "1", "B"}

_clock = time.perf_counter


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_privcal() -> float:
    """Import privcal from this checkout's src/ and return the seconds taken."""
    if not (SRC / "privcal" / "__init__.py").is_file():
        _fail(f"no privcal source at {SRC / 'privcal'}")
    # Replace the script directory so that perfbench is imported as a
    # package and none of its modules shadows the standard library.
    sys.path[0:1] = [str(SRC), str(ROOT)]
    t0 = _clock()
    import privcal

    import_s = _clock() - t0
    if Path(privcal.__file__).resolve().parent != (SRC / "privcal").resolve():
        _fail(f"privcal imported from {privcal.__file__}, not from {SRC}")
    return import_s


@contextlib.contextmanager
def _workdir(tag: str):
    path = OUT / f"{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def _probe(workload: str, seed: int) -> None:
    """Set up once in this fresh interpreter and print the stage times."""
    import_s = _import_privcal()
    from perfbench.harness import Outcome, run_op
    from perfbench.workloads import WORKLOADS

    wl = WORKLOADS[workload]
    with _workdir("probe") as wd:
        t0 = _clock()
        ops = wl.ops(wl.inputs(seed, 1.0, wd), None)
        inputs_s = _clock() - t0
        t0 = _clock()
        run_op(ops[wl.warmup], None, Outcome())
        warmup_s = _clock() - t0
    print(json.dumps({"import_s": import_s, "inputs_s": inputs_s, "warmup_s": warmup_s}))


def _run_probes(workload: str, seed: int, probes: int) -> list:
    """(wall seconds, stage times) of set-up in each of probes fresh
    interpreters."""
    results = []
    for _ in range(probes):
        t0 = _clock()
        proc = subprocess.run(
            [sys.executable, __file__, "--probe", "--workload", workload, "--seed", str(seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=150,
        )
        wall = _clock() - t0
        if proc.returncode != 0:
            _fail(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
        results.append((wall, json.loads(proc.stdout.strip().splitlines()[-1])))
    return results


def _setup_metrics(results: list) -> dict:
    """Median set-up time over the probes, and of its stages."""
    walls = [wall for wall, _ in results]
    stages = [stage for _, stage in results]
    return {
        "setup_s": (statistics.median(walls), "s"),
        "setup.import_s": (statistics.median(s["import_s"] for s in stages), "s"),
        "setup.inputs_s": (statistics.median(s["inputs_s"] for s in stages), "s"),
        "setup.warmup_s": (statistics.median(s["warmup_s"] for s in stages), "s"),
        "setup.probes": (len(results), "count"),
    }


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: float = 1.0,
    probes: int = SETUP_PROBES,
):
    """Run one workload; return (outcome, {metric: (value, unit)}).

    scale < 1 shrinks the inputs, for the harness's own tests. Half the
    set-up probes run before the loop and half after it: the host's
    speed flips for seconds at a time, and probes a run apart meet it in
    one state less often than probes run back to back.
    """
    results = _run_probes(workload, seed, probes // 2)
    out, metrics = _measure_loop(workload, seed, seconds, trace, scale)
    results += _run_probes(workload, seed, probes - probes // 2)
    if results:
        metrics.update(_setup_metrics(results))
    return out, metrics


def _measure_loop(workload: str, seed: int, seconds: float, trace: bool, scale: float):
    from perfbench import harness
    from perfbench.spans import Tracer
    from perfbench.workloads import CLI_COMMANDS, WORKLOADS

    wl = WORKLOADS[workload]
    metrics = {}
    with _workdir("work") as wd:
        inp = wl.inputs(seed, scale, wd)
        ops = wl.ops(inp, None)
        harness.run_op(ops[wl.warmup], None, harness.Outcome())
        if not trace:
            out = harness.run_for(ops, seconds)
            metrics.update(harness.end_to_end(out))
            if wl.name == "cli_defaults":
                for cmd in CLI_COMMANDS:
                    metrics[f"cmd.{cmd}_ms"] = metrics[f"op.{cmd}.p50_ms"]
            return out, metrics
        out = harness.run_for(ops, seconds / 2.0)
        tracer = Tracer()
        traced_ops = wl.ops(inp, tracer)
        t0 = _clock()
        traced = harness.run_for(traced_ops, seconds / 2.0, tracer)
        overhead = 1.0 - (traced.units / traced.wall_s) / (out.units / out.wall_s)
        if wl.extra is not None:
            metrics.update(wl.extra(inp, traced_ops, tracer, traced))
        traced_wall = _clock() - t0
    metrics.update(harness.layer_metrics(tracer, traced_wall))
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    metrics["trace.spans"] = (len(tracer), "count")
    metrics["harness.self_frac"] = (tracer.self_seconds() / traced_wall, "ratio")
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"{workload}-seed{seed}.trace.json")
    out.add(traced)
    return out, metrics


def _git_commit():
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(workload, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "PRIVCAL_THREADS": os.environ.get("PRIVCAL_THREADS"),
        "commit": _git_commit(),
        "workload": workload.name,
        "seed": seed,
        "unit": workload.unit,
        "op": workload.op,
    }


def _declared(trace: bool) -> list:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return doc["per_layer" if trace else "end_to_end"]


def result_line(out, metrics: dict, trace: bool) -> dict:
    """The contract's result: the declared metrics, exactly."""
    chosen = {}
    for m in _declared(trace):
        name, unit = m["name"], m["unit"]
        if name in metrics:
            value, got_unit = metrics[name]
            if got_unit != unit:
                raise ValueError(f"{name}: measured in {got_unit}, declared in {unit}")
        elif unit in _ZERO_WHEN_BYPASSED:
            value = 0
        else:
            raise ValueError(f"{name} was not measured")
        chosen[name] = {"value": value, "unit": unit}
    return {
        # A failure of an op marked with a known defect is counted in
        # failed; any other failure makes the run incorrect.
        "correct": out.unexpected == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": chosen,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        _probe(args.workload, args.seed)
        return 0
    _import_privcal()
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    out, metrics = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    result = result_line(out, metrics, bool(args.trace))
    report = {
        "environment": environment(WORKLOADS[args.workload], args.seed),
        "trace": bool(args.trace),
        "rounds": out.rounds,
        "attempted": out.attempted,
        "failed": out.failed,
        "failures": out.failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for key, value in report["environment"].items():
        print(f"# {key}: {value}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:<52} {value:>16.6g} {unit}")
    for name, reason, defect in out.failures:
        print(f"! {name}: {reason}" + (f" [known defect: {defect}]" if defect else ""))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
