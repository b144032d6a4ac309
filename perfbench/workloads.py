"""The four benchmark workloads.

Each workload turns the seed into inputs (``inputs``), builds one round
of ops over those inputs (``ops``), and, for the traced run, may add
passes that isolate single layers (``extra``). An op calls privcal's
public API through a namespace made by ``spans.library``, so the same op
runs with or without spans, and raises ``Mismatch`` when a result leaves
its reference tolerance.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from privcal import (
    Infeasible,
    Instance,
    Policy,
    Population,
    QuadratureSettings,
    ReviewerProfile,
    ScorePair,
    SegmentKind,
    StudyConfig,
    cli,
    simlab,
)
from privcal.adversary import per_instance_errors
from privcal.frontier import frontier, instance_geometry, max_adversary_error_curve
from privcal.mechanism import alg1_policy, alg3_policy, zeta_eta
from privcal.model import posterior_weights

from . import reference as ref
from .harness import Outcome, layer_metrics, run_rounds
from .spans import Tracer, library


class Mismatch(Exception):
    """A result lies outside its reference tolerance."""


def close(what: str, got: float, want: float, tol: float) -> None:
    if not abs(got - want) <= tol:
        raise Mismatch(f"{what}: got {got!r}, want {want!r} within {tol:.3g}")


def expect(what: str, ok: bool) -> None:
    if not ok:
        raise Mismatch(what)


@dataclass
class Op:
    name: str
    fn: Callable[[], None]
    units: float = 1.0
    # Set on an op whose failure is a documented defect of privcal; the
    # failure is still counted, but does not mark the run incorrect.
    known_defect: Optional[str] = None
    # Values an op records for the traced report (e.g. an error bound).
    state: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    unit: str
    op: str
    # inputs(seed, scale, workdir) -> inputs; ops(inputs, tracer) ->
    # list[Op], one round; extra(inputs, traced ops, tracer, outcome of
    # the traced loop) -> {metric: (value, unit)} for the traced report,
    # adding the outcome of any further pass to that of the loop;
    # warmup: index of the op run once during set-up.
    inputs: Callable
    ops: Callable
    warmup: int = 0
    extra: Optional[Callable] = None


def _affine_instance(rng: np.random.Generator, noisy: bool):
    """One draw from the instance distributions of tests/conftest.py."""
    a = rng.uniform(0.3, 3.0, 2)
    b = rng.normal(0.0, 1.0, 2)
    s = rng.normal(0.0, 2.0, 2)
    sigma2 = float(rng.uniform(0.1, 2.0)) if noisy else 0.0
    params = (float(a[0]), float(b[0]), float(a[1]), float(b[1]), sigma2)
    inst = Instance(
        ReviewerProfile.affine(params[0], params[1]),
        ReviewerProfile.affine(params[2], params[3]),
        sigma2,
        ScorePair(float(s[0]), float(s[1])),
    )
    return inst, ref.stats(*params, float(s[0]), float(s[1]))


# ---------------------------------------------------------------- instance_sweep

TOL = 1e-9
CURVE_POINTS = 101
# Share of randomizing instances per mode under the conftest
# distributions, measured on 2000 draws of each. Drawing exactly this
# share per seed keeps the op mix, and so the run time, equal across
# seeds.
_RANDOMIZING_SHARE = {False: 0.37, True: 0.31}

_SWEEP_LAYERS = {
    "model.posterior_weights": posterior_weights,
    "frontier.instance_geometry": instance_geometry,
    "frontier.frontier": frontier,
    "mechanism.alg1_policy": alg1_policy,
    "mechanism.alg3_policy": alg3_policy,
    "adversary.per_instance_errors": per_instance_errors,
    "frontier.max_adversary_error_curve": max_adversary_error_curve,
}


@dataclass
class SweepCase:
    inst: Instance
    r: ref.RefStats
    noisy: bool
    # (ec target, expected (ec, ea) of the returned policy)
    targets: list = field(default_factory=list)
    # Randomizing: (lo, end_ec) of the frontier segment and the curve
    # grid with its reference values. Forced: empty grid.
    segment: tuple = ()
    grid: list = field(default_factory=list)


def _sweep_case(inst: Instance, r: ref.RefStats, noisy: bool) -> SweepCase:
    case = SweepCase(inst, r, noisy)
    if not r.randomizing:
        case.targets = [(0.5, (r.forced_ec, r.m))]
        return case
    lo, hi = r.ec_range()
    end = ref.frontier_end_ec(r)
    case.segment = (lo, end)
    for i in range(CURVE_POINTS):
        ec = lo + (hi - lo) * (i + 0.5) / CURVE_POINTS
        case.grid.append((ec, ref.max_adversary_error(r, ec)))
    if noisy:
        # Two points on the rising frontier edge, and one past the
        # endpoint, where Alg. 3 returns the endpoint policy. An edge
        # shorter than the tolerance (a posterior weight near 0) is left
        # out: there a target is within roundoff of the infeasible side.
        if end - lo > TOL:
            for t in (lo + 0.25 * (end - lo), lo + 0.75 * (end - lo)):
                case.targets.append((t, (t, ref.max_adversary_error(r, t))))
        case.targets.append((min(hi, 1.0), (end, r.m)))
    else:
        # The slope-1 law of Alg. 1: errors (min(ec, m), min(ec, m)).
        for t in (0.25 * r.m, 0.75 * r.m, 1.0):
            case.targets.append((t, (min(t, r.m), min(t, r.m))))
    return case


def sweep_inputs(seed: int, scale: float, workdir: Path) -> dict:
    rng = np.random.default_rng(seed)
    per_mode = max(2, round(500 * scale))
    cases = []
    for noisy in (False, True):
        want_rand = round(_RANDOMIZING_SHARE[noisy] * per_mode)
        left = {True: want_rand, False: per_mode - want_rand}
        while left[True] or left[False]:
            inst, r = _affine_instance(rng, noisy)
            if left[r.randomizing]:
                left[r.randomizing] -= 1
                cases.append(_sweep_case(inst, r, noisy))
    return {
        "cases": [cases[i] for i in rng.permutation(len(cases))],
        # For the CLI pass of the traced run (see sweep_extra).
        "cli": cli_inputs(seed, scale, workdir),
    }


def _sweep_op(lib, case: SweepCase) -> None:
    inst, r = case.inst, case.r
    pu, pv = lib.posterior_weights(inst)
    close("pu", pu, r.pu, 1e-12)
    close("pv", pv, r.pv, 1e-12)
    geom = lib.instance_geometry(inst)
    expect("regime", geom.part2 == r.randomizing)
    seg = lib.frontier(inst)
    policy = lib.alg3_policy if case.noisy else lib.alg1_policy
    for target, (want_ec, want_ea) in case.targets:
        pol = policy(inst, target)
        expect("policy is feasible", not isinstance(pol, Infeasible))
        err = lib.per_instance_errors(inst, pol)
        close("policy ec", err.ec, want_ec, TOL)
        close("policy ea", err.ea, want_ea, TOL)
        ref_ec, ref_ea = ref.policy_errors(r, pol.q1, pol.q2)
        close("reference ec of policy", err.ec, ref_ec, TOL)
        close("reference ea of policy", err.ea, ref_ea, TOL)
    if not r.randomizing:
        expect("point frontier", seg.kind is SegmentKind.POINT)
        close("forced ec", seg.start.ec, r.forced_ec, TOL)
        close("point ea", lib.max_adversary_error_curve(inst, seg.start.ec), r.m, TOL)
        return
    lo, end = case.segment
    expect("segment frontier", seg.kind is SegmentKind.SEGMENT)
    close("segment start ec", seg.start.ec, lo, TOL)
    close("segment start ea", seg.start.ea, 0.0, TOL)
    close("segment end ec", seg.end.ec, end, TOL)
    close("segment end ea", seg.end.ea, r.m, TOL)
    for ec, want in case.grid:
        got = lib.max_adversary_error_curve(inst, ec)
        expect("curve point is feasible", not isinstance(got, Infeasible))
        close("curve", got, want, TOL)


def sweep_ops(inp: dict, tracer: Optional[Tracer]) -> list:
    lib = library(_SWEEP_LAYERS, tracer)
    return [
        Op("randomizing" if c.r.randomizing else "forced", lambda c=c: _sweep_op(lib, c))
        for c in inp["cases"]
    ]


def pass_layers(tracer: Tracer, wall_s: float, layers: tuple) -> dict:
    """Layer metrics of the span names that start with one of layers.

    A traced run that adds a pass of another workload's ops records the
    pass on a tracer of its own, so that its calls do not mix into the
    spans of the layers the run measures itself. This picks out the
    layers the pass is there for.
    """
    return {k: v for k, v in layer_metrics(tracer, wall_s).items() if k.startswith(layers)}


# Rounds of the cli_defaults ops, and as many of its paired pass, that
# the traced instance_sweep run adds.
CLI_PASS_ROUNDS = 3
_CLI_PASS_LAYERS = (
    "cli.",
    "simlab.run_calibration_study.",
    "simlab.kendall_tau_distance.",
    "simlab.messy_middle_error.",
)


def sweep_extra(inp: dict, ops: list, tracer: Tracer, traced: Outcome) -> dict:
    """The layers of the cli_defaults workload, from CLI_PASS_ROUNDS
    traced rounds of its ops and of its paired pass (cli_extra).

    cli_defaults itself is not in BENCHMARK.json: the study, most of its
    round, speeds up and slows down with the host by up to 1.7x, and on
    a shared 2-vCPU host its throughput spread 32 % over 10 runs of 30 s.
    The CLI's frontier and policy commands run this workload's layers,
    so its traced run measures the CLI's layers instead.
    """
    cli_tracer = Tracer()
    cli_round = cli_ops(inp["cli"], cli_tracer)
    t0 = time.perf_counter()
    cli_traced = run_rounds(cli_round, CLI_PASS_ROUNDS, cli_tracer)
    out = cli_extra(inp["cli"], cli_round, cli_tracer, cli_traced)
    out.update(pass_layers(cli_tracer, time.perf_counter() - t0, _CLI_PASS_LAYERS))
    traced.add(cli_traced)
    return out


# ------------------------------------------------------------------ monte_carlo

REPS = 1_000_000
# Simulated errors are binomial means; 5 standard errors keep a false
# alarm below 1e-6 per check over every run and seed. Quadrature adds
# its own error bound on zeta and eta.
SIGMAS = 5.0
QUAD_SLACK = 5e-6


def _binomial_tol(p: float, n: int, slack: float = 0.0) -> float:
    return SIGMAS * math.sqrt(max(p * (1.0 - p), 0.0) / n) + slack + 1e-12


def _reference_population() -> Population:
    return Population(ReviewerProfile.affine(1.0, 0.0), ReviewerProfile.affine(1.0, 1.0))


_SIM_LAYERS = {
    "simlab.simulate_instance": simlab.simulate_instance,
    "simlab.simulate_average": simlab.simulate_average,
}


def mc_inputs(seed: int, scale: float, workdir: Path) -> dict:
    rng = np.random.default_rng(seed)
    n = max(1000, round(REPS * scale))
    cases = {}
    for noisy in (False, True):
        # A forced instance ignores the policy, so draw randomizing ones.
        while True:
            inst, r = _affine_instance(rng, noisy)
            if r.randomizing:
                break
        q1, q2 = (float(q) for q in rng.uniform(0.0, 1.0, 2))
        cases["noisy" if noisy else "noiseless"] = (inst, Policy(q1, q2), r)
    pop = _reference_population()
    zeta, eta, _ = zeta_eta(pop)
    seeds = [int(s) for s in rng.integers(0, 2**32, 4)]
    # The average-case flow of the populations whose quadrature succeeds,
    # run once in the traced pass (see mc_extra).
    avg = avg_inputs(seed, scale, workdir)
    avg["pops"] = [p for p in avg["pops"] if p[3] is None]
    return {
        "n": n,
        "cases": cases,
        "pop": pop,
        "zeta": zeta,
        "eta": eta,
        "seeds": seeds,
        "avg": avg,
    }


def _check_sim(res, n: int, want_ec: float, want_ea: float, slack: float = 0.0) -> None:
    close("simulated ec", res.empirical.ec, want_ec, _binomial_tol(want_ec, n, slack))
    close("simulated ea", res.empirical.ea, want_ea, _binomial_tol(want_ea, n, slack))


def mc_ops(inp: dict, tracer: Optional[Tracer]) -> list:
    lib = library(_SIM_LAYERS, tracer)
    n, pop, zeta, eta = inp["n"], inp["pop"], inp["zeta"], inp["eta"]
    ops = []
    for k, (mode, (inst, pol, r)) in enumerate(inp["cases"].items()):
        want = ref.policy_errors(r, pol.q1, pol.q2)

        def run(inst=inst, pol=pol, want=want, seed=inp["seeds"][k]):
            _check_sim(lib.simulate_instance(inst, pol, n, seed), n, *want)

        ops.append(Op(mode, run, units=n))
    rules = {
        "truthful": (simlab.TruthfulRule(), 0.0, eta),
        "alg1": (simlab.Alg1Rule(pop, 1.0), zeta, zeta + eta),
    }
    for k, (name, (rule, want_ec, want_ea)) in enumerate(rules.items(), start=2):

        def run(rule=rule, want_ec=want_ec, want_ea=want_ea, seed=inp["seeds"][k]):
            res = lib.simulate_average(pop, rule, n, seed)
            _check_sim(res, n, want_ec, want_ea, QUAD_SLACK)

        ops.append(Op(name, run, units=n))
    return ops


def mc_extra(inp: dict, ops: list, tracer: Tracer, traced: Outcome) -> dict:
    """Replicates per second of each op at 1 thread (from the traced loop)
    and at 2 threads (one more traced pass with PRIVCAL_THREADS=2); and
    the layers of the average_case workload, from one traced round of
    its populations whose quadrature succeeds.

    average_case itself is not in BENCHMARK.json: its ops take seconds
    each, so a run holds two or three rounds, too few to steady its
    figures on a host whose speed flips for seconds at a time. Its
    layers are measured here instead.
    """
    saved = os.environ.get("PRIVCAL_THREADS")
    os.environ["PRIVCAL_THREADS"] = "2"
    tracer2 = Tracer()
    try:
        traced.add(run_rounds(mc_ops(inp, tracer2), traced.rounds, tracer2))
    finally:
        if saved is None:
            del os.environ["PRIVCAL_THREADS"]
        else:
            os.environ["PRIVCAL_THREADS"] = saved
    avg_tracer = Tracer()
    avg_round = avg_ops(inp["avg"], avg_tracer)
    t0 = time.perf_counter()
    traced.add(run_rounds(avg_round, 1, avg_tracer))
    out = avg_extra(inp["avg"], avg_round, avg_tracer, traced)
    out.update(
        pass_layers(
            avg_tracer, time.perf_counter() - t0, ("mechanism.zeta_eta.", "simlab.Alg2Rule.")
        )
    )
    totals = {}
    for label, tr in (("", tracer), ("_2t", tracer2)):
        reps = busy = 0.0
        for fn, modes in (
            ("simulate_instance", ("noiseless", "noisy")),
            ("simulate_average", ("truthful", "alg1")),
        ):
            by_op = tr.by_op(f"simlab.{fn}")
            for mode in modes:
                d = by_op["op." + mode]
                out[f"simlab.{fn}.{mode}.reps_per_s{label}"] = (
                    inp["n"] * len(d) / sum(d),
                    "1/s",
                )
                reps += inp["n"] * len(d)
                busy += sum(d)
        totals[label] = reps / busy
    out["simlab.scaling_2t"] = (totals["_2t"] / (2.0 * totals[""]), "ratio")
    return out


# ---------------------------------------------------------------- average_case


def sinh_profile() -> ReviewerProfile:
    """The smooth non-affine profile of tests/conftest.py."""
    return ReviewerProfile.monotone(
        np.sinh, np.arcsinh, lambda s: 1.0 / np.sqrt(1.0 + np.asarray(s) ** 2)
    )


@dataclass(frozen=True)
class CountingPopulation(Population):
    """A Population that counts the score pairs it turns into instances,
    which zeta_eta does once per integrand evaluation."""

    calls: list = field(default_factory=lambda: [0], compare=False, repr=False)

    def instance(self, s1: float, s2: float) -> Instance:
        self.calls[0] += 1
        return super().instance(s1, s2)


SINH_DEFECT = (
    "zeta_eta at default QuadratureSettings returns zeta = 0 and eta ~ 5e-120 "
    "for the sinh population; simulation gives ~0.110 and ~0.232"
)

_AVG_LAYERS = {
    "mechanism.zeta_eta": zeta_eta,
    "simlab.Alg2Rule": simlab.Alg2Rule,
    "simlab.simulate_average": simlab.simulate_average,
}


def avg_inputs(seed: int, scale: float, workdir: Path) -> dict:
    rng = np.random.default_rng(seed)
    a = ReviewerProfile.affine
    sinh = sinh_profile()
    pops = [
        # name, reviewers, settings, known defect
        ("ref1", (a(1.0, 0.0), a(1.0, 1.0)), None, None),
        ("ref2", (a(1.5, -0.5), a(0.8, 0.7)), None, None),
        ("sinh6", (sinh, a(1.0, 0.5)), QuadratureSettings(theta_span=6.0), None),
        ("sinh_default", (sinh, a(1.0, 0.5)), None, SINH_DEFECT),
    ]
    seeds = [int(s) for s in rng.integers(0, 2**32, len(pops))]
    return {
        "n": max(1000, round(REPS * scale)),
        "pops": [p + (s,) for p, s in zip(pops, seeds)],
    }


def avg_ops(inp: dict, tracer: Optional[Tracer]) -> list:
    lib = library(_AVG_LAYERS, tracer)
    n = inp["n"]
    ops = []
    for name, (r1, r2), settings, defect, seed in inp["pops"]:
        pop = CountingPopulation(r1, r2) if tracer is not None else Population(r1, r2)
        op = Op(name, None, known_defect=defect)

        def run(pop=pop, settings=settings, seed=seed, state=op.state):
            before = pop.calls[0] if tracer is not None else 0
            zeta, eta, err = lib.zeta_eta(pop, settings)
            if tracer is not None:
                state.update(err_bound=err, integrand_calls=pop.calls[0] - before)
            rule = lib.Alg2Rule(pop, zeta / 2.0, settings)
            res = lib.simulate_average(pop, rule, n, seed)
            ec_avg = zeta / 2.0
            _check_sim(res, n, ec_avg, ec_avg + eta, QUAD_SLACK)

        op.fn = run
        ops.append(op)
    return ops


def avg_extra(inp: dict, ops: list, tracer: Tracer, traced: Outcome) -> dict:
    """Per population: quadrature time, its error bound and integrand
    evaluations; and the simulation rate under Alg. 2."""
    out = {}
    zeta_by_op = tracer.by_op("mechanism.zeta_eta")
    sim_by_op = tracer.by_op("simlab.simulate_average")
    sim_busy = [d for op in ops for d in sim_by_op["op." + op.name]]
    for op in ops:
        d = zeta_by_op["op." + op.name]
        out[f"mechanism.zeta_eta.{op.name}.busy_s"] = (statistics.median(d), "s")
        out[f"mechanism.zeta_eta.{op.name}.err_bound"] = (op.state["err_bound"], "1")
        out[f"mechanism.zeta_eta.{op.name}.integrand_calls"] = (
            op.state["integrand_calls"],
            "count",
        )
    out["simlab.simulate_average.alg2.reps_per_s"] = (
        inp["n"] * len(sim_busy) / sum(sim_busy),
        "1/s",
    )
    return out


# ---------------------------------------------------------------- cli_defaults

CLI_COMMANDS = ("frontier", "policy", "simulate", "study")
# The CLI's default instance and targets, for the direct library calls
# that the CLI's own overhead is measured against.
_DEFAULT_INSTANCE = (1.0, 0.0, 1.0, 1.0, 0.0, 0.5, 1.0)
_DEFAULT_EC = 0.2
_DEFAULT_SIM_N = 200_000
_DEFAULT_GRID = 101
KENDALL_CALLS = 900


def cli_inputs(seed: int, scale: float, workdir: Path) -> dict:
    rng = np.random.default_rng(seed)
    configs = {}
    sim_n, iterations = _DEFAULT_SIM_N, StudyConfig().iterations
    if scale < 1.0:
        # Smaller simulate and study runs, for the harness's own tests.
        sim_n = max(1000, round(sim_n * scale))
        iterations = max(2, round(iterations * scale))
        for cmd, cfg in (
            ("simulate", {"simulate.n": sim_n}),
            ("study", {"study.iterations": iterations}),
        ):
            path = workdir / f"{cmd}_config.json"
            path.write_text(json.dumps(cfg), encoding="utf-8")
            configs[cmd] = str(path)
    # Rankings like the study's: true qualities against noisy estimates.
    rankings = []
    for _ in range(KENDALL_CALLS):
        theta = rng.standard_normal(100)
        est = theta + rng.normal(0.0, 0.7, 100)
        rankings.append((_rank(theta), _rank(est)))
    return {
        "dir": workdir,
        "configs": configs,
        "sim_n": sim_n,
        "study": StudyConfig(iterations=iterations),
        "rankings": rankings,
    }


def _rank(x: np.ndarray) -> np.ndarray:
    ranks = np.empty(x.size, dtype=int)
    ranks[np.argsort(-x, kind="stable")] = np.arange(1, x.size + 1)
    return ranks


def cli_ops(inp: dict, tracer: Optional[Tracer]) -> list:
    lib = library({f"cli.{cmd}": cli.main for cmd in CLI_COMMANDS}, tracer)
    ops = []
    for cmd in CLI_COMMANDS:
        main = getattr(lib, cmd)
        run_dir = inp["dir"] / cmd / "run"
        replay_dir = inp["dir"] / cmd / "replay"
        csv = f"{cmd}.csv"
        argv = [cmd, "--out", str(run_dir)]
        if cmd in inp["configs"]:
            argv += ["--config", inp["configs"][cmd]]
        replay_argv = [
            cmd,
            "--config",
            str(run_dir / f"{cmd}_manifest.json"),
            "--out",
            str(replay_dir),
        ]
        op = Op(cmd, None)

        def run(main=main, argv=argv, path=run_dir / csv, state=op.state):
            expect(f"{argv[0]} exit code 0", main(argv) == 0)
            data = path.read_bytes()
            first = state.setdefault("csv", data)
            expect(f"{argv[0]} CSV is the same in every round", data == first)

        def replay(main=main, argv=replay_argv, run=run_dir / csv, path=replay_dir / csv):
            expect(f"{argv[0]} replay exit code 0", main(argv) == 0)
            expect(f"{argv[0]} replay CSV is byte-identical", path.read_bytes() == run.read_bytes())

        op.fn = run
        ops += [op, Op(cmd + "_replay", replay)]
    return ops


_DIRECT_LAYERS = {
    "frontier.frontier": frontier,
    "frontier.instance_geometry": instance_geometry,
    "frontier.max_adversary_error_curve": max_adversary_error_curve,
    "mechanism.alg1_policy": alg1_policy,
    "adversary.per_instance_errors": per_instance_errors,
    "simlab.simulate_instance": simlab.simulate_instance,
    "simlab.run_calibration_study": simlab.run_calibration_study,
    "simlab.kendall_tau_distance": simlab.kendall_tau_distance,
    "simlab.messy_middle_error": simlab.messy_middle_error,
}


def _direct_ops(inp: dict, lib) -> dict:
    """The library calls each command makes, without the CLI around them."""
    a1, b1, a2, b2, sigma2, s1, s2 = _DEFAULT_INSTANCE

    def instance():
        return Instance(
            ReviewerProfile.affine(a1, b1),
            ReviewerProfile.affine(a2, b2),
            sigma2,
            ScorePair(s1, s2),
        )

    def frontier_cmd():
        inst = instance()
        seg = lib.frontier(inst)
        lo, hi = seg.min_feasible_ec, lib.instance_geometry(inst).ec_intercept
        for i in range(_DEFAULT_GRID):
            lib.max_adversary_error_curve(inst, lo + (hi - lo) * i / (_DEFAULT_GRID - 1))

    def policy_cmd():
        inst = instance()
        lib.per_instance_errors(inst, lib.alg1_policy(inst, _DEFAULT_EC))

    def simulate_cmd():
        inst = instance()
        pol = lib.alg1_policy(inst, _DEFAULT_EC)
        lib.per_instance_errors(inst, pol)
        lib.simulate_instance(inst, pol, inp["sim_n"], 0)

    def study_cmd():
        lib.run_calibration_study(inp["study"])

    return {
        "frontier": frontier_cmd,
        "policy": policy_cmd,
        "simulate": simulate_cmd,
        "study": study_cmd,
    }


def cli_extra(inp: dict, ops: list, tracer: Tracer, traced: Outcome) -> dict:
    """CLI self time per command, CSV sizes, and the study's per-ranking
    helpers.

    Each command runs once more right before the same library calls made
    directly, and self time is the median difference over these pairs:
    the host's speed drifts by up to 2x over minutes, so the two sides of
    a difference must be measured side by side.
    """
    lib = library(_DIRECT_LAYERS, tracer)
    direct = _direct_ops(inp, lib)
    cfg = inp["study"]

    def rankings():
        for true_rank, est_rank in inp["rankings"]:
            lib.kendall_tau_distance(true_rank, est_rank)
            lib.messy_middle_error(true_rank, est_rank, cfg)

    commands = [op for op in ops if op.name in CLI_COMMANDS]
    paired = [p for op in commands for p in (op, Op("direct_" + op.name, direct[op.name]))]
    since = len(tracer)
    traced.add(run_rounds(paired + [Op("rankings", rankings)], traced.rounds, tracer))
    out = {}
    for op in commands:
        cmd_s = tracer.durations(f"cli.{op.name}", since)
        direct_s = tracer.durations(f"op.direct_{op.name}", since)
        self_s = statistics.median(c - d for c, d in zip(cmd_s, direct_s))
        out[f"cli.{op.name}.self_ms"] = (self_s * 1e3, "ms")
        out[f"cli.{op.name}.self_frac"] = (self_s / statistics.median(cmd_s), "ratio")
        out[f"cli.{op.name}.csv_bytes"] = (len(op.state["csv"]), "B")
    return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "instance_sweep",
            "instance",
            "posterior_weights, instance_geometry, frontier, alg1/alg3 policy at 3 "
            "ec targets with per_instance_errors, max_adversary_error_curve at "
            f"{CURVE_POINTS} points (randomizing) or at the point (forced)",
            sweep_inputs,
            sweep_ops,
            extra=sweep_extra,
        ),
        Workload(
            "monte_carlo",
            "replicate",
            f"one simulate_instance or simulate_average call of {REPS} replicates",
            mc_inputs,
            mc_ops,
            extra=mc_extra,
        ),
        Workload(
            "average_case",
            "population",
            f"zeta_eta, Alg2Rule(pop, zeta/2), simulate_average of {REPS} replicates",
            avg_inputs,
            avg_ops,
            extra=avg_extra,
        ),
        Workload(
            "cli_defaults",
            "invocation",
            "one privcal.cli.main call: a subcommand at its default config, "
            "or the replay of its manifest",
            cli_inputs,
            cli_ops,
            warmup=2,
            extra=cli_extra,
        ),
    )
}
