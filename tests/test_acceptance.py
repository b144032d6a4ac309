"""End-to-end acceptance checks.

Each test verifies one advertised guarantee of the library at its
stated tolerance and runtime budget, and prints a single pass/fail
line (run pytest with -s to see them on success).
"""

import contextlib
import dataclasses
import json
import math
import time

import numpy as np
import pytest

from privcal import (
    Policy,
    Population,
    ReviewerProfile,
    StudyConfig,
    per_instance_errors,
    rr_epsilon,
    rr_gamma,
    run_calibration_study,
    simulate_average,
    simulate_instance,
    zeta_eta,
)
from privcal.adversary import scenario_table
from privcal.cli import main as cli_main
from privcal.frontier import instance_geometry, noisy_frontier
from privcal.mechanism import alg1_policy, alg3_policy
from privcal.simlab import Alg2Rule
from conftest import (
    _scenario_errors_grid,
    make_instance,
    piecewise_adversary_error,
    random_noiseless_instance,
    random_noisy_instance,
    random_part2_instance,
)


@contextlib.contextmanager
def _criterion(num: int, name: str, budget_s: float):
    start = time.monotonic()
    try:
        yield
    except Exception:
        print(f"acceptance {num} ({name}): FAIL")
        raise
    elapsed = time.monotonic() - start
    status = "PASS" if elapsed < budget_s else "FAIL (runtime)"
    print(f"acceptance {num} ({name}): {status} [{elapsed:.2f}s]")
    assert elapsed < budget_s


def test_acceptance_1_slope_one_frontier_law():
    rng = np.random.default_rng(101)
    with _criterion(1, "slope-1 noiseless frontier law", 5.0):
        for _ in range(1000):
            inst = random_part2_instance(rng, noisy=False)
            geom = instance_geometry(inst)
            m = geom.m
            q1s, q2s = [], []
            targets = np.linspace(0.0, m, 101)
            for ec in targets:
                pol = alg1_policy(inst, float(ec))
                q1s.append(pol.q1)
                q2s.append(pol.q2)
            ec_arr, ea_arr = _scenario_errors_grid(
                geom, np.array(q1s), np.array(q2s)
            )
            assert np.max(np.abs(ea_arr - ec_arr)) <= 1e-12
            assert np.max(np.abs(ec_arr - targets)) <= 1e-12
            # Beyond the ceiling the errors saturate at (m, m).
            over = alg1_policy(inst, min(1.0, 1.5 * m + 0.01))
            ec_o, ea_o = _scenario_errors_grid(geom, over.q1, over.q2)
            assert abs(float(ec_o) - m) <= 1e-12
            assert abs(float(ea_o) - m) <= 1e-12


def test_acceptance_2_adversary_ceiling():
    rng = np.random.default_rng(102)
    with _criterion(2, "adversary error ceiling", 10.0):
        per_instance = 100
        total = 0
        while total < 100_000:
            noisy = bool(rng.integers(0, 2))
            inst = (
                random_noisy_instance(rng) if noisy else random_noiseless_instance(rng)
            )
            geom = instance_geometry(inst)
            if not geom.part2:
                # Forced: every policy has adversary error exactly m.
                total += per_instance
                continue
            q1 = rng.uniform(0.0, 1.0, per_instance)
            q2 = rng.uniform(0.0, 1.0, per_instance)
            _, ea = _scenario_errors_grid(geom, q1, q2)
            assert np.max(ea) <= geom.m + 1e-12
            # The endpoint policy attains the ceiling with equality.
            if geom.m > 0.0:
                big = max(geom.pu, geom.pv)
                if geom.pv > 0.0 and 0.0 <= (big - geom.pu) / geom.pv <= 1.0:
                    qe = (1.0, (big - geom.pu) / geom.pv)
                else:
                    qe = ((big - geom.pv) / geom.pu, 1.0)
                _, ea_end = _scenario_errors_grid(geom, qe[0], qe[1])
                assert abs(float(ea_end) - geom.m) <= 1e-12
            total += per_instance


def test_acceptance_3_piecewise_oracle_equivalence():
    rng = np.random.default_rng(103)
    grid = np.linspace(0.0, 1.0, 101)
    Q1 = grid[:, None]
    Q2 = grid[None, :]
    with _criterion(3, "piecewise closed form vs scenario table", 30.0):
        for k in range(200):
            noisy = bool(rng.integers(0, 2))
            inst = random_part2_instance(rng, noisy=noisy)
            geom = instance_geometry(inst)
            _, ea_table = _scenario_errors_grid(geom, Q1, Q2)
            w = geom.pu * Q1 + geom.pv * Q2
            ea_piece = np.minimum(np.minimum(w, 1.0 - w), geom.m)
            assert np.max(np.abs(ea_table - ea_piece)) <= 1e-12
            # Spot-check the scalar paths against each other as well.
            for _ in range(5):
                a, b = rng.uniform(0.0, 1.0, 2)
                direct = scenario_table(inst, Policy(a, b)).adversary_error
                assert abs(direct - piecewise_adversary_error(inst, a, b)) <= 1e-12


def test_acceptance_4_noisy_frontier_adherence():
    rng = np.random.default_rng(104)
    res = 2e-3
    grid = np.arange(0.0, 1.0 + res / 2, res)
    Q1 = grid[:, None]
    Q2 = grid[None, :]
    with _criterion(4, "noisy frontier adherence and endpoint", 120.0):
        for k in range(1000):
            inst = random_part2_instance(rng, noisy=True)
            geom = instance_geometry(inst)
            seg = noisy_frontier(inst)
            span = seg.end.ec - seg.start.ec
            for frac in np.linspace(0.0, 1.0, 9):
                target = seg.start.ec + frac * span
                pol = alg3_policy(inst, float(target))
                err = per_instance_errors(inst, pol)
                assert abs(err.ec - target) <= 1e-9
                if span > 1e-12:
                    on_line = seg.end.ea * (err.ec - seg.start.ec) / span
                    assert abs(err.ea - on_line) <= 1e-9
            ec_g, ea_g = _scenario_errors_grid(geom, Q1, Q2)
            top = ea_g.max()
            # Roundoff jitters the flat ceiling by ~1e-16 across cells, so
            # the maximizer set needs a matching tolerance band.
            best_ec = ec_g[ea_g >= top - 1e-12].min()
            assert abs(top - seg.end.ea) <= 3e-3
            assert abs(best_ec - seg.end.ec) <= 3e-3


def test_acceptance_5_monte_carlo_concordance():
    rng = np.random.default_rng(105)
    n = 200_000
    with _criterion(5, "Monte Carlo concordance", 120.0):
        hits = 0
        checks = 0
        for k in range(50):
            noisy = bool(rng.integers(0, 2))
            inst = (
                random_noisy_instance(rng) if noisy else random_noiseless_instance(rng)
            )
            pol = Policy(float(rng.uniform()), float(rng.uniform()))
            exact = per_instance_errors(inst, pol)
            sim = simulate_instance(inst, pol, n, seed=1000 + k)
            for target, emp in (
                (exact.ec, sim.empirical.ec),
                (exact.ea, sim.empirical.ea),
            ):
                se = math.sqrt(max(target * (1.0 - target), 0.0) / n)
                checks += 1
                if abs(emp - target) <= 3.0 * se + 1e-12:
                    hits += 1
        assert checks == 100
        assert hits >= 94


def test_acceptance_6_average_case_identity():
    pops = (
        Population(
            ReviewerProfile.affine(1.0, 0.0), ReviewerProfile.affine(1.0, 1.0), 0.0
        ),
        Population(
            ReviewerProfile.affine(1.5, -0.5), ReviewerProfile.affine(0.8, 0.7), 0.0
        ),
    )
    with _criterion(6, "average-case adversary error identity", 180.0):
        for pi, pop in enumerate(pops):
            zeta, eta, _ = zeta_eta(pop)
            for bi, ec_avg in enumerate((0.0, zeta / 2.0, zeta)):
                rule = Alg2Rule(pop, ec_avg)
                res = simulate_average(pop, rule, 1_000_000, seed=60 + 10 * pi + bi)
                target = ec_avg + eta
                se = max(res.stderr_ea, math.sqrt(target * (1.0 - target) / res.n))
                # Quadrature carries its own small tolerance on eta.
                assert abs(res.empirical.ea - target) <= 3.0 * se + 5e-6


# Iterations for acceptance 7. Every method of an iteration is scored on
# the same draws, so each leg compares per-iteration differences: their
# mean against 3 standard errors of it. The smallest effect is the
# messy-middle gap between within-conference and no calibration at noise
# variance 1.0, a per-iteration mean/sd of about 0.17 (paired z of 2.2 at
# 100 iterations, 4.4 to 6.9 at 1000 over seeds 0 to 4). Its z grows as
# 0.17 * sqrt(n): n = 1000 expects z = 5.5, which is 2.5 standard
# deviations of the statistic above the 3-sigma bar, so a correct program
# fails this leg at about one seed in 150. StudyConfig keeps its default
# of 100 iterations, too few for this leg.
STUDY_ITERATIONS = 1000


def test_acceptance_7_study_ordering():
    cfg = dataclasses.replace(StudyConfig(), iterations=STUDY_ITERATIONS)
    with _criterion(7, "calibration study ordering", 120.0):
        result = run_calibration_study(cfg)
        for var in cfg.noise_variances:
            known = result.cells[("known_parameters", var)]
            within = result.cells[("within_conference", var)]
            none = result.cells[("no_calibration", var)]
            for attr in ("kendall_tau", "messy_middle"):
                lo, mid, hi = (
                    np.asarray(getattr(cell, attr)) for cell in (known, within, none)
                )
                for better, worse in ((lo, mid), (mid, hi)):
                    diff = worse - better
                    se = diff.std(ddof=1) / math.sqrt(diff.size)
                    assert diff.mean() > 3.0 * se


def test_acceptance_8_randomized_response():
    with _criterion(8, "randomized response correspondence", 1.0):
        assert rr_epsilon(1.0) == 0.0
        assert rr_gamma(0.0) == 1.0
        assert rr_gamma(math.log(3.0)) == pytest.approx(3.0, rel=1e-15)
        assert rr_epsilon(math.e) == pytest.approx(1.0, rel=1e-15)
        rng = np.random.default_rng(108)
        for gamma in np.exp(rng.uniform(-20.0, 20.0, 1000)):
            assert abs(rr_gamma(rr_epsilon(float(gamma))) - gamma) <= 1e-15 * gamma


def test_acceptance_9_manifest_replay(tmp_path):
    study_cfg = {
        "study.n_papers": 20,
        "study.n_reviewers": 20,
        "study.reviews_per_paper": 3,
        "study.noise_variances": [0.25, 1.0],
        "study.iterations": 5,
        "study.accept_top": 6,
        "study.messy_lo": 3,
        "study.messy_hi": 9,
    }
    with _criterion(9, "byte-identical manifest replay", 120.0):
        cfg_path = tmp_path / "study_cfg.json"
        cfg_path.write_text(json.dumps(study_cfg))
        runs = (
            ("simulate", ["--seed", "17"]),
            ("study", ["--config", str(cfg_path)]),
        )
        for command, extra in runs:
            first = tmp_path / f"{command}_first"
            second = tmp_path / f"{command}_second"
            assert cli_main([command, *extra, "--out", str(first)]) == 0
            manifest = first / f"{command}_manifest.json"
            assert (
                cli_main([command, "--config", str(manifest), "--out", str(second)])
                == 0
            )
            a = (first / f"{command}.csv").read_bytes()
            b = (second / f"{command}.csv").read_bytes()
            assert a == b
