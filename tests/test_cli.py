"""Tests for the command-line front end."""

import contextlib
import io
import json
import math
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import privcal
from privcal import AccuracyError, cli, max_adversary_error_curve
from privcal.cli import _DEFAULTS, main
from privcal.frontier import frontier, instance_geometry
from privcal.model import posterior_weights
from conftest import make_instance, vertex_tolerance


def _read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


_NO_GRID = "unknown config key for frontier: grid"


class TestConfigResolution:
    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"instance.bogus": 1.0}))
        code = main(["frontier", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_flag_not_accepted_exits_2(self, tmp_path, capsys):
        code = main(["frontier", "--ec", "0.2", "--out", str(tmp_path)])
        assert code == 2
        assert "--ec" in capsys.readouterr().err

    def test_mode_conflict_exits_2(self, tmp_path, capsys):
        code = main(["frontier", "--mode", "noisy", "--out", str(tmp_path)])
        assert code == 2
        assert "conflicts" in capsys.readouterr().err

    def test_mode_agreement_passes(self, tmp_path):
        assert main(["frontier", "--mode", "noiseless", "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("raw", ["0", "two"])
    def test_bad_thread_count_exits_2(self, raw, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("PRIVCAL_THREADS", raw)
        assert main(["simulate", "--out", str(tmp_path)]) == 2
        assert "PRIVCAL_THREADS" in capsys.readouterr().err

    def test_malformed_json_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert main(["policy", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "raw", [b'{"ec": 0.2\xff}', b'{"seed": ' + b"1" * 5000 + b"}"], ids=["utf8", "digits"]
    )
    def test_undecodable_config_exits_2(self, raw, tmp_path, capsys):
        """Bytes that are not UTF-8, or an integer past Python's digit limit."""
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(raw)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: cannot read config")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, entries, key",
        [
            ("frontier", {"instance.s1": "abc"}, "instance.s1"),
            ("policy", {"instance.a1": None}, "instance.a1"),
            ("policy", {"instance.b2": True}, "instance.b2"),
            ("simulate", {"seed": -1}, "seed"),
            ("simulate", {"seed": 2**64}, "seed"),
            ("simulate", {"simulate.n": 2.7}, "simulate.n"),
            ("simulate", {"simulate.n": "many"}, "simulate.n"),
            ("simulate", {"simulate.n": 3.9}, "simulate.n"),
            ("simulate", {"simulate.n": math.inf}, "simulate.n"),
            ("study", {"seed": -1}, "seed"),
            ("study", {"study.iterations": 2.5}, "study.iterations"),
            ("study", {"study.noise_variances": ["abc"]}, "study.noise_variances"),
            ("study", {"study.noise_variances": [None]}, "study.noise_variances"),
            ("study", {"study.noise_variances": 0.5}, "study.noise_variances"),
            ("study", {"study.noise_variances": []}, "study.noise_variances"),
            ("simulate", {"simulate.n": 1e18}, "n must be an integer"),
            # The frontier writes its curve's vertices and has no grid: a
            # config, or a privcal.frontier.v1 run's manifest, holding one
            # is refused.
            ("frontier", {"grid": -5}, _NO_GRID),
            ("frontier", {"grid": 11, "instance.s1": 5.0}, _NO_GRID),
            ("frontier", {"schema": "privcal.manifest.v1", "config": {"grid": 101}}, _NO_GRID),
            ("policy", [1, 2], "config must be a JSON object"),
            # A manifest's config entry is held to the same rule.
            *(
                ("policy", {"schema": "privcal.manifest.v1", "config": inner},
                 "config must be a JSON object")
                for inner in ([1, 2], "ab", None)
            ),
        ],
    )
    def test_uncoercible_value_exits_2(self, command, entries, key, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entries))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {key}")
        assert err.count("\n") == 1
        assert not (tmp_path / f"{command}.csv").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["policy", "--ec", "abc"],
            ["simulate", "--seed", "-3"],
            ["simulate", "--seed", "2.5"],
            ["frontier", "--grid", "3.9"],
            ["frontier", "--mode", "weird"],
            ["policy", "--bogus", "1"],
            [],
            # Each subcommand takes only its own flags.
            ["study", "--mode", "noisy"],
        ],
    )
    def test_bad_argument_exits_2_with_one_line(self, argv, tmp_path, capsys):
        """Flags go through the config's coercion, and parser errors are
        configuration errors: no usage text, no SystemExit."""
        assert main(argv + ["--out", str(tmp_path)] if argv else []) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert err.count("\n") == 1
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under_file"])
    def test_out_that_cannot_be_a_directory_exits_2(self, under, tmp_path, capsys):
        """An --out naming a file, or a path below one, is a configuration
        error with one stderr line, and the file is left as it was."""
        taken = tmp_path / "taken"
        taken.write_text("kept")
        out = taken / "x" if under else taken
        assert main(["policy", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: cannot create --out {out}")
        assert err.count("\n") == 1
        assert taken.read_text() == "kept"

    @pytest.mark.parametrize("name", ["policy.csv", "policy_manifest.json"])
    def test_output_file_that_is_a_directory_exits_2(self, name, tmp_path, capsys):
        """A directory in the way of an output file is a configuration error
        with one stderr line naming the path, and no CSV stays behind."""
        (tmp_path / name).mkdir()
        assert main(["policy", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: cannot write {tmp_path / name}: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "policy.csv").is_file()

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["policy", "--help"])
        assert stop.value.code == 0
        assert "--ec" in capsys.readouterr().out

    def test_negative_seed_flag_exits_2(self, tmp_path, capsys):
        assert main(["simulate", "--seed", "-3", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("configuration error: seed")

    def test_non_numeric_sigma2_with_mode_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"instance.sigma2": "x"}))
        args = ["frontier", "--mode", "noisy", "--config", str(cfg), "--out", str(tmp_path)]
        assert main(args) == 2
        assert "instance.sigma2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, entries",
        [
            ("frontier", {"instance.sigma2": 1, "instance.s2": 2}),
            ("simulate", {"simulate.n": 1000.0, "seed": 2**64 - 1}),
            ("policy", {"instance.s1": 1, "ec": 0}),
        ],
    )
    def test_integral_and_integer_values_accepted(self, command, entries, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entries))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("command, flag, text", [("simulate", "seed", "1e3")])
    def test_integral_flag_values_accepted(self, command, flag, text, tmp_path):
        """A flag reads as its config entry: --seed 1e3 runs as {"seed": 1000.0}."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({flag: json.loads(text)}))
        by_flag, by_file = tmp_path / "flag", tmp_path / "file"
        assert main([command, f"--{flag}", text, "--out", str(by_flag)]) == 0
        assert main([command, "--config", str(cfg), "--out", str(by_file)]) == 0
        csv = f"{command}.csv"
        assert (by_flag / csv).read_bytes() == (by_file / csv).read_bytes()


class TestFrontierCommand:
    def test_default_run_structure(self, tmp_path):
        assert main(["frontier", "--out", str(tmp_path)]) == 0
        header, rows = _read_csv(tmp_path / "frontier.csv")
        assert header == ["schema", "row_type", "ec", "ea"]
        assert all(r[0] == "privcal.frontier.v2" for r in rows)
        assert [r[1] for r in rows] == ["start", "end"] + ["vertex"] * 4
        manifest = json.loads((tmp_path / "frontier_manifest.json").read_text())
        assert manifest["schema"] == "privcal.manifest.v1"
        assert manifest["command"] == "frontier"

    def test_grid_flag(self, tmp_path, capsys):
        """The frontier writes its curve's vertices, so there is no grid to set."""
        assert main(["frontier", "--grid", "11", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "--grid" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "frontier.csv").exists()

    def test_forced_instance_gives_point_row(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"instance.s1": 5.0, "instance.b2": 2.0}))
        assert main(["frontier", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        _, rows = _read_csv(tmp_path / "frontier.csv")
        assert len(rows) == 1 and rows[0][1] == "point"

    def test_underflowing_phi_denominator_gives_a_csv(self, tmp_path, capsys):
        """The product of phi's four square roots underflows to 0 here, yet
        the ratio it divides is finite: a result, not a traceback."""
        values = (
            1.7279889467572657e-73, -1.1086098787300444e-282,
            1.7325726654343732e-168, 4.073267281433621,
            3.0033406851515627e-182, 0.7241782567958, 6.047463332384874e19,
        )
        keys = ("a1", "b1", "a2", "b2", "sigma2", "s1", "s2")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({f"instance.{k}": v for k, v in zip(keys, values)}))
        assert main(["frontier", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        _, rows = _read_csv(tmp_path / "frontier.csv")
        vertices = [(float(r[2]), float(r[3])) for r in rows if r[1] == "vertex"]
        want = privcal.curve_vertices(make_instance(*values))
        assert vertices == [(v.ec, v.ea) for v in want]

    def test_last_grid_point_is_the_intercept(self, tmp_path):
        # A noisy instance on which lo + (hi - lo) * 100 / 100 exceeds hi by
        # one ulp, so that the last point of a 101-point grid would leave
        # the curve's domain; it was found by a seeded search over
        # one-decimal configs. The last vertex is hi itself.
        values = (1.7, -0.5, 1.6, 0.1, 0.1, 0.8, 1.1)
        keys = ("a1", "b1", "a2", "b2", "sigma2", "s1", "s2")
        entries = {f"instance.{k}": v for k, v in zip(keys, values)}
        inst = make_instance(*values)
        lo, hi = frontier(inst).min_feasible_ec, instance_geometry(inst).ec_intercept
        assert lo + (hi - lo) * 100 / 100 > hi
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entries))
        assert main(["frontier", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        _, rows = _read_csv(tmp_path / "frontier.csv")
        vertices = [(float(r[2]), float(r[3])) for r in rows if r[1] == "vertex"]
        assert len(vertices) == 4
        assert vertices[-1] == (hi, 0.0)
        for ec, ea in vertices:
            assert abs(max_adversary_error_curve(inst, ec) - ea) <= vertex_tolerance(inst)

    @pytest.mark.parametrize("command", ["frontier", "policy", "simulate"])
    def test_degenerate_instance_exits_3(self, command, tmp_path, capsys):
        # Unequal slopes: both log ratios overflow, and the log odds are NaN.
        cfg = tmp_path / "cfg.json"
        entries = {"instance.s1": 1e200, "instance.s2": -1e200, "instance.a2": 2.0}
        cfg.write_text(json.dumps(entries))
        code = main([command, "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("degenerate instance:")
        assert err.count("\n") == 1
        assert not (tmp_path / f"{command}.csv").exists()

    def test_extreme_scores_with_equal_slopes_are_not_degenerate(self, tmp_path):
        # Every log density is -inf here, but with equal slopes the log
        # odds are linear in the scores and finite: d = 2e200, so A2 is
        # certain and paper 1, with the far higher score, is accepted.
        entries = {"instance.s1": 1e200, "instance.s2": -1e200}
        inst = make_instance(1.0, 0.0, 1.0, 1.0, 0.0, 1e200, -1e200)
        assert posterior_weights(inst) == (0.0, 1.0)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entries))
        for command in ("frontier", "policy", "simulate"):
            assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 0
        _, rows = _read_csv(tmp_path / "policy.csv")
        assert rows == [["privcal.policy.v1", "true", "1", "1", "paper1", "0", "0", ""]]

    @pytest.mark.parametrize("command", ["frontier", "policy", "simulate"])
    @pytest.mark.parametrize(
        "entries, code",
        [
            # a1^2 underflows to 0, the variance of paper 1's score density.
            ({"instance.a1": 1e-170}, 2),
            # phi1 and phi2 round to 1/2, so alpha1 = alpha2 = 0.
            ({"instance.sigma2": 1e16}, 0),
            # a1^2 overflows, and the posterior weights would be NaN.
            ({"instance.a1": 1e300, "instance.b1": -1e300}, 2),
            # The product under phi's square root underflows.
            ({"instance.a2": 0.5, "instance.sigma2": 5e-324}, 0),
            # Both terms of Phi1's numerator overflow, and inf - inf is NaN.
            ({"instance.sigma2": 1e100, "instance.s1": 1e300, "instance.s2": 1e300}, 3),
            # Phi2's numerator and the product of phi's roots overflow; the
            # divided-through ratio is finite.
            ({"instance.sigma2": 1.2e308}, 0),
        ],
    )
    def test_extreme_instance_exits_cleanly(self, command, entries, code, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entries))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == code
        assert capsys.readouterr().err.count("\n") == (code != 0)

    def test_accuracy_error_exits_3_with_one_line(self, monkeypatch, tmp_path, capsys):
        def unmet(typed):
            raise AccuracyError("quadrature tolerance unmet", 0.25, 1e-3)

        _, tag, columns, help_text = cli._COMMANDS["policy"]
        monkeypatch.setitem(cli._COMMANDS, "policy", (unmet, tag, columns, help_text))
        assert main(["policy", "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err == "accuracy error: quadrature tolerance unmet (estimate 0.25, bound 0.001)\n"
        assert not (tmp_path / "policy.csv").exists()


class TestPolicyCommand:
    def test_feasible_reference(self, tmp_path):
        assert main(["policy", "--out", str(tmp_path)]) == 0
        header, rows = _read_csv(tmp_path / "policy.csv")
        assert header[:3] == ["schema", "feasible", "q1"]
        row = rows[0]
        assert row[1] == "true"
        assert float(row[2]) == 1.0
        assert float(row[3]) == pytest.approx(0.470256, abs=1e-5)
        assert float(row[5]) == pytest.approx(0.2, abs=1e-12)

    def test_infeasible_target_still_exits_0(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"instance.sigma2": 1.0, "instance.a2": 2.0, "ec": 0.0})
        )
        code = main(["policy", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 0
        _, rows = _read_csv(tmp_path / "policy.csv")
        row = rows[0]
        assert row[1] == "false"
        assert float(row[7]) > 0.0  # the reported minimum feasible target


class TestSimulateCommand:
    def test_empirical_matches_analytic(self, tmp_path):
        assert main(["simulate", "--seed", "5", "--out", str(tmp_path)]) == 0
        _, rows = _read_csv(tmp_path / "simulate.csv")
        row = rows[0]
        assert row[1] == "true"
        ec_a, ea_a = float(row[6]), float(row[7])
        ec_e, ea_e = float(row[8]), float(row[9])
        se_ec, se_ea = float(row[10]), float(row[11])
        assert abs(ec_e - ec_a) <= 4.0 * se_ec + 1e-9
        assert abs(ea_e - ea_a) <= 4.0 * se_ea + 1e-9


class TestStudyCommand:
    CFG = {
        "study.n_papers": 20,
        "study.n_reviewers": 20,
        "study.reviews_per_paper": 3,
        "study.noise_variances": [0.25],
        "study.iterations": 3,
        "study.accept_top": 6,
        "study.messy_lo": 3,
        "study.messy_hi": 9,
    }

    def test_rows_cover_methods(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.CFG))
        assert main(["study", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        _, rows = _read_csv(tmp_path / "study.csv")
        methods = {r[1] for r in rows}
        assert methods == {"no_calibration", "within_conference", "known_parameters"}
        assert len(rows) == 3

    @pytest.mark.parametrize("variance", [-1.0, math.inf, math.nan])
    def test_invalid_noise_variance_exits_2(self, variance, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**self.CFG, "study.noise_variances": [0.5, variance]}))
        assert main(["study", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "noise_variances" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key", ["study.n_reviewers", "study.n_papers", "study.iterations"]
    )
    def test_zero_count_exits_2(self, key, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**self.CFG, key: 0}))
        assert main(["study", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {key.split('.')[1]}")
        assert err.count("\n") == 1
        assert not (tmp_path / "study.csv").exists()

    @pytest.mark.parametrize(
        "entries",
        [
            {"study.n_papers": 10, "study.n_reviewers": 10, "study.iterations": 1},
            {"study.accept_top": 0, "study.messy_lo": -5, "study.messy_hi": 0},
        ],
    )
    def test_band_outside_the_ranks_exits_2(self, entries, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entries))
        assert main(["study", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: messy_lo..messy_hi")
        assert err.count("\n") == 1
        assert not (tmp_path / "study.csv").exists()

    @pytest.mark.parametrize(
        "papers, reviewers, k", [(12, 3, 3), (20, 4, 3), (10, 5, 5), (60, 4, 2)]
    )
    def test_dense_reviewer_pools_run(self, papers, reviewers, k, tmp_path):
        """Pools too dense for rejection sampling still run the study."""
        entries = {
            **self.CFG,
            "study.n_papers": papers,
            "study.n_reviewers": reviewers,
            "study.reviews_per_paper": k,
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entries))
        assert main(["study", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        _, rows = _read_csv(tmp_path / "study.csv")
        assert len(rows) == 3

    def test_more_reviews_than_reviewers_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**self.CFG, "study.n_reviewers": 2}))
        assert main(["study", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: reviews_per_paper (3) exceeds")
        assert err.count("\n") == 1
        assert not (tmp_path / "study.csv").exists()

    def test_zero_noise_variance_runs(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**self.CFG, "study.noise_variances": [0.0]}))
        assert main(["study", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        _, rows = _read_csv(tmp_path / "study.csv")
        assert len(rows) == 3
        assert all(float(r[2]) == 0.0 for r in rows)


class TestManifestReplay:
    @pytest.mark.parametrize("command", ["frontier", "policy", "simulate"])
    def test_replay_is_byte_identical(self, command, tmp_path):
        first = tmp_path / "first"
        second = tmp_path / "second"
        assert main([command, "--out", str(first)]) == 0
        manifest = first / f"{command}_manifest.json"
        assert main([command, "--config", str(manifest), "--out", str(second)]) == 0
        a = (first / f"{command}.csv").read_bytes()
        b = (second / f"{command}.csv").read_bytes()
        assert a == b
        # The manifest hashes must agree as well.
        ma = json.loads(manifest.read_text())
        mb = json.loads((second / f"{command}_manifest.json").read_text())
        assert ma["outputs"] == mb["outputs"]

    def test_study_replay(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(TestStudyCommand.CFG))
        first = tmp_path / "first"
        second = tmp_path / "second"
        assert main(["study", "--config", str(cfg), "--out", str(first)]) == 0
        manifest = first / "study_manifest.json"
        assert main(["study", "--config", str(manifest), "--out", str(second)]) == 0
        assert (first / "study.csv").read_bytes() == (second / "study.csv").read_bytes()


class TestConsoleScript:
    @staticmethod
    def _env() -> dict:
        """The environment with privcal's source root first on PYTHONPATH:
        pytest's pythonpath setting reaches only its own process."""
        src = str(Path(privcal.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        return {**os.environ, "PYTHONPATH": os.pathsep.join([src] + ([path] if path else []))}

    def test_entry_point_runs(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "privcal.cli", "policy", "--out", str(tmp_path)],
            capture_output=True,
            text=True,
            env=self._env(),
        )
        assert proc.returncode == 0
        assert (tmp_path / "policy.csv").exists()

    def test_main_block_runs_main(self, tmp_path, monkeypatch):
        """The module's __main__ block exits with main's code, in process."""
        monkeypatch.setattr(sys, "argv", ["privcal", "frontier", "--out", str(tmp_path)])
        # runpy warns that it runs a module already imported, and pyproject
        # turns a RuntimeWarning into an error.
        with pytest.warns(RuntimeWarning, match="found in sys.modules"):
            with pytest.raises(SystemExit) as stop:
                runpy.run_module("privcal.cli", run_name="__main__")
        assert stop.value.code == 0
        golden = TestGoldenCsv.GOLDEN / "frontier_default.csv"
        assert (tmp_path / "frontier.csv").read_bytes() == golden.read_bytes()

    def test_entry_point_exits_2_with_one_line(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "privcal.cli", "policy", "--ec", "abc", "--out", str(tmp_path)],
            capture_output=True,
            text=True,
            env=self._env(),
        )
        assert proc.returncode == 2
        assert proc.stderr == "configuration error: ec must be a number, got 'abc'\n"
        assert not (tmp_path / "policy.csv").exists()


class TestGoldenCsv:
    """CLI CSVs compared byte for byte with tests/data/golden/.

    Each golden file <command>_<config>.csv was written by
    `privcal <command> --config <config>.json` with the config below.
    A change that alters one must say which bytes changed and why.
    """

    GOLDEN = Path(__file__).parent / "data" / "golden"
    CONFIGS = {
        "default": {},
        "noisy": {"instance.sigma2": 0.7, "instance.s1": 0.3},
        "ec1": {"ec": 1.0},
        # Alg. 3's endpoint, where the noisy simulation runs.
        "noisy_ec1": {"instance.sigma2": 0.7, "instance.s1": 0.3, "ec": 1.0},
    }

    @pytest.mark.parametrize(
        "command, config",
        [
            ("frontier", "default"),
            ("frontier", "noisy"),
            ("policy", "default"),
            ("policy", "noisy"),
            ("policy", "ec1"),
            ("policy", "noisy_ec1"),
            ("simulate", "default"),
            ("simulate", "noisy"),
            ("simulate", "ec1"),
            ("simulate", "noisy_ec1"),
            ("study", "default"),
        ],
    )
    def test_csv_matches_golden(self, command, config, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.CONFIGS[config]))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 0
        golden = self.GOLDEN / f"{command}_{config}.csv"
        assert (tmp_path / f"{command}.csv").read_bytes() == golden.read_bytes()


# Config values of every JSON kind: extreme finite floats, zeros,
# negatives, huge integers, NaN and inf, booleans, null and lists.
_ANY_VALUE = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-170, 1e16, 1e300, -1e300, sys.float_info.max]),
    st.integers(-(2**80), 2**80),
    st.booleans(),
    st.none(),
    st.lists(st.floats(allow_nan=True), max_size=2),
)


def _bounded(hi: int):
    """Values for a count key, at most hi when integral, so a run stays short."""
    return st.one_of(
        st.integers(-2, hi),
        st.floats(-2.0, float(hi)),
        st.sampled_from([math.nan, math.inf, -math.inf, True, None, [3]]),
    )


_COUNT_KEYS = {"simulate.n": _bounded(3000)}


@st.composite
def _fuzz_config(draw, command):
    keys = sorted(_DEFAULTS[command].keys() - _COUNT_KEYS.keys())
    cfg = draw(st.dictionaries(st.sampled_from(keys), _ANY_VALUE, max_size=4))
    for key in _COUNT_KEYS.keys() & _DEFAULTS[command].keys():
        cfg[key] = draw(_COUNT_KEYS[key])
    return cfg


# The sizes of a study small enough to run in milliseconds: up to 6
# papers, 3 reviews per paper and 2 iterations. Invalid counts are
# checked by test_uncoercible_value_exits_2 and the StudyConfig guards.
_STUDY_SIZES = {
    "study.n_papers": 6,
    "study.reviews_per_paper": 3,
    "study.iterations": 2,
}


@st.composite
def _fuzz_study_config(draw):
    cfg = {key: draw(st.integers(1, hi)) for key, hi in _STUDY_SIZES.items()}
    papers = cfg["study.n_papers"]
    # As many reviewers as papers always balance the reviews.
    cfg["study.n_reviewers"] = draw(st.one_of(st.just(papers), st.integers(1, 6)))
    # A band inside 1..n_papers, so that most configs run the study.
    cfg["study.messy_lo"], cfg["study.messy_hi"] = 1, papers
    cfg["study.accept_top"] = draw(st.integers(1, papers))
    keys = sorted(_DEFAULTS["study"].keys() - _STUDY_SIZES.keys() - {"study.n_reviewers"})
    cfg.update(draw(st.dictionaries(st.sampled_from(keys), _ANY_VALUE, max_size=4)))
    return cfg


# A 3-paper study whose one iteration runs in milliseconds.
_TINY_STUDY = {
    "study.iterations": 1,
    "study.n_papers": 3,
    "study.n_reviewers": 3,
    "study.accept_top": 2,
    "study.messy_lo": 1,
    "study.messy_hi": 3,
}


def _outcome(command: str, entries: dict, flags: list, out: Path) -> tuple:
    """(exit code, first stderr line, CSV bytes or None) of one run, which
    exits 0, or 2 or 3 with one stderr line and no CSV, and never raises
    SystemExit."""
    cfg = out.with_suffix(".json")
    cfg.write_text(json.dumps(entries))
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", str(cfg), *flags, "--out", str(out)])
    except SystemExit as stop:
        pytest.fail(f"SystemExit({stop.code}) out of main(): {err.getvalue()!r}")
    assert code in (0, 2, 3)
    assert err.getvalue().count("\n") == (code != 0)
    csv = out / f"{command}.csv"
    assert csv.exists() == (code == 0)
    data = csv.read_bytes() if csv.exists() else None
    csv.unlink(missing_ok=True)
    return code, err.getvalue().splitlines()[:1], data


class TestConfigFuzz:
    @pytest.mark.parametrize("command", ["frontier", "policy", "simulate"])
    def test_every_config_exits_0_2_or_3(self, command, tmp_path):
        """Any config gives exit 0, or exit 2 or 3 with one stderr line."""

        @settings(max_examples=150, deadline=None, derandomize=True)
        @given(_fuzz_config(command))
        @example({"instance.a1": 1e-170})
        @example({"instance.sigma2": 1e16})
        @example({"instance.a1": 1e300, "instance.b1": -1e300})
        @example({"instance.a2": 0.5, "instance.sigma2": 5e-324})
        @example({"instance.sigma2": 1.2e308})
        @example({"instance.a1": 5e-324, "instance.a2": 5e-324, "instance.sigma2": 1e-170})
        def run(entries):
            _outcome(command, entries, [], tmp_path / "out")

        run()

    def test_every_study_config_exits_0_2_or_3(self, tmp_path):
        """Any small study config gives exit 0, or exit 2 or 3 with one
        stderr line and no CSV; non-finite estimates are never ranked."""

        @settings(max_examples=150, deadline=None, derandomize=True)
        @given(_fuzz_study_config())
        @example({**_TINY_STUDY, "study.noise_variances": [1e308]})
        @example({**_TINY_STUDY, "study.slope_rate": 1e-300})
        @example({**_TINY_STUDY, "study.bias_variance": 1e308})
        @example({**_TINY_STUDY, "study.n_papers": 12, "study.reviews_per_paper": 3})
        @example(
            {
                **_TINY_STUDY,
                "study.n_papers": 10,
                "study.n_reviewers": 5,
                "study.reviews_per_paper": 5,
            }
        )
        def run(entries):
            _outcome("study", entries, [], tmp_path / "out")

        run()

    @pytest.mark.parametrize(
        "command, key",
        [
            ("policy", "ec"),
            ("simulate", "ec"),
            ("simulate", "seed"),
            ("study", "seed"),
        ],
    )
    def test_flag_runs_as_its_config_entry(self, command, key, tmp_path):
        """--KEY=<json.dumps(value)> and a config file {KEY: value} give the
        same exit code, first stderr line and CSV bytes. The flag is one
        --KEY=TEXT token: argparse reads a separate token such as -1e-05 or
        -Infinity as an option rather than as the flag's value."""
        base = {"simulate": {"simulate.n": 2000}, "study": _TINY_STUDY}.get(command, {})

        @settings(max_examples=100, deadline=None, derandomize=True)
        @given(_ANY_VALUE)
        def run(value):
            flag = [f"--{key}={json.dumps(value)}"]
            by_flag = _outcome(command, base, flag, tmp_path / "flag")
            by_file = _outcome(command, {**base, key: value}, [], tmp_path / "file")
            assert by_flag == by_file

        run()

    @pytest.mark.parametrize(
        "extreme",
        [
            {"study.noise_variances": [1e308]},
            {"study.slope_rate": 1e-300},
            {"study.bias_variance": 1e308},
        ],
    )
    def test_overflowing_study_is_a_configuration_error(self, extreme, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**_TINY_STUDY, **extreme}))
        assert main(["study", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "too extreme" in capsys.readouterr().err
        assert not (tmp_path / "study.csv").exists()
