"""Tests for the command-line front end."""

import json
import math
import subprocess
import sys

import pytest

from privcal.cli import main


def _read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


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
        "command, entries, key",
        [
            ("frontier", {"instance.s1": "abc"}, "instance.s1"),
            ("policy", {"instance.a1": None}, "instance.a1"),
            ("policy", {"instance.b2": True}, "instance.b2"),
            ("simulate", {"seed": -1}, "seed"),
            ("simulate", {"seed": 2**64}, "seed"),
            ("simulate", {"simulate.n": 2.7}, "simulate.n"),
            ("simulate", {"simulate.n": "many"}, "simulate.n"),
            ("frontier", {"grid": 3.9}, "grid"),
            ("frontier", {"grid": math.inf}, "grid"),
            ("study", {"seed": -1}, "seed"),
            ("study", {"study.iterations": 2.5}, "study.iterations"),
            ("study", {"study.noise_variances": ["abc"]}, "study.noise_variances"),
            ("study", {"study.noise_variances": [None]}, "study.noise_variances"),
            ("study", {"study.noise_variances": 0.5}, "study.noise_variances"),
            ("study", {"study.noise_variances": []}, "study.noise_variances"),
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
            ("frontier", {"grid": 11.0}),
            ("simulate", {"simulate.n": 1000.0, "seed": 2**64 - 1}),
            ("policy", {"instance.s1": 1, "ec": 0}),
        ],
    )
    def test_integral_and_integer_values_accepted(self, command, entries, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entries))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 0


class TestFrontierCommand:
    def test_default_run_structure(self, tmp_path):
        assert main(["frontier", "--out", str(tmp_path)]) == 0
        header, rows = _read_csv(tmp_path / "frontier.csv")
        assert header == ["schema", "row_type", "ec", "ea"]
        assert all(r[0] == "privcal.frontier.v1" for r in rows)
        kinds = [r[1] for r in rows]
        assert kinds[0] == "start" and kinds[1] == "end"
        assert kinds.count("curve") == 101
        manifest = json.loads((tmp_path / "frontier_manifest.json").read_text())
        assert manifest["schema"] == "privcal.manifest.v1"
        assert manifest["command"] == "frontier"

    def test_grid_flag(self, tmp_path):
        assert main(["frontier", "--grid", "11", "--out", str(tmp_path)]) == 0
        _, rows = _read_csv(tmp_path / "frontier.csv")
        assert sum(1 for r in rows if r[1] == "curve") == 11

    def test_forced_instance_gives_point_row(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"instance.s1": 5.0, "instance.b2": 2.0}))
        assert main(["frontier", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        _, rows = _read_csv(tmp_path / "frontier.csv")
        assert len(rows) == 1 and rows[0][1] == "point"

    @pytest.mark.parametrize("command", ["frontier", "policy", "simulate"])
    def test_degenerate_instance_exits_3(self, command, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"instance.s1": 1e200, "instance.s2": -1e200}))
        code = main([command, "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("degenerate instance:")
        assert err.count("\n") == 1
        assert not (tmp_path / f"{command}.csv").exists()


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
    def test_entry_point_runs(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "privcal.cli", "policy", "--out", str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert (tmp_path / "policy.csv").exists()
