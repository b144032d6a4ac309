"""Command-line front end.

Four subcommands: frontier (Pareto endpoints plus the max-adversary
curve on a grid), policy (one policy with its analytic errors),
simulate (seeded Monte Carlo of one instance), and study (the
calibration benefit study). Every run writes a CSV and a JSON manifest
holding the fully resolved configuration; re-running with the manifest
as the config reproduces the CSV byte for byte. A run whose manifest
cannot be written removes the CSV it wrote. A subcommand is its
_DEFAULTS and _COMMANDS entries plus a runner that returns rows of plain
values; main alone writes them in the CSV format.

A flag (--seed, --ec, --grid) is a config entry, its text read as JSON
(else kept as a string); only the subcommands whose config has that
entry accept it, and --mode only those that build an instance. _coerce
alone converts each value to the type of its default: floats, or
integers, which must be integral, or for the study's noise variances a
nonempty list of floats; simlab owns the seed and replicate-count
ranges. The study's keys and defaults come from the fields of
StudyConfig.

Exit codes: 0 success (infeasible policy targets included), 2
configuration error (parser errors included), 3 numerical failure: a
quadrature accuracy failure, or a degenerate instance whose scores are
so extreme that the log odds of the assignments overflow to NaN. Exits
2 and 3 print one line to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time
from pathlib import Path

from . import __version__
from .model import (
    ConfigurationError,
    DegenerateInstanceError,
    Instance,
    ReviewerProfile,
    ScorePair,
)
from .frontier import (
    Infeasible,
    SegmentKind,
    frontier,
    instance_geometry,
    max_adversary_error_curve,
)
from .mechanism import AccuracyError, alg1_policy, alg3_policy
from .adversary import per_instance_errors
from .simlab import StudyConfig, run_calibration_study, simulate_instance

_INSTANCE_DEFAULTS = {
    "instance.a1": 1.0,
    "instance.b1": 0.0,
    "instance.a2": 1.0,
    "instance.b2": 1.0,
    "instance.sigma2": 0.0,
    "instance.s1": 0.5,
    "instance.s2": 1.0,
}


def _study_key(name: str) -> str:
    return name if name == "seed" else f"study.{name}"


_DEFAULTS = {
    "frontier": {**_INSTANCE_DEFAULTS, "grid": 101},
    "policy": {**_INSTANCE_DEFAULTS, "ec": 0.2},
    "simulate": {**_INSTANCE_DEFAULTS, "ec": 0.2, "simulate.n": 200_000, "seed": 0},
    "study": {
        _study_key(f.name): list(f.default) if isinstance(f.default, tuple) else f.default
        for f in dataclasses.fields(StudyConfig)
    },
}


_FLAGS = {
    "seed": "64-bit unsigned seed",
    "ec": "conference-error target",
    "grid": "grid point count",
}


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    # ValueError: malformed JSON or UTF-8, or an integer past the digit limit.
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}")
    manifest = isinstance(data, dict) and data.get("schema") == "privcal.manifest.v1"
    if manifest and "config" in data:
        data = data["config"]
    if not isinstance(data, dict):
        raise ConfigurationError("config must be a JSON object of flat keys")
    return data


def _coerce(key: str, value, default):
    """value converted to the type of default, or a ConfigurationError."""
    if isinstance(default, list):
        if not isinstance(value, (list, tuple)) or not value:
            raise ConfigurationError(f"{key} must be a nonempty list")
        return tuple(_coerce(f"{key} entry", v, 0.0) for v in value)
    kind = "a number" if isinstance(default, float) else "an integer"
    try:
        if isinstance(value, bool):
            raise TypeError
        if isinstance(default, float):
            return float(value)
        if isinstance(value, float) and not value.is_integer():
            raise ValueError
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigurationError(f"{key} must be {kind}, got {value!r}") from None


def _resolve(args: argparse.Namespace) -> tuple[dict, dict]:
    """(raw, typed) config: the defaults, then the file's entries, then the
    flags'; typed holds each value coerced to its default's type."""
    command = args.command
    defaults = _DEFAULTS[command]
    cfg = dict(defaults)
    if args.config:
        for key, value in _load_config(args.config).items():
            if key not in cfg:
                raise ConfigurationError(f"unknown config key for {command}: {key}")
            cfg[key] = value
    for flag in _FLAGS:
        text = getattr(args, flag, None)
        if text is not None:
            try:
                cfg[flag] = json.loads(text)
            except ValueError:
                cfg[flag] = text
    typed = {key: _coerce(key, value, defaults[key]) for key, value in cfg.items()}
    mode, sigma2 = getattr(args, "mode", None), typed.get("instance.sigma2")
    if mode and (mode == "noisy") != (sigma2 > 0.0):
        raise ConfigurationError(f"--mode {mode} conflicts with instance.sigma2={sigma2}")
    return cfg, typed


def _build_instance(cfg: dict) -> Instance:
    return Instance(
        ReviewerProfile.affine(cfg["instance.a1"], cfg["instance.b1"]),
        ReviewerProfile.affine(cfg["instance.a2"], cfg["instance.b2"]),
        cfg["instance.sigma2"],
        ScorePair(cfg["instance.s1"], cfg["instance.s2"]),
    )


def _write_manifest(
    out: Path, command: str, cfg: dict, started: float, csv_path: Path, csv: bytes
) -> None:
    digest = hashlib.sha256(csv).hexdigest()
    manifest = {
        "schema": "privcal.manifest.v1",
        "command": command,
        "version": __version__,
        "seed": cfg.get("seed"),
        "config": cfg,
        "duration_seconds": time.monotonic() - started,
        "outputs": {csv_path.name: {"sha256": digest}},
    }
    (out / f"{command}_manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _policy(inst: Instance, ec: float) -> tuple:
    """(policy, analytic errors) of Alg. 1 (noiseless) or Alg. 3 (noisy) at budget ec.

    An infeasible budget gives (Infeasible, None).
    """
    result = alg1_policy(inst, ec) if inst.noiseless else alg3_policy(inst, ec)
    if isinstance(result, Infeasible):
        return result, None
    return result, per_instance_errors(inst, result)


def cmd_frontier(cfg: dict) -> list[tuple]:
    inst = _build_instance(cfg)
    count = cfg["grid"]
    if count < 2:
        raise ConfigurationError("grid must be at least 2")
    seg = frontier(inst)
    if seg.kind is SegmentKind.POINT:
        return [("point", seg.start.ec, seg.start.ea)]
    rows = [("start", seg.start.ec, seg.start.ea), ("end", seg.end.ec, seg.end.ea)]
    lo, hi = seg.min_feasible_ec, instance_geometry(inst).ec_intercept
    for i in range(count):
        # Roundoff can carry the last point one ulp past hi.
        ec = min(lo + (hi - lo) * i / (count - 1), hi)
        rows.append(("curve", ec, max_adversary_error_curve(inst, ec)))
    return rows


def cmd_policy(cfg: dict) -> list[tuple]:
    result, errs = _policy(_build_instance(cfg), cfg["ec"])
    if errs is None:
        return [("false", "", "", "", "", "", result.min_feasible_ec)]
    forced = result.forced.name.lower() if result.forced else ""
    return [("true", result.q1, result.q2, forced, errs.ec, errs.ea, "")]


def cmd_simulate(cfg: dict) -> list[tuple]:
    inst = _build_instance(cfg)
    n, seed = cfg["simulate.n"], cfg["seed"]
    result, errs = _policy(inst, cfg["ec"])
    if errs is None:
        return [("false", n, seed) + ("",) * 8]
    sim = simulate_instance(inst, result, n, seed)
    return [
        ("true", n, seed, result.q1, result.q2, errs.ec, errs.ea)
        + (sim.empirical.ec, sim.empirical.ea, sim.stderr_ec, sim.stderr_ea)
    ]


def cmd_study(cfg: dict) -> list[tuple]:
    study_cfg = StudyConfig(
        **{f.name: cfg[_study_key(f.name)] for f in dataclasses.fields(StudyConfig)}
    )
    result = run_calibration_study(study_cfg)
    return [
        (method, var, c.mean_kendall_tau, c.se_kendall_tau, c.mean_messy_middle, c.se_messy_middle)
        for (method, var), c in sorted(result.cells.items())
    ]


# Per subcommand: (runner, schema tag, column names after "schema", help).
_COMMANDS = {
    "frontier": (
        cmd_frontier,
        "privcal.frontier.v1",
        ("row_type", "ec", "ea"),
        "Pareto endpoints and max-adversary curve",
    ),
    "policy": (
        cmd_policy,
        "privcal.policy.v1",
        ("feasible", "q1", "q2", "forced", "ec", "ea", "min_feasible_ec"),
        "one policy with its analytic errors",
    ),
    "simulate": (
        cmd_simulate,
        "privcal.simulate.v1",
        ("feasible", "n", "seed", "q1", "q2", "ec_analytic", "ea_analytic")
        + ("ec_empirical", "ea_empirical", "stderr_ec", "stderr_ea"),
        "seeded Monte Carlo of one instance",
    ),
    "study": (
        cmd_study,
        "privcal.study.v2",
        ("method", "noise_variance", "mean_kendall_tau", "se_kendall_tau")
        + ("mean_messy_middle", "se_messy_middle"),
        "reviewer-calibration benefit study",
    ),
}


class _Parser(argparse.ArgumentParser):
    """A parser whose errors are configuration errors; --help still exits 0."""

    def error(self, message: str):
        raise ConfigurationError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="privcal",
        description="Privacy-preserving calibration: frontiers, policies, simulations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, _, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config (flat dotted keys) or a manifest")
        p.add_argument("--out", default=".", help="output directory (default: .)")
        for flag, flag_help in _FLAGS.items():
            if flag in _DEFAULTS[name]:
                p.add_argument(f"--{flag}", help=flag_help)
        if "instance.sigma2" in _DEFAULTS[name]:
            p.add_argument(
                "--mode",
                choices=("noiseless", "noisy"),
                help="assert the instance's noise mode",
            )
    return parser


def main(argv=None) -> int:
    started = time.monotonic()
    try:
        args = _build_parser().parse_args(argv)
        cfg, typed = _resolve(args)
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigurationError(f"cannot create --out {out}: {exc.strerror}") from None
        runner, tag, columns, _ = _COMMANDS[args.command]
        # Ints (n, seed) are written exactly: %.17g would round a 64-bit seed.
        lines = [",".join(("schema",) + columns)]
        for row in runner(typed):
            cells = (str(v) if isinstance(v, (str, int)) else _fmt(v) for v in row)
            lines.append(",".join((tag, *cells)))
        csv = ("\n".join(lines) + "\n").encode("utf-8")
        csv_path = out / f"{args.command}.csv"
        try:
            csv_path.write_bytes(csv)
            try:
                _write_manifest(out, args.command, cfg, started, csv_path, csv)
            except OSError:
                # All or nothing: no CSV stays without its manifest.
                csv_path.unlink()
                raise
        except OSError as exc:
            raise ConfigurationError(f"cannot write {exc.filename}: {exc.strerror}") from None
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except AccuracyError as exc:
        print(f"accuracy error: {exc}", file=sys.stderr)
        return 3
    except DegenerateInstanceError as exc:
        print(f"degenerate instance: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
