"""Command-line entry point: run one experiment, write report files, print a summary.

Exit codes: 0 success, 2 configuration error, 3 experiment error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import errors
from .experiments import (NoiseProfile, calibrate_angle_noise, estimate_k_magnitude,
                          json_text, run_case_comparison, run_commutator_qpt,
                          run_phase_of_k, run_phase_scan)
from .optics import half_wave, prepare_state, quarter_wave
from .photon_stats import DetectorModel, SourceModel
from .qubit import STATE_V

EXPERIMENTS = ("phase-scan", "case-compare", "qpt", "estimate-k", "phase-of-k",
               "calibrate-noise")


class ConfigError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pauli-interference",
        description="Simulated interferometric measurement of Pauli commutation relations.")
    p.add_argument("experiment", nargs="?", choices=EXPERIMENTS,
                   help="experiment to run (alternative to --experiment)")
    p.add_argument("--experiment", dest="experiment_flag", choices=EXPERIMENTS)
    p.add_argument("--config", type=Path, help="JSON config file; flags override it")
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--ideal", action="store_true",
                   help="visibility 1, no angle error, no dark counts")
    p.add_argument("--exact-probabilities", action="store_true",
                   help="bypass Poisson sampling; counts are expected values")
    p.add_argument("--output", type=Path, default=Path("."), help="output directory")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="count-record format (report.json is always written)")
    return p


# built once: parse_args leaves the parser unchanged, and building it costs
# several times as much as parsing
PARSER = build_parser()


def load_config(args) -> dict:
    """Parse the --config file once; an absent file is an empty config."""
    if args.config is None:
        return {}
    try:
        cfg = json.loads(args.config.read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {args.config} is not a JSON object")
    if unknown := cfg.keys() - {"noise", "input_state"}:
        raise ConfigError(f"config {args.config} has unknown keys {sorted(unknown)}")
    return cfg


def _section(cfg: dict, key: str) -> dict:
    """A config section: a JSON object, or null (or absent) for an empty one."""
    section = cfg.get(key)
    if section is not None and not isinstance(section, dict):
        raise ConfigError(f"section {key!r} must be a JSON object or null")
    return {} if section is None else section


def load_noise_profile(cfg: dict, args) -> NoiseProfile:
    try:
        noise_cfg = _section(cfg, "noise")
        detector = DetectorModel(**_section(noise_cfg, "detector"))
        source = SourceModel(**_section(noise_cfg, "source"))
        noise = NoiseProfile(**{**noise_cfg, "detector": detector, "source": source})
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad noise profile: {exc}") from exc
    if args.ideal:
        noise = replace(noise, waveplate_angle_sigma=0.0, phase_offset_error=0.0,
                        visibility=1.0, detector=DetectorModel())
    if args.exact_probabilities:
        noise = replace(noise, exact_probabilities=True)
    if args.seed is not None:
        noise = replace(noise, master_seed=args.seed)
    return noise


def load_input_state(cfg: dict):
    if cfg.get("input_state") is None:
        return STATE_V
    angles = _section(cfg, "input_state")
    if unknown := angles.keys() - {"hwp", "qwp"}:
        raise ConfigError(f"bad input_state: unknown keys {sorted(unknown)}")
    try:
        hwp, qwp = angles["hwp"], angles["qwp"]
        if type(hwp) not in (int, float) or type(qwp) not in (int, float):
            raise ValueError("angles must be numbers, not strings, true or false")
        return prepare_state(half_wave(float(hwp)), quarter_wave(float(qwp)))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad input_state (need hwp/qwp angles in rad): {exc}") from exc


def _fmt(v) -> str:
    return f"{v:.4f}" if isinstance(v, float) else str(v)


def print_summary(name: str, derived: dict) -> None:
    print(f"== {name} ==")
    for key in sorted(derived):
        if key.endswith("_err") or key == "chi":
            continue
        line = f"  {key:32s} {_fmt(derived[key])}"
        if key + "_err" in derived:
            line += f" +/- {derived[key + '_err']:.4f}"
        print(line)


def run(args) -> int:
    experiment = args.experiment_flag or args.experiment
    if experiment is None:
        raise ConfigError("no experiment given (positional or --experiment)")
    cfg = load_config(args)
    noise = load_noise_profile(cfg, args)
    psi0 = load_input_state(cfg)

    out_dir: Path = args.output
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory not writable: {exc}") from exc

    if experiment == "calibrate-noise":
        cal = calibrate_angle_noise(noise)
        derived = {"waveplate_angle_sigma": cal.waveplate_angle_sigma,
                   "mean_fidelity": cal.mean_fidelity, "n_seeds": cal.n_seeds}
        (out_dir / "report.json").write_text(json_text(derived))
        print_summary(experiment, derived)
        return 0

    runner = {
        "phase-scan": lambda: run_phase_scan(noise, psi0=psi0),
        "case-compare": lambda: run_case_comparison(noise, psi0=psi0),
        "qpt": lambda: run_commutator_qpt(noise),
        "estimate-k": lambda: estimate_k_magnitude(noise, psi0=psi0),
        "phase-of-k": lambda: run_phase_of_k(noise, psi0=psi0),
    }[experiment]
    report = runner()

    (out_dir / "report.json").write_text(report.to_json())
    if args.format == "csv":
        (out_dir / "counts.csv").write_text(report.counts_csv())
    if "chi" in report.derived:
        (out_dir / "chi.json").write_text(json_text(report.derived["chi"]))
    print_summary(experiment, report.derived)
    return 0


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        return run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except errors.ExperimentError as exc:
        print(f"experiment error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
