"""Estimator bench: score a sampled estimate against exact-mode truth over many seeds.

    python3 tests/mc.py                  # both studies below
    python3 tests/mc.py phi0 --alt       # also score the study's alternatives
    python3 tests/mc.py fidelity --seeds 50

The truth for a sampled run is the ``--exact-probabilities`` run at the same
master seed.  ``_apparatus`` seeds its plate errors from ``plates:{label}``
whatever ``exact_probabilities`` says, so the two runs share one apparatus
and differ only by shot noise.  A study is a runner, an estimator (a function
of a report giving a value and, optionally, its standard error), a list of
profiles, a seed count and a rule for each run's master seed.  For each
profile, and pooled over all of them, it prints n, the mean truth, the bias
and rms error of the estimate, and, where the estimator gives an error, the
sd of z = error / stderr beside its 3-sigma sampling band 3/sqrt(2n) and the
share of |z| beyond 3 (0.27% for a Gaussian).  A sampled run that raises an
``ExperimentError`` is counted as failed and left out.  A study may also name
alternative estimators, functions of the sampled report's counts; with
``--alt`` each is scored against the same truth, so a candidate fit can be
judged without changing the package.

The studies:

- ``fidelity``: ``qpt``'s process fidelity at plate noise 0.05 and 0.15,
  200 seeds each, master seeds ``derive_seed(0, "fidelity-seed", s)``.
- ``phi0``: ``phase-scan``'s phi0 on 60 benchmark fringe profiles, drawn in
  turn by ``perfbench.workloads._fringe_profile`` from one
  ``random.Random("proto")`` (noise sections only, input state V), 150 seeds
  each with master seed 1000 p + s.  Its alternative, ``d1-only``, is the
  D1 fringe's fitted phase alone.

pytest does not collect this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
import time
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from pauli_interference.errors import ExperimentError  # noqa: E402
from pauli_interference.experiments import (NoiseProfile, run_commutator_qpt,  # noqa: E402
                                            run_phase_scan)
from pauli_interference.optics import Port  # noqa: E402
from pauli_interference.photon_stats import (SCAN_PHIS, DetectorModel,  # noqa: E402
                                             SourceModel, derive_seed, fit_sinusoid)
from perfbench.workloads import _fringe_profile  # noqa: E402

# an estimator maps a report to (value, stderr); stderr is None where it gives none
Estimator = Callable[[object], tuple[float, float | None]]


def derived(key: str, err_key: str | None = None) -> Estimator:
    """The estimator that reads ``key`` (and ``err_key``) from a report's derived values;
    an exact-mode report, the truth, has no ``_err`` keys."""
    return lambda report: (report.derived[key], report.derived.get(err_key))


@dataclass
class Study:
    runner: Callable
    estimate: Estimator
    profiles: list[tuple[str, NoiseProfile]]
    n_seeds: int
    master_seed: Callable[[int, int], int]  # (profile index, seed index) -> master seed
    angular: bool = False  # errors are wrapped into [-pi, pi]
    alternatives: dict[str, Estimator] = field(default_factory=dict)


def _stats(label: str, truths: list, errors: list, zs: list, failed: int) -> str:
    n = len(errors)
    e = np.array(errors)
    line = (f"{label:>10s} {n:6d} {np.mean(truths):+10.5f} {np.mean(e):+10.5f} "
            f"{math.sqrt(np.mean(e * e)):9.5f}")
    if zs:
        z = np.array(zs)
        line += (f" {np.std(z, ddof=1):7.3f} ±{3.0 / math.sqrt(2 * n):.3f}"
                 f" {100.0 * np.mean(np.abs(z) > 3.0):7.2f}%")
    else:
        line += f" {'-':>7s} {'':6s} {'-':>8s}"
    return line + f" {failed:6d}"


def score(study: Study, alternatives: bool) -> list[str]:
    """One line per profile and estimator, then one pooled over the profiles."""
    estimators = {"derived": study.estimate, **(study.alternatives if alternatives else {})}
    pooled = {name: ([], [], []) for name in estimators}  # truths, errors, z
    pooled_failed = 0
    lines = []
    for p, (label, noise) in enumerate(study.profiles):
        rows = {name: ([], [], []) for name in estimators}
        failed = 0
        for s in range(study.n_seeds):
            prof = replace(noise, master_seed=study.master_seed(p, s))
            truth = study.estimate(study.runner(replace(prof, exact_probabilities=True)))[0]
            try:
                report = study.runner(prof)
            except ExperimentError:
                failed += 1
                continue
            for name, estimate in estimators.items():
                value, stderr = estimate(report)
                err = value - truth
                if study.angular:
                    err = math.remainder(err, 2.0 * math.pi)
                truths, errs, zs = rows[name]
                truths.append(truth)
                errs.append(err)
                if stderr is not None:
                    zs.append(err / stderr)
        for name, row in rows.items():
            lines.append(f"{name:>12s} " + _stats(label, *row, failed))
            for total, part in zip(pooled[name], row):
                total.extend(part)
        pooled_failed += failed
    if len(study.profiles) > 1:
        lines += [f"{name:>12s} " + _stats("all", *row, pooled_failed)
                  for name, row in pooled.items()]
    return lines


def _noise(section: dict) -> NoiseProfile:
    return NoiseProfile(**{**section, "detector": DetectorModel(**section["detector"]),
                           "source": SourceModel(**section["source"])})


def _d1_only(report) -> tuple[float, float]:
    """phi0 from the D1 fringe alone: its fitted phase, wrapped as calibrate_phase wraps it."""
    fit = fit_sinusoid([n for (_, _, port), n in zip(report.cells, report.counts)
                        if port is Port.D1])
    mid = 0.5 * (float(SCAN_PHIS[0]) + float(SCAN_PHIS[-1]))
    return mid + math.remainder(fit.phase - mid, 2.0 * math.pi), fit.phase_stderr


def studies(n_seeds: int | None) -> dict[str, Study]:
    rng = random.Random("proto")
    fringe = [(f"p{p:02d}", _noise(_fringe_profile(rng)["noise"])) for p in range(60)]
    return {
        "fidelity": Study(run_commutator_qpt, derived("process_fidelity"),
                          [(f"s{sigma}", NoiseProfile(waveplate_angle_sigma=sigma))
                           for sigma in (0.05, 0.15)],
                          n_seeds or 200, lambda p, s: derive_seed(0, "fidelity-seed", s)),
        "phi0": Study(run_phase_scan, derived("phi0", "phi0_err"), fringe, n_seeds or 150,
                      lambda p, s: 1000 * p + s, angular=True,
                      alternatives={"d1-only": _d1_only}),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("study", nargs="?", choices=("fidelity", "phi0"),
                   help="the study to run (default: both)")
    p.add_argument("--seeds", type=int, help="seeds per profile (default: the study's own)")
    p.add_argument("--alt", action="store_true", help="also score the study's alternatives")
    args = p.parse_args(argv)
    table = studies(args.seeds)
    for name in [args.study] if args.study else table:
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the process fidelity's clamp warning
            lines = score(table[name], args.alt)
        print(f"== {name} ({time.perf_counter() - start:.2f} s) ==")
        print(f"{'estimator':>12s} {'profile':>10s} {'n':>6s} {'truth':>10s} {'bias':>10s} "
              f"{'rms':>9s} {'sd(z)':>7s} {'band':6s} {'|z|>3':>8s} {'failed':>6s}")
        print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
