"""Poissonian coincidence counting, fringe fitting, and phase calibration, on
count columns alone: the rows a report writes are :mod:`experiments`'s.

Sampling rule (stable for one numpy version, NEP 19): a record set's seed is
``derive_seed(master_seed, set_label)``, the first 8 bytes, little endian, of
SHA-256("{master_seed}:{set_label}:0"), and its counts are one call
``np.random.default_rng(seed).poisson(means)`` over the set's means in order
(``sample_counts``), 0 at mean 0.  Identical profile and seed still give
identical counts, but a count is no longer a function of its own seed and
mean alone: within a set, each draw continues the stream the earlier ones
left.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import CalibrationInconsistent, DegenerateScan


def reject_bools(obj, *names: str) -> None:
    """A JSON true or false is no number, though Python's bool is an int."""
    for name in names:
        if isinstance(getattr(obj, name), bool):
            raise ValueError(f"{name} must be a number, not {getattr(obj, name)!r}")


@dataclass(frozen=True)
class SourceModel:
    """Heralded pair source: pairs per second and integration time per setting."""

    pair_rate: float = 1.0e4
    integration_time: float = 1.0

    def __post_init__(self):
        reject_bools(self, "pair_rate")
        if not (0.0 < self.pair_rate < math.inf and 0.0 < self.integration_time < math.inf):
            raise ValueError("pair_rate and integration_time must be finite and > 0")
        if type(self.integration_time) not in (int, float):  # every report's duration
            raise ValueError("integration_time must be a plain int or float")


@dataclass(frozen=True)
class DetectorModel:
    efficiency: float = 1.0
    dark_rate: float = 0.0

    def __post_init__(self):
        reject_bools(self, "efficiency", "dark_rate")
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError(f"efficiency {self.efficiency} outside [0, 1]")
        if not 0.0 <= self.dark_rate < math.inf:
            raise ValueError("dark_rate must be finite and >= 0")


def expected_rate(p: float | np.ndarray, src: SourceModel,
                  det: DetectorModel) -> float | np.ndarray:
    """Coincidences per second for click probability p, a scalar or an array."""
    if not np.all((0.0 <= p) & (p <= 1.0)):
        raise ValueError(f"probability {p} outside [0, 1]")
    return src.pair_rate * det.efficiency * p + det.dark_rate


def derive_seed(master_seed: int, label: str, index: int = 0) -> int:
    digest = hashlib.sha256(f"{master_seed}:{label}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def sample_counts(rate, duration: float, seed: int):
    """Poisson draws with mean rate*duration from one stream, seeded by ``seed``.

    ``np.random.default_rng(seed).poisson(rate*duration)``: a scalar rate
    gives an ``int``, an array a list of ``int``, drawn in order, 0 at mean 0.
    """
    means = np.asarray(rate, dtype=float)
    if not np.all(means >= 0):
        raise ValueError("rate must be >= 0")
    # numpy.random is looked up here, so a run that draws nothing never imports it
    counts = np.random.default_rng(seed).poisson(means * duration)
    return int(counts) if means.ndim == 0 else counts.tolist()


@dataclass(frozen=True)
class FringeFit:
    """Least-squares fit of N(phi) = offset + amplitude*cos(phi - phase)."""

    offset: float
    amplitude: float
    phase: float
    fringe_visibility: float
    phase_stderr: float
    amplitude_stderr: float


@functools.lru_cache(maxsize=8)
def _scan_design(grid: bytes) -> tuple[np.ndarray, np.ndarray]:
    """The fit's design matrix on a phase grid (a float64 array's bytes) and
    the inverse of its normal matrix, both read-only.  Every fringe scan of a
    run shares one grid, so both are built once per grid; a degenerate grid
    raises DegenerateScan, which is not cached."""
    phis = np.frombuffer(grid)
    if len(np.unique(phis)) < 5:
        raise DegenerateScan("need at least 5 distinct phase points")
    if phis.max() - phis.min() < math.pi:
        raise DegenerateScan(f"phase span {phis.max() - phis.min():.3f} < pi")
    design = np.column_stack([np.ones_like(phis), np.cos(phis), np.sin(phis)])
    normal_inv = np.linalg.inv(design.T @ design)
    design.flags.writeable = normal_inv.flags.writeable = False
    return design, normal_inv


def fit_sinusoid(phis, counts) -> FringeFit:
    """Fit a single-period sinusoid to a phase scan.

    The model is linear in (offset, amplitude*cos(phase), amplitude*sin(phase)),
    so the fit is an exact linear least squares with no iteration, on one
    cached design matrix per phase grid (``_scan_design``).  Raises
    DegenerateScan when fewer than 5 distinct phases or a span below pi;
    flat data comes back with fringe_visibility 0 rather than an error.
    """
    phis = np.asarray(phis, dtype=float)
    counts = np.asarray(counts, dtype=float)
    if phis.shape != counts.shape or phis.ndim != 1:
        raise ValueError("phis and counts must be 1-d arrays of equal length")
    design, normal_inv = _scan_design(phis.tobytes())
    coef, *_ = np.linalg.lstsq(design, counts, rcond=None)
    a0, a1, a2 = coef
    amplitude = math.hypot(a1, a2)
    phase = math.atan2(a2, a1)

    resid = counts - design @ coef
    dof = max(len(counts) - 3, 1)
    sigma2 = float(resid @ resid) / dof
    cov = sigma2 * normal_inv
    # amplitude**2 underflows to 0 below about 1e-162: take the amplitude-0 branch
    if amplitude**2 > 0:
        # d(phase)/d(a1,a2) = (-a2, a1)/amp^2 ; d(amp)/d(a1,a2) = (a1, a2)/amp
        j_ph = np.array([-a2, a1]) / amplitude**2
        j_am = np.array([a1, a2]) / amplitude
        phase_stderr = float(np.sqrt(j_ph @ cov[1:, 1:] @ j_ph))
        amplitude_stderr = float(np.sqrt(j_am @ cov[1:, 1:] @ j_am))
    else:
        phase_stderr = float("inf")
        amplitude_stderr = float(np.sqrt(max(cov[1, 1], cov[2, 2])))

    # flat within shot noise (or round-off, for exact data) counts as no fringe
    flat = amplitude <= max(2.0 * amplitude_stderr, 1e-9 * abs(a0))
    visibility = 0.0 if a0 <= 0 or flat else min(amplitude / a0, 1.0)
    return FringeFit(offset=float(a0), amplitude=float(amplitude), phase=float(phase),
                     fringe_visibility=float(visibility), phase_stderr=phase_stderr,
                     amplitude_stderr=amplitude_stderr)


def _wrap_near(x: float, center: float) -> float:
    """Shift x by multiples of 2*pi into (center - pi, center + pi]."""
    return x - 2.0 * math.pi * math.floor((x - center) / (2.0 * math.pi) + 0.5)


@dataclass(frozen=True)
class PhaseCalibration:
    phi0: float
    stderr: float
    d1_fit: FringeFit
    d2_fit: FringeFit


def calibrate_phase(phis, d1_counts, d2_counts) -> PhaseCalibration:
    """Locate the mirror phase where D1 is maximal and D2 minimal.

    Expects the D1 and D2 counts of one scan over the phase grid ``phis``,
    taken with all plates at sigma_z: a flat fringe (fringe_visibility 0)
    raises DegenerateScan, as its fitted phase is only noise.  The D1
    maximum sits at its fitted phase; the D2 minimum sits at its fitted
    phase + pi.  The two estimates are combined by inverse-variance
    weighting; a disagreement beyond 5 combined standard errors (floor
    1e-6 rad for noiseless data) raises CalibrationInconsistent.  Period
    aliases are resolved toward the midpoint of the grid.
    """
    fit1 = fit_sinusoid(phis, d1_counts)
    fit2 = fit_sinusoid(phis, d2_counts)
    for port, fit in (("D1", fit1), ("D2", fit2)):
        if fit.fringe_visibility == 0.0:
            raise DegenerateScan(f"{port} fringe is flat: no phase to calibrate")

    phis = np.asarray(phis, dtype=float)
    mid = 0.5 * (float(phis.min()) + float(phis.max()))
    est1 = _wrap_near(fit1.phase, mid)
    est2 = _wrap_near(fit2.phase + math.pi, mid)
    se1, se2 = fit1.phase_stderr, fit2.phase_stderr
    tol = max(5.0 * math.hypot(se1, se2), 1e-6)
    delta = _wrap_near(est1 - est2, 0.0)
    if abs(delta) > tol:
        raise CalibrationInconsistent(
            f"D1/D2 phase estimates differ by {delta:.4f} rad (tolerance {tol:.4f})")

    if se1 > 0 and se2 > 0 and math.isfinite(se1) and math.isfinite(se2):
        w1, w2 = 1.0 / se1**2, 1.0 / se2**2
        phi0 = (w1 * est1 + w2 * est2) / (w1 + w2)
        stderr = 1.0 / math.sqrt(w1 + w2)
    else:
        phi0 = 0.5 * (est1 + est2)
        stderr = 0.0
    return PhaseCalibration(phi0=phi0, stderr=stderr, d1_fit=fit1, d2_fit=fit2)
