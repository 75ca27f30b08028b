"""Poissonian coincidence counting, fringe fitting, and phase calibration.

Sampling rule (stable across runs and platforms): the per-setting seed is
the first 8 bytes, little endian, of SHA-256("{master_seed}:{label}:{index}"),
and the count at mean rate*t is np.random.default_rng(seed).poisson(rate*t),
0 when the mean is 0.  Counts are drawn one batch per record set:
``sample_counts`` hashes every seed of the batch into its PCG64 state words
in one array pass (``_pcg64_state_words``), bit for bit what
``default_rng(seed)`` would compute one seed at a time.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import CalibrationInconsistent, DegenerateScan
from .optics import Port


@dataclass(frozen=True)
class SourceModel:
    """Heralded pair source: pairs per second and integration time per setting."""

    pair_rate: float = 1.0e4
    integration_time: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.pair_rate < math.inf and 0.0 < self.integration_time < math.inf):
            raise ValueError("pair_rate and integration_time must be finite and > 0")


@dataclass(frozen=True)
class DetectorModel:
    efficiency: float = 1.0
    dark_rate: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError(f"efficiency {self.efficiency} outside [0, 1]")
        if not 0.0 <= self.dark_rate < math.inf:
            raise ValueError("dark_rate must be finite and >= 0")


@dataclass(frozen=True)
class CountRecord:
    """One detector's coincidence count at one apparatus setting."""

    setting_label: str
    phi: float
    port: Port
    duration: float
    counts: float  # integer for sampled data, float in exact-probability mode

    def __post_init__(self):
        if self.counts < 0:
            raise ValueError("counts must be >= 0")
        if self.duration <= 0:
            raise ValueError("duration must be > 0")


def expected_rate(p: float | np.ndarray, src: SourceModel,
                  det: DetectorModel) -> float | np.ndarray:
    """Coincidences per second for click probability p, a scalar or an array."""
    if not np.all((0.0 <= p) & (p <= 1.0)):
        raise ValueError(f"probability {p} outside [0, 1]")
    return src.pair_rate * det.efficiency * p + det.dark_rate


def derive_seed(master_seed: int, label: str, index: int = 0) -> int:
    digest = hashlib.sha256(f"{master_seed}:{label}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


# numpy.random.SeedSequence's hash (pool size 4, 32-bit words): every seed
# below 2**64 is the entropy [low word, high word], padded with zeros to the
# pool.  The multipliers of both hash chains step the same way for every
# seed, so they are tabulated once.
_MASK32 = 0xFFFFFFFF
_XSHIFT = np.uint32(16)
_MIX_MULT_L = np.array(0xca01f9dd, dtype=np.uint32)
_MIX_MULT_R = np.array(0x4973f715, dtype=np.uint32)


def _hash_chain(init: int, mult: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(xor, multiplier) columns of n successive hashmix steps of one chain."""
    xors, mults, h = [], [], init
    for _ in range(n):
        xors.append(h)
        h = h * mult & _MASK32
        mults.append(h)
    return (np.array(xors, dtype=np.uint32)[:, None],
            np.array(mults, dtype=np.uint32)[:, None])


# mix_entropy: 4 hashmix steps fill the pool, then 12 mix it, 3 per source word
_ENTROPY_XOR, _ENTROPY_MULT = _hash_chain(0x43b0d7e5, 0x931e8875, 16)


def _round_columns(src: int) -> tuple[np.ndarray, np.ndarray]:
    """The pool-row columns of mixing round src; the source row's are unused."""
    dst = [d for d in range(4) if d != src]
    xors, mults = np.zeros((4, 1), np.uint32), np.zeros((4, 1), np.uint32)
    xors[dst] = _ENTROPY_XOR[4 + 3 * src:7 + 3 * src]
    mults[dst] = _ENTROPY_MULT[4 + 3 * src:7 + 3 * src]
    return xors, mults


_MIX_ROUNDS = [_round_columns(src) for src in range(4)]
# generate_state(4, uint64): 8 output words, cycling over the pool twice
_STATE_XOR, _STATE_MULT = _hash_chain(0x8b51f9dd, 0x58f38ded, 8)


def _pcg64_state_words(seeds) -> np.ndarray:
    """SeedSequence(s).generate_state(4, np.uint64) of every seed s < 2**64, as rows.

    Works on uint32 arrays throughout, where products wrap silently (a numpy
    uint32 scalar product would warn).  Within a mixing round the source word
    does not change, so each round updates the other three rows at once.
    """
    s = np.array(seeds, dtype=np.uint64, ndmin=1)
    pool = np.zeros((4, s.size), dtype=np.uint32)
    pool[0] = s & np.uint64(_MASK32)
    pool[1] = s >> np.uint64(32)
    pool ^= _ENTROPY_XOR[:4]
    pool *= _ENTROPY_MULT[:4]
    pool ^= pool >> _XSHIFT
    h = np.empty_like(pool)
    for src, (xors, mults) in enumerate(_MIX_ROUNDS):
        np.bitwise_xor(pool[src], xors, out=h)
        h *= mults
        h ^= h >> _XSHIFT
        kept = pool[src].copy()
        # mix(x, y) = (MIX_MULT_L*x - MIX_MULT_R*y) ^ shifted self
        pool *= _MIX_MULT_L
        pool -= h * _MIX_MULT_R
        pool ^= pool >> _XSHIFT
        pool[src] = kept
    state = np.concatenate((pool, pool))
    state ^= _STATE_XOR
    state *= _STATE_MULT
    state ^= state >> _XSHIFT
    # pairs of 32-bit words read as little-endian 64-bit words, as numpy does
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


@functools.cache
def _state_words_type() -> type:
    """A seed-sequence type that hands PCG64 state words already computed.

    Built on first use: importing numpy.random costs about 2.6 MB, which a
    run that draws nothing (exact probabilities) should not pay.
    """
    from numpy.random.bit_generator import ISeedSequence

    class StateWords(ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return StateWords


def sample_counts(rate, duration: float, seed):
    """Poisson draws with mean rate*duration, reproducible for a given seed.

    ``rate`` and ``seed`` are a scalar, giving an ``int``, or equal-length
    arrays, giving a list of ``int``; each count is
    ``np.random.default_rng(seed).poisson(rate*duration)``, 0 at mean 0.
    """
    means = np.asarray(rate, dtype=float)
    if not np.all(means >= 0):
        raise ValueError("rate must be >= 0")
    means = means * duration
    words = _pcg64_state_words(seed)
    if len(words) != means.size:
        raise ValueError("rate and seed must have equal lengths")
    state_words, generator, pcg64 = _state_words_type(), np.random.Generator, np.random.PCG64
    counts = [int(generator(pcg64(state_words(w))).poisson(m)) if m else 0
              for w, m in zip(words, np.ravel(means).tolist())]
    return counts[0] if means.ndim == 0 else counts


def records_to_csv(records: list[CountRecord]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["setting", "phi", "port", "duration", "counts"])
    for r in records:
        w.writerow([r.setting_label, repr(float(r.phi)), r.port.value,
                    repr(float(r.duration)), r.counts])
    return buf.getvalue()


@dataclass(frozen=True)
class FringeFit:
    """Least-squares fit of N(phi) = offset + amplitude*cos(phi - phase)."""

    offset: float
    amplitude: float
    phase: float
    fringe_visibility: float
    residual: float           # rms fit residual
    phase_stderr: float
    amplitude_stderr: float


def fit_sinusoid(phis, counts) -> FringeFit:
    """Fit a single-period sinusoid to a phase scan.

    The model is linear in (offset, amplitude*cos(phase), amplitude*sin(phase)),
    so the fit is an exact linear least squares with no iteration.  Raises
    DegenerateScan when fewer than 5 distinct phases or a span below pi;
    flat data comes back with fringe_visibility 0 rather than an error.
    """
    phis = np.asarray(phis, dtype=float)
    counts = np.asarray(counts, dtype=float)
    if phis.shape != counts.shape or phis.ndim != 1:
        raise ValueError("phis and counts must be 1-d arrays of equal length")
    if len(np.unique(phis)) < 5:
        raise DegenerateScan("need at least 5 distinct phase points")
    if phis.max() - phis.min() < math.pi:
        raise DegenerateScan(f"phase span {phis.max() - phis.min():.3f} < pi")

    design = np.column_stack([np.ones_like(phis), np.cos(phis), np.sin(phis)])
    coef, *_ = np.linalg.lstsq(design, counts, rcond=None)
    a0, a1, a2 = coef
    amplitude = math.hypot(a1, a2)
    phase = math.atan2(a2, a1)

    resid = counts - design @ coef
    dof = max(len(counts) - 3, 1)
    sigma2 = float(resid @ resid) / dof
    cov = sigma2 * np.linalg.inv(design.T @ design)
    if amplitude > 0:
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
                     fringe_visibility=float(visibility),
                     residual=float(np.sqrt(resid @ resid / len(counts))),
                     phase_stderr=phase_stderr, amplitude_stderr=amplitude_stderr)


def _wrap_near(x: float, center: float) -> float:
    """Shift x by multiples of 2*pi into (center - pi, center + pi]."""
    return x - 2.0 * math.pi * math.floor((x - center) / (2.0 * math.pi) + 0.5)


@dataclass(frozen=True)
class PhaseCalibration:
    phi0: float
    stderr: float
    d1_fit: FringeFit
    d2_fit: FringeFit


def calibrate_phase(scan: list[CountRecord]) -> PhaseCalibration:
    """Locate the mirror phase where D1 is maximal and D2 minimal.

    Expects a scan taken with all plates at sigma_z (both fringes present).
    The D1 maximum sits at its fitted phase; the D2 minimum sits at its
    fitted phase + pi.  The two estimates are combined by inverse-variance
    weighting; a disagreement beyond 5 combined standard errors (floor
    1e-6 rad for noiseless data) raises CalibrationInconsistent.  Period
    aliases are resolved toward the scan midpoint.
    """
    d1 = [r for r in scan if r.port is Port.D1]
    d2 = [r for r in scan if r.port is Port.D2]
    if not d1 or not d2:
        raise ValueError("scan must contain records for both D1 and D2")
    fit1 = fit_sinusoid([r.phi for r in d1], [r.counts for r in d1])
    fit2 = fit_sinusoid([r.phi for r in d2], [r.counts for r in d2])

    mid = 0.5 * (min(r.phi for r in scan) + max(r.phi for r in scan))
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
