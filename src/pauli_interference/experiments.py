"""End-to-end experiment scripts: phase scan, case contrast, process
tomography of the commutator port, magnitude and phase of the
proportionality constant in [sigma_z, sigma_x] = k sigma_y.

Each run builds its interferometer (``_apparatus``) and arm operators once,
and every click probability is a kernel call (``interference_probability``):
over the whole mirror-phase grid for a fringe scan (``_fringe_scan``), or on
a stack of arm pairs otherwise.  Every rate is ``expected_rate`` of a kernel
probability; ``_record`` makes the count records of all runs but QPT, which
seeds by tomography setting, not ``{label}:{port}``.
Each record set's sampled counts are one batch (``sample_counts``).  All
randomness flows from ``NoiseProfile.master_seed`` through the stable
per-setting seed derivation in :mod:`photon_stats`, so a report is a pure
function of its profile.  With ``exact_probabilities`` set, Poisson
sampling is bypassed and counts are expected values (floats).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import DegenerateScan, ZeroDenominator
from .optics import (InterferometerConfig, Port, arm_operators, case_i, case_ii,
                     interference_probability, port_operator,
                     # both unused here: perfbench/tracing.py wraps them
                     conditional_output_state, detection_probability)
from .photon_stats import (CountRecord, DetectorModel, SourceModel, _wrap_near,
                           calibrate_phase, derive_seed, expected_rate, fit_sinusoid,
                           records_to_csv, sample_counts)
from .qubit import SIGMA_Y, PureState, STATE_V
from .tomography import (QPT_INPUT_LABELS, QPT_INPUT_STATES, chi_of_unitary,
                         chi_to_json, process_fidelity, qpt_reconstruct, qst_linear,
                         qst_mle, tomography_settings)

# the mirror phases of every fringe scan: the phi0 calibration and phase-of-k
N_SCAN_POINTS = 40
_SCAN_PHIS = np.linspace(-2.0 * math.pi, 2.0 * math.pi, N_SCAN_POINTS)
# numpy's Poisson sampler refuses means above about 9.2e18, so a profile whose
# brightest setting could ask for more is rejected up front
MAX_MEAN_COUNTS = 1.0e18
# QPT's six analyzer settings in the label order (A, D, H, L, R, V) it records and seeds
_QPT_SETTINGS = sorted(tomography_settings(), key=lambda s: s.label)
_ANALYZERS = np.array([s.projector for s in _QPT_SETTINGS])
# the mean process fidelity window calibrate_angle_noise aims for, and its bisection cap
FIDELITY_WINDOW = (0.92, 0.96)
MAX_BISECTIONS = 20


@dataclass(frozen=True)
class NoiseProfile:
    """Realism knobs; all default to the ideal algebra of the model."""

    waveplate_angle_sigma: float = 0.0   # rad, Gaussian, per plate per run
    phase_offset_error: float = 0.0      # rad, systematic mirror-scale offset
    visibility: float = 1.0
    detector: DetectorModel = field(default_factory=DetectorModel)
    source: SourceModel = field(default_factory=SourceModel)
    master_seed: int = 0
    exact_probabilities: bool = False

    def __post_init__(self):
        # a plate angle counts mod pi, so a Gaussian error with sigma = pi is
        # already uniform to about 3e-9; a wider one only risks an infinite draw
        if not 0.0 <= self.waveplate_angle_sigma <= math.pi:
            raise ValueError("waveplate_angle_sigma must be in [0, pi]")
        if not math.isfinite(self.phase_offset_error):
            raise ValueError("phase_offset_error must be finite")
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError("visibility must be in [0, 1]")
        if not isinstance(self.exact_probabilities, bool):
            raise ValueError("exact_probabilities must be true or false")
        if isinstance(self.master_seed, bool) or not isinstance(self.master_seed, int):
            raise ValueError("master_seed must be an integer")
        peak_rate = self.source.pair_rate * self.detector.efficiency + self.detector.dark_rate
        if not peak_rate * self.source.integration_time <= MAX_MEAN_COUNTS:
            raise ValueError(f"mean counts per setting exceed {MAX_MEAN_COUNTS:g}")

    @classmethod
    def ideal(cls, master_seed: int = 0, exact_probabilities: bool = True) -> "NoiseProfile":
        return cls(master_seed=master_seed, exact_probabilities=exact_probabilities)


@dataclass
class ExperimentReport:
    experiment_id: str
    inputs: dict
    records: list[CountRecord]
    derived: dict

    def to_dict(self) -> dict:
        return {
            "experiment_id": self.experiment_id,
            "inputs": self.inputs,
            "records": [{"setting": r.setting_label, "phi": r.phi,
                         "port": r.port.value, "duration": r.duration,
                         "counts": r.counts} for r in self.records],
            "derived": self.derived,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def counts_csv(self) -> str:
        return records_to_csv(self.records)


def _profile_echo(noise: NoiseProfile, **extra) -> dict:
    return {**asdict(noise), **extra}


def _apparatus(builder, noise: NoiseProfile, label: str, phi0: float) -> InterferometerConfig:
    """One run's interferometer: ``builder``'s plates with this run's Gaussian angle
    errors (seeded from ``label``), the mirror at phi0 less the phase offset."""
    cfg = builder(phi=phi0 - noise.phase_offset_error, visibility=noise.visibility)
    if noise.waveplate_angle_sigma == 0.0:
        return cfg
    rng = np.random.default_rng(derive_seed(noise.master_seed, f"plates:{label}"))
    plates = {}
    for name in ("sigma1", "sigma2", "sigma3", "sigma4"):
        wp = getattr(cfg, name)
        plates[name] = replace(wp, angle=wp.angle + rng.normal(0.0, noise.waveplate_angle_sigma))
    return replace(cfg, **plates)


def _record(p, noise: NoiseProfile, rows: list[tuple[str, float, int]],
            ports: tuple[Port, ...]) -> list[CountRecord]:
    """Count records for the click probabilities p[i][j] at row i = (setting
    label, mirror phase, seed index) and port ports[j], row-major; a sampled
    count is seeded by (label, port, index), and all are drawn in one batch."""
    rate = expected_rate(np.asarray(p), noise.source, noise.detector).ravel()
    t = noise.source.integration_time
    if noise.exact_probabilities:
        counts = (rate * t).tolist()
    else:
        counts = sample_counts(rate, t, [derive_seed(noise.master_seed,
                                                     f"{label}:{port.value}", i)
                                         for label, _, i in rows for port in ports])
    cells = [(label, phi, port) for label, phi, _ in rows for port in ports]
    return [CountRecord(setting_label=label, phi=phi, port=port, duration=t, counts=n)
            for (label, phi, port), n in zip(cells, counts)]


def _fringe_scan(a: np.ndarray, b: np.ndarray, noise: NoiseProfile, psi0: PureState,
                 label: str, outputs: tuple) -> list[CountRecord]:
    """Records of a mirror-phase scan over fixed arm operators a, b, phi-major;
    ``outputs`` lists the (recorded port, cross-term sign) pairs at each phase.
    Each output's probabilities over the whole phi grid are one array pass."""
    phis = _SCAN_PHIS - noise.phase_offset_error
    p = np.column_stack([interference_probability(a, b, phis, noise.visibility, psi0, sign)
                         for _, sign in outputs])
    rows = [(label, phi, i) for i, phi in enumerate(_SCAN_PHIS.tolist())]
    return _record(p, noise, rows, tuple(port for port, _ in outputs))


def run_phase_scan(noise: NoiseProfile, psi0: PureState = STATE_V) -> ExperimentReport:
    """Scan the mirror phase with all plates at sigma_z and calibrate phi0."""
    # the scan sets the mirror phase itself, so the apparatus phi0 is unused
    a, b = arm_operators(_apparatus(case_i, noise, "phase-scan", 0.0))
    records = _fringe_scan(a, b, noise, psi0, "phase-scan",
                           ((Port.D1, 1.0), (Port.D2, -1.0)))
    cal = calibrate_phase(records)
    derived = {
        "phi0": cal.phi0,
        "d1_offset": cal.d1_fit.offset, "d1_amplitude": cal.d1_fit.amplitude,
        "d1_phase": cal.d1_fit.phase, "d1_fringe_visibility": cal.d1_fit.fringe_visibility,
        "d2_offset": cal.d2_fit.offset, "d2_amplitude": cal.d2_fit.amplitude,
        "d2_phase": cal.d2_fit.phase, "d2_fringe_visibility": cal.d2_fit.fringe_visibility,
        "d1_d2_antiphase": abs(_wrap_near(cal.d2_fit.phase - cal.d1_fit.phase, 0.0)),
    }
    if not noise.exact_probabilities:
        derived["phi0_err"] = cal.stderr
        derived["d1_fringe_visibility_err"] = _visibility_stderr(cal.d1_fit)
        derived["d2_fringe_visibility_err"] = _visibility_stderr(cal.d2_fit)
    return ExperimentReport("phase-scan", _profile_echo(noise, n_points=N_SCAN_POINTS),
                            records, derived)


def _visibility_stderr(fit) -> float:
    if fit.offset <= 0:
        return float("inf")
    return fit.amplitude_stderr / fit.offset


def _calibrated_phi0(noise: NoiseProfile) -> float:
    """phi0 for downstream runs: calibrate only when there is something to find."""
    if noise.phase_offset_error == 0.0:
        return 0.0
    return run_phase_scan(noise).derived["phi0"]


def run_case_comparison(noise: NoiseProfile, psi0: PureState = STATE_V) -> ExperimentReport:
    """Normalized D1/D2 rates for case I vs case II at the calibrated phase."""
    phi0 = _calibrated_phi0(noise)
    derived: dict = {"phi0": phi0}
    ports = (Port.D1, Port.D2)
    cases = (("I", case_i), ("II", case_ii))
    # both apparatus share phi and visibility: one kernel call per port on their stacked arms
    cfgs = [_apparatus(builder, noise, f"case-{name}", phi0) for name, builder in cases]
    a, b = map(np.stack, zip(*map(arm_operators, cfgs)))
    p = np.column_stack([interference_probability(a, b, cfgs[0].phi, cfgs[0].visibility,
                                                  psi0, sign) for sign in (1.0, -1.0)])
    records = _record(p, noise, [(f"case-{name}", phi0, 0) for name, _ in cases], ports)
    for (case_name, _), recs in zip(cases, (records[:2], records[2:])):
        total = sum(rec.counts for rec in recs)
        for rec in recs:
            key = f"case_{case_name}_{rec.port.value}"
            derived[key] = rec.counts / total if total > 0 else 0.0
            if not noise.exact_probabilities and total > 0:
                # binomial stderr of the normalized rate
                q = derived[key]
                derived[key + "_err"] = math.sqrt(max(q * (1 - q), 1.0 / total) / total)

    def exchanged(a: str, b: str) -> bool:
        # a difference of two independent rates: its stderr adds theirs in quadrature
        tol = 1e-9 if noise.exact_probabilities else 5.0 * math.hypot(
            derived.get(a + "_err", 0.0), derived.get(b + "_err", 0.0))
        return abs(derived[a] - derived[b]) <= tol

    derived["pi_shift_verdict"] = (exchanged("case_I_D1", "case_II_D2")
                                   and exchanged("case_I_D2", "case_II_D1"))
    return ExperimentReport("case-compare", _profile_echo(noise), records, derived)


def run_commutator_qpt(noise: NoiseProfile) -> ExperimentReport:
    """Process tomography of the commutator port (case II, D2) against sigma_y.

    The analyzer behind D2 acts on both arms alike, so the probability of a
    click with outcome j of the six settings is the kernel on (P_j A, P_j B).
    Reconstruction is linear inversion in exact-probability mode and maximum
    likelihood on sampled counts.
    """
    phi0 = _calibrated_phi0(noise)
    cfg = _apparatus(case_ii, noise, "qpt", phi0)
    a, b = (_ANALYZERS @ arm for arm in arm_operators(cfg))
    p = [interference_probability(a, b, cfg.phi, cfg.visibility, QPT_INPUT_STATES[label], -1.0)
         for label in QPT_INPUT_LABELS]
    rates = expected_rate(np.ravel(p), noise.source, noise.detector)
    t = noise.source.integration_time
    cells = [(label, s.label, i) for label in QPT_INPUT_LABELS
             for i, s in enumerate(_QPT_SETTINGS)]
    if noise.exact_probabilities:
        all_counts = (rates * t).tolist()
    else:
        all_counts = sample_counts(rates, t, [derive_seed(noise.master_seed,
                                                          f"qpt:{label}:{setting}", i)
                                              for label, setting, i in cells])
    records, by_input = [], {label: {} for label in QPT_INPUT_LABELS}
    for (label, setting, _), n in zip(cells, all_counts):
        by_input[label][setting] = n
        records.append(CountRecord(f"qpt:{label}:{setting}", phi0, Port.D2, t, n))
    outputs, mle_converged = {}, True
    for label, counts in by_input.items():
        if noise.exact_probabilities:
            outputs[label] = qst_linear(counts).rho
        else:
            mle = qst_mle(counts)
            mle_converged = mle_converged and mle.converged
            outputs[label] = mle.rho
    result = qpt_reconstruct(outputs)
    fid = process_fidelity(result.chi, chi_of_unitary(SIGMA_Y))
    derived = {
        "process_fidelity": fid,
        "chi": chi_to_json(result.chi),
        "psd_deviation": result.psd_deviation,
        "trace_preservation_deviation": result.trace_preservation_deviation,
        "mle_converged": mle_converged,
        "phi0": phi0,
    }
    return ExperimentReport("qpt", _profile_echo(noise), records, derived)


def estimate_k_magnitude(noise: NoiseProfile, psi0: PureState = STATE_V) -> ExperimentReport:
    """|k| = N / (N_u + N_l) from path-blocking sub-runs at the commutator port.

    N: both arms open; N_u: transmitted arm blocked (reflected amplitude
    only); N_l: reflected arm blocked.  The arms are built once, and the
    three sub-runs are one kernel call with the blocked arm zeroed.  Dark
    counts are subtracted before the ratio; the standard error follows
    Poisson propagation, stderr = |k| sqrt(1/N + 1/(N_u + N_l)).
    """
    phi0 = _calibrated_phi0(noise)
    cfg = _apparatus(case_ii, noise, "estimate-k", phi0)
    dark = noise.detector.dark_rate * noise.source.integration_time
    sub_runs = ("open", "block-transmitted", "block-reflected")
    a, b = arm_operators(cfg)
    zero = np.zeros_like(a)  # a blocked arm's operator is zero
    p = interference_probability(np.stack([a, zero, a]), np.stack([b, b, zero]),
                                 cfg.phi, cfg.visibility, psi0, -1.0)
    records = _record(p[:, None], noise, [(f"k:{label}", phi0, 0) for label in sub_runs],
                      (Port.D2,))
    corrected = {label: max(rec.counts - dark, 0.0) for label, rec in zip(sub_runs, records)}
    n_open = corrected["open"]
    n_split = corrected["block-transmitted"] + corrected["block-reflected"]
    if n_split <= 0:
        raise ZeroDenominator("blocked-path counts sum to zero")
    k_abs = n_open / n_split
    stderr = k_abs * math.sqrt(1.0 / n_open + 1.0 / n_split) if n_open > 0 else 0.0
    derived = {"k_abs": k_abs, "stderr": stderr, "phi0": phi0,
               "n_open": n_open, "n_u": corrected["block-transmitted"],
               "n_l": corrected["block-reflected"]}
    return ExperimentReport("estimate-k", _profile_echo(noise), records, derived)


def run_phase_of_k(noise: NoiseProfile, psi0: PureState = STATE_V) -> ExperimentReport:
    """Fringe-phase comparison of the commutator output against a sigma_y reference.

    An outer interferometer interferes the inner D2 (commutator) output
    with a reference arm carrying a single sigma_y operation; the fitted
    fringe-phase difference between this scan and a reference-vs-reference
    scan is the phase of k (pi/2 ideally).
    """
    phi0 = _calibrated_phi0(noise)
    m_com = port_operator(_apparatus(case_ii, noise, "phase-of-k", phi0), Port.D2)
    records, fits = [], {}
    for scan_label, (m1, m2) in (("commutator", (m_com, SIGMA_Y)),
                                 ("reference", (SIGMA_Y, SIGMA_Y))):
        scan = _fringe_scan(m1, m2, noise, psi0, f"arg-k:{scan_label}", ((Port.D2, 1.0),))
        records += scan
        fit = fit_sinusoid(_SCAN_PHIS, [rec.counts for rec in scan])
        if fit.fringe_visibility < 1e-6 or fit.amplitude < 5.0 * fit.amplitude_stderr:
            raise DegenerateScan(f"{scan_label} scan has no usable fringe")
        fits[scan_label] = fit
    arg_k = _wrap_near(fits["reference"].phase - fits["commutator"].phase, 0.0)
    derived = {"arg_k": arg_k,
               "commutator_fringe_phase": fits["commutator"].phase,
               "reference_fringe_phase": fits["reference"].phase,
               "phi0": phi0}
    if not noise.exact_probabilities:
        derived["arg_k_err"] = math.hypot(fits["commutator"].phase_stderr,
                                          fits["reference"].phase_stderr)
    return ExperimentReport("phase-of-k", _profile_echo(noise, n_points=N_SCAN_POINTS),
                            records, derived)


@dataclass(frozen=True)
class AngleNoiseCalibration:
    waveplate_angle_sigma: float
    mean_fidelity: float
    n_seeds: int


def mean_qpt_fidelity(noise: NoiseProfile, sigma: float, n_seeds: int) -> float:
    """Mean process fidelity over seeds at a given plate-angle noise level."""
    fs = []
    for s in range(n_seeds):
        prof = replace(noise, waveplate_angle_sigma=sigma,
                       master_seed=derive_seed(noise.master_seed, "fidelity-seed", s))
        fs.append(run_commutator_qpt(prof).derived["process_fidelity"])
    return float(np.mean(fs))


def calibrate_angle_noise(noise: NoiseProfile | None = None,
                          n_seeds: int = 50) -> AngleNoiseCalibration:
    """Find a plate-angle noise level whose mean process fidelity lands in a window.

    The target fidelity window stands in for unknown apparatus
    imperfections; mean fidelity decreases with angle noise, so plain
    bracketing plus bisection converges quickly.
    """
    if noise is None:
        noise = NoiseProfile()
    f_low, f_high = FIDELITY_WINDOW
    lo, hi = 0.0, 0.05
    f_hi_val = mean_qpt_fidelity(noise, hi, n_seeds)
    while f_hi_val > f_low and hi < 1.0:
        if f_low <= f_hi_val <= f_high:
            return AngleNoiseCalibration(hi, f_hi_val, n_seeds)
        lo, hi = hi, 2.0 * hi
        f_hi_val = mean_qpt_fidelity(noise, hi, n_seeds)
    for _ in range(MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        f_mid = mean_qpt_fidelity(noise, mid, n_seeds)
        if f_low <= f_mid <= f_high:
            return AngleNoiseCalibration(mid, f_mid, n_seeds)
        if f_mid > f_high:
            lo = mid
        else:
            hi = mid
    raise RuntimeError("angle-noise calibration did not land in the fidelity window")
