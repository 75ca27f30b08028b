"""End-to-end experiment scripts: phase scan, case contrast, process
tomography of the commutator port, magnitude and phase of the
proportionality constant in [sigma_z, sigma_x] = k sigma_y.

Each run builds its interferometer once (``_apparatus``); the phi0
calibration and the phase-of-k scans sweep the mirror phase over arm
operators computed once (``_fringe_scan``), each port's probabilities over
the whole phase grid in one array pass.  ``_record`` turns probabilities
into count records for every run but QPT, which counts its tomography
settings itself.  All randomness flows from
``NoiseProfile.master_seed`` through the stable per-setting seed
derivation in :mod:`photon_stats`, so a report is a pure function of its
profile.  With ``exact_probabilities`` set, Poisson sampling is bypassed
and counts are expected values (floats).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import DegenerateScan, ZeroDenominator
from .optics import (InterferometerConfig, Port, arm_operators, case_i, case_ii,
                     conditional_output_state, detection_probability,
                     interference_probability, port_operator)
from .photon_stats import (CountRecord, DetectorModel, SourceModel, _wrap_near,
                           calibrate_phase, derive_seed, expected_rate, fit_sinusoid,
                           records_to_csv, sample_counts)
from .qubit import SIGMA_Y, PureState, STATE_V
from .tomography import (QPT_INPUT_LABELS, QPT_INPUT_STATES, chi_of_unitary,
                         chi_to_json, process_fidelity, qpt_reconstruct, qst_linear,
                         qst_mle, setting_probabilities)

# the mirror phases of every fringe scan: the phi0 calibration and phase-of-k
N_SCAN_POINTS = 40
_SCAN_PHIS = np.linspace(-2.0 * math.pi, 2.0 * math.pi, N_SCAN_POINTS)
# numpy's Poisson sampler refuses means above about 9.2e18, so a profile whose
# brightest setting could ask for more is rejected up front
MAX_MEAN_COUNTS = 1.0e18


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
        if not 0.0 <= self.waveplate_angle_sigma < math.inf:
            raise ValueError("waveplate_angle_sigma must be finite and >= 0")
        if not math.isfinite(self.phase_offset_error):
            raise ValueError("phase_offset_error must be finite")
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError("visibility must be in [0, 1]")
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


def _record(p, noise: NoiseProfile, label: str, phis: list[float],
            ports: tuple[Port, ...]) -> list[CountRecord]:
    """Count records for the click probabilities p[i][j] at mirror phase phis[i]
    and port ports[j], phi-major; a sampled count is seeded by (label, port, i)."""
    rate = expected_rate(np.asarray(p), noise.source, noise.detector)
    t = noise.source.integration_time
    if noise.exact_probabilities:
        counts = (rate * t).tolist()
    else:
        counts = [[sample_counts(r, t, derive_seed(noise.master_seed,
                                                   f"{label}:{port.value}", i))
                   for r, port in zip(row, ports)]
                  for i, row in enumerate(rate.tolist())]
    return [CountRecord(setting_label=label, phi=phi, port=port, duration=t, counts=n)
            for phi, row in zip(phis, counts) for port, n in zip(ports, row)]


def _fringe_scan(a: np.ndarray, b: np.ndarray, noise: NoiseProfile, psi0: PureState,
                 label: str, outputs: tuple) -> list[CountRecord]:
    """Records of a mirror-phase scan over fixed arm operators a, b, phi-major;
    ``outputs`` lists the (recorded port, cross-term sign) pairs at each phase.
    Each output's probabilities over the whole phi grid are one array pass."""
    phis = _SCAN_PHIS - noise.phase_offset_error
    p = np.column_stack([interference_probability(a, b, phis, noise.visibility, psi0, sign)
                         for _, sign in outputs])
    return _record(p, noise, label, _SCAN_PHIS.tolist(), tuple(port for port, _ in outputs))


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
    records = []
    ports = (Port.D1, Port.D2)
    for case_name, builder in (("I", case_i), ("II", case_ii)):
        cfg = _apparatus(builder, noise, f"case-{case_name}", phi0)
        recs = _record([[detection_probability(cfg, port, psi0) for port in ports]],
                       noise, f"case-{case_name}", [phi0], ports)
        records += recs
        total = sum(rec.counts for rec in recs)
        for rec in recs:
            key = f"case_{case_name}_{rec.port.value}"
            derived[key] = rec.counts / total if total > 0 else 0.0
            if not noise.exact_probabilities and total > 0:
                # binomial stderr of the normalized rate
                q = derived[key]
                derived[key + "_err"] = math.sqrt(max(q * (1 - q), 1.0 / total) / total)
    tol = 1e-9 if noise.exact_probabilities else 5.0 * max(
        derived.get(k + "_err", 0.0)
        for k in ("case_I_D1", "case_I_D2", "case_II_D1", "case_II_D2"))
    derived["pi_shift_verdict"] = bool(
        abs(derived["case_I_D1"] - derived["case_II_D2"]) <= tol
        and abs(derived["case_I_D2"] - derived["case_II_D1"]) <= tol)
    return ExperimentReport("case-compare", _profile_echo(noise), records, derived)


def run_commutator_qpt(noise: NoiseProfile) -> ExperimentReport:
    """Process tomography of the commutator port (case II, D2) against sigma_y.

    For each of the four tomography inputs the conditional D2 state is
    measured in the six polarization settings; reconstruction is linear
    inversion in exact-probability mode and maximum likelihood on sampled
    counts.
    """
    phi0 = _calibrated_phi0(noise)
    cfg = _apparatus(case_ii, noise, "qpt", phi0)
    t = noise.source.integration_time
    records, outputs, mle_converged = [], {}, True
    for label in QPT_INPUT_LABELS:
        psi = QPT_INPUT_STATES[label]
        rho_out = conditional_output_state(cfg, Port.D2, psi.density())
        p_port = detection_probability(cfg, Port.D2, psi)
        probs = setting_probabilities(rho_out)
        counts = {}
        for i, (setting, p_j) in enumerate(sorted(probs.items())):
            rate = max(noise.source.pair_rate * noise.detector.efficiency
                       * p_port * p_j, 0.0) + noise.detector.dark_rate
            if noise.exact_probabilities:
                n = rate * t
            else:
                n = sample_counts(rate, t, derive_seed(noise.master_seed,
                                                       f"qpt:{label}:{setting}", i))
            counts[setting] = n
            records.append(CountRecord(f"qpt:{label}:{setting}", phi0, Port.D2, t, n))
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
    only); N_l: reflected arm blocked.  Dark counts are subtracted before
    the ratio; the standard error follows Poisson propagation,
    stderr = |k| sqrt(1/N + 1/(N_u + N_l)).
    """
    phi0 = _calibrated_phi0(noise)
    cfg = _apparatus(case_ii, noise, "estimate-k", phi0)
    t = noise.source.integration_time
    dark = noise.detector.dark_rate * t
    records = []
    corrected = {}
    sub_runs = (("open", {}), ("block-transmitted", {"block_transmitted": True}),
                ("block-reflected", {"block_reflected": True}))
    for label, blocks in sub_runs:
        p = detection_probability(replace(cfg, **blocks), Port.D2, psi0)
        [rec] = _record([[p]], noise, f"k:{label}", [phi0], (Port.D2,))
        records.append(rec)
        corrected[label] = max(rec.counts - dark, 0.0)
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
                          f_low: float = 0.92, f_high: float = 0.96,
                          n_seeds: int = 50, max_bisections: int = 20) -> AngleNoiseCalibration:
    """Find a plate-angle noise level whose mean process fidelity lands in a window.

    The target fidelity window stands in for unknown apparatus
    imperfections; mean fidelity decreases with angle noise, so plain
    bracketing plus bisection converges quickly.
    """
    if noise is None:
        noise = NoiseProfile()
    lo, hi = 0.0, 0.05
    f_hi_val = mean_qpt_fidelity(noise, hi, n_seeds)
    while f_hi_val > f_low and hi < 1.0:
        if f_low <= f_hi_val <= f_high:
            return AngleNoiseCalibration(hi, f_hi_val, n_seeds)
        lo, hi = hi, 2.0 * hi
        f_hi_val = mean_qpt_fidelity(noise, hi, n_seeds)
    for _ in range(max_bisections):
        mid = 0.5 * (lo + hi)
        f_mid = mean_qpt_fidelity(noise, mid, n_seeds)
        if f_low <= f_mid <= f_high:
            return AngleNoiseCalibration(mid, f_mid, n_seeds)
        if f_mid > f_high:
            lo = mid
        else:
            hi = mid
    raise RuntimeError("angle-noise calibration did not land in the fidelity window")
