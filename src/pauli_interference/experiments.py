"""End-to-end experiment scripts: phase scan, case contrast, process
tomography of the commutator port, magnitude and phase of the
proportionality constant in [sigma_z, sigma_x] = k sigma_y.

Every run has one data flow: click probabilities, then one count column
per record set, then derived values.  Each run builds its interferometer
(``_apparatus``) and arm operators once; every click probability is a
kernel call (``interference_probability``), over the mirror-phase grid for
a fringe scan (``_fringe_scan``) or on a stack of arm pairs otherwise.
``_counts`` alone turns probabilities into counts: expected values with
``exact_probabilities`` set, else one Poisson stream (``sample_counts``)
per record set, seeded by the set's label, which no two sets of a run
share.  Every derived value comes from those columns; ``_record`` makes
count records of them only to write a report, and no run reads them back.
The phi0 calibration (``_calibrate``) fits its scan's columns
(``calibrate_phase``): the phase scan reports both, and a run with a phase
offset (``_calibrated_phi0``) keeps only phi0.  All randomness flows from
``NoiseProfile.master_seed`` through ``derive_seed``, one seed per record
set and one per apparatus's plate errors, so a report is a pure function of
its profile; the sampling rule is in :mod:`photon_stats`.  ``json_text``
writes ``report.json``'s head and ``chi.json`` exactly as
``json.dumps(..., indent=2, sort_keys=True)``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import CalibrationFailed, DegenerateScan, EmptyData, ZeroDenominator
from .optics import (InterferometerConfig, Port, arm_operators, case_i, case_ii,
                     interference_probability, port_operator,
                     # both unused here: perfbench/tracing.py wraps them
                     conditional_output_state, detection_probability)
from .photon_stats import (CountRecord, DetectorModel, PhaseCalibration, SourceModel,
                           _wrap_near, calibrate_phase, derive_seed, expected_rate,
                           fit_sinusoid, records_to_csv, reject_bools, sample_counts)
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
# QPT's six analyzer settings in the label order (A, D, H, L, R, V) it records and draws
_QPT_SETTINGS = sorted(tomography_settings(), key=lambda s: s.label)
_ANALYZERS = np.array([s.projector for s in _QPT_SETTINGS])
# the process matrix every QPT run is scored against
_CHI_SIGMA_Y = chi_of_unitary(SIGMA_Y)
_CHI_SIGMA_Y.flags.writeable = False
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
        reject_bools(self, "waveplate_angle_sigma", "phase_offset_error", "visibility")
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
    def ideal(cls) -> "NoiseProfile":
        return cls(exact_probabilities=True)


def json_text(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, nested at ``indent``.

    One recursive pass over str-keyed dicts, lists and tuples, writing each
    scalar as json does, and a [re, im] pair of finite floats in one step.
    Any other value goes to json.dumps and is re-indented, so the text, or
    the TypeError, is always json's.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        if (len(value) == 2 and type(value[0]) is float is type(value[1])
                and math.isfinite(value[0]) and math.isfinite(value[1])):
            return f"[\n{inner}{value[0]!r},\n{inner}{value[1]!r}\n{indent}]"
        items = [json_text(v, inner) for v in value]
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"
    if isinstance(value, dict) and all(isinstance(k, str) for k in value):
        if not value:
            return "{}"
        inner = indent + "  "
        items = [f"{encode_basestring_ascii(k)}: {json_text(value[k], inner)}"
                 for k in sorted(value)]
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}}}"
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + indent)


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
        """``json.dumps(self.to_dict(), indent=2, sort_keys=True)``, with the
        records, its last key, written one f-string each: a CountRecord holds
        only plain ints and finite floats, whose repr is their JSON spelling."""
        head = json_text({"derived": self.derived, "experiment_id": self.experiment_id,
                          "inputs": self.inputs})[:-2]
        if not self.records:
            return head + ',\n  "records": []\n}'
        rows = ",\n".join([
            f'    {{\n      "counts": {r.counts!r},\n      "duration": {r.duration!r},'
            f'\n      "phi": {r.phi!r},\n      "port": "{r.port.value}",'
            f'\n      "setting": {encode_basestring_ascii(r.setting_label)}\n    }}'
            for r in self.records])
        return f'{head},\n  "records": [\n{rows}\n  ]\n}}'

    def counts_csv(self) -> str:
        return records_to_csv(self.records)


def _profile_echo(noise: NoiseProfile, **extra) -> dict:
    """``{**asdict(noise), **extra}`` in fresh dicts, without asdict's deep
    copy: the detector and source are flat, and every other field a scalar."""
    return {**vars(noise), "detector": {**vars(noise.detector)},
            "source": {**vars(noise.source)}, **extra}


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


_Cell = tuple[str, float, Port]


def _counts(p, noise: NoiseProfile, set_label: str) -> list:
    """The counts at every click probability in p, taken row-major, and the
    only place that turns probabilities into counts: expected values, or one
    Poisson stream over the whole record set, seeded by
    ``derive_seed(master_seed, set_label)``.  No two record sets of a run
    share a label, so their shot noise is independent."""
    rate = expected_rate(np.ravel(p), noise.source, noise.detector)
    t = noise.source.integration_time
    if noise.exact_probabilities:
        return (rate * t).tolist()
    return sample_counts(rate, t, derive_seed(noise.master_seed, set_label))


def _record(counts: list, noise: NoiseProfile, cells: list[_Cell]) -> list[CountRecord]:
    """A report's count records: one per count from ``_counts``, at its cell
    (setting label, mirror phase, port)."""
    t = noise.source.integration_time
    return [CountRecord(setting_label=label, phi=phi, port=port, duration=t, counts=n)
            for (label, phi, port), n in zip(cells, counts)]


def _fringe_scan(a: np.ndarray, b: np.ndarray, noise: NoiseProfile, psi0: PureState,
                 label: str, outputs: tuple) -> tuple[list[_Cell], list]:
    """A mirror-phase scan over fixed arm operators a, b, drawn as the record
    set ``label``: its cells and counts, phi-major; ``outputs`` lists the
    (recorded port, cross-term sign) pairs at each phase.  Each output's
    probabilities over the whole phi grid are one array pass."""
    phis = _SCAN_PHIS - noise.phase_offset_error
    p = np.column_stack([interference_probability(a, b, phis, noise.visibility, psi0, sign)
                         for _, sign in outputs])
    cells = [(label, phi, port) for phi in _SCAN_PHIS.tolist() for port, _ in outputs]
    return cells, _counts(p, noise, label)


def _calibrate(noise: NoiseProfile,
               psi0: PureState) -> tuple[list[_Cell], list, PhaseCalibration]:
    """The phi0 calibration: the cells and counts of a scan with all plates
    at sigma_z, D1 and D2 at each phase, and the fit of its two fringes."""
    # the scan sets the mirror phase itself, so the apparatus phi0 is unused
    a, b = arm_operators(_apparatus(case_i, noise, "phase-scan", 0.0))
    cells, counts = _fringe_scan(a, b, noise, psi0, "phase-scan",
                                 ((Port.D1, 1.0), (Port.D2, -1.0)))
    return cells, counts, calibrate_phase(_SCAN_PHIS, counts[0::2], counts[1::2])


def run_phase_scan(noise: NoiseProfile, psi0: PureState = STATE_V) -> ExperimentReport:
    """Scan the mirror phase with all plates at sigma_z and calibrate phi0."""
    cells, counts, cal = _calibrate(noise, psi0)
    derived = {"phi0": cal.phi0,
               "d1_d2_antiphase": abs(_wrap_near(cal.d2_fit.phase - cal.d1_fit.phase, 0.0))}
    if not noise.exact_probabilities:
        derived["phi0_err"] = cal.stderr
    for port, fit in (("d1", cal.d1_fit), ("d2", cal.d2_fit)):
        for key in ("offset", "amplitude", "phase", "fringe_visibility"):
            derived[f"{port}_{key}"] = getattr(fit, key)
        if not noise.exact_probabilities:
            # calibrate_phase refuses a flat fringe, so the offset is > 0
            derived[f"{port}_fringe_visibility_err"] = fit.amplitude_stderr / fit.offset
    return ExperimentReport("phase-scan", _profile_echo(noise, n_points=N_SCAN_POINTS),
                            _record(counts, noise, cells), derived)


def _calibrated_phi0(noise: NoiseProfile) -> float:
    """phi0 for downstream runs: calibrate only when there is something to find.
    It is run_phase_scan's phi0, without its records and report."""
    if noise.phase_offset_error == 0.0:
        return 0.0
    return _calibrate(noise, STATE_V)[2].phi0


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
    cells = [(f"case-{name}", phi0, port) for name, _ in cases for port in ports]
    counts = _counts(p, noise, "case-compare")
    for (case_name, _), pair in zip(cases, (counts[:2], counts[2:])):
        total = sum(pair)
        if total <= 0:
            raise EmptyData(f"case {case_name} has zero total counts")
        for port, n in zip(ports, pair):
            key = f"case_{case_name}_{port.value}"
            q = derived[key] = n / total
            if not noise.exact_probabilities:
                # binomial stderr of the normalized rate
                derived[key + "_err"] = math.sqrt(max(q * (1 - q), 1.0 / total) / total)

    def exchanged(a: str, b: str) -> bool:
        # a difference of two independent rates: its stderr adds theirs in quadrature
        tol = 1e-9 if noise.exact_probabilities else 5.0 * math.hypot(
            derived.get(a + "_err", 0.0), derived.get(b + "_err", 0.0))
        return abs(derived[a] - derived[b]) <= tol

    derived["pi_shift_verdict"] = (exchanged("case_I_D1", "case_II_D2")
                                   and exchanged("case_I_D2", "case_II_D1"))
    return ExperimentReport("case-compare", _profile_echo(noise),
                            _record(counts, noise, cells), derived)


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
    cells = [(f"qpt:{label}:{s.label}", phi0, Port.D2)
             for label in QPT_INPUT_LABELS for s in _QPT_SETTINGS]
    counts = _counts(p, noise, "qpt")
    outputs, mle_converged = {}, True
    for j, label in enumerate(QPT_INPUT_LABELS):
        data = {s.label: n for s, n in zip(_QPT_SETTINGS, counts[6 * j:6 * j + 6])}
        if noise.exact_probabilities:
            outputs[label] = qst_linear(data).rho
        else:
            mle = qst_mle(data)
            mle_converged = mle_converged and mle.converged
            outputs[label] = mle.rho
    result = qpt_reconstruct(outputs)
    fid = process_fidelity(result.chi, _CHI_SIGMA_Y)
    derived = {
        "process_fidelity": fid,
        "chi": chi_to_json(result.chi),
        "psd_deviation": result.psd_deviation,
        "trace_preservation_deviation": result.trace_preservation_deviation,
        "mle_converged": mle_converged,
        "phi0": phi0,
    }
    return ExperimentReport("qpt", _profile_echo(noise), _record(counts, noise, cells), derived)


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
    cells = [(f"k:{label}", phi0, Port.D2) for label in sub_runs]
    counts = _counts(p, noise, "estimate-k")
    corrected = {label: max(n - dark, 0.0) for label, n in zip(sub_runs, counts)}
    n_open = corrected["open"]
    n_split = corrected["block-transmitted"] + corrected["block-reflected"]
    if n_split <= 0:
        raise ZeroDenominator("blocked-path counts sum to zero")
    k_abs = n_open / n_split
    stderr = k_abs * math.sqrt(1.0 / n_open + 1.0 / n_split) if n_open > 0 else 0.0
    derived = {"k_abs": k_abs, "stderr": stderr, "phi0": phi0,
               "n_open": n_open, "n_u": corrected["block-transmitted"],
               "n_l": corrected["block-reflected"]}
    return ExperimentReport("estimate-k", _profile_echo(noise),
                            _record(counts, noise, cells), derived)


def run_phase_of_k(noise: NoiseProfile, psi0: PureState = STATE_V) -> ExperimentReport:
    """Fringe-phase comparison of the commutator output against a sigma_y reference.

    An outer interferometer interferes the inner D2 (commutator) output
    with a reference arm carrying a single sigma_y operation; the fitted
    fringe-phase difference between this scan and a reference-vs-reference
    scan is the phase of k (pi/2 ideally).
    """
    phi0 = _calibrated_phi0(noise)
    m_com = port_operator(_apparatus(case_ii, noise, "phase-of-k", phi0), Port.D2)
    cells, counts, fits = [], [], {}
    for scan_label, (m1, m2) in (("commutator", (m_com, SIGMA_Y)),
                                 ("reference", (SIGMA_Y, SIGMA_Y))):
        # each scan its own label: a shared stream would correlate their
        # shot noise, and arg_k_err adds their errors as independent
        scan_cells, scan = _fringe_scan(m1, m2, noise, psi0, f"arg-k:{scan_label}",
                                        ((Port.D2, 1.0),))
        cells += scan_cells
        counts += scan
        fit = fit_sinusoid(_SCAN_PHIS, scan)
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
                            _record(counts, noise, cells), derived)


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
    raise CalibrationFailed("angle-noise calibration did not land in the fidelity window")
