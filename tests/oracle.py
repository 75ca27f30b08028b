"""Test helpers: matrix and state checks, state distances, the Born
probabilities of the six tomography settings, the Poissonian -log L
oracle of tomography, evaluated at a density matrix, the matrix-unit
reference for process tomography, the four-draw reference for a run's plate
errors, the closed forms of the exact-mode runs under plate noise, and the
references for a report's two writers: the dict ``report.json`` dumps and the
csv module's text of its counts."""

import csv
import io
import math
from dataclasses import replace

import numpy as np

from pauli_interference.photon_stats import derive_seed
from pauli_interference.qubit import DEFAULT_TOL, IDENTITY, PAULI_BASIS, PureState
from pauli_interference.tomography import (QPT_INPUT_LABELS, ChiResult,
                                           mle_negative_log_likelihood, tomography_settings)

_SETTINGS = tomography_settings()
PROJECTORS = {s.label: s.projector for s in _SETTINGS}
PAIRS = (("H", "V"), ("D", "A"), ("R", "L"))


def report_dict(report) -> dict:
    """The reference for ``to_json``: ``report.json`` is exactly
    ``json.dumps(report_dict(report), indent=2, sort_keys=True)``."""
    return {
        "experiment_id": report.experiment_id,
        "inputs": report.inputs,
        "records": [{"setting": label, "phi": phi, "port": port.value,
                     "duration": report.duration, "counts": n}
                    for (label, phi, port), n in zip(report.cells, report.counts)],
        "derived": report.derived,
    }


def csv_writer_text(report) -> str:
    """The reference for ``counts_csv``: the csv module's own output for a
    report's rows, one per (cell, count)."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["setting", "phi", "port", "duration", "counts"])
    w.writerows([[label, repr(float(phi)), port.value, repr(float(report.duration)), n]
                 for (label, phi, port), n in zip(report.cells, report.counts)])
    return buf.getvalue()


def plate_errors(noise, label: str) -> list[float]:
    """A run's plate-angle errors e1..e4, for sigma1 to sigma4: the
    ``plates:{label}`` stream drawn one scalar per plate, or four zeros."""
    if noise.waveplate_angle_sigma == 0.0:
        return [0.0] * 4
    rng = np.random.default_rng(derive_seed(noise.master_seed, f"plates:{label}"))
    return [rng.normal(0.0, noise.waveplate_angle_sigma) for _ in range(4)]


def apparatus_reference(builder, noise, label: str, phi0: float):
    """The reference for ``experiments._apparatus``: each of ``plate_errors``
    added to the builder's angle."""
    cfg = builder(phi=phi0 - noise.phase_offset_error, visibility=noise.visibility)
    if noise.waveplate_angle_sigma == 0.0:
        return cfg
    plates = {}
    for name, e in zip(("sigma1", "sigma2", "sigma3", "sigma4"), plate_errors(noise, label)):
        wp = getattr(cfg, name)
        plates[name] = replace(wp, angle=wp.angle + e)
    return replace(cfg, **plates)


# Closed forms of the exact-mode runs under plate noise, on the default input
# state |V>.  The plates the runs use are half-wave plates, real reflections,
# so an arm is a rotation, HWP(x) HWP(y) = R(2(x - y)): with delta1 = e2 - e1
# and delta2 = e4 - e3, case I's arms are R(2 delta1) and R(2 delta2), and case
# II's (sigma1 and sigma4 at 45 deg) R(2 delta1 - pi/2) and R(2 delta2 + pi/2).
# S = delta1 + delta2 and D = delta1 - delta2; on |V> the arms' overlap is
# cos 2D in case I and -cos 2D in case II.  V in the forms is the cross term's
# signed weight, ``_fringe_contrast``.

def sum_and_difference(noise, label: str) -> tuple[float, float]:
    """(S, D) of the run's ``plates:{label}`` draw."""
    e1, e2, e3, e4 = plate_errors(noise, label)
    d1, d2 = e2 - e1, e4 - e3
    return d1 + d2, d1 - d2


def _phase_scan_inverted(noise) -> bool:
    """Whether the ``plates:phase-scan`` draw inverts the case-I fringe: cos 2D < 0."""
    return math.cos(2.0 * sum_and_difference(noise, "phase-scan")[1]) < 0.0


def phi0_form(noise) -> float:
    """``run_phase_scan``'s phi0: the offset, or the offset - pi on an inverted fringe."""
    return noise.phase_offset_error - (math.pi if _phase_scan_inverted(noise) else 0.0)


def _fringe_contrast(noise) -> float:
    """The cross term's weight at the calibrated mirror phase: V, or -V when
    a phi0 calibration ran (a nonzero offset) on an inverted fringe."""
    if noise.phase_offset_error != 0.0 and _phase_scan_inverted(noise):
        return -noise.visibility
    return noise.visibility


def case_rates_form(noise) -> dict[str, float]:
    """``run_case_comparison``'s four normalized rates (r p + d) / (r + 2d):
    p = (1 + V cos 2D)/2 at case I's D1, and the other three alike."""
    r = noise.source.pair_rate * noise.detector.efficiency
    d = noise.detector.dark_rate
    rates = {}
    for case, overlap_sign in (("I", 1.0), ("II", -1.0)):
        _, dd = sum_and_difference(noise, f"case-{case}")
        p_d1 = 0.5 * (1.0 + overlap_sign * _fringe_contrast(noise) * math.cos(2.0 * dd))
        for port, p in (("D1", p_d1), ("D2", 1.0 - p_d1)):
            rates[f"case_{case}_{port}"] = (r * p + d) / (r + 2.0 * d)
    return rates


def k_abs_form(noise) -> float:
    """``estimate_k_magnitude``'s |k| = 1 + V cos 2D: each blocked sub-run
    clicks with probability 1/4, the open one with (1 + V cos 2D)/2."""
    _, dd = sum_and_difference(noise, "estimate-k")
    return 1.0 + _fringe_contrast(noise) * math.cos(2.0 * dd)


def process_fidelity_form(noise) -> float:
    """``run_commutator_qpt``'s F against sigma_y.  The commutator port mixes
    R(S + pi/2), weight (1 + V) cos^2 D, with R(S), weight (1 - V) sin^2 D, and
    clicks with p_c = (1 + V cos 2D)/2 for every input; the dark counts then
    depolarize each output by eta = r p_c / (r p_c + 2d).  R(x) scores
    sin^2 x against sigma_y and the depolarizer 1/4."""
    s, dd = sum_and_difference(noise, "qpt")
    v = _fringe_contrast(noise)
    p_c = 0.5 * (1.0 + v * math.cos(2.0 * dd))
    p = (1.0 + v) * math.cos(dd) ** 2 / (2.0 * p_c)
    r = noise.source.pair_rate * noise.detector.efficiency
    eta = r * p_c / (r * p_c + 2.0 * noise.detector.dark_rate)
    return eta * (p * math.cos(s) ** 2 + (1.0 - p) * math.sin(s) ** 2) + (1.0 - eta) / 4.0


def setting_probabilities(rho: np.ndarray) -> dict[str, float]:
    """Born probabilities tr(P rho) for all six settings."""
    return {s.label: float(np.trace(s.projector @ rho).real) for s in _SETTINGS}


def pair_totals(counts):
    totals = {}
    for a, b in PAIRS:
        totals[a] = totals[b] = counts[a] + counts[b]
    return totals


def factor_params(rho):
    """Oracle parameters x with rho = T^dag T / tr(T^dag T), T = [[x0, x2 + i x3], [0, x1]].

    A full-rank state uses its Cholesky factor.  Cholesky fails on rank-1
    states, so a pure state psi is phased to make psi_H real and >= 0, row 0
    of T is psi^dag and row 1 is zero.
    """
    rho = np.asarray(rho, dtype=complex)
    w, v = np.linalg.eigh(rho)
    if w[0] > 1e-14:
        t = np.linalg.cholesky(rho).conj().T
        return np.array([t[0, 0].real, t[1, 1].real, t[0, 1].real, t[0, 1].imag])
    psi = v[:, 1] * np.exp(-1j * np.angle(v[0, 1]))
    return np.array([abs(psi[0]), 0.0, psi[1].real, -psi[1].imag])


def oracle_nll(rho, counts):
    return mle_negative_log_likelihood(factor_params(rho), counts, pair_totals(counts),
                                       PROJECTORS)[0]


# The chi system maps chi to the images of the matrix units |i><j|, stacked
# in (i, j) order: column 4m+n holds E_m |i><j| E_n^dag
_CHI_SYSTEM = np.array([np.concatenate([(e_m @ np.outer(IDENTITY[i], IDENTITY[j])
                                         @ e_n.conj().T).reshape(4)
                                        for i in range(2) for j in range(2)])
                        for e_m in PAULI_BASIS for e_n in PAULI_BASIS]).T


def qpt_reconstruct_reference(outputs) -> ChiResult:
    """The reference for ``qpt_reconstruct``: the channel's images of the
    matrix units |i><j|, assembled by linearity
    (|H><V| = rho_D - i rho_R - (1-i)/2 (rho_H + rho_V)), solved for chi from
    the 16x16 system, then Hermitized; the trace-preservation deviation is
    the 16-term sum of chi_mn E_n^dag E_m."""
    oh, ov, od, orr = (np.asarray(outputs[l], complex) for l in QPT_INPUT_LABELS)
    e_hv = od - 1j * orr - 0.5 * (1 - 1j) * (oh + ov)
    target = np.concatenate([m.reshape(4) for m in (oh, e_hv, e_hv.conj().T, ov)])
    chi = np.linalg.solve(_CHI_SYSTEM, target).reshape(4, 4)
    chi = 0.5 * (chi + chi.conj().T)
    tp = sum(chi[m, n] * PAULI_BASIS[n].conj().T @ PAULI_BASIS[m]
             for m in range(4) for n in range(4))
    return ChiResult(chi=chi, psd_deviation=float(max(0.0, -np.linalg.eigvalsh(chi).min())),
                     trace_preservation_deviation=float(np.abs(tp - IDENTITY).max()))


def is_hermitian(m: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    return bool(np.all(np.abs(m - m.conj().T) <= tol))


def is_zero(m: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    return bool(np.all(np.abs(m) <= tol))


def apply(m: np.ndarray, psi: PureState) -> np.ndarray:
    """Matrix-vector product; the result is in general unnormalized.

    The squared norm of the result is the relative probability associated
    with the (possibly non-unitary) operation ``m``.
    """
    return m @ psi.vector


def validate_density_matrix(rho: np.ndarray, herm_tol: float = 1e-9,
                            trace_tol: float = 1e-9, eig_tol: float = 1e-9) -> None:
    """Raise ValueError unless rho is Hermitian, unit trace, and PSD within tolerance."""
    rho = np.asarray(rho)
    if rho.shape != (2, 2):
        raise ValueError(f"expected 2x2 matrix, got shape {rho.shape}")
    if not np.all(np.isfinite(rho.real)) or not np.all(np.isfinite(rho.imag)):
        raise ValueError("density matrix has non-finite entries")
    if not is_hermitian(rho, herm_tol):
        raise ValueError("density matrix not Hermitian")
    if abs(np.trace(rho).real - 1.0) > trace_tol:
        raise ValueError(f"density matrix trace {np.trace(rho)} != 1")
    if np.linalg.eigvalsh(rho).min() < -eig_tol:
        raise ValueError("density matrix has a negative eigenvalue")


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity, squared-overlap convention.

    For 2x2 states the closed form F = tr(rho sigma) + 2 sqrt(det rho det sigma)
    avoids matrix square roots.
    """
    t = np.trace(rho @ sigma).real
    d = np.linalg.det(rho).real * np.linalg.det(sigma).real
    f = t + 2.0 * np.sqrt(max(d, 0.0))
    return float(min(max(f, 0.0), 1.0))


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """(1/2) * sum |eigenvalues of rho - sigma|."""
    ev = np.linalg.eigvalsh(rho - sigma)
    return float(0.5 * np.sum(np.abs(ev)))


def state_distances(rho: np.ndarray, sigma: np.ndarray) -> dict:
    """Both standard distance measures at once."""
    return {"fidelity": fidelity(rho, sigma), "trace_distance": trace_distance(rho, sigma)}
