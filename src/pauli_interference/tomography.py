"""State and process tomography for the polarization qubit.

State tomography uses the over-complete six-projector set {H, V, D, A, R, L}
(three mutually unbiased bases).  Linear inversion recovers the Bloch
vector directly from count differences.  Because each basis pair is
normalized by its own observed total, the Poisson likelihood factorizes
into three binomials, one per Bloch component, so the maximum-likelihood
state has a closed form: the linear-inversion Bloch vector when it lies in
the unit ball, and otherwise the point on the Bloch sphere fixed by a
single Lagrange multiplier (Hradil, PRA 55, R1561 (1997); James et al.,
PRA 64, 052312 (2001)).

Process tomography expresses a single-qubit channel as
E(rho) = sum_mn chi_mn E_m rho E_n^dag in the fixed operator basis
(I, sigma_x, sigma_y, sigma_z).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EmptyData, NotUnitary
from .qubit import (IDENTITY, PAULI_BASIS, PAULI_LABELS, SIGMA_X, SIGMA_Y, SIGMA_Z,
                    STATE_A, STATE_D, STATE_H, STATE_L, STATE_R, STATE_V, is_unitary)

SETTING_LABELS = ("H", "V", "D", "A", "R", "L")
_SETTING_STATES = {"H": STATE_H, "V": STATE_V, "D": STATE_D,
                   "A": STATE_A, "R": STATE_R, "L": STATE_L}
# (+1, -1) eigenstate labels of sigma_x, sigma_y, sigma_z
_STOKES_PAIRS = (("D", "A"), ("L", "R"), ("H", "V"))

QPT_INPUT_LABELS = ("H", "V", "D", "R")
QPT_INPUT_STATES = {"H": STATE_H, "V": STATE_V, "D": STATE_D, "R": STATE_R}


@dataclass(frozen=True)
class MeasurementSetting:
    label: str
    projector: np.ndarray


def tomography_settings() -> tuple[MeasurementSetting, ...]:
    """Rank-1 projectors for the six standard polarization analyses."""
    return tuple(MeasurementSetting(lbl, _SETTING_STATES[lbl].density())
                 for lbl in SETTING_LABELS)


_SETTINGS = tomography_settings()


def setting_probabilities(rho: np.ndarray) -> dict[str, float]:
    """Born probabilities tr(P rho) for all six settings."""
    return {s.label: float(np.trace(s.projector @ rho).real) for s in _SETTINGS}


def _check_pairs(counts: dict[str, float]) -> None:
    missing = [l for l in SETTING_LABELS if l not in counts]
    if missing:
        raise ValueError(f"missing settings: {missing}")
    for a, b in _STOKES_PAIRS:
        if counts[a] + counts[b] <= 0:
            raise EmptyData(f"basis pair ({a}, {b}) has zero total counts")


def _bloch_rho(s) -> np.ndarray:
    return 0.5 * (IDENTITY + s[0] * SIGMA_X + s[1] * SIGMA_Y + s[2] * SIGMA_Z)


@dataclass(frozen=True)
class LinearInversionResult:
    rho: np.ndarray
    bloch: np.ndarray          # (s_x, s_y, s_z)
    physical: bool             # min eigenvalue >= -1e-10


def qst_linear(counts: dict[str, float]) -> LinearInversionResult:
    """Stokes-parameter inversion; may be non-physical under shot noise."""
    _check_pairs(counts)
    bloch = np.array([(counts[p] - counts[m]) / (counts[p] + counts[m])
                      for p, m in _STOKES_PAIRS])
    rho = _bloch_rho(bloch)
    physical = bool(np.linalg.eigvalsh(rho).min() >= -1e-10)
    return LinearInversionResult(rho=rho, bloch=bloch, physical=physical)


# dT/dx for the upper-triangular factor T = [[x0, x2 + i*x3], [0, x1]]
_T_DIRECTIONS = (
    np.array([[1, 0], [0, 0]], dtype=complex),
    np.array([[0, 0], [0, 1]], dtype=complex),
    np.array([[0, 1], [0, 0]], dtype=complex),
    np.array([[0, 1j], [0, 0]], dtype=complex),
)


def _factor(x: np.ndarray) -> np.ndarray:
    return np.array([[x[0], x[2] + 1j * x[3]], [0.0, x[1]]], dtype=complex)


def mle_negative_log_likelihood(x: np.ndarray, counts: dict[str, float],
                                totals: dict[str, float],
                                projectors: dict[str, np.ndarray]) -> tuple[float, np.ndarray]:
    """Poissonian -log L and its analytic gradient in the 4 factor parameters.

    rho = T^dag T / tr(T^dag T) with T = _factor(x).  The expected count for
    setting j is lambda_j = N_pair(j) * tr(P_j rho) where N_pair(j) is the
    observed total of j's basis pair.  qst_mle does not use it: it is an
    independent oracle for the tests.
    """
    t = _factor(x)
    g = t.conj().T @ t
    tau = np.trace(g).real
    nll = 0.0
    grad = np.zeros(4)
    dtau = np.array([2.0 * np.trace(t.conj().T @ e).real for e in _T_DIRECTIONS])
    for lbl, proj in projectors.items():
        f = np.trace(proj @ g).real
        p = f / tau
        lam = totals[lbl] * p
        n = counts[lbl]
        nll += lam - (n * np.log(max(lam, 1e-300)) if n > 0 else 0.0)
        pt = proj @ t.conj().T
        df = np.array([2.0 * np.trace(pt @ e).real for e in _T_DIRECTIONS])
        dp = (df * tau - f * dtau) / tau**2
        dlam = totals[lbl] * dp
        grad += dlam * (1.0 - (n / max(lam, 1e-300) if n > 0 else 0.0))
    return nll, grad


def _decreasing_root(f, lo: float, hi: float) -> tuple[float, int, bool]:
    """Root of a non-increasing f on [lo, hi] with f(lo) >= 0 >= f(hi).

    f returns (value, slope).  Newton steps stay inside the shrinking
    bracket; a step that leaves it, or a zero slope, bisects instead.
    Returns (root, steps, converged).
    """
    x = 0.5 * (lo + hi)
    for steps in range(1, 201):
        val, slope = f(x)
        if val == 0.0:
            return x, steps, True
        lo, hi = (x, hi) if val > 0.0 else (lo, x)
        new = x - val / slope if slope < 0.0 else lo
        new = new if lo < new < hi else 0.5 * (lo + hi)
        if abs(new - x) <= 1e-15 * abs(x):
            return new, steps, True
        x = new
    return x, steps, False


def _pair_root(n_plus: float, n_minus: float, mu: float) -> tuple[float, float]:
    """Root s of n+/(1+s) - n-/(1-s) = 2 mu s for mu > 0, and ds/dmu.

    s maximizes n+ log(1+s) + n- log(1-s) - mu s^2.  With both counts
    positive it is the middle root of 2 mu s^3 - (2 mu + N) s + D = 0,
    N = n+ + n-, D = n+ - n- (2n+ at s = -1, -2n- at s = 1), in trigonometric
    form, polished by one Newton step on the original form.  A zero-count
    pair has the closed root s = +-(sqrt(1 + 2n/mu) - 1)/2, which exceeds 1
    only while mu < n/4, never at the multiplier's root, where every |s_k| <= 1.
    """
    if n_plus == 0.0 or n_minus == 0.0:
        n, sign = n_plus + n_minus, (1.0 if n_minus == 0.0 else -1.0)
        r = math.sqrt(1.0 + 2.0 * n / mu)
        return sign * n / (mu * (r + 1.0)), -sign * n / (2.0 * mu * mu * r)
    slope = lambda s: -n_plus / (1.0 + s) ** 2 - n_minus / (1.0 - s) ** 2 - 2.0 * mu
    n, d = n_plus + n_minus, n_plus - n_minus
    r = math.sqrt((2.0 * mu + n) / (6.0 * mu))
    c = min(1.0, max(-1.0, -d / (4.0 * mu * r ** 3)))
    s = 2.0 * r * math.cos((math.acos(c) - 2.0 * math.pi) / 3.0)
    s -= (n_plus / (1.0 + s) - n_minus / (1.0 - s) - 2.0 * mu * s) / slope(s)
    return s, 2.0 * s / slope(s)


@dataclass(frozen=True)
class MleResult:
    rho: np.ndarray
    converged: bool
    iterations: int    # multiplier root steps; 0 when linear inversion is physical


def qst_mle(counts: dict[str, float]) -> MleResult:
    """Maximum-likelihood state; physical by construction.

    With each pair normalized by its observed total, -log L is a sum of
    three binomial terms -n+ log(1+s_k) - n- log(1-s_k) in the Bloch
    components s_k, minimized over the unit ball.  When the
    linear-inversion Bloch vector has |s| <= 1 it is the minimum and is
    returned unchanged.  Otherwise the minimum lies on the Bloch sphere:
    each s_k(mu) solves n+/(1+s) - n-/(1-s) = 2 mu s in closed form, the
    multiplier mu > 0 is the root of sum_k s_k(mu)^2 = 1 (bracketed
    Newton/bisection, the only iteration), and the result is renormalized
    to |s| = 1, a pure state.
    """
    linear = qst_linear(counts)
    if linear.bloch @ linear.bloch <= 1.0:
        return MleResult(rho=linear.rho, converged=True, iterations=0)
    pairs = [(float(counts[p]), float(counts[m])) for p, m in _STOKES_PAIRS]

    def excess(mu):
        roots = [_pair_root(n_plus, n_minus, mu) for n_plus, n_minus in pairs]
        return sum(s * s for s, _ in roots) - 1.0, sum(2.0 * s * ds for s, ds in roots)

    # |s_k(mu)| <= N_k / (2 mu), so the excess is <= 0 at the upper end
    mu_hi = 0.5 * math.hypot(*(n_plus + n_minus for n_plus, n_minus in pairs))
    mu, steps, converged = _decreasing_root(excess, 0.0, mu_hi)
    bloch = np.array([_pair_root(n_plus, n_minus, mu)[0] for n_plus, n_minus in pairs])
    return MleResult(rho=_bloch_rho(bloch / np.linalg.norm(bloch)),
                     converged=converged, iterations=steps)


# --- process tomography -------------------------------------------------

def chi_of_unitary(u: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Rank-1 process matrix of a unitary: chi = c c^dag with u = sum_m c_m E_m."""
    u = np.asarray(u, dtype=complex)
    if not is_unitary(u, tol):
        raise NotUnitary("matrix is not unitary within tolerance")
    c = np.array([0.5 * np.trace(e.conj().T @ u) for e in PAULI_BASIS])
    return np.outer(c, c.conj())


# The chi system maps chi to the images of the matrix units |i><j|, stacked
# in (i, j) order: column 4m+n holds E_m |i><j| E_n^dag.  Its entries are 0,
# +-1 and +-i, and it has full rank, so it is built and trusted once.
_CHI_SYSTEM = np.array([np.concatenate([(e_m @ np.outer(IDENTITY[i], IDENTITY[j])
                                         @ e_n.conj().T).reshape(4)
                                        for i in range(2) for j in range(2)])
                        for e_m in PAULI_BASIS for e_n in PAULI_BASIS]).T
# E_n^dag E_m, m-major: the order of the trace-preservation sum fixes its last bits
_TP_PRODUCTS = tuple((m, n, PAULI_BASIS[n].conj().T @ PAULI_BASIS[m])
                     for m in range(4) for n in range(4))


@dataclass(frozen=True)
class ChiResult:
    chi: np.ndarray
    psd_deviation: float                  # magnitude of most negative eigenvalue
    trace_preservation_deviation: float   # max |sum chi_mn E_n^dag E_m - I|


def qpt_reconstruct(outputs: dict[str, np.ndarray]) -> ChiResult:
    """Single-qubit chi matrix from the channel outputs of the H, V, D, R inputs.

    The channel's action on the matrix units |i><j| is assembled by
    linearity (|H><V| = rho_D - i rho_R - (1-i)/2 (rho_H + rho_V)), then
    chi is solved from the 16x16 linear system relating the matrix-unit
    images to the operator-basis expansion.  The result is Hermitized;
    PSD and trace-preservation deviations are reported, not enforced.
    """
    missing = [l for l in QPT_INPUT_LABELS if l not in outputs]
    if missing:
        raise ValueError(f"missing QPT inputs: {missing}")
    oh, ov, od, orr = (np.asarray(outputs[l], complex) for l in QPT_INPUT_LABELS)
    e_hv = od - 1j * orr - 0.5 * (1 - 1j) * (oh + ov)
    target = np.concatenate([m.reshape(4) for m in (oh, e_hv, e_hv.conj().T, ov)])
    chi = np.linalg.solve(_CHI_SYSTEM, target).reshape(4, 4)
    chi = 0.5 * (chi + chi.conj().T)

    psd_dev = float(max(0.0, -np.linalg.eigvalsh(chi).min()))
    tp = sum(chi[m, n] * product for m, n, product in _TP_PRODUCTS)
    tp_dev = float(np.abs(tp - IDENTITY).max())
    return ChiResult(chi=chi, psd_deviation=psd_dev, trace_preservation_deviation=tp_dev)


def process_fidelity(chi_exp: np.ndarray, chi_ideal: np.ndarray) -> float:
    """Tr[chi_exp chi_ideal], real part, clamped to [0, 1]."""
    f = float(np.trace(np.asarray(chi_exp) @ np.asarray(chi_ideal)).real)
    if f < 0.0 or f > 1.0:
        warnings.warn(f"process fidelity {f} clamped to [0, 1]", stacklevel=2)
    return min(max(f, 0.0), 1.0)


# --- serialization ------------------------------------------------------

def matrix_to_json(m: np.ndarray) -> list:
    """Nested lists of [re, im] pairs."""
    m = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def density_to_json(rho: np.ndarray) -> dict:
    return {"basis": ["H", "V"], "entries": matrix_to_json(rho)}


def chi_to_json(chi: np.ndarray) -> dict:
    return {"basis": list(PAULI_LABELS), "entries": matrix_to_json(chi)}
