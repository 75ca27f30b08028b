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
(I, sigma_x, sigma_y, sigma_z).  chi is one constant linear map of the
Pauli transfer matrix R_ij = tr(E_i E(E_j))/2 (Greenbaum, arXiv:1509.02921;
Chuang and Nielsen, J. Mod. Opt. 44, 2455 (1997)).
"""

from __future__ import annotations

import functools
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
    bloch: np.ndarray          # (s_x, s_y, s_z)
    physical: bool             # |s|^2 <= 1: the state qst_mle returns as it is

    @functools.cached_property
    def rho(self) -> np.ndarray:  # built when first read
        return _bloch_rho(self.bloch)


def qst_linear(counts: dict[str, float]) -> LinearInversionResult:
    """Stokes-parameter inversion; may be non-physical under shot noise."""
    _check_pairs(counts)
    bloch = np.array([(counts[p] - counts[m]) / (counts[p] + counts[m])
                      for p, m in _STOKES_PAIRS])
    return LinearInversionResult(bloch=bloch, physical=bool(bloch @ bloch <= 1.0))


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
    n, d = n_plus + n_minus, n_plus - n_minus
    r = math.sqrt((2.0 * mu + n) / (6.0 * mu))
    c = min(1.0, max(-1.0, -d / (4.0 * mu * r ** 3)))
    s = 2.0 * r * math.cos((math.acos(c) - 2.0 * math.pi) / 3.0)
    slope = -n_plus / (1.0 + s) ** 2 - n_minus / (1.0 - s) ** 2 - 2.0 * mu
    s -= (n_plus / (1.0 + s) - n_minus / (1.0 - s) - 2.0 * mu * s) / slope
    slope = -n_plus / (1.0 + s) ** 2 - n_minus / (1.0 - s) ** 2 - 2.0 * mu
    return s, 2.0 * s / slope


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
    to |s| = 1, a pure state; the linear-inversion rho is then never built.
    """
    linear = qst_linear(counts)
    if linear.physical:
        return MleResult(rho=_bloch_rho(linear.bloch), converged=True, iterations=0)
    pairs = [(float(counts[p]), float(counts[m])) for p, m in _STOKES_PAIRS]
    (p0, m0), (p1, m1), (p2, m2) = pairs

    def excess(mu):
        # sums added left to right, as sum() adds floats before Python 3.12
        (s0, d0), (s1, d1), (s2, d2) = (_pair_root(p0, m0, mu), _pair_root(p1, m1, mu),
                                        _pair_root(p2, m2, mu))
        return s0 * s0 + s1 * s1 + s2 * s2 - 1.0, 2.0 * s0 * d0 + 2.0 * s1 * d1 + 2.0 * s2 * d2

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


# E(E_j) from the outputs rho_l of H, V, D, R: E(I) = rho_H + rho_V,
# E(X) = 2 rho_D - E(I), E(Y) = E(I) - 2 rho_R (R is sigma_y's -1 eigenstate)
# and E(Z) = rho_H - rho_V, halved so that tr(E_i rho_l) @ _PTM_INPUTS is R
_PTM_INPUTS = 0.5 * np.array([[1, -1, 1, 1], [1, -1, 1, -1], [0, 2, 0, 0], [0, 0, -2, 0]])
_PAULI_STACK = np.array(PAULI_BASIS)
# chi_mn = sum_ij R_ij tr(E_m E_i E_n E_j) / 8: 64 nonzero entries, each +-1/4 or +-i/4
_PTM_TO_CHI = np.einsum("mab,ibc,ncd,jda->ijmn", *[_PAULI_STACK] * 4) / 8


@dataclass(frozen=True)
class ChiResult:
    chi: np.ndarray
    psd_deviation: float                  # magnitude of most negative eigenvalue
    trace_preservation_deviation: float   # max |sum chi_mn E_n^dag E_m - I|


def qpt_reconstruct(outputs: dict[str, np.ndarray]) -> ChiResult:
    """Single-qubit chi matrix from the channel outputs of the H, V, D, R inputs.

    R = Re tr(E_i rho_l) @ _PTM_INPUTS and chi is linear in R, so an output
    enters by its Hermitian part only and chi is Hermitian to the bit.  The
    deviations are reported, not enforced; trace preservation's is read off
    R's first row, as sum_mn chi_mn E_n^dag E_m = sum_j R_0j E_j.
    """
    missing = [l for l in QPT_INPUT_LABELS if l not in outputs]
    if missing:
        raise ValueError(f"missing QPT inputs: {missing}")
    rhos = np.array([outputs[l] for l in QPT_INPUT_LABELS], dtype=complex)
    ptm = np.einsum("iab,lba->il", _PAULI_STACK, rhos).real @ _PTM_INPUTS
    chi = np.einsum("ij,ijmn->mn", ptm, _PTM_TO_CHI)
    tp = np.einsum("j,jab->ab", ptm[0], _PAULI_STACK) - IDENTITY
    return ChiResult(chi=chi, psd_deviation=float(max(0.0, -np.linalg.eigvalsh(chi).min())),
                     trace_preservation_deviation=float(np.abs(tp).max()))


def process_fidelity(chi_exp: np.ndarray, chi_ideal: np.ndarray) -> float:
    """Tr[chi_exp chi_ideal], real part, clamped to [0, 1]."""
    f = float(np.trace(np.asarray(chi_exp) @ np.asarray(chi_ideal)).real)
    if f < 0.0 or f > 1.0:
        warnings.warn(f"process fidelity {f} clamped to [0, 1]", stacklevel=2)
    return min(max(f, 0.0), 1.0)


# --- serialization ------------------------------------------------------

def chi_to_json(chi: np.ndarray) -> dict:
    """The basis labels and chi's entries as nested lists of [re, im] pairs."""
    return {"basis": list(PAULI_LABELS),
            "entries": [[[x, y] for x, y in zip(re, im)]
                        for re, im in zip(chi.real.tolist(), chi.imag.tolist())]}
