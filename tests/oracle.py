"""Test helpers: the Born probabilities of the six tomography settings, and
the Poissonian -log L oracle of tomography, evaluated at a density matrix."""

import numpy as np

from pauli_interference.tomography import mle_negative_log_likelihood, tomography_settings

_SETTINGS = tomography_settings()
PROJECTORS = {s.label: s.projector for s in _SETTINGS}
PAIRS = (("H", "V"), ("D", "A"), ("R", "L"))


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
