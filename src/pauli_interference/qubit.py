"""Complex 2x2 qubit algebra: Pauli operators, commutators, and state metrics.

Basis convention: index 0 is horizontal polarization |H>, index 1 is
vertical |V>.  All matrices are plain ``numpy`` arrays of dtype complex;
equality is always tolerance-based.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-9

IDENTITY = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

PAULI_LABELS = ("I", "X", "Y", "Z")
PAULI_BASIS = (IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z)

_AXES = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}


def pauli(axis: str) -> np.ndarray:
    """Return the Pauli matrix for ``axis`` in {'x', 'y', 'z'}."""
    try:
        return _AXES[axis].copy()
    except KeyError:
        raise ValueError(f"unknown Pauli axis {axis!r}, expected one of x, y, z") from None


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """ab - ba."""
    return a @ b - b @ a


def anticommutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """ab + ba."""
    return a @ b + b @ a


def is_hermitian(m: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    return bool(np.all(np.abs(m - m.conj().T) <= tol))


def is_unitary(m: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    return bool(np.all(np.abs(m.conj().T @ m - np.eye(m.shape[0])) <= tol))


def is_zero(m: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    return bool(np.all(np.abs(m) <= tol))


@dataclass(frozen=True)
class PureState:
    """Normalized two-component Jones vector alpha|H> + beta|V>."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        norm2 = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if not abs(norm2 - 1.0) <= 1e-12:  # written so that NaN fails
            raise ValueError(f"state not normalized: |alpha|^2+|beta|^2 = {norm2!r}")

    @classmethod
    def from_vector(cls, v) -> "PureState":
        """Normalize a 2-vector and wrap it."""
        v = np.asarray(v, dtype=complex).reshape(2)
        n = np.linalg.norm(v)
        if n < 1e-15:
            raise ValueError("cannot normalize the zero vector")
        return cls(complex(v[0] / n), complex(v[1] / n))

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.alpha, self.beta], dtype=complex)

    def density(self) -> np.ndarray:
        v = self.vector
        return np.outer(v, v.conj())


STATE_H = PureState(1, 0)
STATE_V = PureState(0, 1)
STATE_D = PureState(1 / np.sqrt(2), 1 / np.sqrt(2))
STATE_A = PureState(1 / np.sqrt(2), -1 / np.sqrt(2))
STATE_R = PureState(1 / np.sqrt(2), -1j / np.sqrt(2))
STATE_L = PureState(1 / np.sqrt(2), 1j / np.sqrt(2))


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
