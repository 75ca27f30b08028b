"""Complex 2x2 qubit algebra: Pauli operators, commutators, and pure states.

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


def is_unitary(m: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    return bool(np.all(np.abs(m.conj().T @ m - np.eye(m.shape[0])) <= tol))


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
