"""Jones-calculus model of the wave plates and the Mach-Zehnder apparatus.

Sign convention, fixed once and used everywhere: a half-wave plate at
fast-axis angle theta has the Jones matrix

    HWP(theta) = [[cos 2theta, sin 2theta], [sin 2theta, -cos 2theta]]

so that HWP(0) = sigma_z and HWP(45 deg) = sigma_x exactly, with no
residual global phase.  The general retarder below reduces to this at
retardance pi.

Arm naming: the "transmitted" arm of the interferometer carries plates
sigma1 then sigma2; the "reflected" arm carries sigma3 then sigma4 and
the beam-splitter reflection factor i.  Which physical arm (upper or
lower) is "transmitted" is a labeling choice; blocking the reflected arm
isolates the sigma2*sigma1 amplitude and vice versa.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ZeroProbability
from .qubit import PureState, STATE_V

HALF_WAVE = math.pi
QUARTER_WAVE = math.pi / 2


@dataclass(frozen=True)
class WavePlate:
    """A linear retarder: retardance in radians, fast-axis angle in radians."""

    retardance: float
    angle: float

    def __post_init__(self):
        if not 0.0 < self.retardance < 2.0 * math.pi:
            raise ValueError(f"retardance {self.retardance} outside (0, 2*pi)")
        if not math.isfinite(self.angle):
            raise ValueError(f"plate angle {self.angle} is not finite")
        object.__setattr__(self, "angle", self.angle % math.pi)


def half_wave(angle: float) -> WavePlate:
    return WavePlate(HALF_WAVE, angle)


def quarter_wave(angle: float) -> WavePlate:
    return WavePlate(QUARTER_WAVE, angle)


def waveplate_matrix(wp: WavePlate) -> np.ndarray:
    """Jones matrix R(theta) diag(1, e^{i*delta}) R(-theta) in the {H, V} basis."""
    c, s = math.cos(wp.angle), math.sin(wp.angle)
    rot = np.array([[c, -s], [s, c]], dtype=complex)
    # snap the exact half- and quarter-wave phases so HWP(0) is sigma_z
    # to the last bit, not sigma_z plus a 1e-16 residue
    if wp.retardance == HALF_WAVE:
        ph = -1.0 + 0.0j
    elif wp.retardance == QUARTER_WAVE:
        ph = 1.0j
    else:
        ph = np.exp(1j * wp.retardance)
    return rot @ np.diag([1.0 + 0.0j, ph]) @ rot.T


def prepare_state(hwp: WavePlate, qwp: WavePlate) -> PureState:
    """State leaving the preparation plates for a vertically polarized input photon."""
    v = waveplate_matrix(qwp) @ waveplate_matrix(hwp) @ STATE_V.vector
    return PureState.from_vector(v)


class Port(enum.Enum):
    D1 = "D1"
    D2 = "D2"


@dataclass(frozen=True)
class InterferometerConfig:
    """Plate settings, relative path phase, and interference contrast."""

    sigma1: WavePlate
    sigma2: WavePlate
    sigma3: WavePlate
    sigma4: WavePlate
    phi: float = 0.0
    visibility: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError(f"visibility {self.visibility} outside [0, 1]")


def case_i(phi: float = 0.0, visibility: float = 1.0) -> InterferometerConfig:
    """All four plates set to sigma_z (HWP at 0)."""
    z = half_wave(0.0)
    return InterferometerConfig(z, z, z, z, phi=phi, visibility=visibility)


def case_ii(phi: float = 0.0, visibility: float = 1.0) -> InterferometerConfig:
    """sigma1 = sigma4 = sigma_x (HWP at 45 deg), sigma2 = sigma3 = sigma_z."""
    z = half_wave(0.0)
    x = half_wave(math.pi / 4)
    return InterferometerConfig(x, z, z, x, phi=phi, visibility=visibility)


def arm_operators(cfg: InterferometerConfig) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) with A = sigma2*sigma1 on the transmitted arm, B = sigma4*sigma3 on the reflected."""
    return (waveplate_matrix(cfg.sigma2) @ waveplate_matrix(cfg.sigma1),
            waveplate_matrix(cfg.sigma4) @ waveplate_matrix(cfg.sigma3))


def port_operator(cfg: InterferometerConfig, port: Port) -> np.ndarray:
    """Effective operator seen at a detector port.

    D1 -> (i/2)(A e^{i phi} + B), D2 -> (1/2)(A e^{i phi} - B); the 1/2 from
    each beam splitter is retained.
    """
    a, b = arm_operators(cfg)
    ph = np.exp(1j * cfg.phi)
    if port is Port.D1:
        return 0.5j * (a * ph + b)
    return 0.5 * (a * ph - b)


def interference_probability(a: np.ndarray, b: np.ndarray, phi: float | np.ndarray,
                             visibility: float, psi0: PureState,
                             sign: float = 1.0) -> float | np.ndarray:
    """Click probability behind the beam splitter that recombines arms A and B.

    p = (1/4)(|A psi|^2 + |B psi|^2 + sign 2 V Re(e^{i phi} <B psi|A psi>)),
    clamped to [0, 1].  Visibility scales only the cross term.  A call takes
    one arm pair and a scalar or array ``phi`` (a fringe scan in one pass), or
    (k, 2, 2) stacks of pairs and a scalar ``phi``, not both; p has the shape
    of ``phi`` or of the stack, the same bits per pair in either form.  The
    real part of the cross term is written out: ``(overlap * turn).real``
    rounds differently on an array than on a scalar.
    """
    av, bv = a @ psi0.vector, b @ psi0.vector
    overlap = np.vecdot(bv, av)
    turn = np.exp(1j * phi)
    cross = overlap.real * turn.real - overlap.imag * turn.imag
    p = 0.25 * (np.vecdot(av, av).real + np.vecdot(bv, bv).real
                + sign * 2.0 * visibility * cross)
    return np.clip(p, 0.0, 1.0)


def detection_probability(cfg: InterferometerConfig, port: Port, psi0: PureState) -> float:
    """Click probability at a port for input state psi0: sign + for D1, - for D2."""
    a, b = arm_operators(cfg)
    return float(interference_probability(a, b, cfg.phi, cfg.visibility, psi0,
                                          1.0 if port is Port.D1 else -1.0))


def conditional_output_state(a: np.ndarray, b: np.ndarray, phi: float, visibility: float,
                             rho_in: np.ndarray, sign: float = 1.0) -> np.ndarray:
    """Normalized polarization state behind the beam splitter that recombines
    arms A and B, conditioned on a click: sign + for D1, - for D2.

    Raises ZeroProbability for a dark port (unnormalized trace below 1e-15).
    """
    ph = np.exp(1j * phi)
    out = (a @ rho_in @ a.conj().T + b @ rho_in @ b.conj().T
           + sign * visibility * (ph * (a @ rho_in @ b.conj().T)
                                  + np.conj(ph) * (b @ rho_in @ a.conj().T)))
    tr = np.trace(out).real
    if tr < 1e-15:
        raise ZeroProbability(f"port {'D1' if sign > 0 else 'D2'} is dark for this configuration")
    out = out / tr
    # statistical round-off can leave a ~1e-16 anti-Hermitian residue
    return 0.5 * (out + out.conj().T)
