import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pauli_interference import experiments
from pauli_interference.errors import ZeroProbability
from pauli_interference.optics import (InterferometerConfig, Port, WavePlate, arm_operators,
                                       case_i, case_ii, conditional_output_state,
                                       detection_probability, half_wave,
                                       interference_probability, port_operator,
                                       prepare_state, quarter_wave, waveplate_matrix)
from pauli_interference.qubit import (IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z, PureState,
                                      STATE_H, STATE_V, is_hermitian, is_unitary)
from pauli_interference.tomography import QPT_INPUT_STATES, tomography_settings

SQ2 = 1.0 / math.sqrt(2.0)
_PROJECTORS = np.array([s.projector for s in tomography_settings()])


def test_waveplate_validation():
    with pytest.raises(ValueError):
        WavePlate(0.0, 0.0)
    with pytest.raises(ValueError):
        WavePlate(2 * math.pi, 0.0)
    for angle in (math.nan, math.inf):
        with pytest.raises(ValueError):
            WavePlate(math.pi, angle)
    assert WavePlate(math.pi, math.pi + 0.1).angle == pytest.approx(0.1)


def test_half_wave_anchor_cases():
    np.testing.assert_array_equal(waveplate_matrix(half_wave(0.0)), SIGMA_Z)
    np.testing.assert_allclose(waveplate_matrix(half_wave(math.pi / 4)), SIGMA_X,
                               atol=1e-15)


def test_half_wave_22p5_is_hadamard_like():
    m = waveplate_matrix(half_wave(math.pi / 8))
    np.testing.assert_allclose(m, (SIGMA_Z + SIGMA_X) * SQ2, atol=1e-15)
    assert is_unitary(m, 1e-12)
    assert is_hermitian(m, 1e-12)


@given(st.floats(0.01, 2 * math.pi - 0.01), st.floats(0.0, math.pi))
def test_waveplate_matrices_unitary(retardance, angle):
    assert is_unitary(waveplate_matrix(WavePlate(retardance, angle)), 1e-12)


@given(st.floats(0.0, math.pi))
def test_half_wave_squares_to_identity(angle):
    m = waveplate_matrix(half_wave(angle))
    assert is_hermitian(m, 1e-12)
    assert np.abs(m @ m - IDENTITY).max() <= 1e-12


def _overlaps_up_to_phase(psi: PureState, target: np.ndarray) -> float:
    return abs(np.vdot(target, psi.vector))


def test_prepare_state_examples():
    s = prepare_state(half_wave(math.pi / 4), quarter_wave(0.0))
    assert _overlaps_up_to_phase(s, STATE_H.vector) == pytest.approx(1.0, abs=1e-12)

    s = prepare_state(half_wave(0.0), quarter_wave(0.0))
    assert _overlaps_up_to_phase(s, STATE_V.vector) == pytest.approx(1.0, abs=1e-12)

    # under this sign convention the 22.5 deg HWP sends |V> to (|H> - |V>)/sqrt(2)
    # and the quarter-wave plate then adds a relative i on the |V> component
    m = waveplate_matrix(half_wave(math.pi / 8)) @ STATE_V.vector
    np.testing.assert_allclose(m, [SQ2, -SQ2], atol=1e-12)
    s = prepare_state(half_wave(math.pi / 8), quarter_wave(0.0))
    target = np.array([SQ2, -1j * SQ2])
    assert _overlaps_up_to_phase(s, target) == pytest.approx(1.0, abs=1e-12)


def test_port_operator_case_i():
    assert np.abs(port_operator(case_i(), Port.D2)).max() <= 1e-15
    np.testing.assert_allclose(port_operator(case_i(), Port.D1), 1j * IDENTITY,
                               atol=1e-15)


def test_port_operator_case_ii_is_i_sigma_y():
    np.testing.assert_allclose(port_operator(case_ii(), Port.D2), 1j * SIGMA_Y,
                               atol=1e-15)


def test_blocked_arm_is_a_zero_operator():
    # the transmitted arm alone carries sigma_z sigma_x = i sigma_y and the
    # reflected arm sigma_x sigma_z = -i sigma_y; the D2 port operator with
    # the other arm dropped halves the one and negates the other
    a, b = arm_operators(case_ii())
    np.testing.assert_allclose(0.5 * a, 0.5j * SIGMA_Y, atol=1e-15)
    np.testing.assert_allclose(-0.5 * b, 0.5j * SIGMA_Y, atol=1e-15)
    # with one arm zeroed there is no cross term: a quarter of the photons
    # reach either port
    zero = np.zeros((2, 2), dtype=complex)
    for sign in (1.0, -1.0):
        p = interference_probability(np.stack([zero, a]), np.stack([b, zero]), 0.0, 1.0,
                                     STATE_V, sign)
        np.testing.assert_allclose(p, [0.25, 0.25], rtol=0, atol=1e-15)


RANDOM_STATES = [PureState(np.cos(t), np.sin(t) * np.exp(1j * p))
                 for t, p in [(0.3, 0.0), (1.1, 2.0), (0.0, 0.0), (np.pi / 4, 4.0)]]


@pytest.mark.parametrize("psi", RANDOM_STATES)
def test_detection_probability_cases(psi):
    assert detection_probability(case_i(), Port.D1, psi) == pytest.approx(1.0, abs=1e-12)
    assert detection_probability(case_i(), Port.D2, psi) == pytest.approx(0.0, abs=1e-12)
    assert detection_probability(case_ii(), Port.D1, psi) == pytest.approx(0.0, abs=1e-12)
    assert detection_probability(case_ii(), Port.D2, psi) == pytest.approx(1.0, abs=1e-12)


def test_detection_probability_zero_visibility():
    for phi in (0.0, 1.0, -2.5):
        cfg = case_ii(phi=phi, visibility=0.0)
        for port in Port:
            assert detection_probability(cfg, port, STATE_V) == pytest.approx(0.5, abs=1e-12)


def test_interference_probability_array_is_bit_identical_to_scalar():
    # numpy's vectorised complex product rounds differently from the scalar
    # one; on these perturbed arms Re(overlap * e^{i phi}) taken from the
    # complex product moves the last bit of some scan points
    noise = experiments.NoiseProfile(waveplate_angle_sigma=0.05, master_seed=7)
    a, b = arm_operators(experiments._apparatus(case_i, noise, "phase-scan", 0.0))
    psi = prepare_state(half_wave(0.3927), quarter_wave(0.0))
    phis = experiments._SCAN_PHIS - 0.1
    for sign in (1.0, -1.0):
        p = interference_probability(a, b, phis, 0.95, psi, sign)
        assert p.shape == phis.shape
        assert p.tolist() == [float(interference_probability(a, b, float(phi), 0.95, psi, sign))
                              for phi in phis]
    # a (6, 2, 2) stack of arm pairs at one phase, as QPT's six analyzers make
    pa, pb = _PROJECTORS @ a, _PROJECTORS @ b
    for sign in (1.0, -1.0):
        p = interference_probability(pa, pb, 0.3, 0.95, psi, sign)
        assert p.shape == (6,)
        assert p.tolist() == [float(interference_probability(x, y, 0.3, 0.95, psi, sign))
                              for x, y in zip(pa, pb)]


def test_kernel_on_projected_arms_is_port_probability_times_conditional_state():
    # an analyzer behind the port acts on both arms alike, so the joint
    # probability of a D2 click and outcome j is the kernel on (P_j A, P_j B):
    # p_port tr(P_j rho_cond), with the conditional state as the reference
    rng = np.random.default_rng(5)
    for _ in range(30):
        noise = experiments.NoiseProfile(waveplate_angle_sigma=0.2,
                                         master_seed=int(rng.integers(2**32)))
        phi = rng.uniform(-math.pi, math.pi)
        a, b = arm_operators(experiments._apparatus(case_ii, noise, "qpt", phi))
        for vis in (1.0, 0.95, 0.5):
            for psi in QPT_INPUT_STATES.values():
                joint = interference_probability(_PROJECTORS @ a, _PROJECTORS @ b,
                                                 phi, vis, psi, -1.0)
                p_port = interference_probability(a, b, phi, vis, psi, -1.0)
                rho = conditional_output_state(a, b, phi, vis, psi.density(), -1.0)
                ref = [p_port * np.trace(proj @ rho).real for proj in _PROJECTORS]
                np.testing.assert_allclose(joint, ref, rtol=0, atol=1e-15)


def _random_config(rng, phi=None):
    plates = [half_wave(rng.uniform(0, math.pi)) for _ in range(4)]
    return InterferometerConfig(*plates,
                                phi=rng.uniform(-2 * math.pi, 2 * math.pi) if phi is None else phi)


def test_lossless_apparatus_is_unitary():
    rng = np.random.default_rng(7)
    for _ in range(200):
        cfg = _random_config(rng)
        m1 = port_operator(cfg, Port.D1)
        m2 = port_operator(cfg, Port.D2)
        total = m1.conj().T @ m1 + m2.conj().T @ m2
        assert np.abs(total - IDENTITY).max() <= 1e-12
        t = rng.uniform(0, math.pi)
        psi = PureState(np.cos(t), np.sin(t) * np.exp(1j * rng.uniform(0, 2 * math.pi)))
        p1 = detection_probability(cfg, Port.D1, psi)
        p2 = detection_probability(cfg, Port.D2, psi)
        assert p1 + p2 == pytest.approx(1.0, abs=1e-12)


def test_pi_shift_between_cases():
    # sigma_z sigma_x = -sigma_x sigma_z shows up as a pi fringe shift
    rng = np.random.default_rng(3)
    for _ in range(50):
        phi = rng.uniform(-2 * math.pi, 2 * math.pi)
        t = rng.uniform(0, math.pi)
        psi = PureState(np.cos(t), np.sin(t) * np.exp(1j * rng.uniform(0, 2 * math.pi)))
        assert detection_probability(case_ii(phi=phi), Port.D1, psi) == pytest.approx(
            detection_probability(case_i(phi=phi + math.pi), Port.D1, psi), abs=1e-12)


def test_case_i_fringe_shape():
    for phi in np.linspace(-2 * math.pi, 2 * math.pi, 17):
        for psi in RANDOM_STATES:
            cfg = case_i(phi=phi)
            assert detection_probability(cfg, Port.D1, psi) == pytest.approx(
                math.cos(phi / 2) ** 2, abs=1e-12)
            assert detection_probability(cfg, Port.D2, psi) == pytest.approx(
                math.sin(phi / 2) ** 2, abs=1e-12)


def test_conditional_output_state_commutator_port():
    a, b = arm_operators(case_ii())
    for vis in (1.0, 0.5, 0.05):
        for psi in RANDOM_STATES:
            rho_in = psi.density()
            out = conditional_output_state(a, b, 0.0, vis, rho_in, -1.0)
            np.testing.assert_allclose(out, SIGMA_Y @ rho_in @ SIGMA_Y, atol=1e-12)


def test_conditional_output_state_identity_port():
    rho = RANDOM_STATES[1].density()
    out = conditional_output_state(*arm_operators(case_i()), 0.0, 1.0, rho)
    np.testing.assert_allclose(out, rho, atol=1e-12)


def test_conditional_output_state_dark_port():
    with pytest.raises(ZeroProbability):
        conditional_output_state(*arm_operators(case_i()), 0.0, 1.0, STATE_V.density(), -1.0)


def test_visibility_independence_for_proportional_arms():
    # whenever sigma2*sigma1 and sigma4*sigma3 are proportional, the bright-port
    # conditional state does not depend on the interference contrast
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rng.uniform(0, math.pi)
        b = rng.uniform(0, math.pi)
        plates = (half_wave(a), half_wave(b), half_wave(a), half_wave(b))
        rho = PureState(np.cos(0.4), np.sin(0.4) * np.exp(0.9j)).density()
        arms = arm_operators(InterferometerConfig(*plates))
        ref = conditional_output_state(*arms, 0.0, 1.0, rho)
        for vis in (0.7, 0.2):
            out = conditional_output_state(*arms, 0.0, vis, rho)
            np.testing.assert_allclose(out, ref, atol=1e-12)
