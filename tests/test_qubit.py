import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, strategies as st

from oracle import (apply, fidelity, is_hermitian, is_zero, state_distances, trace_distance,
                    validate_density_matrix)
from pauli_interference.qubit import (IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z, PureState,
                                      STATE_H, STATE_V, anticommutator, commutator,
                                      is_unitary, pauli)

AXES = ("x", "y", "z")
LEVI_CIVITA = {("x", "y"): ("z", 1), ("y", "x"): ("z", -1),
               ("y", "z"): ("x", 1), ("z", "y"): ("x", -1),
               ("z", "x"): ("y", 1), ("x", "z"): ("y", -1)}


def test_pauli_matrices_exact():
    np.testing.assert_array_equal(pauli("z"), [[1, 0], [0, -1]])
    np.testing.assert_array_equal(pauli("x"), [[0, 1], [1, 0]])
    np.testing.assert_array_equal(pauli("y"), [[0, -1j], [1j, 0]])


def test_pauli_bad_axis():
    with pytest.raises(ValueError):
        pauli("w")


@pytest.mark.parametrize("j", AXES)
@pytest.mark.parametrize("k", AXES)
def test_commutation_relations(j, k):
    comm = commutator(pauli(j), pauli(k))
    anti = anticommutator(pauli(j), pauli(k))
    if j == k:
        assert is_zero(comm, 1e-12)
        assert np.abs(anti - 2 * IDENTITY).max() <= 1e-12
    else:
        axis, sign = LEVI_CIVITA[(j, k)]
        assert np.abs(comm - 2j * sign * pauli(axis)).max() <= 1e-12
        assert is_zero(anti, 1e-12)


def test_commutator_examples():
    assert np.abs(commutator(SIGMA_Z, SIGMA_X) - 2j * SIGMA_Y).max() <= 1e-12
    assert is_zero(commutator(SIGMA_Z, SIGMA_Z))
    assert np.abs(commutator(SIGMA_X, SIGMA_Y) - 2j * SIGMA_Z).max() <= 1e-12


def test_anticommutator_examples():
    assert is_zero(anticommutator(SIGMA_Z, SIGMA_X))
    assert np.abs(anticommutator(SIGMA_Z, SIGMA_Z) - 2 * IDENTITY).max() <= 1e-12
    assert np.abs(anticommutator(SIGMA_X, SIGMA_X) - 2 * IDENTITY).max() <= 1e-12


@pytest.mark.parametrize("axis", AXES)
def test_pauli_structure(axis):
    s = pauli(axis)
    assert is_hermitian(s, 1e-15)
    assert is_unitary(s, 1e-15)
    assert abs(np.trace(s)) <= 1e-15
    assert np.abs(s @ s - IDENTITY).max() <= 1e-15


def _state(theta, phase):
    return PureState(np.cos(theta), np.sin(theta) * np.exp(1j * phase))


@given(st.floats(0, np.pi), st.floats(0, 2 * np.pi))
def test_ordered_products_phase_flip(theta, phase):
    psi = _state(theta, phase)
    a, b = psi.alpha, psi.beta
    np.testing.assert_allclose(apply(SIGMA_Z @ SIGMA_X, psi), [b, -a], atol=1e-12)
    np.testing.assert_allclose(apply(SIGMA_X @ SIGMA_Z, psi), [-b, a], atol=1e-12)
    np.testing.assert_allclose(apply(IDENTITY, psi), [a, b], atol=1e-15)


@given(st.floats(0, np.pi), st.floats(0, 2 * np.pi),
       st.sampled_from(AXES), st.sampled_from(AXES))
def test_apply_unitary_preserves_norm(theta, phase, j, k):
    psi = _state(theta, phase)
    out = apply(pauli(j) @ pauli(k), psi)
    assert abs(np.vdot(out, out).real - 1.0) <= 1e-12


def test_pure_state_normalization_enforced():
    for alpha in (1.0, float("nan")):
        with pytest.raises(ValueError):
            PureState(alpha, 1.0)
    with pytest.raises(ValueError, match="zero vector"):
        PureState.from_vector([0.0, 0.0])
    s = PureState.from_vector([3.0, 4.0])
    assert abs(abs(s.alpha) ** 2 + abs(s.beta) ** 2 - 1) <= 1e-12


def test_density_matrix_validation():
    validate_density_matrix(STATE_H.density())
    validate_density_matrix(0.5 * IDENTITY)
    with pytest.raises(ValueError):
        validate_density_matrix(np.array([[0.7, 0], [0, 0.7]]))
    with pytest.raises(ValueError):
        validate_density_matrix(np.array([[1.5, 0], [0, -0.5]]))


def test_state_distances_trivial():
    rho = STATE_H.density()
    d = state_distances(rho, rho)
    assert d["fidelity"] == pytest.approx(1.0, abs=1e-12)
    assert d["trace_distance"] == pytest.approx(0.0, abs=1e-12)

    d = state_distances(STATE_H.density(), STATE_V.density())
    assert d["fidelity"] == pytest.approx(0.0, abs=1e-12)
    assert d["trace_distance"] == pytest.approx(1.0, abs=1e-12)


def test_state_distances_pure_vs_maximally_mixed():
    d = state_distances(STATE_H.density(), 0.5 * IDENTITY)
    assert d["fidelity"] == pytest.approx(0.5, abs=1e-12)
    assert d["trace_distance"] == pytest.approx(0.5, abs=1e-12)


def _fidelity_sqrtm(rho, sigma):
    s = scipy.linalg.sqrtm(rho)
    return np.trace(scipy.linalg.sqrtm(s @ sigma @ s)).real ** 2


def test_distance_measures_against_matrix_function_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        sig = b @ b.conj().T
        sig /= np.trace(sig).real
        assert fidelity(rho, sig) == pytest.approx(_fidelity_sqrtm(rho, sig), abs=1e-9)
        ev = np.linalg.eigvals(rho - sig)
        assert trace_distance(rho, sig) == pytest.approx(0.5 * np.abs(ev).sum(), abs=1e-12)
