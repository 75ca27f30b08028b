import json

import numpy as np
import pytest
import scipy.optimize

from oracle import PAIRS, PROJECTORS, factor_params, oracle_nll, pair_totals
from pauli_interference.errors import EmptyData, NotUnitary
from pauli_interference.qubit import (IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z, STATE_D,
                                      STATE_H, STATE_R, trace_distance)
from pauli_interference.tomography import (QPT_INPUT_LABELS, QPT_INPUT_STATES,
                                           SETTING_LABELS, _decreasing_root, _pair_root,
                                           chi_of_unitary, chi_to_json,
                                           density_to_json, matrix_to_json,
                                           mle_negative_log_likelihood,
                                           process_fidelity, qpt_reconstruct, qst_linear,
                                           qst_mle, setting_probabilities,
                                           tomography_settings)


def haar_unitary(rng):
    z = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(rng, pure=False):
    r = 1.0 if pure else rng.uniform(0, 1)
    n = rng.normal(size=3)
    n *= r / np.linalg.norm(n)
    return 0.5 * (IDENTITY + n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z)


def exact_counts(rho, scale=1e6):
    return {k: scale * v for k, v in setting_probabilities(rho).items()}


def test_tomography_settings_projectors():
    settings = tomography_settings()
    assert [s.label for s in settings] == ["H", "V", "D", "A", "R", "L"]
    by_label = {s.label: s.projector for s in settings}
    np.testing.assert_allclose(by_label["H"], [[1, 0], [0, 0]], atol=1e-15)
    np.testing.assert_allclose(by_label["D"], 0.5 * np.ones((2, 2)), atol=1e-15)
    np.testing.assert_allclose(by_label["R"], 0.5 * np.array([[1, 1j], [-1j, 1]]),
                               atol=1e-15)
    for proj in by_label.values():
        np.testing.assert_allclose(proj, proj.conj().T, atol=1e-12)
        np.testing.assert_allclose(proj @ proj, proj, atol=1e-12)
        assert np.trace(proj).real == pytest.approx(1.0, abs=1e-12)


def test_qst_linear_examples():
    res = qst_linear(exact_counts(STATE_H.density()))
    np.testing.assert_allclose(res.rho, np.diag([1.0, 0.0]), atol=1e-12)
    assert res.physical

    res = qst_linear(exact_counts(STATE_R.density()))
    np.testing.assert_allclose(res.rho, 0.5 * np.array([[1, 1j], [-1j, 1]]), atol=1e-12)

    res = qst_linear(exact_counts(0.5 * IDENTITY))
    np.testing.assert_allclose(res.rho, 0.5 * IDENTITY, atol=1e-12)
    np.testing.assert_allclose(res.bloch, 0.0, atol=1e-12)


def test_qst_linear_round_trip_grid():
    for t in np.linspace(0, np.pi, 7):
        for p in np.linspace(0, 2 * np.pi, 7):
            v = np.array([np.cos(t), np.sin(t) * np.exp(1j * p)])
            rho = np.outer(v, v.conj())
            res = qst_linear(exact_counts(rho))
            assert np.abs(res.rho - rho).max() <= 1e-12


def test_qst_linear_empty_pair():
    counts = exact_counts(STATE_D.density())
    counts["H"] = counts["V"] = 0.0
    with pytest.raises(EmptyData):
        qst_linear(counts)


def test_qst_linear_nonphysical_flagged():
    counts = {"H": 100, "V": 0, "D": 100, "A": 0, "R": 40, "L": 60}
    res = qst_linear(counts)
    assert not res.physical
    assert np.linalg.eigvalsh(res.rho).min() < 0


def test_qst_mle_pure_state_consistency():
    rng = np.random.default_rng(5)
    for _ in range(10):
        u = haar_unitary(rng)
        rho = u @ STATE_H.density() @ u.conj().T
        res = qst_mle(exact_counts(rho))
        assert res.converged
        assert trace_distance(res.rho, rho) < 1e-3


def test_qst_mle_output_always_physical():
    counts = {"H": 100, "V": 0, "D": 100, "A": 0, "R": 40, "L": 60}
    res = qst_mle(counts)
    assert np.linalg.eigvalsh(res.rho).min() >= -1e-12
    assert np.trace(res.rho).real == pytest.approx(1.0, abs=1e-12)


def test_qst_mle_monte_carlo_convergence():
    errs = []
    truth = STATE_D.density()
    probs = setting_probabilities(truth)
    for seed in range(100):
        rng = np.random.default_rng(seed)
        counts = {k: int(rng.poisson(1e4 * v)) for k, v in probs.items()}
        errs.append(trace_distance(qst_mle(counts).rho, truth))
    assert np.mean(errs) < 0.03


def _bracketed_pair_root(n_plus, n_minus, mu):
    """Root of n+/(1+s) - n-/(1-s) = 2 mu s by bracketed Newton on [0, s_lin], and ds/dmu."""
    h = lambda s: (n_plus / (1.0 + s) - n_minus / (1.0 - s) - 2.0 * mu * s,
                   -n_plus / (1.0 + s) ** 2 - n_minus / (1.0 - s) ** 2 - 2.0 * mu)
    s_lin = (n_plus - n_minus) / (n_plus + n_minus)
    s = _decreasing_root(h, min(0.0, s_lin), max(0.0, s_lin))[0]
    return s, 2.0 * s / h(s)[1]


def test_pair_root_matches_bracketed_newton():
    # counts over eight decades, mu over nine; a zero-count pair's root lies
    # in (-1, 1) only for mu > n/4, which holds at the multiplier's root
    rng = np.random.default_rng(23)
    for case in range(6000):
        n_plus, n_minus = 10.0 ** rng.uniform(-3.0, 5.0, size=2)
        mu = 10.0 ** rng.uniform(-3.0, 6.0)
        if case % 5 == 0:
            n_plus, n_minus = (0.0, n_minus) if case % 2 else (n_plus, 0.0)
            mu = (n_plus + n_minus) * 10.0 ** rng.uniform(-0.5, 8.5)
        s, ds = _pair_root(n_plus, n_minus, mu)
        ref_s, ref_ds = _bracketed_pair_root(n_plus, n_minus, mu)
        assert -1.0 < s < 1.0
        assert abs(s - ref_s) <= 1e-14, (n_plus, n_minus, mu)
        assert ds == pytest.approx(ref_ds, rel=1e-6)


def _lbfgs_reference_nll(counts):
    """Oracle -log L minimized by L-BFGS-B over the factor parameters, best of two starts."""
    totals = pair_totals(counts)
    fun = lambda x: mle_negative_log_likelihood(x, counts, totals, PROJECTORS)
    w, v = np.linalg.eigh(qst_linear(counts).rho)
    clipped = (v * np.clip(w, 1e-9, None)) @ v.conj().T
    best = np.inf
    for rho0 in (clipped / np.trace(clipped).real, 0.5 * IDENTITY):
        res = scipy.optimize.minimize(fun, factor_params(rho0), jac=True, method="L-BFGS-B",
                                      options={"maxiter": 500, "ftol": 1e-15, "gtol": 1e-12})
        best = min(best, res.fun)
    return best


def test_qst_mle_likelihood_optimal():
    rng = np.random.default_rng(2)
    n_sets = n_unphysical = n_zero = 0
    while n_sets < 240:
        truth = random_state(rng, pure=n_sets % 3 == 0)
        scale = (5, 50, 500, 1e4)[n_sets % 4]
        counts = {k: int(rng.poisson(scale * v))
                  for k, v in setting_probabilities(truth).items()}
        if n_sets % 4 == 1:
            counts[SETTING_LABELS[rng.integers(6)]] = 0
        if min(counts[a] + counts[b] for a, b in PAIRS) == 0:
            continue
        n_sets += 1
        n_unphysical += not qst_linear(counts).physical
        n_zero += min(counts.values()) == 0
        res = qst_mle(counts)
        assert res.converged is True
        ref = _lbfgs_reference_nll(counts)
        assert oracle_nll(res.rho, counts) <= ref + 1e-9 * abs(ref)
    assert n_unphysical >= 50 and n_zero >= 50


def test_mle_gradient_matches_finite_differences():
    rng = np.random.default_rng(17)
    projectors = {s.label: s.projector for s in tomography_settings()}
    for _ in range(10):
        counts = {k: rng.uniform(50, 500) for k in ("H", "V", "D", "A", "R", "L")}
        totals = {}
        for a, b in (("H", "V"), ("D", "A"), ("R", "L")):
            totals[a] = totals[b] = counts[a] + counts[b]
        x = rng.uniform(0.3, 1.0, size=4)  # interior point, well away from the cone edge
        grad = mle_negative_log_likelihood(x, counts, totals, projectors)[1]
        fd = scipy.optimize.approx_fprime(
            x, lambda xx: mle_negative_log_likelihood(xx, counts, totals, projectors)[0],
            1e-7)
        assert np.abs(grad - fd).max() / np.abs(fd).max() < 1e-5


def _unitary_outputs(u):
    return {l: u @ QPT_INPUT_STATES[l].density() @ u.conj().T for l in QPT_INPUT_LABELS}


def test_qpt_identity_and_pauli_processes():
    res = qpt_reconstruct(_unitary_outputs(IDENTITY))
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = 1.0
    np.testing.assert_allclose(res.chi, expected, atol=1e-12)

    for idx, u in ((2, SIGMA_Y), (3, SIGMA_Z)):
        res = qpt_reconstruct(_unitary_outputs(u))
        expected = np.zeros((4, 4), dtype=complex)
        expected[idx, idx] = 1.0
        np.testing.assert_allclose(res.chi, expected, atol=1e-12)
        assert res.psd_deviation <= 1e-12
        assert res.trace_preservation_deviation <= 1e-12


def test_qpt_round_trip_random_unitaries():
    rng = np.random.default_rng(9)
    for _ in range(100):
        u = haar_unitary(rng)
        res = qpt_reconstruct(_unitary_outputs(u))
        assert np.abs(res.chi - chi_of_unitary(u)).max() <= 1e-9


def test_qpt_missing_input():
    outs = _unitary_outputs(SIGMA_Y)
    del outs["R"]
    with pytest.raises(ValueError):
        qpt_reconstruct(outs)


def test_chi_of_unitary_examples():
    chi = chi_of_unitary(SIGMA_Y)
    expected = np.zeros((4, 4), dtype=complex)
    expected[2, 2] = 1.0
    np.testing.assert_allclose(chi, expected, atol=1e-15)

    chi = chi_of_unitary(IDENTITY)
    assert chi[0, 0] == pytest.approx(1.0)

    u = (IDENTITY + 1j * SIGMA_X) / np.sqrt(2)
    chi = chi_of_unitary(u)
    assert chi[0, 0] == pytest.approx(0.5, abs=1e-12)
    assert chi[1, 1] == pytest.approx(0.5, abs=1e-12)
    assert chi[0, 1] == pytest.approx(-0.5j, abs=1e-12)
    assert chi[1, 0] == pytest.approx(0.5j, abs=1e-12)


def test_chi_of_unitary_rejects_non_unitary():
    with pytest.raises(NotUnitary):
        chi_of_unitary(np.array([[1.0, 0.0], [0.0, 0.5]]))
    with pytest.raises(NotUnitary):
        chi_of_unitary(np.full((2, 2), np.nan))


def test_process_fidelity_examples():
    chi_y = chi_of_unitary(SIGMA_Y)
    chi_i = chi_of_unitary(IDENTITY)
    assert process_fidelity(chi_y, chi_y) == pytest.approx(1.0, abs=1e-12)
    assert process_fidelity(chi_i, chi_y) == pytest.approx(0.0, abs=1e-12)


def test_process_fidelity_clamps_and_warns():
    chi_y = chi_of_unitary(SIGMA_Y)
    with pytest.warns(UserWarning):
        assert process_fidelity(1.1 * chi_y, chi_y) == 1.0


def test_serialization_round_trip():
    payload = chi_to_json(chi_of_unitary(SIGMA_Y))
    assert payload["basis"] == ["I", "X", "Y", "Z"]
    decoded = json.loads(json.dumps(payload))
    assert decoded["entries"][2][2] == [1.0, 0.0]

    d = density_to_json(STATE_R.density())
    entries = np.array([[complex(re, im) for re, im in row] for row in d["entries"]])
    np.testing.assert_allclose(entries, STATE_R.density(), atol=1e-15)
    assert matrix_to_json(IDENTITY)[0][1] == [0.0, 0.0]
