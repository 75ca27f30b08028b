"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they pass.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from oracle import oracle_nll, setting_probabilities, trace_distance
from pauli_interference.experiments import (NoiseProfile, calibrate_angle_noise,
                                            estimate_k_magnitude, mean_qpt_fidelity,
                                            run_case_comparison, run_commutator_qpt)
from pauli_interference.optics import (InterferometerConfig, Port,
                                       detection_probability, half_wave)
from pauli_interference.photon_stats import SourceModel, derive_seed, sample_counts
from pauli_interference.qubit import IDENTITY, PureState, anticommutator, commutator, pauli
from pauli_interference.tomography import (QPT_INPUT_LABELS, QPT_INPUT_STATES,
                                           chi_of_unitary, mle_negative_log_likelihood,
                                           qpt_reconstruct, qst_linear, qst_mle,
                                           tomography_settings)

AXES = ("x", "y", "z")
EPS = {("x", "y", "z"): 1, ("y", "z", "x"): 1, ("z", "x", "y"): 1,
       ("x", "z", "y"): -1, ("z", "y", "x"): -1, ("y", "x", "z"): -1}


def _ok(num, msg):
    print(f"[acceptance] criterion {num}: PASS - {msg}")


def test_criterion_1_pauli_algebra():
    for j in AXES:
        for k in AXES:
            comm = commutator(pauli(j), pauli(k))
            anti = anticommutator(pauli(j), pauli(k))
            expected_comm = np.zeros((2, 2), dtype=complex)
            for l in AXES:
                expected_comm += 2j * EPS.get((j, k, l), 0) * pauli(l)
            expected_anti = 2 * IDENTITY if j == k else np.zeros((2, 2))
            assert np.abs(comm - expected_comm).max() <= 1e-12
            assert np.abs(anti - expected_anti).max() <= 1e-12
    _ok(1, "all 9 commutators and anticommutators match the closed form within 1e-12")


def test_criterion_2_pi_shift():
    ideal = run_case_comparison(NoiseProfile(exact_probabilities=True)).derived
    assert ideal["case_I_D1"] == pytest.approx(1.0, abs=1e-9)
    assert ideal["case_I_D2"] == pytest.approx(0.0, abs=1e-9)
    assert ideal["case_II_D1"] == pytest.approx(0.0, abs=1e-9)
    assert ideal["case_II_D2"] == pytest.approx(1.0, abs=1e-9)

    sampled = run_case_comparison(NoiseProfile(master_seed=12)).derived
    assert sampled["case_I_D1"] > 0.99 and sampled["case_II_D2"] > 0.99
    assert sampled["case_I_D2"] < 0.01 and sampled["case_II_D1"] < 0.01
    _ok(2, "case I (1, 0) and case II (0, 1), ideal and at 1e4 sampled counts")


def test_criterion_3_interferometer_unitarity():
    rng = np.random.default_rng(33)
    for _ in range(1000):
        cfg = InterferometerConfig(*[half_wave(rng.uniform(0, math.pi)) for _ in range(4)],
                                   phi=rng.uniform(-2 * math.pi, 2 * math.pi))
        t = rng.uniform(0, math.pi)
        psi = PureState(np.cos(t), np.sin(t) * np.exp(1j * rng.uniform(0, 2 * math.pi)))
        total = (detection_probability(cfg, Port.D1, psi)
                 + detection_probability(cfg, Port.D2, psi))
        assert abs(total - 1.0) <= 1e-12
    _ok(3, "p_D1 + p_D2 = 1 within 1e-12 over 1000 random settings")


def test_criterion_4_qpt_round_trip():
    rng = np.random.default_rng(44)
    for _ in range(100):
        z = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) / np.sqrt(2)
        q, r = np.linalg.qr(z)
        u = q * (np.diag(r) / np.abs(np.diag(r)))
        outs = {l: u @ QPT_INPUT_STATES[l].density() @ u.conj().T
                for l in QPT_INPUT_LABELS}
        assert np.abs(qpt_reconstruct(outs).chi - chi_of_unitary(u)).max() <= 1e-9
    fid = run_commutator_qpt(NoiseProfile(exact_probabilities=True)).derived["process_fidelity"]
    assert fid == pytest.approx(1.0, abs=1e-9)
    _ok(4, "chi round trip 1e-9 over 100 unitaries; ideal commutator F = 1")


def test_criterion_5_k_magnitude():
    exact = estimate_k_magnitude(NoiseProfile(exact_probabilities=True)).derived
    assert exact["k_abs"] == pytest.approx(2.0, abs=1e-9)

    src = SourceModel(pair_rate=4.0e4, integration_time=1.0)  # >= 1e4 per sub-run
    ks, errs = [], []
    for seed in range(100):
        d = estimate_k_magnitude(NoiseProfile(master_seed=seed, source=src)).derived
        ks.append(d["k_abs"])
        errs.append(d["stderr"])
    assert np.mean(ks) == pytest.approx(2.0, abs=0.02)
    assert abs(np.std(ks) - np.mean(errs)) / np.mean(errs) <= 0.20
    _ok(5, f"|k| exact 2.000; MC mean {np.mean(ks):.4f}, "
           f"spread {np.std(ks):.4f} vs stderr {np.mean(errs):.4f}")


@pytest.fixture(scope="module")
def calibrated_noise():
    return calibrate_angle_noise(n_seeds=50)


def test_criterion_5b_k_consistency_under_calibrated_noise(calibrated_noise):
    src = SourceModel(pair_rate=4.0e4, integration_time=1.0)
    ks = []
    for seed in range(100):
        noise = NoiseProfile(master_seed=seed, source=src,
                             waveplate_angle_sigma=calibrated_noise.waveplate_angle_sigma)
        ks.append(estimate_k_magnitude(noise).derived["k_abs"])
    lo, hi = np.mean(ks) - np.std(ks), np.mean(ks) + np.std(ks)
    assert lo <= 2.0 <= hi
    _ok(5, f"calibrated-noise |k| 1-sigma interval [{lo:.3f}, {hi:.3f}] contains 2.0")


def test_criterion_6_fidelity_calibration(calibrated_noise):
    assert 0.92 <= calibrated_noise.mean_fidelity <= 0.96

    means = [mean_qpt_fidelity(NoiseProfile(), s, 50) for s in (0.0, 0.02, 0.05, 0.1)]
    assert all(a >= b for a, b in zip(means, means[1:]))

    fids = [run_commutator_qpt(replace(NoiseProfile(exact_probabilities=True), visibility=v)
                               ).derived["process_fidelity"]
            for v in (1.0, 0.5, 0.1)]
    assert max(fids) - min(fids) <= 1e-9
    _ok(6, f"sigma {calibrated_noise.waveplate_angle_sigma:.4f} rad gives mean F "
           f"{calibrated_noise.mean_fidelity:.4f}; F monotone in angle noise "
           f"{[round(m, 4) for m in means]}; F visibility-independent")


def test_criterion_7_arg_k():
    from pauli_interference.experiments import run_phase_of_k
    derived = run_phase_of_k(NoiseProfile(exact_probabilities=True)).derived
    assert derived["arg_k"] == pytest.approx(math.pi / 2, abs=1e-6)
    _ok(7, f"noiseless fringe-phase difference {derived['arg_k']:.8f} = pi/2")


def test_criterion_8_mle_oracle_equivalence():
    rng = np.random.default_rng(88)
    for i in range(100):
        r = 1.0 if i % 2 == 0 else rng.uniform(0, 1)
        n = rng.normal(size=3)
        n *= r / np.linalg.norm(n)
        rho = 0.5 * (IDENTITY + n[0] * pauli("x") + n[1] * pauli("y") + n[2] * pauli("z"))
        counts = {k: 1e6 * v for k, v in setting_probabilities(rho).items()}
        res = qst_mle(counts)
        assert trace_distance(res.rho, qst_linear(counts).rho) <= 1e-6
        w, v = np.linalg.eigh(qst_linear(counts).rho)
        start = (v * np.clip(w, 1e-9, None)) @ v.conj().T
        nll_start = oracle_nll(start / np.trace(start).real, counts)
        assert oracle_nll(res.rho, counts) <= nll_start + 1e-8 * max(1.0, abs(nll_start))

    projectors = {s.label: s.projector for s in tomography_settings()}
    import scipy.optimize
    for _ in range(10):
        counts = {k: rng.uniform(50, 500) for k in ("H", "V", "D", "A", "R", "L")}
        totals = {}
        for a, b in (("H", "V"), ("D", "A"), ("R", "L")):
            totals[a] = totals[b] = counts[a] + counts[b]
        x = rng.uniform(0.3, 1.0, size=4)
        grad = mle_negative_log_likelihood(x, counts, totals, projectors)[1]
        fd = scipy.optimize.approx_fprime(
            x, lambda xx: mle_negative_log_likelihood(xx, counts, totals, projectors)[0],
            1e-7)
        assert np.abs(grad - fd).max() / np.abs(fd).max() <= 1e-5
    _ok(8, "MLE matches linear inversion within 1e-6; likelihood no worse than the "
           "linear start; gradient checks")


def test_criterion_9_statistical_sanity():
    draws = np.array([sample_counts(100.0, 1.0, derive_seed(0, "acc9", i))
                      for i in range(10_000)])
    assert abs(draws.mean() - 100.0) <= 3.0 * math.sqrt(100.0 / 10_000)
    var_ratio = draws.var(ddof=1) / draws.mean()
    # var/mean of 1e4 Poisson draws has sd ~ sqrt(2/n) ~ 0.014
    assert abs(var_ratio - 1.0) <= 3.0 * math.sqrt(2.0 / 10_000)

    from pauli_interference.experiments import run_phase_scan
    noise = NoiseProfile(master_seed=2024)
    assert run_phase_scan(noise).counts_csv() == run_phase_scan(noise).counts_csv()
    _ok(9, "Poisson mean/variance within 3 sigma; seeded CSV byte-identical")
