import math
from dataclasses import replace

import numpy as np
import pytest

from pauli_interference import experiments, optics
from pauli_interference.errors import DegenerateScan
from pauli_interference.experiments import (NoiseProfile, estimate_k_magnitude,
                                            mean_qpt_fidelity, run_case_comparison,
                                            run_commutator_qpt, run_phase_of_k,
                                            run_phase_scan)
from pauli_interference.photon_stats import DetectorModel, SourceModel
from pauli_interference.qubit import PureState


def test_phase_scan_ideal():
    derived = run_phase_scan(NoiseProfile.ideal()).derived
    assert derived["d1_fringe_visibility"] == pytest.approx(1.0, abs=1e-6)
    assert derived["d2_fringe_visibility"] == pytest.approx(1.0, abs=1e-6)
    assert derived["d1_d2_antiphase"] == pytest.approx(math.pi, abs=1e-6)
    assert derived["phi0"] == pytest.approx(0.0, abs=1e-6)


def test_phase_scan_recovers_injected_visibility():
    noise = NoiseProfile(visibility=0.9, master_seed=21)
    derived = run_phase_scan(noise).derived
    assert derived["d1_fringe_visibility"] == pytest.approx(0.9, abs=0.02)
    assert derived["d2_fringe_visibility"] == pytest.approx(0.9, abs=0.02)
    assert "d1_fringe_visibility_err" in derived


def test_fringe_scans_build_each_jones_matrix_once(monkeypatch):
    # a scan sweeps phi over fixed arms: the four plates' matrices are built
    # once per apparatus, not once per phase point, and each recorded port's
    # probabilities over the whole phi grid come from one kernel call
    built, kernel_calls = [], []
    original = optics.waveplate_matrix
    monkeypatch.setattr(optics, "waveplate_matrix",
                        lambda wp: built.append(wp) or original(wp))
    kernel = experiments.interference_probability
    monkeypatch.setattr(experiments, "interference_probability",
                        lambda *args: kernel_calls.append(args) or kernel(*args))
    noise = NoiseProfile(phase_offset_error=0.3, master_seed=8)
    run_phase_scan(noise)
    assert len(built) <= 4
    assert len(kernel_calls) <= 2
    built.clear()
    kernel_calls.clear()
    run_phase_of_k(noise)  # the calibration scan, then the inner apparatus
    assert len(built) <= 8
    assert len(kernel_calls) <= 4


def test_noise_profile_rejects_counts_beyond_poisson_sampler():
    # the CLI table covers huge rates; here the integration time and the limit
    with pytest.raises(ValueError):
        NoiseProfile(detector=DetectorModel(dark_rate=1e17),
                     source=SourceModel(integration_time=100.0))
    NoiseProfile(source=SourceModel(pair_rate=1e17, integration_time=10.0))


def test_phase_scan_recovers_injected_phase_offset():
    noise = NoiseProfile(phase_offset_error=0.3, master_seed=8)
    derived = run_phase_scan(noise).derived
    assert derived["phi0"] == pytest.approx(0.3, abs=0.01)


def test_case_comparison_ideal():
    derived = run_case_comparison(NoiseProfile.ideal()).derived
    assert derived["case_I_D1"] == pytest.approx(1.0, abs=1e-9)
    assert derived["case_I_D2"] == pytest.approx(0.0, abs=1e-9)
    assert derived["case_II_D1"] == pytest.approx(0.0, abs=1e-9)
    assert derived["case_II_D2"] == pytest.approx(1.0, abs=1e-9)
    assert derived["pi_shift_verdict"]


def test_case_comparison_partial_visibility():
    for vis in (0.8, 0.5):
        noise = replace(NoiseProfile.ideal(), visibility=vis)
        derived = run_case_comparison(noise).derived
        assert derived["case_I_D2"] == pytest.approx((1 - vis) / 2, abs=1e-9)


def test_commutator_qpt_ideal_fidelity_one():
    derived = run_commutator_qpt(NoiseProfile.ideal()).derived
    assert derived["process_fidelity"] == pytest.approx(1.0, abs=1e-9)
    assert derived["psd_deviation"] <= 1e-9


def test_commutator_qpt_visibility_independent_without_angle_noise():
    fids = [run_commutator_qpt(replace(NoiseProfile.ideal(), visibility=v)
                               ).derived["process_fidelity"]
            for v in (1.0, 0.6, 0.2)]
    assert max(fids) - min(fids) <= 1e-9


def test_commutator_qpt_sampled_runs_mle():
    report = run_commutator_qpt(NoiseProfile(master_seed=4))
    assert report.derived["mle_converged"]
    assert report.derived["process_fidelity"] > 0.98
    assert report.derived["chi"]["basis"] == ["I", "X", "Y", "Z"]


def test_estimate_k_exact():
    derived = estimate_k_magnitude(NoiseProfile.ideal()).derived
    assert derived["k_abs"] == pytest.approx(2.0, abs=1e-9)


def test_estimate_k_sampled_self_consistent():
    ks, errs = [], []
    for seed in range(40):
        derived = estimate_k_magnitude(NoiseProfile(master_seed=seed)).derived
        ks.append(derived["k_abs"])
        errs.append(derived["stderr"])
    assert np.mean(ks) == pytest.approx(2.0, abs=0.03)
    assert np.std(ks) == pytest.approx(np.mean(errs), rel=0.35)


def test_estimate_k_dark_count_subtraction():
    noise = replace(NoiseProfile.ideal(), detector=DetectorModel(dark_rate=50.0))
    derived = estimate_k_magnitude(noise).derived
    assert derived["k_abs"] == pytest.approx(2.0, abs=1e-9)


def test_phase_of_k_ideal():
    derived = run_phase_of_k(NoiseProfile.ideal()).derived
    assert derived["arg_k"] == pytest.approx(math.pi / 2, abs=1e-6)


def test_phase_of_k_reference_vs_reference():
    derived = run_phase_of_k(NoiseProfile.ideal()).derived
    assert derived["reference_fringe_phase"] == pytest.approx(0.0, abs=1e-6)


def test_phase_of_k_flat_fringe_raises():
    with pytest.raises(DegenerateScan):
        run_phase_of_k(replace(NoiseProfile.ideal(), visibility=0.0))


def test_reports_reproducible():
    noise = NoiseProfile(master_seed=99, waveplate_angle_sigma=0.02,
                         phase_offset_error=0.1, visibility=0.95)
    a = run_phase_scan(noise)
    b = run_phase_scan(noise)
    assert a.to_json() == b.to_json()
    assert a.counts_csv() == b.counts_csv()
    assert run_commutator_qpt(noise).to_json() == run_commutator_qpt(noise).to_json()


def test_different_seeds_differ():
    a = run_phase_scan(NoiseProfile(master_seed=1))
    b = run_phase_scan(NoiseProfile(master_seed=2))
    assert a.counts_csv() != b.counts_csv()


def test_fidelity_decreases_with_angle_noise_small_sample():
    # the full >=50-seed study lives in the acceptance suite
    f_lo = mean_qpt_fidelity(NoiseProfile(), 0.0, 10)
    f_hi = mean_qpt_fidelity(NoiseProfile(), 0.1, 10)
    assert f_lo > f_hi


def test_custom_input_state_accepted():
    psi = PureState(math.cos(0.6), math.sin(0.6) * np.exp(0.4j))
    derived = estimate_k_magnitude(NoiseProfile.ideal(), psi0=psi).derived
    assert derived["k_abs"] == pytest.approx(2.0, abs=1e-9)


def test_source_scaling():
    noise = replace(NoiseProfile.ideal(),
                    source=SourceModel(pair_rate=2000.0, integration_time=2.0))
    report = run_case_comparison(noise)
    bright = [r for r in report.records if r.counts > 0]
    assert max(r.counts for r in bright) == pytest.approx(4000.0, abs=1e-6)
