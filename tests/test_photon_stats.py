import math

import numpy as np
import pytest

from pauli_interference.errors import CalibrationInconsistent, DegenerateScan
from pauli_interference.optics import Port
from pauli_interference.photon_stats import (CountRecord, DetectorModel, SourceModel,
                                             _pcg64_state_words, calibrate_phase,
                                             derive_seed, expected_rate, fit_sinusoid,
                                             records_to_csv, sample_counts)


def test_expected_rate_linear_model():
    src = SourceModel(pair_rate=1000.0, integration_time=1.0)
    assert expected_rate(0.0, src, DetectorModel()) == 0.0
    assert expected_rate(1.0, src, DetectorModel(efficiency=0.5)) == 500.0
    assert expected_rate(0.5, src, DetectorModel(efficiency=1.0, dark_rate=10.0)) == 510.0
    with pytest.raises(ValueError):
        expected_rate(1.5, src, DetectorModel())
    det = DetectorModel(efficiency=0.5, dark_rate=10.0)
    ps = np.array([0.0, 0.25, 1.0])
    assert expected_rate(ps, src, det).tolist() == [expected_rate(float(p), src, det)
                                                    for p in ps]
    for bad in (1.5, math.nan):
        with pytest.raises(ValueError):
            expected_rate(np.array([0.5, bad]), src, det)


def test_model_validation():
    with pytest.raises(ValueError):
        SourceModel(pair_rate=0.0)
    with pytest.raises(ValueError):
        DetectorModel(efficiency=1.5)
    with pytest.raises(ValueError):
        DetectorModel(dark_rate=-1.0)
    with pytest.raises(ValueError):
        CountRecord("s", 0.0, Port.D1, 1.0, -3)


def test_sample_counts_zero_rate():
    for seed in range(10):
        assert sample_counts(0.0, 5.0, seed) == 0


def test_sample_counts_poisson_statistics():
    draws = np.array([sample_counts(100.0, 1.0, derive_seed(0, "stats", i))
                      for i in range(10_000)])
    # 3 sigma of the mean of 1e4 draws with variance 100 is ~0.3; the spec
    # budget of +/-1 is comfortably wider
    assert abs(draws.mean() - 100.0) < 1.0
    assert 0.9 < draws.var() / draws.mean() < 1.1


def test_sample_counts_reproducible():
    a = [sample_counts(123.4, 2.0, derive_seed(42, "x", i)) for i in range(50)]
    b = [sample_counts(123.4, 2.0, derive_seed(42, "x", i)) for i in range(50)]
    assert a == b


def test_sample_counts_batch_matches_numpy_seeding():
    # the batched hash must reproduce numpy's own SeedSequence -> PCG64 seeding
    # for every 64-bit seed: one and two 32-bit entropy words, and the edges
    rng = np.random.default_rng(2024)
    edges = [0, 1, 2, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**63 - 1, 2**63, 2**64 - 1]
    seeds = (edges + rng.integers(0, 2**64, 6000, dtype=np.uint64).tolist()
             + rng.integers(0, 2**32, 4000, dtype=np.uint64).tolist())
    words = _pcg64_state_words(seeds)
    assert words.shape == (len(seeds), 4)
    for s, row in zip(seeds, words):
        assert row.tolist() == np.random.SeedSequence(s).generate_state(4, np.uint64).tolist()

    # means: 0, numpy's inversion branch (< 10), its PTRS branch (>= 10), up to 1e18
    pool = np.concatenate([[0.0, 10.0, 1e18], rng.uniform(0.0, 10.0, 100),
                           rng.uniform(10.0, 1e6, 100), 10.0 ** rng.uniform(6, 18, 100)])
    means = pool[np.arange(len(seeds)) % len(pool)]
    rates, t = means / 2.0, 2.0
    counts = sample_counts(rates, t, seeds)
    assert type(counts) is list and all(type(n) is int for n in counts)
    assert counts == [0 if r * t == 0 else int(np.random.default_rng(s).poisson(r * t))
                      for r, s in zip(rates.tolist(), seeds)]

    n = sample_counts(float(rates[1]), t, seeds[1])
    assert type(n) is int and n == counts[1]
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError):
            sample_counts(np.array([5.0, bad]), 1.0, [1, 2])


def test_derive_seed_stable_and_distinct():
    assert derive_seed(1, "a", 0) == derive_seed(1, "a", 0)
    assert derive_seed(1, "a", 0) != derive_seed(1, "a", 1)
    assert derive_seed(1, "a", 0) != derive_seed(2, "a", 0)


def test_fit_sinusoid_exact_recovery():
    phis = np.linspace(0, 2 * math.pi, 20)
    fit = fit_sinusoid(phis, 500 + 500 * np.cos(phis))
    assert fit.offset == pytest.approx(500.0, abs=1e-6)
    assert fit.amplitude == pytest.approx(500.0, abs=1e-6)
    assert fit.phase == pytest.approx(0.0, abs=1e-6)
    assert fit.fringe_visibility == pytest.approx(1.0, abs=1e-6)
    assert fit.residual < 1e-9


def test_fit_sinusoid_phase_recovery():
    phis = np.linspace(-math.pi, 3 * math.pi, 25)
    fit = fit_sinusoid(phis, 500 + 250 * np.cos(phis - 0.7))
    assert fit.phase == pytest.approx(0.7, abs=1e-6)
    assert fit.fringe_visibility == pytest.approx(0.5, abs=1e-6)


def test_fit_sinusoid_flat_data():
    phis = np.linspace(0, 2 * math.pi, 20)
    fit = fit_sinusoid(phis, np.full_like(phis, 500.0))
    assert fit.fringe_visibility == 0.0


def test_fit_sinusoid_degenerate_scans():
    with pytest.raises(DegenerateScan):
        fit_sinusoid(np.linspace(0, 2.0, 20), np.ones(20))  # span < pi
    with pytest.raises(DegenerateScan):
        fit_sinusoid([0.0, 1.0, 2.0, 6.0], [1, 2, 3, 4])  # too few points


def test_fit_phase_error_shrinks_with_counts():
    phis = np.linspace(-2 * math.pi, 2 * math.pi, 40)
    mean_abs_err = []
    for scale in (100, 1000, 10_000):
        errs = []
        for seed in range(100):
            rng = np.random.default_rng(derive_seed(seed, "scaling"))
            counts = rng.poisson(scale * (1 + np.cos(phis - 0.3)) / 2)
            errs.append(abs(fit_sinusoid(phis, counts).phase - 0.3))
        mean_abs_err.append(np.mean(errs))
    assert mean_abs_err[0] > mean_abs_err[1] > mean_abs_err[2]


def _case_i_scan(offset_phi=0.0, scale=None, seed=0):
    phis = np.linspace(-2 * math.pi, 2 * math.pi, 40)
    rng = np.random.default_rng(seed)
    records = []
    for i, phi in enumerate(phis):
        p1 = math.cos((phi - offset_phi) / 2) ** 2
        p2 = math.sin((phi - offset_phi) / 2) ** 2
        for port, p in ((Port.D1, p1), (Port.D2, p2)):
            n = 1e4 * p if scale is None else int(rng.poisson(scale * p))
            records.append(CountRecord("cal", float(phi), port, 1.0, n))
    return records


def test_calibrate_phase_noiseless():
    cal = calibrate_phase(_case_i_scan())
    assert cal.phi0 == pytest.approx(0.0, abs=1e-6)


def test_calibrate_phase_recovers_injected_offset():
    cal = calibrate_phase(_case_i_scan(offset_phi=0.3, scale=10_000, seed=5))
    assert cal.phi0 == pytest.approx(0.3, abs=0.01)


def test_calibrate_phase_inconsistent_fringes():
    phis = np.linspace(-2 * math.pi, 2 * math.pi, 40)
    records = []
    for phi in phis:
        records.append(CountRecord("cal", float(phi), Port.D1,
                                   1.0, 1e4 * math.cos(phi / 2) ** 2))
        # D2 fringe shifted by an extra 0.5 rad: not the complement of D1
        records.append(CountRecord("cal", float(phi), Port.D2,
                                   1.0, 1e4 * math.sin((phi - 0.5) / 2) ** 2))
    with pytest.raises(CalibrationInconsistent):
        calibrate_phase(records)


def test_records_to_csv_layout():
    recs = [CountRecord("a", 0.5, Port.D1, 1.0, 12),
            CountRecord("b", -0.5, Port.D2, 2.0, 0)]
    text = records_to_csv(recs)
    lines = text.splitlines()
    assert lines[0] == "setting,phi,port,duration,counts"
    assert lines[1].startswith("a,0.5,D1,")
    assert len(lines) == 3
