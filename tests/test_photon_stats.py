import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from oracle import csv_writer_text
from pauli_interference.errors import CalibrationInconsistent, DegenerateScan
from pauli_interference.experiments import ExperimentReport
from pauli_interference.optics import Port
from pauli_interference.photon_stats import (_DESIGN, _NORMAL_INV, N_SCAN_POINTS, SCAN_PHIS,
                                             DetectorModel, SourceModel, _wrap_near,
                                             calibrate_phase, derive_seed, expected_rate,
                                             fit_sinusoid, sample_counts)


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
        ExperimentReport("e", {}, [("s", 0.0, Port.D1)], [-3], 1.0, {})
    with pytest.raises(ValueError):  # one count per cell
        ExperimentReport("e", {}, [("s", 0.0, Port.D1)], [1, 2], 1.0, {})
    with pytest.raises(ValueError):
        ExperimentReport("e", {}, [("s", 0.0, Port.D1)] * 2, [1], 1.0, {})
    with pytest.raises(ValueError):
        SourceModel(integration_time=True)
    for duration in (0.0, -1):
        with pytest.raises(ValueError, match="duration must be > 0"):
            ExperimentReport("e", {}, [("s", 0.0, Port.D1)], [1], duration, {})


@pytest.mark.parametrize("field", ["counts", "phi", "duration"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True, np.float64(1.0),
                                 np.int64(1)], ids=["nan", "inf", "-inf", "bool", "float64",
                                                    "int64"])
def test_count_record_holds_plain_finite_numbers(field, bad):
    # report.json writes a record's numbers with repr, JSON's spelling only
    # of a plain int or a finite float
    values = {"counts": 1, "phi": 0.5, "duration": 1.0, field: bad}
    with pytest.raises(ValueError):
        ExperimentReport("e", {}, [("s", values["phi"], Port.D1)], [values["counts"]],
                         values["duration"], {})


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


def test_sample_counts_is_one_default_rng_stream():
    # a record set's counts are one numpy stream: its seed's Generator, drawing
    # every mean of the set in order, zeros included
    t, seed = 2.0, derive_seed(3, "set")
    rates = np.array([0.0, 4.5, 0.0, 250.0, 3e6, 0.0, 1e17])
    counts = sample_counts(rates, t, seed)
    assert type(counts) is list and all(type(n) is int for n in counts)
    assert counts == np.random.default_rng(seed).poisson(rates * t).tolist()

    n = sample_counts(123.4, t, seed)
    assert type(n) is int and n == int(np.random.default_rng(seed).poisson(123.4 * t))
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError):
            sample_counts(np.array([5.0, bad]), 1.0, seed)
        with pytest.raises(ValueError):
            sample_counts(bad, 1.0, seed)


def test_sample_counts_one_stream_is_poissonian():
    # criterion 9 draws one count per seed; this checks the vector path: 2,000
    # counts at mean 50 from one seed.  The standard error of their mean is
    # sqrt(50/n) and of their variance sqrt((50 + 2*50**2)/n).
    n, mean = 2000, 50.0
    draws = np.array(sample_counts(np.full(n, mean), 1.0, derive_seed(0, "vector-stats")))
    assert abs(draws.mean() - mean) < 4 * math.sqrt(mean / n)
    assert abs(draws.var(ddof=1) - mean) < 4 * math.sqrt((mean + 2 * mean**2) / n)


def test_derive_seed_stable_and_distinct():
    assert derive_seed(1, "a", 0) == derive_seed(1, "a", 0)
    assert derive_seed(1, "a", 0) != derive_seed(1, "a", 1)
    assert derive_seed(1, "a", 0) != derive_seed(2, "a", 0)


def test_fit_sinusoid_exact_recovery():
    fit = fit_sinusoid(500 + 500 * np.cos(SCAN_PHIS))
    assert fit.offset == pytest.approx(500.0, abs=1e-6)
    assert fit.amplitude == pytest.approx(500.0, abs=1e-6)
    assert fit.phase == pytest.approx(0.0, abs=1e-6)
    assert fit.fringe_visibility == pytest.approx(1.0, abs=1e-6)


def test_fit_sinusoid_phase_recovery():
    fit = fit_sinusoid(500 + 250 * np.cos(SCAN_PHIS - 0.7))
    assert fit.phase == pytest.approx(0.7, abs=1e-6)
    assert fit.fringe_visibility == pytest.approx(0.5, abs=1e-6)


def test_fit_sinusoid_underflowing_amplitude():
    # amplitude**2 underflows to 0 below about 1e-162: the fit still finds the
    # phase, and reports its error as unknown, without a numpy warning
    fit = fit_sinusoid(1e-170 * (1 + np.cos(SCAN_PHIS - 0.3)))
    assert fit.phase == pytest.approx(0.3, abs=1e-12)
    assert fit.phase_stderr == math.inf


def test_fit_sinusoid_flat_data():
    fit = fit_sinusoid(np.full(N_SCAN_POINTS, 500.0))
    assert fit.fringe_visibility == 0.0


def test_fit_sinusoid_needs_one_count_per_phase():
    for counts in (np.ones(N_SCAN_POINTS - 1), np.ones(N_SCAN_POINTS + 1),
                   np.ones((N_SCAN_POINTS, 1)), 5.0):
        with pytest.raises(ValueError, match="one count per scan phase"):
            fit_sinusoid(counts)


def test_fit_sinusoid_design_built_at_import():
    noise = np.random.default_rng(3).normal(0, 5, N_SCAN_POINTS)
    counts = 500 + 300 * np.cos(SCAN_PHIS - 0.4) + noise
    first = fit_sinusoid(counts)
    # the design built at import is the grid's, and the fit is its lstsq
    reference = np.column_stack([np.ones_like(SCAN_PHIS), np.cos(SCAN_PHIS), np.sin(SCAN_PHIS)])
    assert np.array_equal(_DESIGN, reference)
    assert np.array_equal(_NORMAL_INV, np.linalg.inv(reference.T @ reference))
    coef, *_ = np.linalg.lstsq(reference, counts, rcond=None)
    assert (first.offset, first.amplitude, first.phase) == (
        coef[0], math.hypot(coef[1], coef[2]), math.atan2(coef[2], coef[1]))
    assert fit_sinusoid(counts.tolist()) == first
    # the grid and its design are shared by every scan, so none can be written
    for shared in (SCAN_PHIS, _DESIGN, _NORMAL_INV):
        assert not shared.flags.writeable
        with pytest.raises(ValueError):
            shared[0] = 2.0


def test_fit_phase_error_shrinks_with_counts():
    mean_abs_err = []
    for scale in (100, 1000, 10_000):
        errs = []
        for seed in range(100):
            rng = np.random.default_rng(derive_seed(seed, "scaling"))
            counts = rng.poisson(scale * (1 + np.cos(SCAN_PHIS - 0.3)) / 2)
            errs.append(abs(fit_sinusoid(counts).phase - 0.3))
        mean_abs_err.append(np.mean(errs))
    assert mean_abs_err[0] > mean_abs_err[1] > mean_abs_err[2]


def test_wrap_near_range():
    # [center - pi, center + pi): the lower end is kept, the upper one sent to it
    for center in (0.0, 0.3, -1.0, 1e-3, math.pi, -2 * math.pi, 5.0):
        lo, hi = center - math.pi, center + math.pi
        assert _wrap_near(lo, center) == lo
        assert _wrap_near(hi, center) == lo
        for x in np.linspace(lo, hi, 41)[1:-1]:
            for turns in range(-2, 3):
                y = _wrap_near(float(x) + 2 * math.pi * turns, center)
                assert lo <= y < hi
                assert y == pytest.approx(float(x), abs=1e-12)


def _case_i_scan(offset_phi=0.0, scale=None, seed=0):
    """The D1 and D2 count columns of a case-I scan over the grid."""
    rng = np.random.default_rng(seed)
    d1, d2 = [], []
    for phi in SCAN_PHIS:
        p1 = math.cos((phi - offset_phi) / 2) ** 2
        p2 = math.sin((phi - offset_phi) / 2) ** 2
        for column, p in ((d1, p1), (d2, p2)):
            column.append(1e4 * p if scale is None else int(rng.poisson(scale * p)))
    return d1, d2


def test_calibrate_phase_noiseless():
    cal = calibrate_phase(*_case_i_scan())
    assert cal.phi0 == pytest.approx(0.0, abs=1e-6)


def test_calibrate_phase_recovers_injected_offset():
    cal = calibrate_phase(*_case_i_scan(offset_phi=0.3, scale=10_000, seed=5))
    assert cal.phi0 == pytest.approx(0.3, abs=0.01)


@pytest.mark.parametrize("flat_port", [Port.D1, Port.D2])
def test_calibrate_phase_refuses_flat_fringe(flat_port):
    # a flat fringe's fitted phase is atan2 of noise or of zeros
    d1, d2 = _case_i_scan()
    flat = [0] * N_SCAN_POINTS
    with pytest.raises(DegenerateScan, match=f"{flat_port.value} fringe is flat"):
        calibrate_phase(*((flat, d2) if flat_port is Port.D1 else (d1, flat)))


def test_calibrate_phase_inconsistent_fringes():
    d1 = [1e4 * math.cos(phi / 2) ** 2 for phi in SCAN_PHIS]
    # D2 fringe shifted by an extra 0.5 rad: not the complement of D1
    d2 = [1e4 * math.sin((phi - 0.5) / 2) ** 2 for phi in SCAN_PHIS]
    with pytest.raises(CalibrationInconsistent):
        calibrate_phase(d1, d2)


def test_records_to_csv_layout():
    report = ExperimentReport("e", {}, [("a", 0.5, Port.D1), ("b", -0.5, Port.D2)],
                              [12, 0], 2, {})
    text = report.counts_csv()
    lines = text.splitlines()
    assert lines[0] == "setting,phi,port,duration,counts"
    assert lines[1] == "a,0.5,D1,2.0,12"
    assert len(lines) == 3
    assert text == csv_writer_text(report)


_CSV_LABELS = st.text() | st.text(alphabet=',"\n\r\t \x00a\u00e9')
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_ROWS = st.lists(st.tuples(
    st.tuples(_CSV_LABELS, _FINITE | st.integers(-2**53, 2**53), st.sampled_from(Port)),
    st.integers(0, 10**18) | st.floats(min_value=0.0, allow_infinity=False) | st.just(-0.0)),
    max_size=8)


def _report(rows, duration) -> ExperimentReport:
    return ExperimentReport("e", {}, [cell for cell, _ in rows], [n for _, n in rows],
                            duration, {})


@given(st.builds(_report, _ROWS, st.floats(min_value=5e-324, allow_infinity=False)
                 | st.integers(1, 10**6)))
@example(_report([((label, -0.0, Port.D1), 0) for label in
                  ["", "a,b", 'say "hi"', "two\nlines", "cr\ronly", "\r\n", " pad ", "\x00"]],
                 1))
def test_records_to_csv_is_csv_writer(report):
    assert report.counts_csv() == csv_writer_text(report)
