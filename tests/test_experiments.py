import json
import math
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pauli_interference import experiments, optics
from pauli_interference.errors import DegenerateScan
from pauli_interference.experiments import (ExperimentReport, NoiseProfile,
                                            estimate_k_magnitude, mean_qpt_fidelity,
                                            run_case_comparison, run_commutator_qpt,
                                            run_phase_of_k, run_phase_scan)
from pauli_interference.optics import half_wave, prepare_state, quarter_wave
from pauli_interference.photon_stats import (CountRecord, DetectorModel, SourceModel,
                                             fit_sinusoid)
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


def test_qpt_builds_each_jones_matrix_once(monkeypatch):
    # the four QPT inputs share one apparatus, so a run builds its four
    # plates' matrices once, in exact and in sampled mode; each input's six
    # settings are one kernel call, with no conditional state
    built, kernel_calls, conditional_calls = [], [], []
    original = optics.waveplate_matrix
    monkeypatch.setattr(optics, "waveplate_matrix",
                        lambda wp: built.append(wp) or original(wp))
    kernel = experiments.interference_probability
    monkeypatch.setattr(experiments, "interference_probability",
                        lambda *args: kernel_calls.append(args) or kernel(*args))
    conditional = optics.conditional_output_state
    for owner in (optics, experiments):
        monkeypatch.setattr(owner, "conditional_output_state",
                            lambda *args: conditional_calls.append(args) or conditional(*args))
    for exact in (True, False):
        built.clear()
        kernel_calls.clear()
        run_commutator_qpt(NoiseProfile(waveplate_angle_sigma=0.05, master_seed=9,
                                        exact_probabilities=exact))
        assert len(built) <= 4
        assert len(kernel_calls) == 4
        assert conditional_calls == []


def test_case_compare_and_estimate_k_build_their_arms_once(monkeypatch):
    # a blocked arm is a zero operator in the stack, not a rebuilt apparatus:
    # case-compare builds its two apparatus' eight plates once and makes one
    # kernel call per port, estimate-k builds four plates and makes one call
    built, kernel_calls, per_port_calls = [], [], []
    original = optics.waveplate_matrix
    monkeypatch.setattr(optics, "waveplate_matrix",
                        lambda wp: built.append(wp) or original(wp))
    kernel = experiments.interference_probability
    monkeypatch.setattr(experiments, "interference_probability",
                        lambda *args: kernel_calls.append(args) or kernel(*args))
    per_port = experiments.detection_probability
    monkeypatch.setattr(experiments, "detection_probability",
                        lambda *args: per_port_calls.append(args) or per_port(*args))
    for exact in (True, False):
        # no phase offset, so no calibration scan adds to the counts
        noise = NoiseProfile(waveplate_angle_sigma=0.05, master_seed=9,
                             exact_probabilities=exact)
        for run, max_built, n_kernel_calls in ((run_case_comparison, 8, 2),
                                               (estimate_k_magnitude, 4, 1)):
            built.clear()
            kernel_calls.clear()
            run(noise)
            assert len(built) <= max_built
            assert len(kernel_calls) == n_kernel_calls
            assert per_port_calls == []


def test_each_record_set_is_one_poisson_batch(monkeypatch):
    # every record set's counts come from one _counts call, the only place
    # that turns click probabilities into counts, and its sampled counts from
    # one sample_counts call: the phi0 calibration scan, then each of the run's own
    calls, records = [], []
    sampler, counter = experiments.sample_counts, experiments._counts
    monkeypatch.setattr(experiments, "sample_counts",
                        lambda *args: calls.append(args) or sampler(*args))
    monkeypatch.setattr(experiments, "_counts",
                        lambda *args: records.append(args) or counter(*args))
    noise = NoiseProfile(phase_offset_error=0.3, master_seed=8)
    for run, n_sets, profile in ((run_phase_scan, 1, noise), (run_phase_of_k, 3, noise),
                                 (run_case_comparison, 2, noise),
                                 (estimate_k_magnitude, 2, noise),
                                 (run_commutator_qpt, 1, NoiseProfile(master_seed=8))):
        calls.clear()
        records.clear()
        run(profile)
        assert len(records) == len(calls) == n_sets, run.__name__


def test_no_two_record_sets_share_a_stream(monkeypatch):
    # every derive_seed call of a run seeds one record set or one apparatus's
    # plate errors, each under its own label: two sets drawn from one stream
    # would have correlated shot noise (phase-of-k's two scans, whose phase
    # errors arg_k_err adds as independent)
    labels = []
    seed = experiments.derive_seed
    monkeypatch.setattr(experiments, "derive_seed",
                        lambda master, label, *rest: labels.append(label)
                        or seed(master, label, *rest))
    noise = NoiseProfile(phase_offset_error=0.3, waveplate_angle_sigma=0.05, master_seed=8)
    # (run, record sets, plate seeds), each counting the phi0 calibration scan
    for run, n_sets, n_plates in ((run_phase_scan, 1, 1), (run_case_comparison, 2, 3),
                                  (run_commutator_qpt, 2, 2), (estimate_k_magnitude, 2, 2),
                                  (run_phase_of_k, 3, 2)):
        labels.clear()
        run(noise)
        assert len(set(labels)) == len(labels) == n_sets + n_plates, (run.__name__, labels)


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


def test_case_comparison_verdict_tests_each_difference():
    # case I D1 and case II D2 are independent rates, so their difference has
    # stderr hypot(err_a, err_b); this profile's is 4.16 of those, within 5
    noise = NoiseProfile(phase_offset_error=-0.11500159482935324,
                         visibility=0.8935030397680686,
                         detector=DetectorModel(efficiency=0.9933174916193639,
                                                dark_rate=23.694518001334146),
                         source=SourceModel(pair_rate=88570.1455752862),
                         master_seed=3190805349)
    psi = prepare_state(half_wave(3.034605301925397), quarter_wave(2.2233495585225675))
    assert run_case_comparison(noise, psi0=psi).derived["pi_shift_verdict"] is True


def test_case_comparison_verdict_rejects_perturbed_plates():
    # plate errors break the exchange of the case I and case II rates.  At 1e6
    # pairs/s the verdict rejects it on 49 of seeds 0-49; on seed 24 the rates
    # differ by 3.6 standard errors of their difference, inside the 5-sigma
    # test.  Ten times the counts resolve every seed.
    for pair_rate, most_accepted in ((1e6, 1), (1e7, 0)):
        accepted = [seed for seed in range(50) if run_case_comparison(
            NoiseProfile(waveplate_angle_sigma=0.1, master_seed=seed,
                         source=SourceModel(pair_rate=pair_rate))
        ).derived["pi_shift_verdict"]]
        assert len(accepted) <= most_accepted, (pair_rate, accepted)


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


@pytest.mark.parametrize("exact", [False, True], ids=["sampled", "exact"])
def test_derived_values_come_from_the_written_records(exact):
    # a run derives its values from the count column it writes, so the same
    # arithmetic on report.records gives each one back to the bit
    noise = NoiseProfile(phase_offset_error=0.3, visibility=0.9, master_seed=8,
                         detector=DetectorModel(efficiency=0.8, dark_rate=20.0),
                         exact_probabilities=exact)
    report = run_phase_of_k(noise)
    for scan in ("commutator", "reference"):
        recs = [r for r in report.records if r.setting_label == f"arg-k:{scan}"]
        fit = fit_sinusoid([r.phi for r in recs], [r.counts for r in recs])
        assert fit.phase.hex() == report.derived[f"{scan}_fringe_phase"].hex()

    report = run_case_comparison(noise)
    for case in ("I", "II"):
        recs = [r for r in report.records if r.setting_label == f"case-{case}"]
        total = sum(r.counts for r in recs)
        for r in recs:
            assert report.derived[f"case_{case}_{r.port.value}"] == r.counts / total

    report = estimate_k_magnitude(noise)
    dark = noise.detector.dark_rate * noise.source.integration_time
    counts = {r.setting_label: r.counts for r in report.records}
    for key, sub_run in (("n_open", "open"), ("n_u", "block-transmitted"),
                         ("n_l", "block-reflected")):
        assert report.derived[key] == max(counts[f"k:{sub_run}"] - dark, 0.0)


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


# the floats where repr and JSON could part: signed zero, the smallest
# subnormal, the largest magnitudes
_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308,
                                 1.7976931348623157e308])
_FINITE = st.floats(allow_nan=False, allow_infinity=False) | _EDGE_FLOATS
_LABELS = st.text() | st.sampled_from(["qpt:H:A", "caf\u00e9 \u03c6\U0001f600", '"\\\n\t\x00\x7f'])
_RECORDS = st.lists(st.builds(
    CountRecord, setting_label=_LABELS, phi=_FINITE | st.integers(),
    port=st.sampled_from(optics.Port),
    duration=st.floats(min_value=5e-324, allow_infinity=False) | st.integers(1, 10**30),
    counts=st.integers(0, 10**30) | st.floats(min_value=0.0, allow_infinity=False)
    | st.just(-0.0)), max_size=6)
_VALUES = (st.floats() | st.integers() | st.booleans() | st.none() | _LABELS
           | st.lists(st.floats(), max_size=3))
_DICTS = st.dictionaries(_LABELS, _VALUES | st.dictionaries(_LABELS, _VALUES, max_size=3),
                         max_size=5)


@given(st.builds(ExperimentReport, experiment_id=_LABELS, inputs=_DICTS,
                 records=_RECORDS, derived=_DICTS))
@example(ExperimentReport("qpt", {}, [], {"nan": math.nan, "inf": math.inf,
                                         "-inf": -math.inf}))
@example(ExperimentReport("phase-scan", {"n": 1},
                          [CountRecord("a", -0.0, optics.Port.D2, 5e-324, 0),
                           CountRecord("\u00e9\"\n", 1e308, optics.Port.D1, 1, -0.0)], {}))
def test_report_json_is_indent2_sorted_dumps(report):
    # the records are written by hand; every byte must still be json's
    assert report.to_json() == json.dumps(report.to_dict(), indent=2, sort_keys=True)



_PROFILES = st.builds(
    NoiseProfile,
    waveplate_angle_sigma=st.just(0.0) | st.floats(0.0, 1.0),
    phase_offset_error=st.floats(-10.0, 10.0).filter(bool),
    visibility=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    detector=st.builds(DetectorModel, efficiency=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
                       dark_rate=st.just(0.0) | st.floats(0.0, 1e6)),
    source=st.builds(SourceModel, pair_rate=st.floats(1.0, 1e7),
                     integration_time=st.floats(1e-3, 10.0) | st.just(1)),
    master_seed=st.integers(0, 2**64 - 1), exact_probabilities=st.booleans())


def _outcome(run):
    try:
        return run()
    except Exception as exc:
        return type(exc), str(exc)


@settings(deadline=None)
@given(_PROFILES, st.sampled_from([0.0, 0.5]))
@example(NoiseProfile(phase_offset_error=0.3, visibility=0.0, exact_probabilities=True), 0.0)
@example(NoiseProfile(phase_offset_error=0.3, detector=DetectorModel(efficiency=0.0)), 0.0)
@example(NoiseProfile(phase_offset_error=0.3, master_seed=8), 0.5)
def test_calibrated_phi0_is_phase_scan_phi0(noise, d2_shift):
    # the calibration fits the scan's counts without building its report; a
    # D2 fringe shifted against D1 makes the fits disagree
    kernel = experiments.interference_probability

    def shifted(a, b, phi, visibility, psi0, sign):
        return kernel(a, b, phi + d2_shift * (sign < 0), visibility, psi0, sign)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "interference_probability", shifted)
        expected = _outcome(lambda: run_phase_scan(noise).derived["phi0"])
        got = _outcome(lambda: experiments._calibrated_phi0(noise))
    if isinstance(expected, float):
        assert type(got) is float and got.hex() == expected.hex()
    else:
        assert got == expected


def test_case_compare_builds_only_its_own_records(monkeypatch):
    # the phi0 calibration scan behind a phase offset makes no count record
    built = []
    record = experiments.CountRecord
    monkeypatch.setattr(experiments, "CountRecord",
                        lambda **kw: built.append(kw) or record(**kw))
    for exact in (False, True):
        built.clear()
        report = run_case_comparison(NoiseProfile(phase_offset_error=0.3, master_seed=8,
                                                  exact_probabilities=exact))
        assert len(built) == len(report.records) == 4


_SCALARS = (st.floats() | _EDGE_FLOATS | st.integers() | st.integers(-2**80, 2**80)
            | st.booleans() | st.none() | _LABELS | st.floats().map(np.float64))
_JSON = st.recursive(_SCALARS, lambda inner: (
    st.lists(inner, max_size=4) | st.tuples(inner, inner)
    | st.dictionaries(_LABELS, inner, max_size=4)
    | st.dictionaries(st.integers() | st.floats(allow_nan=False) | st.booleans(), inner,
                      max_size=3)
    | st.lists(st.floats(), min_size=2, max_size=2)), max_leaves=30)


@given(_JSON | st.lists(_JSON | st.just(np.int64(3)), max_size=3)
       | st.dictionaries(_LABELS, _JSON | st.just(np.int64(3)), max_size=3))
@example(np.int64(3))
@example({"a": {1: "one", "b": "two"}})
@example([[0.5, -0.0], [math.nan, 1.0], [math.inf, -math.inf], (5e-324, 1e308), [1, 2.0]])
@example({"": {}, "x": [], "\u00e9": (), "y": ["caf\u00e9 \u03c6\U0001f600", None, True, False]})
def test_json_text_is_indent2_sorted_dumps(value):
    expected = _outcome(lambda: json.dumps(value, indent=2, sort_keys=True))
    assert _outcome(lambda: experiments.json_text(value)) == expected


@given(_PROFILES, st.dictionaries(st.sampled_from(["n_points", "visibility", "extra"]),
                                  st.integers(), max_size=2))
def test_profile_echo_is_asdict(noise, extra):
    echo = experiments._profile_echo(noise, **extra)
    before = asdict(noise)
    expected = {**before, **extra}
    assert echo == expected and list(echo) == list(expected)
    assert list(echo["detector"]) == list(expected["detector"])
    # fresh dicts: editing the echo leaves the frozen profile as it was
    echo["detector"]["efficiency"] = echo["source"]["pair_rate"] = echo["visibility"] = -1
    assert asdict(noise) == before
