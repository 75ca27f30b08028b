import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pauli_interference
from pauli_interference import experiments
from pauli_interference.cli import main
from pauli_interference.optics import case_i


# a 401-digit JSON integer: Python reads it exactly, but no float holds it
_HUGE = "9" * 401


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_phase_scan_ideal_exact(tmp_path, capsys):
    code, out, _ = run_cli(["phase-scan", "--ideal", "--exact-probabilities",
                            "--output", str(tmp_path)], capsys)
    assert code == 0
    assert "d1_fringe_visibility" in out
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["derived"]["d1_fringe_visibility"] == pytest.approx(1.0, abs=1e-6)
    assert report["derived"]["phi0"] == pytest.approx(0.0, abs=1e-6)
    assert (tmp_path / "counts.csv").read_text().startswith("setting,phi,port,duration,counts")


def test_estimate_k_exact(tmp_path, capsys):
    code, out, _ = run_cli(["estimate-k", "--ideal", "--exact-probabilities",
                            "--output", str(tmp_path)], capsys)
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["derived"]["k_abs"] == pytest.approx(2.0, abs=1e-9)


def test_qpt_writes_chi(tmp_path, capsys):
    code, _, _ = run_cli(["qpt", "--ideal", "--exact-probabilities",
                          "--output", str(tmp_path)], capsys)
    assert code == 0
    chi = json.loads((tmp_path / "chi.json").read_text())
    assert chi["basis"] == ["I", "X", "Y", "Z"]
    assert chi["entries"][2][2][0] == pytest.approx(1.0, abs=1e-9)


def test_seeded_runs_byte_identical(tmp_path, capsys):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        assert run_cli(["case-compare", "--seed", "37", "--output", str(d)], capsys)[0] == 0
    assert (d1 / "report.json").read_bytes() == (d2 / "report.json").read_bytes()
    assert (d1 / "counts.csv").read_bytes() == (d2 / "counts.csv").read_bytes()


def test_experiment_flag_form(tmp_path, capsys):
    code, _, _ = run_cli(["--experiment", "phase-of-k", "--ideal",
                          "--exact-probabilities", "--output", str(tmp_path)], capsys)
    assert code == 0


def test_missing_experiment_is_config_error(tmp_path, capsys):
    code, _, err = run_cli(["--output", str(tmp_path)], capsys)
    assert code == 2
    assert "config error" in err


def test_bad_config_file(tmp_path, capsys):
    # text that is not JSON, JSON nested too deep for the decoder, and bytes
    # that are not UTF-8 text at all
    bad = tmp_path / "cfg.json"
    for data in (b"{not json", b"[" * 100_000 + b"]" * 100_000, b"\xff\xfe{}"):
        bad.write_bytes(data)
        code, _, err = run_cli(["phase-scan", "--config", str(bad)], capsys)
        assert code == 2
        assert err.startswith("config error:") and err.count("\n") == 1


@pytest.mark.parametrize("text", [
    '{"noise": {"detector": {"eff": 0.5}}}',
    '[1, 2]',
    '{"noise": {"source": {"pair_rate": -1}}}',
    '{"noise": {"waveplate_angle_sigma": NaN}}',
    '{"input_state": {"hwp": NaN, "qwp": 0}}',
    '{"noise": {"source": {"pair_rate": 1e308}}}',
    '{"noise": {"detector": {"dark_rate": 1e308}}}',
    '{"noise": {"exact_probabilities": "false"}}',
    '{"noise": {"master_seed": [1, 2]}}',
    '{"noise": {"master_seed": 1.5}}',
    '{"noise": {"master_seed": true}}',
    '{"noise": {"waveplate_angle_sigma": 1e308}}',
    '{"noise": {"waveplate_angle_sigma": 3.2}}',
    '{"nosie": {"visibility": 0.1}}',
    '{"input_state": {"hwp": 0.3, "qwp": 0, "hwq": 0.1}}',
    '{"noise": {"source": {"integration_time": true}}}',
    # integers too large for a float
    f'{{"noise": {{"source": {{"integration_time": {_HUGE}}}}}}}',
    f'{{"noise": {{"source": {{"pair_rate": {_HUGE}}}}}}}',
    f'{{"noise": {{"detector": {{"dark_rate": {_HUGE}}}}}}}',
    f'{{"noise": {{"phase_offset_error": {_HUGE}}}}}',
    f'{{"input_state": {{"hwp": {_HUGE}, "qwp": 0}}}}',
    # a JSON boolean is no number, though Python's bool is an int
    '{"noise": {"visibility": true}}',
    '{"noise": {"phase_offset_error": false}}',
    '{"noise": {"waveplate_angle_sigma": false}}',
    '{"noise": {"detector": {"efficiency": true}}}',
    '{"noise": {"detector": {"dark_rate": false}}}',
    '{"noise": {"source": {"pair_rate": true}}}',
    '{"input_state": {"hwp": true, "qwp": 0}}',
    '{"input_state": {"hwp": 0, "qwp": false}}',
    # a JSON string is no number, though float() parses "0.3"
    '{"input_state": {"hwp": "0.3", "qwp": 0}}',
    '{"input_state": {"hwp": 0, "qwp": "1e0"}}',
    # null stands for an absent section, but is no number
    '{"noise": {"visibility": null}}',
    '{"noise": {"detector": {"efficiency": null}}}',
    # a section is a JSON object or null, not an array of pairs, a string or a number
    '{"noise": [["visibility", 0.5], ["master_seed", 3]]}',
    '{"noise": []}',
    '{"noise": "visibility"}',
    '{"noise": 0.5}',
    '{"noise": {"detector": [["efficiency", 0.5]]}}',
    '{"noise": {"detector": "efficiency"}}',
    '{"noise": {"detector": 0.5}}',
    '{"noise": {"source": [["pair_rate", 100.0]]}}',
    '{"noise": {"source": "pair_rate"}}',
    '{"noise": {"source": 100.0}}',
    '{"input_state": [["hwp", 0.3], ["qwp", 0]]}',
    '{"input_state": "hwp"}',
    '{"input_state": 0.3}',
    '{"input_state": {}}',
], ids=["unknown-detector-key", "top-level-list", "negative-pair-rate", "nan-angle-sigma",
        "nan-input-state-angle", "huge-pair-rate", "huge-dark-rate", "string-exact-flag",
        "list-seed", "float-seed", "bool-seed", "huge-angle-sigma", "angle-sigma-above-pi",
        "unknown-top-level-key", "unknown-input-state-key", "bool-integration-time",
        "huge-int-integration-time", "huge-int-pair-rate", "huge-int-dark-rate",
        "huge-int-phase-offset", "huge-int-input-state-angle", "bool-visibility",
        "bool-phase-offset", "bool-angle-sigma", "bool-efficiency", "bool-dark-rate",
        "bool-pair-rate", "bool-hwp", "bool-qwp", "string-hwp", "string-qwp",
        "null-visibility", "null-efficiency", "pairs-noise", "empty-array-noise",
        "string-noise", "number-noise", "pairs-detector", "string-detector",
        "number-detector", "pairs-source", "string-source", "number-source",
        "pairs-input-state", "string-input-state", "number-input-state", "empty-input-state"])
def test_bad_config_values_exit_2(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    code, _, err = run_cli(["phase-scan", "--config", str(cfg),
                            "--output", str(tmp_path)], capsys)
    assert code == 2
    assert err.startswith("config error:") and err.count("\n") == 1


NULL_SECTION_BASE = {
    "noise": {"visibility": 0.9, "master_seed": 5, "phase_offset_error": 0.1,
              "detector": {"efficiency": 0.8, "dark_rate": 10.0},
              "source": {"pair_rate": 20000.0}},
    "input_state": {"hwp": 0.3927, "qwp": 0.0},
}


@pytest.mark.parametrize("path", [("noise",), ("noise", "detector"), ("noise", "source"),
                                  ("input_state",)],
                         ids=["noise", "detector", "source", "input-state"])
@pytest.mark.parametrize("exact", [False, True], ids=["sampled", "exact"])
def test_null_section_is_absent_section(tmp_path, capsys, path, exact):
    # a section given as JSON null writes the same report as one left out
    *parents, key = path
    reports = []
    for null in (True, False):
        cfg = json.loads(json.dumps(NULL_SECTION_BASE))
        section = cfg
        for name in parents:
            section = section[name]
        if null:
            section[key] = None
        else:
            del section[key]
        out = tmp_path / f"null-{null}"
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        code, _, err = run_cli(["case-compare", "--config", str(tmp_path / "cfg.json"),
                                "--output", str(out)] + ["--exact-probabilities"] * exact,
                               capsys)
        assert code == 0, err
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]


def test_int_config_values_accepted(tmp_path, capsys):
    # a number field may be a JSON integer, only not true or false
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "noise": {"visibility": 1, "phase_offset_error": 1, "waveplate_angle_sigma": 0,
                  "detector": {"efficiency": 1, "dark_rate": 0},
                  "source": {"pair_rate": 10000, "integration_time": 1}},
        "input_state": {"hwp": 1, "qwp": 0},
    }))
    code, _, _ = run_cli(["case-compare", "--config", str(cfg), "--exact-probabilities",
                          "--output", str(tmp_path)], capsys)
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["inputs"]["visibility"] == 1 and report["inputs"]["phase_offset_error"] == 1


def test_qpt_mle_converged_is_json_bool(tmp_path, capsys):
    # op 384 of the qpt-mc benchmark workload, seed 11: the MLE once returned
    # converged as numpy.bool here and report.json failed to serialize
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"noise": {"waveplate_angle_sigma": 0.05}}))
    code, _, _ = run_cli(["qpt", "--seed", "16354647455366171686", "--config", str(cfg),
                          "--output", str(tmp_path)], capsys)
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["derived"]["mle_converged"] is True


def test_import_does_not_load_scipy():
    src = str(Path(pauli_interference.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, pauli_interference, pauli_interference.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("exact", [False, True], ids=["sampled", "exact"])
def test_qpt_dark_commutator_port_is_experiment_error(tmp_path, capsys, monkeypatch, exact):
    # with case I's plates D2 is dark for every input: no dark counts leave
    # every tomography setting empty
    monkeypatch.setattr(experiments, "case_ii", case_i)
    argv = ["qpt", "--ideal", "--output", str(tmp_path)]
    code, _, err = run_cli(argv + ["--exact-probabilities"] * exact, capsys)
    assert code == 3
    assert err.startswith("experiment error") and err.count("\n") == 1


@pytest.mark.parametrize("exact", [False, True], ids=["sampled", "exact"])
def test_case_compare_without_photons_is_experiment_error(tmp_path, capsys, exact):
    # no detection and no dark counts: both cases have zero counts, so there
    # are no rates to compare and no pi shift to verify
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"noise": {"detector": {"efficiency": 0.0}}}))
    argv = ["case-compare", "--config", str(cfg), "--output", str(tmp_path)]
    code, _, err = run_cli(argv + ["--exact-probabilities"] * exact, capsys)
    assert code == 3
    assert err.startswith("experiment error (EmptyData)") and err.count("\n") == 1


@pytest.mark.parametrize("experiment,noise,exact", [
    ("phase-scan", {"detector": {"efficiency": 0.0}}, False),
    ("phase-scan", {"detector": {"efficiency": 0.0}}, True),
    ("phase-scan", {"visibility": 0.0}, False),
    ("estimate-k", {"visibility": 0.0, "phase_offset_error": 0.2}, False),
], ids=["no-photons-sampled", "no-photons-exact", "no-visibility", "estimate-k-offset"])
def test_flat_calibration_scan_is_experiment_error(tmp_path, capsys, experiment, noise,
                                                   exact):
    # a flat phi0 scan has no phase to find: its fitted phase is atan2 of
    # noise or of zeros, so calibrating on it would report a made-up phi0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"noise": noise}))
    argv = [experiment, "--config", str(cfg), "--output", str(tmp_path)]
    code, _, err = run_cli(argv + ["--exact-probabilities"] * exact, capsys)
    assert code == 3
    assert err.startswith("experiment error (DegenerateScan)") and err.count("\n") == 1


def test_calibration_outside_fidelity_window_is_experiment_error(tmp_path, capsys,
                                                                 monkeypatch):
    # a mean fidelity that never reaches the window exhausts the bisection
    monkeypatch.setattr(experiments, "mean_qpt_fidelity", lambda *args: 0.5)
    code, _, err = run_cli(["calibrate-noise", "--output", str(tmp_path)], capsys)
    assert code == 3
    assert err.startswith("experiment error (CalibrationFailed)") and err.count("\n") == 1


def test_calibrate_noise_report_is_json_dumps_text(tmp_path, capsys, monkeypatch):
    # a mean fidelity inside the window ends the search at the first sigma tried
    monkeypatch.setattr(experiments, "mean_qpt_fidelity", lambda *args: 0.9312345678901234)
    code, _, _ = run_cli(["calibrate-noise", "--output", str(tmp_path)], capsys)
    assert code == 0
    derived = {"waveplate_angle_sigma": 0.05, "mean_fidelity": 0.9312345678901234,
               "n_seeds": 50}
    assert (tmp_path / "report.json").read_text() == json.dumps(derived, indent=2,
                                                                sort_keys=True)


def test_json_format_writes_records_to_report_only(tmp_path, capsys):
    runs = {}
    for fmt in ("csv", "json"):
        out = tmp_path / fmt
        assert run_cli(["estimate-k", "--seed", "3", "--format", fmt,
                        "--output", str(out)], capsys)[0] == 0
        runs[fmt] = out
    assert not (runs["json"] / "counts.csv").exists()
    report = (runs["json"] / "report.json").read_text()
    assert report == (runs["csv"] / "report.json").read_text()
    header, *rows = (runs["csv"] / "counts.csv").read_text().splitlines()
    assert header == "setting,phi,port,duration,counts"
    assert [[r["setting"], r["phi"], r["port"], r["duration"], r["counts"]]
            for r in json.loads(report)["records"]] == [
        [setting, float(phi), port, float(duration), int(counts)]
        for setting, phi, port, duration, counts in (row.split(",") for row in rows)]


def test_experiment_error_exit_code(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"noise": {"visibility": 0.0,
                                         "exact_probabilities": True}}))
    code, _, err = run_cli(["phase-of-k", "--config", str(cfg),
                            "--output", str(tmp_path)], capsys)
    assert code == 3
    assert "DegenerateScan" in err


def test_config_file_noise_and_input_state(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "noise": {"visibility": 0.9, "master_seed": 5,
                  "detector": {"efficiency": 0.8},
                  "source": {"pair_rate": 20000.0}},
        "input_state": {"hwp": 0.3927, "qwp": 0.0},
    }))
    code, _, _ = run_cli(["case-compare", "--config", str(cfg),
                          "--output", str(tmp_path)], capsys)
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["inputs"]["visibility"] == 0.9
    assert report["inputs"]["detector"]["efficiency"] == 0.8
