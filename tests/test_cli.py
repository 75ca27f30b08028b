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
    bad = tmp_path / "cfg.json"
    bad.write_text("{not json")
    code, _, err = run_cli(["phase-scan", "--config", str(bad)], capsys)
    assert code == 2


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
], ids=["unknown-detector-key", "top-level-list", "negative-pair-rate", "nan-angle-sigma",
        "nan-input-state-angle", "huge-pair-rate", "huge-dark-rate", "string-exact-flag",
        "list-seed", "float-seed", "bool-seed", "huge-angle-sigma", "angle-sigma-above-pi",
        "unknown-top-level-key", "unknown-input-state-key"])
def test_bad_config_values_exit_2(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    code, _, err = run_cli(["phase-scan", "--config", str(cfg),
                            "--output", str(tmp_path)], capsys)
    assert code == 2
    assert err.startswith("config error:") and err.count("\n") == 1


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
