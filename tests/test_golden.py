"""Golden outputs: SHA-256 of seeded report.json and counts.csv.

The digests pin the byte-identical output guarantee across refactors, not
only between two runs of the same code. They cover the README's example
config for every experiment whose output does not pass through the
maximum-likelihood fit (sampled qpt and calibrate-noise are left out: an
MLE solver change may move their last digits). Recorded with Python 3.11,
numpy 2.4 on x86-64; another numpy/BLAS build may move the last digit of
a float and needs new digests.
"""

import hashlib
import json

import pytest

from pauli_interference.cli import main

README_CONFIG = {
    "noise": {
        "waveplate_angle_sigma": 0.05,
        "phase_offset_error": 0.1,
        "visibility": 0.95,
        "master_seed": 7,
        "detector": {"efficiency": 0.8, "dark_rate": 10.0},
        "source": {"pair_rate": 40000.0, "integration_time": 1.0},
    },
    "input_state": {"hwp": 0.3927, "qwp": 0.0},
}

# (experiment, exact) -> (sha256 of report.json, sha256 of counts.csv)
GOLDEN = {
    ("phase-scan", False): ("234ece71cd3aa4f7c1acae1706efd20731e11bc4c8d0a6722f46ea23277197eb",
                            "06b931ef0083d218ee43890f6fb06f0a9fbd2a15142b2fc71459e630d8c3fa3a"),
    ("phase-scan", True): ("84153fb5b800592128420691d642fc11979f37a5a0327b3e364b1c5430b054e2",
                           "8b65ba5fd32d6136b0ccbb2d19da082ad270fead34b906cdbcd63fc8bae0cf3e"),
    ("case-compare", False): ("66dec3d0a692f75e6e532c287f06c7172897b121bfb8446d3bccde82dee18531",
                              "5404e6945e52971daf06850b4c118535d004199d488f40030bb8227ccc891a3b"),
    ("case-compare", True): ("6e46523900ef84b51ecfb6af3e92bd6645565d07552bbb03964afefa19bcbaa2",
                             "8ccdfb2b25c83912541bbbdb7bb7e8deaf3a0b404b46319ba72df541982d99a1"),
    ("estimate-k", False): ("8923d1a2cdafd509edc048cdc50a68c4d5461f9eaaeee057feb65fdbe158206e",
                            "59e3d957bbd0d2fb8a1cfc3e81faf2b7639464d629dd5e971a8e14af14aaec4f"),
    ("estimate-k", True): ("36ac4293aa952953f62b08131966d451414421625463cfb052b739ea39cfb567",
                           "535c1a08a72f0b9af6452ebb23e0b7428bdb38f850eeb428323cc9442fc4c815"),
    ("phase-of-k", False): ("5fef44f10c709b056b50a654699b45dd7a642095d99a77439f1b7057378b75ee",
                            "a1df2169bb3fb58c4f69be06a433be762c89cab4b2c2b3514a23b9ceac82eb08"),
    ("phase-of-k", True): ("9c28b214f4b9519eb6d9e1a70ac7201c35d63510ca02b18599e721e6c741589b",
                           "379a1ca7478c594c31fbea7a6bc62daa62f22722438ab8f8988a322ac17fc6ef"),
    ("qpt", True): ("bdf8adb7975931e310aff02688a4ada5835c93c08b39829ec703352aa2ffa482",
                    "6f1742b7d1cf1c2092f7c930b4e2878d7ad7b6090bd3241e4845e4caf7e4470f"),
}


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("experiment,exact", sorted(GOLDEN))
def test_golden_outputs(tmp_path, capsys, experiment, exact):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(README_CONFIG))
    out = tmp_path / "out"
    argv = [experiment, "--config", str(cfg), "--output", str(out)]
    if exact:
        argv.append("--exact-probabilities")
    assert main(argv) == 0
    capsys.readouterr()
    assert (_sha(out / "report.json"), _sha(out / "counts.csv")) == GOLDEN[experiment, exact]
