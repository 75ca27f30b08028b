"""Golden outputs: SHA-256 of seeded report.json and counts.csv, and the
maximum-likelihood states of fixed count sets.

The digests pin the byte-identical output guarantee across refactors, not
only between two runs of the same code. They cover the README's example
config for every experiment in sampled and exact modes, and qpt's chi.json.
Sampled qpt's digest does not pin the maximum-likelihood fit: for the
README config all four QPT inputs have a physical linear-inversion state,
which qst_mle returns unchanged. The projected path (a Bloch vector outside the unit
ball) is pinned by the states of PROJECTED_MLE_STATES, and end to end by
the digest of sampled qpt --ideal on the README config.  The same runs
also pin which errors each report names (``ERR_KEYS``).
calibrate-noise runs hundreds of QPTs, so only its exact mode is pinned
(``GOLDEN_CALIBRATE``): about 0.25 s, with no fidelity clamped. The sampled
digests also pin numpy's vector Generator.poisson stream: a record set's
counts are one default_rng(seed).poisson(means) call. Recorded with
Python 3.11, numpy 2.4.6 (``RECORDED_NUMPY``) on x86-64; another numpy/BLAS
build may move the last digit of a float and needs new digests, so CI installs
the versions in ``.github/workflows/constraints.txt`` and every mismatch
names both numpy versions. Run this file as a script
(``PYTHONPATH=src python tests/test_golden.py``) to print every digest of the
code under test in this file's syntax.
"""

import hashlib
import json

import numpy as np
import pytest

from pauli_interference.cli import main
from pauli_interference.tomography import qst_mle

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

RECORDED_NUMPY = "2.4.6"
MISMATCH = (f"golden values recorded with numpy {RECORDED_NUMPY}, running numpy "
            f"{np.__version__}")

# (experiment, exact) -> (sha256 of report.json, sha256 of counts.csv)
GOLDEN = {
    ("phase-scan", False): ("8312df0dcd61d8f98f7e75ad6d07998984dc59f1fc2d5a6bd2adb8fd3cac547f",
                            "0d32f3223746cc252756504305d8d4913113b7ee18791928592a07f2d3228473"),
    ("phase-scan", True): ("84153fb5b800592128420691d642fc11979f37a5a0327b3e364b1c5430b054e2",
                           "8b65ba5fd32d6136b0ccbb2d19da082ad270fead34b906cdbcd63fc8bae0cf3e"),
    ("case-compare", False): ("0b97efeef936dc7245207a26a688f119ab2f46e3297e0a8ece0c1c9108cf725a",
                              "e615e4c8e5166e8ad6a69f6d689fff48d3733e6f1640cd6d6de7fbae257655c0"),
    ("case-compare", True): ("6e46523900ef84b51ecfb6af3e92bd6645565d07552bbb03964afefa19bcbaa2",
                             "8ccdfb2b25c83912541bbbdb7bb7e8deaf3a0b404b46319ba72df541982d99a1"),
    ("estimate-k", False): ("2eaa914f54ed9ac05568a3fd6d1589d2e130bf749181ac0d337cfe91479b28e3",
                            "cc2393cee8d5acc076f85cc4072c46b434a85753509a2382f837adce228ba128"),
    ("estimate-k", True): ("36ac4293aa952953f62b08131966d451414421625463cfb052b739ea39cfb567",
                           "535c1a08a72f0b9af6452ebb23e0b7428bdb38f850eeb428323cc9442fc4c815"),
    ("phase-of-k", False): ("9bf8e3c37a3cd7f6846f4a7ebee82075d0b1dcc0cd710653f558d66e78e52c9d",
                            "6c4be57e849117e1b7e2a4fd5e8ce3887aaa5cbc33caa2656a6cd06d019dc3cd"),
    ("phase-of-k", True): ("9c28b214f4b9519eb6d9e1a70ac7201c35d63510ca02b18599e721e6c741589b",
                           "379a1ca7478c594c31fbea7a6bc62daa62f22722438ab8f8988a322ac17fc6ef"),
    ("qpt", False): ("b94ceb08119e7fd6a6bb7fc230d9637e3ae42b694383f87558b1c28d67c43127",
                     "c9a0ad9bee81cf2819907eed613a22fce3a3ac8d2ba11ce30384b00499be35e9"),
    ("qpt", True): ("3883f1df262718b31a57dc70073ff522cd9ce6c555373626fac3b11f72243f07",
                    "155dca3655028513d5192e21b9190fe2796055cc3d6a79c7b8cc2ad8a8e8048b"),
}

# sampled qpt --ideal on the README config: all four inputs take the projected
# maximum-likelihood path (9 multiplier steps each). Its chi is not PSD
# (psd_deviation 0.001), so this digest moves on purpose once the estimator
# returns a physical chi by construction (ROADMAP item 1).
GOLDEN_QPT_IDEAL = ("08b687798ad975150fae19ace78aaa6a893ddbd990bdef56882ec6b9c3bbf0b4",
                    "d269eee259c21f8d89294cc4cc0190b9790aefb99d020a2c90cbbbd5e75d9113")

# calibrate-noise --exact-probabilities on the README config: (sha256 of
# report.json, sha256 of counts.csv, which is the header alone)
GOLDEN_CALIBRATE = ("1bc28f1539222b305b7dec128577faf65a827c4cdb6adc0ba123cec149b83cb3",
                    "af7af5b13c9339691b6e8dea0b63a65a53984044ca2a5c1659df02fc9b00a58e")

# sha256 of qpt's chi.json on the README config, keyed by the extra flag:
# sampled, exact, and sampled --ideal. The --ideal digest moves with
# GOLDEN_QPT_IDEAL's when chi becomes physical by construction (ROADMAP item 1).
GOLDEN_CHI = {
    None: "a8a11fbe0014011758fc01017f9f6431722cc49b39abf22a200509bab69fbafd",
    "--exact-probabilities": "4836a18100897b78b24983f6cb7d0e8632036d024c9fca6985da98df0135610b",
    "--ideal": "a7ad13f8eee30767dd7a40a52dc84f0d76377180069e9c1e585fd8c682f5ae0a",
}


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run(tmp_path, argv):
    """The output directory of the CLI run argv on the README config."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(README_CONFIG))
    out = tmp_path / "out"
    assert main(argv + ["--config", str(cfg), "--output", str(out)]) == 0
    return out


def _digests(tmp_path, argv, names=("report.json", "counts.csv")):
    """sha256 of each named output of the CLI run argv on the README config."""
    out = _run(tmp_path, argv)
    return tuple(_sha(out / name) for name in names)


def _argv(experiment, exact):
    return [experiment] + ["--exact-probabilities"] * exact


def _chi_argv(flag):
    return ["qpt"] + [flag] * bool(flag)


@pytest.mark.parametrize("experiment,exact", sorted(GOLDEN))
def test_golden_outputs(tmp_path, experiment, exact):
    assert _digests(tmp_path, _argv(experiment, exact)) == GOLDEN[experiment, exact], MISMATCH


# each experiment's shot-noise errors, the derived keys named `_err`: a sampled
# report holds exactly these, an exact one none.  estimate-k's `stderr` is the
# one error not named `_err`, so both modes report it
ERR_KEYS = {
    "phase-scan": {"phi0_err", "d1_fringe_visibility_err", "d2_fringe_visibility_err"},
    "case-compare": {"case_I_D1_err", "case_I_D2_err", "case_II_D1_err", "case_II_D2_err"},
    "qpt": set(),
    "estimate-k": set(),
    "phase-of-k": {"arg_k_err"},
}


@pytest.mark.parametrize("experiment,exact", sorted(GOLDEN))
def test_readme_config_error_keys(tmp_path, experiment, exact):
    report = json.loads((_run(tmp_path, _argv(experiment, exact)) / "report.json").read_text())
    derived = report["derived"]
    assert {key for key in derived if key.endswith("_err")} == (
        set() if exact else ERR_KEYS[experiment])
    assert ("stderr" in derived) == (experiment == "estimate-k")


def test_golden_qpt_ideal_projected_mle(tmp_path):
    assert _digests(tmp_path, ["qpt", "--ideal"]) == GOLDEN_QPT_IDEAL, MISMATCH


def test_golden_calibrate_noise(tmp_path):
    assert _digests(tmp_path, ["calibrate-noise", "--exact-probabilities"]) == \
        GOLDEN_CALIBRATE, MISMATCH


@pytest.mark.parametrize("flag", list(GOLDEN_CHI), ids=["sampled", "exact", "ideal"])
def test_golden_qpt_chi(tmp_path, flag):
    assert _digests(tmp_path, _chi_argv(flag), ("chi.json",)) == (GOLDEN_CHI[flag],), MISMATCH


# qst_mle(counts).rho on the projected path, recorded before the closed-form pair
# roots replaced the nested Newton loop: (counts, rho as [[re, im], ...] rows)
PROJECTED_MLE_STATES = [
    ({"H": 5102, "V": 4875, "D": 1, "A": 9913, "R": 5064, "L": 4965},
     [[[0.5103276829948348, 0.0], [-0.4998732274893662, 0.004482789680830547]],
      [[-0.4998732274893662, -0.004482789680830547], [0.4896723170051652, 0.0]]]),
    ({"H": 10016, "V": 44, "D": 4224, "A": 5672, "R": 4929, "L": 5026},
     [[[0.99512146362034, 0.0], [-0.06952216809801924, -0.004626489533449297]],
      [[-0.06952216809801924, 0.004626489533449297], [0.0048785363796600145, 0.0]]]),
    ({"H": 9859, "V": 1, "D": 5098, "A": 4815, "R": 4884, "L": 4913},
     [[[0.9998482334696401, 0.0], [0.012252961841787232, -0.0012682363280519728]],
      [[0.012252961841787232, 0.0012682363280519728], [0.00015176653035980925, 0.0]]]),
    ({"H": 10025, "V": 29, "D": 4232, "A": 5624, "R": 5001, "L": 4956},
     [[[0.9960947404522829, 0.0], [-0.062338065237528155, 0.001993519005118408]],
      [[-0.062338065237528155, -0.001993519005118408], [0.003905259547717088, 0.0]]]),
    ({"H": 4389, "V": 5613, "D": 27, "A": 9984, "R": 5049, "L": 4979},
     [[[0.4434156131711391, 0.0], [-0.49677742059133584, 0.003225144620141729]],
      [[-0.49677742059133584, -0.003225144620141729], [0.5565843868288609, 0.0]]]),
    ({"H": 51, "V": 9837, "D": 5688, "A": 4142, "R": 4894, "L": 4969},
     [[[0.005689441182108346, 0.0], [0.07512589876982395, -0.0036291562614240973]],
      [[0.07512589876982395, 0.0036291562614240973], [0.9943105588178917, 0.0]]]),
    ({"H": 9703, "V": 153, "D": 6307, "A": 3735, "R": 5016, "L": 4832},
     [[[0.9838515819777943, 0.0], [0.12571323363281328, 0.00915584551898435]],
      [[0.12571323363281328, -0.00915584551898435], [0.01614841802220568, 0.0]]]),
    ({"H": 9813, "V": 1, "D": 4911, "A": 4619, "R": 4720, "L": 4774},
     [[[0.9998320631090087, 0.0], [0.012740620900599737, -0.002363317003513138]],
      [[0.012740620900599737, 0.002363317003513138], [0.0001679368909912604, 0.0]]]),
    ({"H": 197, "V": 9843, "D": 6331, "A": 3472, "R": 4962, "L": 4868},
     [[[0.020670838495335686, 0.0], [0.14220374901876473, 0.004652815947750414]],
      [[0.14220374901876473, -0.004652815947750414], [0.9793291615046643, 0.0]]]),
    ({"H": 9792, "V": 186, "D": 3521, "A": 6376, "R": 4975, "L": 4912},
     [[[0.9800630969103654, 0.0], [-0.13974957825780462, 0.003078694787541611]],
      [[-0.13974957825780462, -0.003078694787541611], [0.019936903089634583, 0.0]]]),
    ({"H": 1474, "V": 7954, "D": 8127, "A": 1269, "R": 4582, "L": 4704},
     [[[0.15730720508330392, 0.0], [0.3640315335389661, -0.006533827473377334]],
      [[0.3640315335389661, 0.006533827473377334], [0.842692794916696, 0.0]]]),
    ({"H": 7984, "V": 1391, "D": 1215, "A": 8029, "R": 4668, "L": 4855},
     [[[0.8448018617197482, 0.0], [-0.36196969109938243, -0.0094667248831536]],
      [[-0.36196969109938243, 0.0094667248831536], [0.15519813828025175, 0.0]]]),
    ({"H": 1277, "V": 7950, "D": 1432, "A": 7928, "R": 4740, "L": 4734},
     [[[0.1392143891309761, 0.0], [-0.3461699635067656, 0.00031520721737315904]],
      [[-0.3461699635067656, -0.00031520721737315904], [0.8607856108690239, 0.0]]]),
    ({"H": 501, "V": 9560, "D": 7182, "A": 2793, "R": 4929, "L": 4991},
     [[[0.05040040169898963, 0.0], [0.21874773861655317, -0.003102911167636779]],
      [[0.21874773861655317, 0.003102911167636779], [0.9495995983010104, 0.0]]]),
    ({"H": 0, "V": 10210, "D": 4916, "A": 4952, "R": 4927, "L": 4922},
     [[[1.4731503950593527e-06, 0.0], [-0.0012021644529963138, 0.0001671791041608918]],
      [[-0.0012021644529963138, -0.0001671791041608918], [0.999998526849605, 0.0]]]),
    ({"H": 9992, "V": 0, "D": 5056, "A": 4967, "R": 5038, "L": 5018},
     [[[0.9999907796428649, 0.0], [0.002962920990289884, 0.000664357829346651]],
      [[0.002962920990289884, -0.000664357829346651], [9.22035713507574e-06, 0.0]]]),
    ({"H": 4931, "V": 5007, "D": 0, "A": 9872, "R": 5033, "L": 4973},
     [[[0.497445211119856, 0.0], [-0.4999894418700428, 0.0020077530378561086]],
      [[-0.4999894418700428, -0.0020077530378561086], [0.5025547888801439, 0.0]]]),
    ({"H": 100, "V": 0, "D": 90, "A": 10, "R": 50, "L": 50},
     [[[0.9176554540187152, 0.0], [0.2748889261654986, 0.0]],
      [[0.2748889261654986, 0.0], [0.08234454598128482, 0.0]]]),
    ({"H": 50, "V": 0, "D": 50, "A": 0, "R": 30, "L": 20},
     [[[0.8514250989175689, 0.0], [0.3514250989175689, 0.05477955550708565]],
      [[0.3514250989175689, -0.05477955550708565], [0.1485749010824311, 0.0]]]),
    ({"H": 0, "V": 7, "D": 3, "A": 4, "R": 0, "L": 2},
     [[[0.037892673062968174, 0.0], [-0.045858774018780725, -0.18534775757102004]],
      [[-0.045858774018780725, 0.18534775757102004], [0.9621073269370318, 0.0]]]),
    ({"H": 1, "V": 0, "D": 0, "A": 1, "R": 1, "L": 0},
     [[[0.7886751345948129, 0.0], [-0.2886751345948129, 0.2886751345948129]],
      [[-0.2886751345948129, -0.2886751345948129], [0.21132486540518708, 0.0]]]),
]


@pytest.mark.parametrize("counts,rho", PROJECTED_MLE_STATES)
def test_projected_mle_states(counts, rho):
    res = qst_mle(counts)
    assert res.iterations > 0  # the linear-inversion state is unphysical
    np.testing.assert_allclose(res.rho, np.array(rho) @ [1.0, 1j], rtol=0, atol=1e-13,
                               err_msg=MISMATCH)


def _print_current_digests():
    """Print GOLDEN, GOLDEN_QPT_IDEAL, GOLDEN_CALIBRATE and GOLDEN_CHI as the code under test
    makes them, in this file's syntax, for re-recording a digest on purpose."""
    import contextlib
    import io
    import tempfile
    from pathlib import Path

    def digests(argv, names=("report.json", "counts.csv")):
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
            return _digests(Path(tmp), argv, names)

    lines = ["GOLDEN = {"]
    for experiment, exact in GOLDEN:
        head = f'    ("{experiment}", {exact}): ('
        report, csv = digests(_argv(experiment, exact))
        lines += [f'{head}"{report}",', f'{" " * len(head)}"{csv}"),']
    lines.append("}")
    for head, argv in (("GOLDEN_QPT_IDEAL = (", ["qpt", "--ideal"]),
                       ("GOLDEN_CALIBRATE = (", ["calibrate-noise", "--exact-probabilities"])):
        report, csv = digests(argv)
        lines += ["", f'{head}"{report}",', f'{" " * len(head)}"{csv}")']
    lines += ["", "GOLDEN_CHI = {"]
    for flag in GOLDEN_CHI:
        key = "None" if flag is None else f'"{flag}"'
        lines.append(f'    {key}: "{digests(_chi_argv(flag), ("chi.json",))[0]}",')
    print("\n".join(lines + ["}"]))


if __name__ == "__main__":
    _print_current_digests()
