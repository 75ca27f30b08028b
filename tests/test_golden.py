"""Golden outputs: SHA-256 of seeded report.json and counts.csv, and the
maximum-likelihood states of fixed count sets.

The digests pin the byte-identical output guarantee across refactors, not
only between two runs of the same code. They cover the README's example
config for every experiment in sampled and exact modes. Sampled qpt's
digest does not pin the maximum-likelihood fit: for the README config all
four QPT inputs have a physical linear-inversion state, which qst_mle
returns unchanged. The projected path (a Bloch vector outside the unit
ball) is pinned by the states of PROJECTED_MLE_STATES instead.
calibrate-noise is left out because it runs hundreds of QPTs. Recorded with
Python 3.11, numpy 2.4 on x86-64; another numpy/BLAS build may move the last
digit of a float and needs new digests.
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
    ("qpt", False): ("b0bd1a777b679a16366bf14e6916bbd58031b6732557960f26fdf31af341c232",
                     "bccd727c4be2696b2aed86a2fffbcf4a1fe109dd17424ecfd835d2717243a414"),
    ("qpt", True): ("3ba31926a6486ad8599a4a695a271358d3174b5840ac9d4057257d4465a28d4a",
                    "155dca3655028513d5192e21b9190fe2796055cc3d6a79c7b8cc2ad8a8e8048b"),
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
    np.testing.assert_allclose(res.rho, np.array(rho) @ [1.0, 1j], rtol=0, atol=1e-13)
