"""Seeded inputs for the benchmark workloads.

Every op is one ``pauli_interference.cli.main(argv)`` call. Its argv and its
config file are a pure function of the workload name, the workload seed and
the op index. Only the standard library is used here, so the inputs do not
shift when numpy or the package itself changes.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

# One pass of a workload is PASS_OPS ops; a run repeats whole passes, so the
# ops a run attempts (and hence its failed share) are fixed by the seed.
# 400 ops leave 20 samples beyond p95, and enough QPT runs that the
# seed-dependent L-BFGS-B failures (under 1% of runs) show on most seeds.
PASS_OPS = 400

FRINGE_EXPERIMENTS = ("phase-scan", "case-compare", "estimate-k", "phase-of-k")
EXACT_EXPERIMENTS = ("phase-scan", "case-compare", "qpt", "estimate-k", "phase-of-k")
# waveplate_angle_sigma in the order calibrate_angle_noise visits it
QPT_SIGMA_LADDER = (0.05, 0.1, 0.2, 0.15)

WORKLOADS = ("fringe", "qpt-mc", "exact")


@dataclass(frozen=True)
class Op:
    experiment: str
    seed: int
    exact: bool
    noise: dict
    config_path: Path

    def argv(self, out_dir: Path) -> list[str]:
        argv = [self.experiment, "--config", str(self.config_path),
                "--seed", str(self.seed), "--output", str(out_dir)]
        if self.exact:
            argv.append("--exact-probabilities")
        return argv


def derive_seed(master_seed: int, label: str, index: int = 0) -> int:
    """The package's per-setting seed rule, restated so inputs do not import it."""
    digest = hashlib.sha256(f"{master_seed}:{label}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _fringe_profile(rng: random.Random) -> dict:
    """A realistic sampled-mode profile; plate sigma 0 keeps the closed forms exact."""
    return {
        "noise": {
            "phase_offset_error": rng.uniform(-1.0, 1.0),
            "visibility": rng.uniform(0.85, 1.0),
            "waveplate_angle_sigma": 0.0,
            "detector": {"efficiency": rng.uniform(0.5, 1.0),
                         "dark_rate": rng.uniform(0.0, 50.0)},
            "source": {"pair_rate": rng.uniform(1.0e4, 1.0e5)},
        },
        "input_state": {"hwp": rng.uniform(0.0, math.pi),
                        "qwp": rng.uniform(0.0, math.pi)},
    }


def generate(workload: str, seed: int, directory: Path, n_ops: int = PASS_OPS) -> list[Op]:
    """Write one config file per op under ``directory`` and return the ops."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    ops = []
    for i in range(n_ops):
        if workload == "qpt-mc":
            config = {"noise": {"waveplate_angle_sigma":
                                QPT_SIGMA_LADDER[i % len(QPT_SIGMA_LADDER)]}}
            experiment, op_seed, exact = "qpt", derive_seed(seed, "fidelity-seed", i), False
        else:
            kinds = FRINGE_EXPERIMENTS if workload == "fringe" else EXACT_EXPERIMENTS
            config = _fringe_profile(rng)
            op_seed = rng.getrandbits(32)
            experiment, exact = kinds[i % len(kinds)], workload == "exact"
        path = directory / f"op{i:04d}.json"
        path.write_text(json.dumps(config))
        ops.append(Op(experiment, op_seed, exact, config["noise"], path))
    return ops
