"""Output sweep: run the CLI over a fixed set of inputs and print a digest line per run.

    python3 tests/sweep.py > sweep.txt

Each line is ``id<TAB>argv<TAB>exit code<TAB>`` and the SHA-256 of
``report.json``, ``counts.csv``, ``chi.json``, stdout and stderr (``-`` for a
file the run did not write).  Every run is one in-process
``pauli_interference.cli.main(argv)`` call on the package under ``src/``
next to this file; a run that raises is recorded with exit code 1 and its
exception type and message as stderr, and warnings are appended to stderr.
Temporary paths are written as ``$TMP``, so running the script in two
checkouts and diffing the output shows every run whose files, text or exit
code differ.  The runs:

- the README config x the five experiments x {sampled,
  ``--exact-probabilities``, ``--ideal``, both};
- the first 100 ops of each ``perfbench`` workload at seeds 3 and 4;
- 300 seeded weak-fringe profiles (pair rate 3-300/s, visibility in [0, 1],
  efficiency 0.05-1, dark rate up to 30/s, a phase offset) x {``phase-scan``,
  ``estimate-k``, ``phase-of-k``};
- malformed config files, each of which should exit 2.

pytest does not collect this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from pauli_interference import cli  # noqa: E402
from perfbench.workloads import generate  # noqa: E402

EXPERIMENTS = ("phase-scan", "case-compare", "qpt", "estimate-k", "phase-of-k")
README_CONFIG = {
    "noise": {
        "waveplate_angle_sigma": 0.05, "phase_offset_error": 0.1, "visibility": 0.95,
        "master_seed": 7, "detector": {"efficiency": 0.8, "dark_rate": 10.0},
        "source": {"pair_rate": 40000.0, "integration_time": 1.0},
    },
    "input_state": {"hwp": 0.3927, "qwp": 0.0},
}
MODES = {"sampled": [], "exact": ["--exact-probabilities"], "ideal": ["--ideal"],
         "ideal-exact": ["--ideal", "--exact-probabilities"]}
WORKLOAD_SEEDS = (3, 4)
WORKLOAD_OPS = 100
N_WEAK = 300
WEAK_EXPERIMENTS = ("phase-scan", "estimate-k", "phase-of-k")


def _bad_configs() -> dict[str, bytes]:
    """Config files the CLI must refuse with exit 2: undecodable bytes, JSON too
    deep to decode, and each section given as something other than an object or null."""
    configs = {"non-utf8": b"\xff\xfe{}", "deep-nesting": b"[" * 100_000 + b"]" * 100_000}
    for path in (("noise",), ("noise", "detector"), ("noise", "source"), ("input_state",)):
        for kind, value in (("pairs", [["visibility", 0.5], ["master_seed", 3]]),
                            ("empty-array", []), ("string", "ab"), ("number", 5)):
            for key in reversed(path):
                value = {key: value}
            configs[f"{'-'.join(path)}-{kind}"] = json.dumps(value).encode()
    return configs


def _weak_config(rng: random.Random) -> dict:
    return {"noise": {
        "phase_offset_error": rng.uniform(-1.0, 1.0),
        "visibility": rng.uniform(0.0, 1.0),
        "master_seed": rng.getrandbits(32),
        "detector": {"efficiency": rng.uniform(0.05, 1.0), "dark_rate": rng.uniform(0.0, 30.0)},
        "source": {"pair_rate": math.exp(rng.uniform(math.log(3.0), math.log(300.0)))},
    }}


def runs(tmp: Path, out: Path):
    """Yield (id, argv) for every run, writing the config files under tmp and
    the outputs to out."""
    output = ["--output", str(out)]
    readme = tmp / "readme.json"
    readme.write_text(json.dumps(README_CONFIG))
    for experiment in EXPERIMENTS:
        for mode, flags in MODES.items():
            yield f"readme:{experiment}:{mode}", [experiment, "--config", str(readme),
                                                  *flags, *output]
    for workload in ("fringe", "qpt-mc", "exact"):
        for seed in WORKLOAD_SEEDS:
            ops = generate(workload, seed, tmp / f"{workload}-{seed}", n_ops=WORKLOAD_OPS)
            for i, op in enumerate(ops):
                yield f"{workload}:{seed}:{i:03d}", op.argv(out)
    rng = random.Random("weak-fringe")
    for i in range(N_WEAK):
        path = tmp / f"weak{i:03d}.json"
        path.write_text(json.dumps(_weak_config(rng)))
        for experiment in WEAK_EXPERIMENTS:
            yield f"weak:{i:03d}:{experiment}", [experiment, "--config", str(path), *output]
    for name, data in _bad_configs().items():
        path = tmp / f"bad-{name}.json"
        path.write_bytes(data)
        yield f"config:{name}", ["case-compare", "--config", str(path),
                                 "--exact-probabilities", *output]


def _digest(data: bytes | None) -> str:
    return "-" if data is None else hashlib.sha256(data).hexdigest()


def run_one(argv: list[str], out: Path, tmp: Path) -> list[str]:
    """One CLI run's exit code and the digests of everything it wrote."""
    for name in ("report.json", "counts.csv", "chi.json"):
        (out / name).unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except Exception as exc:  # a traceback is an outcome to record, not to stop on
            code = 1
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    err = stderr.getvalue() + "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    files = [(out / name).read_bytes() if (out / name).exists() else None
             for name in ("report.json", "counts.csv", "chi.json")]
    texts = [t.replace(str(tmp), "$TMP").encode() for t in (stdout.getvalue(), err)]
    return [str(code)] + [_digest(d) for d in files + texts]


def main() -> int:
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        out = tmp / "out"
        out.mkdir()
        for run_id, argv in runs(tmp, out):
            fields = run_one(argv, out, tmp)
            shown = " ".join(argv).replace(str(tmp), "$TMP")
            print("\t".join([run_id, shown] + fields), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
