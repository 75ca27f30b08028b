"""In-process A/B timing of two checkouts on one benchmark workload.

    python3 tests/ab.py BASE CHANGE --workload qpt-mc --seed 1 --ops 1200

BASE and CHANGE are the roots of two checkouts.  Each one's
``src/pauli_interference`` is copied under a package name of its own
(``ab_base``, ``ab_change``), so that both load in one interpreter.  The ops
of a ``perfbench`` workload (made by this checkout's ``perfbench/workloads.py``)
then run on the two sides alternately, the order flipping from op to op so
that neither side always runs second.  Each op is one ``cli.main(argv)`` call
with its output files removed first, as ``perfbench/run.py`` times it.  For
every op both sides must write the same ``report.json``, ``counts.csv`` and
``chi.json`` bytes (or both leave a file out), print the same stdout and
return the same exit code; the script stops at the first op where they do
not.  It prints each side's p50 and p95 op time and the change/base ratio of
each.

Machine drift hits both sides of one process alike, so this resolves changes
of a few percent, where alternating harness runs resolve about 15%.  Give the
same checkout twice for an A/A run: its ratio is the noise floor.  It supports
a speed claim made with ``perfbench/run.py``; it does not replace it.

pytest does not collect this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import shutil
import statistics
import sys
import tempfile
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS, generate  # noqa: E402

OUTPUT_FILES = ("report.json", "counts.csv", "chi.json")
SIDES = ("base", "change")
WARMUP_OPS = 10


def load_cli(checkout: Path, name: str, into: Path):
    """Import ``checkout``'s package, copied under ``into`` as ``name``; return its cli."""
    shutil.copytree(checkout / "src" / "pauli_interference", into / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(f"{name}.cli")


def run_op(cli, argv: list[str], out: Path) -> tuple[float, tuple]:
    """One timed op: its seconds, and its exit code, stdout and output bytes."""
    for name in OUTPUT_FILES:
        (out / name).unlink(missing_ok=True)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()), \
            warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
    files = tuple((out / name).read_bytes() if (out / name).is_file() else None
                  for name in OUTPUT_FILES)
    return elapsed, (code, sink.getvalue(), *files)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base", type=Path, help="root of the base checkout")
    p.add_argument("change", type=Path, help="root of the changed checkout")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--ops", type=int, default=1200, help="timed ops per side")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        sys.path.insert(0, str(tmp / "packages"))
        clis = {side: load_cli(root, f"ab_{side}", tmp / "packages")
                for side, root in zip(SIDES, (args.base, args.change))}
        outs = {side: tmp / f"out-{side}" for side in SIDES}
        for out in outs.values():
            out.mkdir()
        ops = generate(args.workload, args.seed, tmp / "inputs")
        times = {side: [] for side in SIDES}
        for i in range(WARMUP_OPS + args.ops):
            op = ops[i % len(ops)]
            results = {}
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                elapsed, results[side] = run_op(clis[side], op.argv(outs[side]), outs[side])
                if i >= WARMUP_OPS:
                    times[side].append(elapsed)
            if results["base"] != results["change"]:
                print(f"ab: op {i} ({op.experiment}, seed {op.seed}): the two sides' "
                      f"outputs differ", file=sys.stderr)
                return 1
    stats = {side: (1e3 * statistics.median(t),
                    1e3 * statistics.quantiles(t, n=100, method="inclusive")[94])
             for side, t in times.items()}
    print(f"ab {args.workload} seed {args.seed}: {args.ops} ops per side, outputs identical")
    for side in SIDES:
        print(f"  {side:8s} p50 {stats[side][0]:8.4f} ms  p95 {stats[side][1]:8.4f} ms")
    print(f"  change/base  p50 {stats['change'][0] / stats['base'][0]:.4f}"
          f"  p95 {stats['change'][1] / stats['base'][1]:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
