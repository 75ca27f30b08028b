#!/usr/bin/env python3
"""Self-check of the benchmark. Run from the root of a checkout:

    python3 perfbench/selfcheck.py

It checks that:

1. a very short run of every workload, untraced and traced, passes the
   correctness gate and emits exactly the metrics BENCHMARK.json names;
2. the runner counts as failed an op whose report was corrupted (``k_abs``
   shifted by 0.1), and an op whose ``cli.main`` raised;
3. in a directory holding only BENCHMARK.json and the benchmark, the
   benchmark exits non-zero without printing a result.

Exits 0 when all hold; raises on the first that does not. Takes about ten seconds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run
import workloads

SHORT_PASS_OPS = 10


def expect(ok: bool, what) -> None:
    """Like assert, but kept under ``python -O``."""
    if not ok:
        raise AssertionError(what)


def check_short_runs(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (False, True):
            scratch = run.WORK / f"selfcheck-{workload}-{int(trace)}"
            try:
                result, _ = run.run_benchmark(workload, 1, 0.0, trace, scratch,
                                              n_ops=SHORT_PASS_OPS, setup_repeats=1)
            finally:
                shutil.rmtree(scratch, ignore_errors=True)
            want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == want, f"{workload} trace={trace}: metrics {got} != {want}")
            expect(all(math.isfinite(m["value"]) for m in result["metrics"].values()),
                   f"{workload} trace={trace}: non-finite metric in {result['metrics']}")
            expect(result["attempted"] >= SHORT_PASS_OPS, result)
            expect(result["correct"], f"{workload} trace={trace}: gate failed")
            if workload != "qpt-mc":
                expect(result["failed"] == 0, f"{workload} trace={trace}: {result}")
            print(f"ok: {workload} trace={int(trace)} emits {len(got)} metrics")


class _Faulty:
    """Stands in for the cli module: runs the real main, then breaks its outcome."""

    def __init__(self, cli, fault):
        self._cli, self._fault = cli, fault

    def main(self, argv):
        rc = self._cli.main(argv)
        self._fault(argv[argv.index("--output") + 1])
        return rc


def check_failures_counted() -> None:
    pkg = run.import_package()
    scratch = run.WORK / "selfcheck-gate"
    try:
        ops = workloads.generate("exact", 1, scratch / "inputs", 5)
        op = next(op for op in ops if op.experiment == "estimate-k")
        out = scratch / "out"
        out.mkdir(parents=True)

        clean = run.Window()
        run.run_op(pkg.cli, op, out, clean)
        expect(clean.failed == 0, clean.failure_kinds)

        def shift_k(out_dir):
            path = Path(out_dir) / "report.json"
            report = json.loads(path.read_text())
            report["derived"]["k_abs"] += 0.1
            path.write_text(json.dumps(report))

        corrupted = run.Window()
        run.run_op(_Faulty(pkg.cli, shift_k), op, out, corrupted)
        expect((corrupted.failed, corrupted.incorrect) == (1, 1), corrupted.failure_kinds)
        print(f"ok: corrupted report counted as failed: {list(corrupted.failure_kinds)[0]}")

        def crash(out_dir):
            raise TypeError("injected")

        crashed = run.Window()
        run.run_op(_Faulty(pkg.cli, crash), op, out, crashed)
        expect((crashed.failed, crashed.incorrect) == (1, 0), crashed.failure_kinds)
        print("ok: exception escaping cli.main counted as failed")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def check_refuses_without_source() -> None:
    bare = run.WORK / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        spec = json.loads((bare / "BENCHMARK.json").read_text())
        proc = subprocess.run(
            [*spec["command"], "--workload", spec["workloads"][0]["name"], "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        expect(proc.returncode != 0 and '"correct"' not in proc.stdout, proc)
        print(f"ok: without the package source it exits {proc.returncode}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_short_runs(spec)
    check_failures_counted()
    check_refuses_without_source()
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
