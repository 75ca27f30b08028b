#!/usr/bin/env python3
"""Benchmark of the pauli-interference pipeline through its CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fringe --seed 1 --seconds 25 --trace 0

Each op is one in-process ``pauli_interference.cli.main(argv)`` call on
inputs generated from ``--seed`` (see workloads.py), sent as a closed loop by
one client with no worker threads. Every op's outputs go through the
correctness gate (gate.py). ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs an untraced and then a traced window and reports the
per-layer metrics (tracing.py) and the tracing overhead. The last line of
stdout is the JSON result; the lines before it give every metric with its
unit, the failed share and the run's provenance. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import gate
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

SETUP_REPEATS = 3
WARMUP_OPS = 10
# a window ends after the first whole pass that reaches --seconds, or
# mid-pass after this many seconds if the program has become very slow,
# so that a traced run (two windows) still ends within three minutes
WINDOW_CAP_S = 60.0
# seeds at or above this are held out: never used while a change is written
HELD_OUT_SEEDS_FROM = 10_000


@dataclass
class Window:
    latencies: list = field(default_factory=list)
    wall: float = 0.0
    failed: int = 0
    incorrect: int = 0
    failure_kinds: Counter = field(default_factory=Counter)
    clamped: int = 0
    bytes_written: int = 0

    def p50_ms(self) -> float:
        return 1e3 * statistics.median(self.latencies)

    def p95_ms(self) -> float:
        return 1e3 * statistics.quantiles(self.latencies, n=100, method="inclusive")[94]


def measure_setup(workload: str, seed: int, scratch: Path, repeats: int) -> float:
    """Median wall time for a fresh interpreter to import the package and make the inputs."""
    code = ("import sys; from pathlib import Path; sys.path[:0] = sys.argv[1:3]; "
            "import pauli_interference.cli, workloads; "
            "workloads.generate(sys.argv[3], int(sys.argv[4]), Path(sys.argv[5]))")
    times = []
    for k in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, str(SRC), str(HERE), workload,
                        str(seed), str(scratch / f"setup{k}")], check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_op(cli, op: workloads.Op, out_dir: Path, window: Window) -> None:
    for name in ("report.json", "counts.csv", "chi.json"):
        (out_dir / name).unlink(missing_ok=True)
    argv = op.argv(out_dir)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
            crash = None
        except (Exception, SystemExit) as exc:  # any escape from main is a failed op
            rc, crash = None, exc
        window.latencies.append(time.perf_counter() - start)
    window.clamped += sum("clamped" in str(w.message) for w in caught)
    window.bytes_written += sum(p.stat().st_size for p in out_dir.iterdir())

    if crash is not None:
        kind = f"{op.experiment}: raised {type(crash).__name__}: {crash}"
    elif rc != 0:
        kind = f"{op.experiment}: exit {rc}: {sink.getvalue().strip()[-200:]}"
    else:
        kind = gate.check(op, out_dir)
        if kind is not None:
            window.incorrect += 1
    if kind is not None:
        window.failed += 1
        window.failure_kinds[kind] += 1


def run_window(cli, ops, out_dir: Path, seconds: float, tracer=None) -> Window:
    """Repeat whole passes over ``ops`` until ``seconds`` have gone by."""
    window = Window()
    start = time.perf_counter()
    cap = start + WINDOW_CAP_S
    while True:
        for op in ops:
            if tracer is not None:
                tracer.op_id = len(window.latencies)
            run_op(cli, op, out_dir, window)
            if time.perf_counter() > cap:
                break
        if time.perf_counter() - start >= seconds:
            break
    window.wall = time.perf_counter() - start
    return window


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(workload: str, seed: int, trace: bool, n_ops: int, attempted: int) -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(), "workload": workload, "seed": seed,
            "held_out_seed": seed >= HELD_OUT_SEEDS_FROM, "ops_per_pass": n_ops,
            "ops_attempted": attempted, "trace": trace}


def import_package():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import pauli_interference
    import pauli_interference.cli
    if not Path(pauli_interference.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"pauli_interference imported from {pauli_interference.__file__}, "
                          f"not from {SRC}")
    return pauli_interference


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, scratch: Path,
                  n_ops: int = workloads.PASS_OPS,
                  setup_repeats: int = SETUP_REPEATS) -> tuple[dict, dict]:
    """One benchmark run; returns (result, details) where result is the JSON line."""
    setup_s = None if trace else measure_setup(workload, seed, scratch, setup_repeats)
    pkg = import_package()
    ops = workloads.generate(workload, seed, scratch / "inputs", n_ops)
    out_dir = scratch / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    run_window(pkg.cli, ops[:WARMUP_OPS], out_dir, 0.0)

    if not trace:
        w = run_window(pkg.cli, ops, out_dir, seconds)
        windows = [w]
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (len(w.latencies) / w.wall, "1/s"),
            "op_p50_ms": (w.p50_ms(), "ms"),
            "op_p95_ms": (w.p95_ms(), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        plain = run_window(pkg.cli, ops, out_dir, seconds / 2)
        tracer = tracing.Tracer()
        with tracer.installed(pkg):
            w = run_window(pkg.cli, ops, out_dir, seconds / 2, tracer)
        windows = [plain, w]
        tracer.counts["tomography.fidelity_clamped"] = w.clamped
        tracer.counts["cli.bytes_written"] = w.bytes_written
        metrics = tracer.layer_metrics(len(w.latencies))
        metrics["trace.overhead_ratio"] = (w.p50_ms() / plain.p50_ms(), "ratio")
        tracer.write_spans(WORK / "spans" / f"{workload}-seed{seed}.json")

    attempted = sum(len(x.latencies) for x in windows)
    failed = sum(x.failed for x in windows)
    result = {"correct": all(x.incorrect == 0 for x in windows),
              "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    kinds = sum((x.failure_kinds for x in windows), Counter())
    details = {"failed_ratio": failed / attempted, "samples": len(w.latencies),
               "failure_kinds": dict(kinds.most_common(10)),
               "provenance": provenance(workload, seed, trace, len(ops), attempted)}
    return result, details


def print_report(workload: str, result: dict, details: dict) -> None:
    print(f"perfbench {workload}: {details['samples']} timed ops")
    for name, m in result["metrics"].items():
        print(f"  {name:48s} {m['value']:14.6g} {m['unit']}")
    print(f"  {'failed_ratio':48s} {details['failed_ratio']:14.6g} ratio "
          f"({result['failed']} of {result['attempted']})")
    for kind, n in details["failure_kinds"].items():
        print(f"    failed x{n}: {kind}")
    print(json.dumps({"provenance": details["provenance"]}))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "pauli_interference" / "cli.py").is_file():
        print(f"perfbench: no package source at {SRC}/pauli_interference; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    scratch = WORK / f"{args.workload}-{os.getpid()}"
    try:
        result, details = run_benchmark(args.workload, args.seed, args.seconds,
                                        bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print_report(args.workload, result, details)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
