"""Per-layer tracing from outside the package.

While installed, a Tracer replaces public functions of the package modules
with wrappers, at the module attribute where the caller looks each one up,
and puts the originals back on exit. A span is ``(name, start, end, parent,
op_id)``; spans stay in memory until the run writes them out. Functions too
small to time without distorting them (``waveplate_matrix``,
``port_operator``, the MLE objective) are only counted.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

# the experiment functions cli calls, one per op
ENTRY_POINTS = ("run_phase_scan", "run_case_comparison", "run_commutator_qpt",
                "estimate_k_magnitude", "run_phase_of_k")
# spans reported as both calls/op and busy ms/op
SPANS_WITH_CALLS = tuple(f"experiments.{fn}" for fn in ENTRY_POINTS) + (
    "optics.detection_probability", "optics.conditional_output_state",
    "photon_stats.sample_counts", "photon_stats.derive_seed", "photon_stats.fit_sinusoid",
    "tomography.qst_mle", "tomography.qpt_reconstruct", "tomography.qst_linear",
)
SPANS_BUSY_ONLY = ("cli.main", "experiments.to_json", "experiments.counts_csv",
                   "photon_stats.calibrate_phase")
# counters reported per op, with their unit
COUNTERS = {
    "optics.port_operator.calls": "count",
    "optics.waveplate_matrix.calls": "count",
    "experiments.phase_scans_per_op": "count",
    "tomography.qst_mle.nonconverged": "count",
    "tomography.qst_mle.iterations": "count",
    "tomography.nll_evals": "count",
    "tomography.fidelity_clamped": "count",
    "cli.bytes_written": "B",
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._patched: list = []

    def span(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op_id)
        return traced

    def counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, owners, attr: str, wrapper) -> None:
        for owner in owners:
            self._patched.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    @contextlib.contextmanager
    def installed(self, pkg):
        """Wrap the layer boundaries of the imported package ``pkg``."""
        cli, exp, optics = pkg.cli, pkg.experiments, pkg.optics
        stats, tomo = pkg.photon_stats, pkg.tomography
        try:
            self._patch([cli], "main", self.span("cli.main", cli.main))
            # entry spans time the op's own experiment; the calibration scans
            # the others run inside themselves are only counted, as scans
            for fn in ENTRY_POINTS:
                wrapper = self.span(f"experiments.{fn}", getattr(cli, fn))
                if fn == "run_phase_scan":
                    wrapper = self.counted("experiments.phase_scans_per_op", wrapper)
                self._patch([cli], fn, wrapper)
            self._patch([exp], "run_phase_scan", self.counted(
                "experiments.phase_scans_per_op", exp.run_phase_scan))
            report = exp.ExperimentReport
            self._patch([report], "to_json", self.span("experiments.to_json", report.to_json))
            self._patch([report], "counts_csv",
                        self.span("experiments.counts_csv", report.counts_csv))

            for fn in ("detection_probability", "conditional_output_state"):
                self._patch([exp], fn, self.span(f"optics.{fn}", getattr(exp, fn)))
            self._patch([exp], "port_operator",
                        self.counted("optics.port_operator.calls", exp.port_operator))
            self._patch([optics], "waveplate_matrix",
                        self.counted("optics.waveplate_matrix.calls", optics.waveplate_matrix))

            for fn in ("sample_counts", "derive_seed", "calibrate_phase"):
                self._patch([exp], fn, self.span(f"photon_stats.{fn}", getattr(exp, fn)))
            self._patch([exp, stats], "fit_sinusoid",
                        self.span("photon_stats.fit_sinusoid", stats.fit_sinusoid))

            for fn in ("qpt_reconstruct", "qst_linear"):
                self._patch([exp], fn, self.span(f"tomography.{fn}", getattr(exp, fn)))
            self._patch([exp], "qst_mle", self._mle_wrapper(exp.qst_mle, tomo.qst_linear))
            self._patch([tomo], "mle_negative_log_likelihood", self.counted(
                "tomography.nll_evals", tomo.mle_negative_log_likelihood))
            yield self
        finally:
            while self._patched:
                owner, attr, original = self._patched.pop()
                setattr(owner, attr, original)

    def _mle_wrapper(self, qst_mle, qst_linear):
        traced = self.span("tomography.qst_mle", qst_mle)
        counts = self.counts

        def wrapper(data, *args, **kwargs):
            result = traced(data, *args, **kwargs)
            counts["tomography.qst_mle.iterations"] += result.iterations
            counts["tomography.qst_mle.nonconverged"] += not result.converged
            # outside the span: was the linear inversion already physical?
            counts["tomography.qst_mle.linear_physical"] += qst_linear(data).physical
            return result
        return wrapper

    def layer_metrics(self, n_ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, per op unless named a ratio."""
        busy: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            busy[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        cli_self = sum(end - start - child[i]
                       for i, (name, start, end, _, _) in enumerate(self.spans)
                       if name == "cli.main")

        n = max(n_ops, 1)
        out = {}
        for name in SPANS_WITH_CALLS:
            out[f"{name}.calls"] = (calls[name] / n, "count")
            out[f"{name}.busy_ms"] = (1e3 * busy[name] / n, "ms")
        for name in SPANS_BUSY_ONLY:
            out[f"{name}.busy_ms"] = (1e3 * busy[name] / n, "ms")
        out["cli.self_ms"] = (1e3 * cli_self / n, "ms")
        for name, unit in COUNTERS.items():
            out[name] = (self.counts[name] / n, unit)
        c = self.counts
        out["tomography.nll_evals_per_iteration"] = (
            c["tomography.nll_evals"] / max(c["tomography.qst_mle.iterations"], 1), "ratio")
        out["tomography.qst_mle.linear_physical_ratio"] = (
            c["tomography.qst_mle.linear_physical"] / max(calls["tomography.qst_mle"], 1),
            "ratio")
        return out

    def write_spans(self, path: Path) -> None:
        """Write the spans as JSON, times in seconds from the first span's start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = (json.dumps([name, round(start - t0, 7), round(end - t0, 7), parent, op])
                for name, start, end, parent, op in self.spans)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            f.write('{"fields": ["name", "start", "end", "parent", "op_id"], "spans": [\n')
            f.write(",\n".join(rows))
            f.write("\n]}\n")
