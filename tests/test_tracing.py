"""The benchmark's tracer wraps package names when it installs; a refactor
that drops one of them breaks every traced benchmark run, so the suite
installs it."""

from collections import Counter
from pathlib import Path

import pauli_interference
from pauli_interference import cli, experiments, optics, photon_stats, tomography

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
OWNERS = (cli, experiments, optics, photon_stats, tomography, experiments.ExperimentReport)


def test_tracer_installs_and_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    before = [(owner, dict(vars(owner))) for owner in OWNERS]
    with tracing.Tracer().installed(pauli_interference):
        assert experiments.conditional_output_state is not optics.conditional_output_state
    for owner, names in before:
        after = vars(owner)
        assert after.keys() == names.keys(), owner
        assert all(after[name] is value for name, value in names.items()), owner


def test_tracer_sees_the_calibration_scan(monkeypatch):
    # a run at a phase offset calibrates phi0 on a case-I scan first; its
    # sampling, seeds and fits must still pass the wrapped names
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    noise = experiments.NoiseProfile(phase_offset_error=0.3, master_seed=8)
    with tracing.Tracer().installed(pauli_interference) as tracer:
        experiments.run_case_comparison(noise)
    calls = Counter(name for name, *_ in tracer.spans)
    assert calls["photon_stats.sample_counts"] == 2  # the scan, then both cases
    assert calls["photon_stats.derive_seed"] == 2  # one seed per record set
    assert calls["photon_stats.fit_sinusoid"] == 2



def test_tracer_sees_cli_entry_points(monkeypatch, tmp_path):
    # the CLI must call each experiment through the name the tracer wraps on
    # cli, so that every op records its one entry span
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    entry_spans = {f"experiments.{fn}" for fn in tracing.ENTRY_POINTS}
    for name, runner in (("phase-scan", "run_phase_scan"),
                         ("case-compare", "run_case_comparison"),
                         ("qpt", "run_commutator_qpt"), ("estimate-k", "estimate_k_magnitude"),
                         ("phase-of-k", "run_phase_of_k")):
        with tracing.Tracer().installed(pauli_interference) as tracer:
            assert cli.main([name, "--exact-probabilities", "--output", str(tmp_path)]) == 0
        calls = Counter(span for span, *_ in tracer.spans if span in entry_spans)
        assert calls == {f"experiments.{runner}": 1}, name
