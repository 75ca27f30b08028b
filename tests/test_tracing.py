"""The benchmark's tracer wraps package names when it installs; a refactor
that drops one of them breaks every traced benchmark run, so the suite
installs it."""

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
