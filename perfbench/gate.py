"""Per-op correctness gate: compare each report with closed forms for its profile.

The generated profiles have plate sigma 0 (``fringe``, ``exact``), so the
apparatus is ideal up to visibility, efficiency and dark counts, and these
hold for any input state:

- phi0 equals ``phase_offset_error``;
- |k| = 1 + V (dark counts are subtracted before the ratio);
- arg k = pi/2;
- case I and case II exchange their normalized port rates.

Exact-probability ops must match to ``EXACT_TOL``; sampled ops to
``SAMPLED_SIGMAS`` of the standard error the report gives. QPT ops must give a
process fidelity in [0, 1].
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from workloads import Op

EXACT_TOL = 1e-6
SAMPLED_SIGMAS = 5.0


def expected_files(op: Op) -> tuple[str, ...]:
    return ("report.json", "counts.csv") + (("chi.json",) if op.experiment == "qpt" else ())


def check(op: Op, out_dir: Path) -> str | None:
    """None when the op's outputs are complete and correct, else the reason."""
    missing = [name for name in expected_files(op) if not (out_dir / name).is_file()]
    if missing:
        return f"missing output files {missing}"
    try:
        derived = json.loads((out_dir / "report.json").read_text())["derived"]
        return check_derived(op, derived)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"


def check_derived(op: Op, derived: dict) -> str | None:
    def off_by(key: str, want: float, err_key: str) -> str | None:
        got = float(derived[key])
        tol = EXACT_TOL if op.exact else SAMPLED_SIGMAS * float(derived[err_key])
        if abs(got - want) <= tol:
            return None
        return f"{op.experiment}: {key} = {got!r}, expected {want!r} within {tol:.3g}"

    offset = op.noise.get("phase_offset_error", 0.0)
    # only the phase scan reports an error for its phi0; the others calibrate internally
    if op.exact or op.experiment == "phase-scan":
        bad = off_by("phi0", offset, "phi0_err")
        if bad:
            return bad
    if op.experiment == "case-compare" and derived["pi_shift_verdict"] is not True:
        return "case-compare: case I and case II rates not exchanged"
    if op.experiment == "estimate-k":
        return off_by("k_abs", 1.0 + op.noise.get("visibility", 1.0), "stderr")
    if op.experiment == "phase-of-k":
        return off_by("arg_k", math.pi / 2, "arg_k_err")
    if op.experiment == "qpt":
        fid = float(derived["process_fidelity"])
        if not 0.0 <= fid <= 1.0:
            return f"qpt: process fidelity {fid!r} outside [0, 1]"
    return None
