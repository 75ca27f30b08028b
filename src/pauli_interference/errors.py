"""Exception types shared across the package."""


class ExperimentError(Exception):
    """An experiment ran but its data give no answer (CLI exit code 3)."""


class ZeroProbability(ExperimentError, ValueError):
    """Conditioning on a dark port: the unnormalized output has (near-)zero trace."""


class DegenerateScan(ExperimentError, ValueError):
    """A phase scan cannot be fitted (too few points, insufficient span, or flat fringe)."""


class CalibrationInconsistent(ExperimentError, ValueError):
    """D1 and D2 fringe fits disagree on the calibrated phase beyond their errors."""


class CalibrationFailed(ExperimentError, RuntimeError):
    """The plate-angle noise search did not land in its fidelity window."""


class EmptyData(ExperimentError, ValueError):
    """A tomography basis pair or a case-compare case has zero total counts, or
    estimate-k's open-path or blocked-path count is zero once its dark counts
    are subtracted."""


class NotUnitary(ExperimentError, ValueError):
    """A matrix expected to be unitary is not, within tolerance."""
