"""Exception types shared across the package."""


class ZeroProbability(ValueError):
    """Conditioning on a dark port: the unnormalized output has (near-)zero trace."""


class DegenerateScan(ValueError):
    """A phase scan cannot be fitted (too few points, insufficient span, or flat fringe)."""


class CalibrationInconsistent(ValueError):
    """D1 and D2 fringe fits disagree on the calibrated phase beyond their errors."""


class EmptyData(ValueError):
    """A tomography basis pair has zero total counts."""


class NotUnitary(ValueError):
    """A matrix expected to be unitary is not, within tolerance."""


class ZeroDenominator(ZeroDivisionError):
    """The blocked-path count rates sum to zero; the ratio estimate is undefined."""
