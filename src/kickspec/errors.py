"""Exception types shared across the package.

The CLI maps these onto process exit codes: usage problems exit 2
(argparse), ResourceLimitError exits 3, ToleranceError exits 4.
"""


class PrecisionError(ValueError):
    """A rational stand-in for an irrational is too coarse for the request."""


class IntervalRangeError(ValueError):
    """A counting interval does not fit inside the unit interval."""


class PoleError(ValueError):
    """An evaluation point coincides with an eigenphase pole."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"evaluation point hits the pole at index {index}")


class TrivialPerturbationError(ValueError):
    """A kick strength is a multiple of 2*pi*hbar, so the kick is a no-op."""


class EnsembleError(ValueError):
    """Kick states fail the orthonormality requirements."""


class OracleSizeError(ValueError):
    """Input too large for the quadratic brute-force oracle."""


class ProvenanceError(ValueError):
    """Objects handed to a diagnostic were not produced from the same source."""


class ResourceLimitError(RuntimeError):
    """Requested computation exceeds the configured desk-scale limits."""


class ToleranceError(RuntimeError):
    """A numerical guarantee was violated beyond its stated tolerance."""
