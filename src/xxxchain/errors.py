"""Typed errors shared across the package."""


class ChainError(Exception):
    """Base class for package errors."""


class WindowError(ChainError, ValueError):
    """A beta coefficient was requested outside its admissible n-window."""


class PoleError(ChainError, ValueError):
    """Rapidity at/near a pole of the momentum map, or momentum at/near zero."""


class DegenerateRootsError(ChainError, ValueError):
    """Coinciding momenta/rapidities, or a Bethe state with vanishing norm."""


class SingularScatteringError(ChainError, ValueError):
    """Scattering-matrix denominator vanishes for this argument pair."""


class InputRangeError(ChainError, ValueError):
    """An option, count or sector index outside its admissible range."""


class ResourceCapError(ChainError, RuntimeError):
    """Requested Hilbert-space dimension exceeds the configured cap."""


class NewtonFailureError(ChainError, RuntimeError):
    """Newton iteration did not produce an acceptable root set.

    `detail` may hold a `{}` field for `residual`, the best scaled residual
    reached; the message is formatted only when it is read.
    """

    def __init__(self, reason, detail="", residual=None):
        super().__init__(reason, detail, residual)
        self.reason = reason

    def __str__(self):
        reason, detail, residual = self.args
        if residual is not None:
            detail = detail.format(residual)
        return f"{reason}: {detail}" if detail else reason
