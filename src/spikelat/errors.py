"""Exception types shared across the package, and the range check they share."""
import math


class SpikelatError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(SpikelatError):
    """Operand shapes are incompatible with the requested operation."""


class ContractError(SpikelatError):
    """An argument violates a documented precondition."""


class GraphError(SpikelatError):
    """The computation graph is malformed (e.g. contains a cycle)."""


class NumericsError(SpikelatError):
    """A tensor contains NaN or Inf; the computation is in an error state."""


class FormatError(SpikelatError):
    """A serialized file does not match its declared format.

    Carries ``offset``, the byte position at which parsing failed, when known.
    """

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class SpecError(SpikelatError):
    """A model or run specification is internally inconsistent."""


class TrainingAbort(SpikelatError):
    """Training hit a non-recoverable numeric condition and stopped."""


def check_positive(name, value):
    """Raise ``ContractError`` unless ``value`` is above zero and finite; NaN fails."""
    if not 0 < value < math.inf:
        need = "positive" if value <= 0 else "finite"
        raise ContractError(f"{name} must be {need}, got {value}")
