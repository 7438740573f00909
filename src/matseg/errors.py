"""Exception types raised across the package."""

from __future__ import annotations


class MatsegError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(MatsegError, ValueError):
    """An argument violates a documented precondition."""


class ParseError(MatsegError, ValueError):
    """A series or result file could not be parsed."""

    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class NumericalFailure(MatsegError, RuntimeError):
    """An iterative numerical routine failed to converge."""


class DegenerateCovariance(MatsegError, RuntimeError):
    """A covariance matrix has no positive eigenvalue."""


class DegenerateColumn(MatsegError, RuntimeError):
    """A data column has zero sample variance."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"column {index} has zero sample variance")


class DegenerateVariance(MatsegError, RuntimeError):
    """A transformed-component variance used as a correlation denominator is not positive."""

    def __init__(self, i: int, k: int):
        self.i = i
        self.k = k
        super().__init__(f"nonpositive variance for transformed column {i}, row component {k}")


class InvalidState(MatsegError, RuntimeError):
    """An operation was invoked on an object in an unsupported state."""


class ResourceLimit(MatsegError, RuntimeError):
    """A computation would exceed the configured memory guard."""
