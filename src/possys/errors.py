"""Exceptions shared across the package."""
from __future__ import annotations


class PossysError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(PossysError):
    """Malformed or inconsistent run configuration."""


class SingularSystemError(PossysError):
    """A linear solve hit a (numerically) singular system."""


class EigensolverError(PossysError):
    """Spectral bound could not be computed for this matrix."""


class WorkBudgetError(PossysError, ValueError):
    """An exact exponential would take more than `semigroup._WORK` work."""


class GainValidationError(PossysError):
    """A gain fit could not be made, or its norm curves disagree with a
    forward trajectory; `time` names the first grid time they disagree at,
    where there is one."""

    def __init__(self, message: str, time=None):
        super().__init__(message)
        self.time = time
