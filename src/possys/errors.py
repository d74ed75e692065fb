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
    """A gain fit could not be made: the closed loop has s(A_S) >= 0 and no
    decaying envelope.  The fit also refuses a signed injection column (with
    ValueError), so it steps only E >= 0 and F >= 0, where its one adjoint
    pass reads forward norms exactly; a test asserts that identity."""
