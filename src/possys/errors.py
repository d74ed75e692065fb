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


class GainValidationError(PossysError):
    """A fitted ISS envelope was violated by a worst-case pair, or its norm
    curves disagree with a forward trajectory.

    The witness pair (state, signal), the time and the gap are attached,
    where there is one, so the failure is reproducible.
    """

    def __init__(self, message: str, state=None, signal=None, time=None, gap=None):
        super().__init__(message)
        self.state = state
        self.signal = signal
        self.time = time
        self.gap = gap
