"""Exception types shared across the package."""


class VvlabError(Exception):
    """Base class for all package errors."""


class ConfigError(VvlabError):
    """Invalid configuration value or combination."""


class DomainViolationError(VvlabError):
    """Point lies outside the closed domain."""


class InvalidParameterError(VvlabError):
    """Parameter outside the admissible range of an operation."""


class UnsupportedCombinationError(VvlabError):
    """Requested norm-index combination is not defined."""


class InvalidProfileError(VvlabError):
    """Base-flow profile is not finite on the domain."""


class StepSizeError(VvlabError):
    """Time step not finite and positive."""


class AlignmentError(VvlabError):
    """Time stamps or grids of two inputs do not match."""


class DegenerateFitError(VvlabError):
    """All errors at round-off level; a rate fit would be meaningless."""


class BlowupHorizonError(VvlabError):
    """Requested time lies beyond the validity horizon of the bound."""

    def __init__(self, message, critical_time=None):
        super().__init__(message)
        self.critical_time = critical_time


class SolverError(VvlabError):
    """A linear solve did not converge."""
