"""Exception hierarchy shared by all solver and simulation modules."""

from __future__ import annotations


class MjlsError(Exception):
    """Base class for every error raised by this package."""


class InvalidInput(MjlsError):
    """Malformed or dimensionally inconsistent input data."""


class InvalidState(MjlsError):
    """An operation was called on an object that cannot support it."""


class RiccatiBreakdown(MjlsError):
    """The input-weight term of the Riccati recursion lost positive definiteness.

    ``kind`` distinguishes a (numerically) singular term from a genuinely
    indefinite one; an indefinite term would make the stage cost stationary at
    a non-minimizing controller, so both are rejected.
    """

    def __init__(self, message, stage=None, mode=None, eigenvalue=None,
                 kind="singular"):
        super().__init__(message)
        self.stage = stage
        self.mode = mode
        self.eigenvalue = eigenvalue
        self.kind = kind


class NotStabilizable(MjlsError):
    """The CARE solver found no stabilizing fixed point.

    ``reason`` is ``"diverged"`` when the value iterates blew past the
    divergence bound (no stabilizing controller exists) and ``"budget"``
    when the step cap ran out without convergence (undetermined).
    """

    def __init__(self, message, reason, iterations=None):
        super().__init__(message)
        self.reason = reason
        self.iterations = iterations


class ObservabilityViolation(MjlsError):
    """The fixed point is PSD but not PD; exact observability likely fails."""


class NumericalFailure(MjlsError):
    """An iterative numerical routine failed to converge."""


class PreconditionFailed(MjlsError):
    """A documented precondition of the operation does not hold."""


class DivergedTrajectory(MjlsError):
    """A rolled state became non-finite at ``step``; ``trial`` indexes the
    first Monte Carlo trial or enumerated path through that state."""

    def __init__(self, message, step=None, trial=None):
        super().__init__(message)
        self.step = step
        self.trial = trial


class TooLarge(MjlsError):
    """A brute-force enumeration would exceed ``oracle.ENUMERATION_CAP``."""
