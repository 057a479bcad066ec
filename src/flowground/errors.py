"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: validation problems exit 1,
infeasibility and cap overruns exit 2.
"""

from __future__ import annotations


class FlowGroundError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(FlowGroundError):
    """Malformed input: bad schema, duplicate ids, cycles, shape mismatches."""


class InfeasibleError(FlowGroundError):
    """The requested computation has no feasible solution (e.g. more steps than clips)."""


class CapExceededError(FlowGroundError):
    """A configured size cap was exceeded (sorts, meta-graph states or paths)."""


class TrainingDivergedError(FlowGroundError):
    """Training produced a non-finite loss; carries the partial loss trace."""

    def __init__(self, message: str, trace: list | None = None):
        super().__init__(message)
        self.trace = trace or []
