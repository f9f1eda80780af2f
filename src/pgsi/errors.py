"""Exception types shared across the solver."""


class SolverError(Exception):
    """Base class for every error raised by this package."""


class FormatError(SolverError):
    """Malformed PGSolver input text."""


class DimensionError(SolverError):
    """Color-profile dimension mismatch or a color outside [0, d)."""


class ProfileArithmeticError(SolverError):
    """Profile arithmetic with no defined result, e.g. +inf plus a value."""


class ReasonablenessError(SolverError):
    """A strategy admits an odd-dominated cycle where none is allowed."""


class InvariantViolation(SolverError):
    """An internal invariant the algorithm guarantees was observed broken."""


class InstanceTooLarge(SolverError):
    """Instance too big for the brute-force oracle."""
