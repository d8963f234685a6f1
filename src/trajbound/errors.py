"""Exception types shared across the package.

Everything derives from TrajboundError so callers can catch package
failures in one clause; the CLI maps the subclasses onto exit codes.
"""


class TrajboundError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(TrajboundError, ValueError):
    """An argument violates a documented precondition."""


class DimensionMismatchError(InvalidArgumentError):
    """Array shapes are inconsistent with each other or with a model."""


class NumericDomainError(TrajboundError, ArithmeticError):
    """A numeric quantity left its valid domain (NaN, inf, impossible sign)."""


class DivergedError(TrajboundError):
    """Training blew up: the parameter norm went non-finite or past the cap.

    Carries the step index and the parameter norm at failure so harness
    code can report where the run died.
    """

    def __init__(self, t: int, param_norm: float, message: str = ""):
        self.t = t
        self.param_norm = param_norm
        detail = message or f"run diverged at step {t} (parameter norm {param_norm:.3e})"
        super().__init__(detail)


class DataSchemaError(TrajboundError):
    """A CSV file read back for plotting is structurally unusable (no rows)."""


class ConfigError(TrajboundError):
    """A config file is invalid; message names the offending key."""


class IncompleteTrajectoryError(TrajboundError):
    """An operation needs denser trajectory records than were kept."""
