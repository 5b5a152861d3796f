"""Exception hierarchy shared by all submodules."""

from __future__ import annotations


class HadamardError(Exception):
    """Base class for every error raised by this package."""


class SpaceMismatchError(HadamardError):
    """Points or sets from different space models were mixed in one call."""


class InvalidPointError(HadamardError):
    """A point payload violates its space's invariants."""


class DomainError(HadamardError):
    """A scalar argument is outside its admissible range."""


class ConstructionError(HadamardError):
    """A space or convex-set descriptor fails its structural invariants."""


class NotAFixedPointError(HadamardError):
    """A point presented as fixed is moved by the operator."""


class ConvergenceFailureError(HadamardError):
    """An iterative solver hit its sweep limit before reaching tolerance.

    Carries the last iterate and its objective value so callers can
    inspect how far the solve got.
    """

    def __init__(self, message, last_point=None, objective=None):
        super().__init__(message)
        self.last_point = last_point
        self.objective = objective


class EdgeListError(HadamardError):
    """A malformed line in a plain-text tree edge list."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ScenarioError(HadamardError):
    """A scenario document failed to parse or validate."""

    def __init__(self, message: str, line_no: int | None = None, key: str | None = None):
        ctx = []
        if line_no is not None:
            ctx.append(f"line {line_no}")
        if key is not None:
            ctx.append(f"key '{key}'")
        prefix = ", ".join(ctx)
        super().__init__(f"{prefix}: {message}" if prefix else message)
        self.line_no = line_no
        self.key = key


class CheckSpecError(HadamardError):
    """A certifier check was given a payload inconsistent with its kind."""
