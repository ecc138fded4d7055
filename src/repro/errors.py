"""Exception hierarchy shared by every subsystem.

All errors raised by this package derive from :class:`ReproError`, so a
downstream user can catch one type.  Frontend errors carry a source position.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SourcePos:
    """A position in MiniF source text (1-based line and column)."""

    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` package."""


class ConfigError(ReproError, ValueError):
    """An :class:`~repro.core.config.ICPConfig` key is unknown or its value
    does not fit the key's type and allowed values."""


class FrontendError(ReproError):
    """An error detected while lexing, parsing, or validating MiniF source."""

    def __init__(self, message: str, pos: SourcePos | None = None):
        self.message = message
        self.pos = pos
        location = f" at {pos}" if pos is not None else ""
        super().__init__(f"{message}{location}")


class LexError(FrontendError):
    """Invalid character or malformed token in the source text."""


class ParseError(FrontendError):
    """The token stream does not match the MiniF grammar."""


class ValidationError(FrontendError):
    """A semantic rule is violated (unknown procedure, arity mismatch, ...)."""


class AnalysisError(ReproError):
    """An internal invariant of an analysis was violated."""


class InterpreterError(ReproError):
    """A runtime error in the reference interpreter (e.g. division by zero)."""


class StepLimitExceeded(InterpreterError):
    """The interpreter's step budget was exhausted (likely a long loop)."""
