"""Shared exception types."""

from __future__ import annotations


class ParseError(ValueError):
    """Syntax error in one of the small text grammars.

    Carries the 1-based line and column of the offending token.
    """

    def __init__(self, message: str, line: int = 1, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class CoverError(ValueError):
    """A word that should lie in the even (kernel) part of the cover does not.

    Raised when a lifted image has odd grade; this signals a wrong braid
    or rewriting convention rather than bad user input.
    """


class InternalCheckError(RuntimeError):
    """A computation broke one of its own invariants.

    The input was fine; the result cannot be trusted.  The command line
    reports it with exit code 1, not as bad input.
    """


class BudgetExhausted(RuntimeError):
    """A search spent its budget before it could decide.

    Nothing is known to be wrong; a larger budget may succeed.  The
    command line reports it with exit code 3.
    """
