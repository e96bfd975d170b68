"""Shared exception types."""

from __future__ import annotations


class ParseError(ValueError):
    """Syntax error in one of the small text grammars.

    Carries the 1-based line (or command-line ``argument``) and column of the offending token.
    """

    def __init__(self, message: str, line: int = 1, column: int = 1, argument: str = ""):
        super().__init__(f"{argument or f'line {line}'}, column {column}: {message}")
        self.line, self.column = line, column


class CoverError(ValueError):
    """A monodromy or word does not descend to the even part of the cover.

    Raised when a fiber image is not an involution modulo squares, or a
    word to rewrite has odd grade; braid actions never reach either case.
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
