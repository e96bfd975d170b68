"""Shared exception types."""

from __future__ import annotations


class ParseError(ValueError):
    """Syntax error in one of the small text grammars.

    Names the command-line ``argument`` (else line 1: each grammar is one line) and the 1-based column.
    """

    def __init__(self, message: str, column: int = 1, argument: str = ""):
        super().__init__(f"{argument or 'line 1'}, column {column}: {message}")
        self.column = column


class CoverError(ValueError):
    """A monodromy or word does not descend to the even part of the cover.

    Raised when a fiber image is not an involution modulo squares, or a
    word to rewrite has odd length; braid actions never reach either case.
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
