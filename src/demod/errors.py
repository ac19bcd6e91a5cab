"""Exception types shared across the workbench."""


class DemodError(Exception):
    """Base class for all workbench errors."""


class SortError(DemodError):
    """A term or substitution violates the sort discipline."""


class FuelExhausted(DemodError):
    """A bounded operation ran out of its step budget.

    Never silently treated as a normal result: callers must catch it
    explicitly or let it propagate.
    """

    def __init__(self, message="step budget exhausted", steps=None):
        super().__init__(message)
        self.steps = steps


class RuleError(DemodError):
    """A rewrite rule violates its shape invariants."""


class TheoryError(DemodError):
    """A theory is malformed or unfit for the requested operation."""


class ProofError(DemodError):
    """A proof tree is structurally malformed (not merely incorrect)."""


class ParseError(DemodError):
    """Syntax error in a theory, formula, proof or goal file."""

    def __init__(self, message, line, col):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col
