"""Exception types shared across the package.

The CLI maps these onto exit codes: plain ``ValueError`` (and
``TableFormatError``) mean bad input, ``BudgetExceededError`` means the
computation hit a configured resource ceiling, and
``IdentityViolationError`` means a mathematical identity the package
promises to uphold failed, which is the loudest signal the tool can
emit.  A factorization that runs out of budget raises nothing: it
returns a partial result (``factor.Factorization.is_complete``).
"""


class SingularMatrixError(ValueError):
    """Matrix is not invertible over its ring."""


class BudgetExceededError(RuntimeError):
    """A computation would exceed its configured resource ceiling."""

    def __init__(self, message: str, needed: int | None = None, cap: int | None = None):
        super().__init__(message)
        self.needed = needed
        self.cap = cap


class DataExhaustedError(LookupError):
    """A coefficient source does not cover the requested prime."""


class TableFormatError(ValueError):
    """A coefficient table file failed validation."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class IdentityViolationError(RuntimeError):
    """An identity that must hold unconditionally was observed to fail."""
