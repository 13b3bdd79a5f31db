"""Exception hierarchy shared across the package: one class per CLI exit code."""


class TorusBrauerError(Exception):
    pass


class SchemaError(TorusBrauerError):
    """A document does not match the expected input schema (exit 2)."""


class ValidationError(TorusBrauerError):
    """An input object violates a structural invariant or a cap (exit 3)."""


class DisagreementError(TorusBrauerError):
    """A check failed: the symbol basis and the oracle disagree, a selftest
    suite fails, or a check on the program's own construction fails (exit 4)."""
