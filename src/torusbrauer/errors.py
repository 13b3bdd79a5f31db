"""Exception hierarchy shared across the package."""


class TorusBrauerError(Exception):
    pass


class ValidationError(TorusBrauerError):
    """An input object violates a structural invariant."""


class SchemaError(TorusBrauerError):
    """A document does not match the expected input schema."""


class DisagreementError(TorusBrauerError):
    """The symbol basis and the brute-force oracle disagree."""


class CompositionNonzeroError(ValidationError):
    pass


class NotAnInvolutionError(ValidationError):
    pass


class NonSignCharacterOnLatticeError(ValidationError):
    pass


class NotASubgroupError(ValidationError):
    pass


class NotInvariantError(ValidationError):
    pass


class RankTooSmallError(ValidationError):
    pass


class DegreeTooLargeError(ValidationError):
    pass


class NotExactError(ValidationError):
    """A free resolution fails to be exact at one of its terms."""


class HomotopySolveFailureError(TorusBrauerError):
    """Internal inconsistency while solving for a twisting differential or
    a contracting homotopy."""
