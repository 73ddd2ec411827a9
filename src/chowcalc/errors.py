"""Exception hierarchy shared across the engine.

Everything raised on purpose derives from EngineError so the CLI can turn
any engine failure into a single error line and a nonzero exit code.
"""


class EngineError(Exception):
    pass


class RingMismatchError(EngineError):
    """Operands live in different rings (field, variables or order differ)."""


class ParseError(EngineError):
    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class InexactDivisionError(EngineError):
    pass


class DegreeOverflowError(EngineError):
    """A basis computation exceeded the configured degree bound."""


class ResolutionError(EngineError):
    """max_length exceeded without the syzygies terminating."""


class DecompositionError(EngineError):
    """Input is outside the supported decomposition fragment.

    Callers can fall back to assert_decomposition with externally known
    components; the verifier still checks containment, incomparability and
    radical covering, the last by intersecting the components and the
    Rabinowitsch radical-membership test.
    """


class NotPrimeError(EngineError):
    pass


class HypothesisError(EngineError):
    """A declared geometric hypothesis (flatness, properness, regularity,
    properness of an intersection, ...) failed or was never supplied."""


class GlueError(EngineError):
    pass


class ConsistencyError(EngineError):
    """An internal consistency check failed: the engine raises rather than
    return a result it cannot vouch for."""
