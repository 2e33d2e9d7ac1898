"""Exception types shared across the package.

Every domain error derives from ZhedError so the CLI can map any of them to
exit status 1 with a machine-parsable reason line.
"""


class ZhedError(Exception):
    """Base class for all domain errors raised by zhedkit."""


# -- board ------------------------------------------------------------------

class OutOfBounds(ZhedError):
    pass


class NotATile(ZhedError):
    pass


class ParseError(ZhedError):
    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", col {col})" if col is not None else ")")
        super().__init__(message + where)


class DuplicateTarget(ParseError):
    pass


class MissingTarget(ParseError):
    pass


class ReplayError(ZhedError):
    """A move in a replayed sequence failed; carries the failing index."""

    def __init__(self, index, cause):
        self.index = index
        self.cause = cause
        super().__init__(f"move {index} failed: {cause}")


# -- rpm3sat ----------------------------------------------------------------

class NonMonotoneClause(ZhedError):
    pass


class ArityError(ZhedError):
    pass


class BadVariableIndex(ZhedError):
    pass


class NotEmbeddable(ZhedError):
    pass


class TooManyVariables(ZhedError):
    pass


# -- gadgets ----------------------------------------------------------------

class InvalidParam(ZhedError):
    pass


class ParityMismatch(ZhedError):
    pass


class AnchorMismatch(ZhedError):
    pass


class TileCollision(ZhedError):
    pass


# -- reducer ----------------------------------------------------------------

class EmbeddingInvalid(ZhedError):
    pass


class UnsatisfiedAssignment(ZhedError):
    pass


# -- verify -----------------------------------------------------------------

class CertificationFailure(ZhedError):
    pass
