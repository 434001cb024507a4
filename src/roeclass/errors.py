"""Exception types and the size limit shared across the library.

Every error the library raises on purpose is a RoeclassError, and each class
carries the CLI exit code it maps to: MalformedInput -> 2, DepthExhausted -> 3,
PreconditionViolation and its subclasses -> 4.  MalformedInput and
PreconditionViolation are also ValueErrors.
"""

# The one size limit: a split into level-n blocks, a K0 layout and a
# unit-division period are refused past 2^LIMIT_BITS blocks or entries.
LIMIT_BITS = 20


class RoeclassError(Exception):
    exit_code: int


class MalformedInput(RoeclassError, ValueError):
    """Input file or argument does not parse or violates its schema."""

    exit_code = 2


class DepthExhausted(RoeclassError):
    """A bounded search ran out of levels before meeting its goal."""

    exit_code = 3


class PreconditionViolation(RoeclassError, ValueError):
    """An operation was called outside its contract."""

    exit_code = 4


class NotEquivalent(PreconditionViolation):
    """The two towers are not bijectively coarsely equivalent."""


class NotBlockDiagonal(PreconditionViolation):
    """Operator propagation exceeds the requested block level."""


class NotProjection(PreconditionViolation):
    """An operator expected to satisfy p*p = p = p* does not."""


class UnsupportedEntries(PreconditionViolation):
    """Exact construction is only implemented for a restricted entry shape."""
