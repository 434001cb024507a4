"""Exception types, size limits and input checks shared across the library.

Every error the library raises on purpose is a RoeclassError, and each class
carries the CLI exit code it maps to: MalformedInput -> 2, DepthExhausted -> 3,
PreconditionViolation and its subclasses -> 4.  MalformedInput and
PreconditionViolation are also ValueErrors.

LIMITS holds every size limit, one row per row of the README limits table:
row -> (bits, message).  A check reads its row's bits when it runs, and
refuses a size over 2^bits (a prime over bits bits) with ``over_limit``
before the work or the allocation that the row bounds.
"""


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


LIMIT_BITS = 20  # shared by every row but the prime's: 2^20 = 1,048,576
LIMITS = {
    "map points": (LIMIT_BITS, "a map of {0}{1} points is over the 2^{bits} limit"),
    "verify report rows": (LIMIT_BITS, "source level {0} would make a report of over 2^{bits} rows"),
    "K0 layout": (LIMIT_BITS, "a K0 layout of {0} entries is over the 2^{bits} limit"),
    "unit-division period": (
        LIMIT_BITS, "[1]/{0}^{1} needs a period of {0}^{1} entries, over the 2^{bits} limit"),
    "blocks of a split": (LIMIT_BITS, "level {0} would split the space into over 2^{bits} blocks"),
    "metric matrix": (LIMIT_BITS, "a metric matrix would have over 2^{bits} entries"),
    "asdim profile": (LIMIT_BITS, "an asdim profile of {0} entries is over the 2^{bits} limit"),
    # sympy's test of a prime grows with the cube of its bits (on a 2-CPU box
    # 0.1 s at 2048 bits, 0.8 s at 4096): a cold command testing one stays near 1 s
    "prime size": (2048, "{0}{1} is over the {bits}-bit limit for a prime"),
}


def over_limit(row: str, *sizes, error: type = PreconditionViolation) -> RoeclassError:
    """The refusal of ``row``, of class ``error``: its message over ``sizes``,
    each number clipped and each text as is."""
    bits, message = LIMITS[row]
    sizes = (s if isinstance(s, str) else _clip(s) for s in sizes)
    return error(message.format(*sizes, bits=bits))


# at most 603 decimal digits: under every int/str digit limit Python allows (>= 640)
_CLIP_BITS = 2000


def _clip(value) -> str:
    """repr of value, cut to 40 characters for an error message.  An int
    over _CLIP_BITS bits is never converted, since it may pass the int/str
    digit limit: its bit length stands in for its digits."""
    if isinstance(value, int) and value.bit_length() > _CLIP_BITS:
        return f"<{'-' if value < 0 else ''}int of {value.bit_length()} bits>"
    try:
        text = repr(value)
    except ValueError:  # an int over the digit limit inside value, say a Fraction's
        return f"<{type(value).__name__} over the int/str digit limit>"
    return text if len(text) <= 40 else text[:40] + "..."


def _checked_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise MalformedInput(
            f"{what} must be an integer, got {type(value).__name__} {_clip(value)}")
    return value


def _checked_ints(values, what: str) -> tuple:
    """tuple(values), every entry an integer: one C pass over their types,
    and a walk only to name the first entry that is not one."""
    values = tuple(values)
    if set(map(type, values)) - {int}:
        for v in values:
            _checked_int(v, what)
    return values
