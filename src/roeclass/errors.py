"""Exception types, size limits, input checks and the base of immutable
values, shared across the library.

Every error the library raises on purpose is a RoeclassError, and each class
carries the CLI exit code it maps to: MalformedInput -> 2, DepthExhausted -> 3,
PreconditionViolation and its subclasses -> 4.  MalformedInput and
PreconditionViolation are also ValueErrors.

LIMITS holds every size limit, one row per row of the README limits table:
row -> (bits, message).  A check reads its row's bits when it runs, and
refuses a size over 2^bits (a prime over bits bits) with ``over_limit``
before the work or the allocation that the row bounds, a size through
``check_limit``; a pre-check on a ratio count or an exponent reads the bits.
"""

from operator import attrgetter


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


LIMIT_BITS = 20  # shared by every row but the input's and the prime's: 2^20 = 1,048,576
LIMITS = {
    # a 2^20-point map file, the largest bce build writes, is about 21 MB
    "input bytes": (25, "{0} is over the 2^{bits}-byte limit for an input"),
    "map points": (LIMIT_BITS, "a map of {0}{1} points is over the 2^{bits} limit"),
    "verify report rows": (LIMIT_BITS, "source level {0} would make a report of over 2^{bits} rows"),
    "K0 layout": (LIMIT_BITS, "a K0 layout of {0} entries is over the 2^{bits} limit"),
    "unit-division period": (
        LIMIT_BITS, "[1]/{0}^{1} needs a period of {0}^{1} entries, over the 2^{bits} limit"),
    "blocks of a split": (LIMIT_BITS, "level {0} would split the space into over 2^{bits} blocks"),
    "block order": (LIMIT_BITS, "level {0} would make a block order of over 2^{bits} bits"),
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


def check_limit(row: str, size: int, *shown) -> int:
    """size, unless it is over row's 2^bits: then the refusal of ``row``,
    its message over ``shown`` (over size when nothing is shown)."""
    if size > 1 << LIMITS[row][0]:
        raise over_limit(row, *(shown or (size,)))
    return size


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


def _checked_container(value, what: str, kinds: tuple = (tuple, list)):
    """value, when it is one of kinds (a tuple or a list unless told)."""
    if not isinstance(value, kinds):
        kind = " or ".join(k.__name__ for k in kinds)
        raise MalformedInput(f"{what} must be a {kind}, got {type(value).__name__} {_clip(value)}")
    return value


def _checked_ints(values, what: str, whole: str = "entries") -> tuple:
    """tuple(values) of a tuple or list ``whole``, every entry an integer:
    one C pass over their types, and a walk only to name the first entry
    that is not one."""
    values = tuple(_checked_container(values, whole))
    if set(map(type, values)) - {int}:
        for v in values:
            _checked_int(v, what)
    return values


class Frozen:
    """An immutable value, as a frozen dataclass is one.  A subclass names its
    fields once, in ``_fields`` (two or more), and its ``__init__`` stores them
    with ``object.__setattr__``, as a dataclass does.  Values are equal when
    their classes are the same and their field tuples equal, hash as the
    field tuple (so a value with a dict field is unhashable) and show as
    ``Name(field=value, ...)``; other attributes, private or lazy, take no
    part.  Setting or deleting any attribute raises AttributeError.
    Cached attributes (``lazy``, ``BlockSpace._orders``) are stored with
    ``object.__setattr__`` too: touching ``__dict__`` would materialize it,
    and CPython leaves the attribute reads of such an instance unspecialized.
    Only ``_of(**fields)`` writes the fields into ``__dict__``, with no
    check, for the values the library builds from values it has already
    checked."""

    @classmethod
    def _of(cls, **fields):
        value = object.__new__(cls)
        vars(value).update(fields)  # past the frozen __setattr__
        return value

    def __init_subclass__(cls):
        key = attrgetter(*cls._fields)  # the tuple of the fields, built in C

        def __eq__(self, other):
            if other is self:  # _same_space compares a space with itself on every compose
                return True
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        def __hash__(self):
            return hash(key(self))

        cls.__eq__, cls.__hash__ = __eq__, __hash__

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class lazy:
    """An attribute computed on first read and stored on the instance with
    ``object.__setattr__``, where later reads find it first; a read that
    raises stores nothing.  It takes no lock."""

    def __init__(self, func):
        self.func, self.__doc__ = func, func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self.func(obj)
        object.__setattr__(obj, self.func.__name__, value)
        return value
