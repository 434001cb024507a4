"""Order towers of locally finite groups and their supernatural numbers.

A countable locally finite group is exhausted by a chain of finite subgroups
whose orders k_0 = 1 | k_1 | k_2 | ... form an order tower.  The tower is
recorded by its ratio stream k_{n+1}/k_n; only eventually periodic streams are
representable (a finite prefix of ratios followed by a repeating tail).  The
supernatural number sup_n k_n, as a formal product of prime powers, is a
complete invariant for bijective coarse equivalence, and plain coarse
equivalence only sees whether the group is finite or infinite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import inf, prod

from sympy import factorint, isprime

from .errors import MalformedInput, PreconditionViolation

# Exponent marking a prime of unbounded valuation along the tower.
INFINITE = inf


def _checked_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise MalformedInput(f"{what} must be an integer, got {value!r}")
    return value


def _checked_ratio(value) -> int:
    if _checked_int(value, "ratio") < 1:
        raise MalformedInput(f"ratio must be >= 1, got {value}")
    return value


def _primitive_period(items: tuple) -> tuple:
    """Shortest pattern whose repetition reproduces ``items``."""
    n = len(items)
    for d in range(1, n + 1):
        if n % d == 0 and all(items[i] == items[i % d] for i in range(n)):
            return items[:d]
    return items


@dataclass(frozen=True)
class Tower:
    """Ratio stream of an increasing chain of finite subgroup orders.

    ``prefix`` is consumed once, then ``tail`` repeats forever; an empty tail
    denotes a finite group of order prod(prefix).  Normalization drops ratio-1
    entries, reduces the tail to its primitive period, and absorbs trailing
    prefix entries that merely rotate the tail, so equal ratio streams get
    equal representations.
    """

    prefix: tuple[int, ...] = ()
    tail: tuple[int, ...] = ()

    def __post_init__(self):
        prefix = tuple(r for r in map(_checked_ratio, self.prefix) if r > 1)
        tail = tuple(r for r in map(_checked_ratio, self.tail) if r > 1)
        if tail:
            tail = _primitive_period(tail)
            while prefix and prefix[-1] == tail[-1]:
                prefix = prefix[:-1]
                tail = tail[-1:] + tail[:-1]
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "tail", tail)

    @property
    def is_infinite(self) -> bool:
        return bool(self.tail)

    def ratio(self, i: int) -> int:
        """i-th unrolled ratio (0-based); 1 once a finite tower is exhausted."""
        if i < 0:
            raise PreconditionViolation("ratio index must be >= 0")
        if i < len(self.prefix):
            return self.prefix[i]
        if not self.tail:
            return 1
        return self.tail[(i - len(self.prefix)) % len(self.tail)]

    def order(self, n: int) -> int:
        """Subgroup order k_n; saturates at prod(prefix) for finite towers."""
        if n < 0:
            raise PreconditionViolation("level must be >= 0")
        k = 1
        for i in range(min(n, len(self.prefix)) if not self.tail else n):
            k *= self.ratio(i)
        return k

    def orders(self, depth: int) -> tuple[int, ...]:
        """(k_0, ..., k_depth) computed in one pass."""
        if depth < 0:
            raise PreconditionViolation("depth must be >= 0")
        out = [1]
        for i in range(depth):
            out.append(out[-1] * self.ratio(i))
        return tuple(out)


def tower_order(t: Tower, n: int) -> int:
    return t.order(n)


@dataclass(frozen=True, eq=True)
class SupernaturalNumber:
    """Formal product prod_p p^{e_p} with e_p in {0, 1, 2, ...} or INFINITE.

    ``exponents`` stores only primes whose exponent differs from
    ``default_exponent`` (which is 0 or INFINITE), so equal values compare
    equal structurally.
    """

    exponents: dict[int, int | float]
    default_exponent: int | float = 0

    def __post_init__(self):
        if self.default_exponent not in (0, INFINITE):
            raise MalformedInput("default exponent must be 0 or INFINITE")
        normalized = {}
        for p, e in sorted(self.exponents.items()):
            if not (isinstance(p, int) and isprime(p)):
                raise MalformedInput(f"exponent key {p!r} is not prime")
            if e == self.default_exponent:
                continue
            if e != INFINITE and not (isinstance(e, int) and e >= 1):
                raise MalformedInput(f"exponent of {p} must be >= 1 or INFINITE, got {e!r}")
            normalized[p] = e
        object.__setattr__(self, "exponents", normalized)

    def exponent_of(self, p: int) -> int | float:
        return self.exponents.get(p, self.default_exponent)


@lru_cache(maxsize=None)
def supernatural_of_tower(t: Tower) -> SupernaturalNumber:
    """sup_n k_n as a supernatural number.

    A prime dividing the tail product recurs forever, so its exponent is
    INFINITE; otherwise the exponent is its valuation in the prefix product.
    """
    exps: dict[int, int | float] = dict(factorint(prod(t.prefix, start=1)))
    for p in factorint(prod(t.tail, start=1)):
        exps[p] = INFINITE
    return SupernaturalNumber(exps, 0)


def sn_divides(p: int, m: int, s: SupernaturalNumber) -> bool:
    """Whether p^m divides s.  Requires p prime and m >= 1."""
    if not (isinstance(p, int) and isprime(p)):
        raise PreconditionViolation(f"{p!r} is not prime")
    if not (isinstance(m, int) and m >= 1):
        raise PreconditionViolation("exponent m must be an integer >= 1")
    return m <= s.exponent_of(p)


def sn_equal(s: SupernaturalNumber, u: SupernaturalNumber) -> bool:
    return s == u


def bijectively_coarsely_equivalent(t1: Tower, t2: Tower) -> bool:
    """Complete invariant: equality of the towers' supernatural numbers."""
    return sn_equal(supernatural_of_tower(t1), supernatural_of_tower(t2))


def coarsely_equivalent(t1: Tower, t2: Tower) -> bool:
    """All infinite towers are coarsely equivalent; finite ones only to finite."""
    return t1.is_infinite == t2.is_infinite


def obstruction_witness(t1: Tower, t2: Tower) -> tuple[int, int] | None:
    """Smallest prime power p^r dividing exactly one of the two supernatural
    numbers (smallest p, then least r), or None when they are equal.

    Tower-built numbers have default exponent 0, so unequal ones differ at a
    prime keyed in one of them.
    """
    s1 = supernatural_of_tower(t1)
    s2 = supernatural_of_tower(t2)
    for p in sorted(set(s1.exponents) | set(s2.exponents)):
        e1, e2 = s1.exponent_of(p), s2.exponent_of(p)
        if e1 != e2:
            return p, int(min(e1, e2)) + 1
    return None
