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

from collections import Counter
from collections.abc import Iterator
from functools import lru_cache
from itertools import accumulate, chain, compress, cycle
from math import gcd, inf, isqrt, prod
from operator import mul

from .errors import (LIMITS, Frozen, MalformedInput, PreconditionViolation, _checked_container,
                     _checked_int, _clip, over_limit)

# Exponent marking a prime of unbounded valuation along the tower.
INFINITE = inf

# Trial division runs over the primes below _SMALL; a number below _SMALL**2
# with no such factor is prime.
_SMALL = 1000


def _sieve(n: int) -> tuple[int, ...]:
    """The primes below n, by a sieve of Eratosthenes over a bytearray."""
    is_prime = bytearray([0, 0]) + bytearray([1]) * (n - 2)
    for p in range(2, isqrt(n - 1) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = bytes(len(range(p * p, n, p)))
    return tuple(compress(range(n), is_prime))


_SMALL_PRIMES = _sieve(_SMALL)
_SMALL_PRIME_SET = frozenset(_SMALL_PRIMES)
# Miller-Rabin with the first 13 prime bases (2..41) is exact below this
# bound, its least strong pseudoprime (Sorenson & Webster, Math. Comp. 2017).
_MR_BASES = _SMALL_PRIMES[:13]
_MR_LIMIT = 3317044064679887385961981


def _checked_ratio(value) -> int:
    if _checked_int(value, "ratio") < 1:
        raise MalformedInput(f"ratio must be >= 1, got {_clip(value)}")
    return value


# factorint tests a residue, and a SupernaturalNumber keyed by it tests it again
@lru_cache(maxsize=64)
def _residue_is_prime(n: int) -> bool:
    """Primality of n >= _SMALL**2 with no prime factor below _SMALL.

    Deterministic Miller-Rabin below _MR_LIMIT; sympy decides larger n.
    """
    if n >= _MR_LIMIT:
        from sympy import isprime as sympy_isprime

        return sympy_isprime(n)
    m = n - 1
    s = (m & -m).bit_length() - 1
    d = m >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == m:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == m:
                break
        else:
            return False
    return True


def isprime(n: int) -> bool:
    """Exact primality test of an integer."""
    if n < _SMALL:
        return n in _SMALL_PRIME_SET
    if any(n % p == 0 for p in _SMALL_PRIMES):
        return False
    return n < _SMALL**2 or _residue_is_prime(n)


def _checked_prime(p, error: type, what: str = "") -> int:
    """p, when it is a prime; otherwise ``error``.  A p with a factor below
    _SMALL is not prime at any size; any other p past the "prime size"
    limit is refused before its primality test."""
    if (isinstance(p, int) and p.bit_length() > LIMITS["prime size"][0]
            and all(p % q for q in _SMALL_PRIMES)):
        raise over_limit("prime size", what, p, error=error)
    if not (isinstance(p, int) and isprime(p)):
        raise error(f"{what}{_clip(p)} is not prime")
    return p


def factorint(n: int) -> dict[int, int]:
    """Prime factorization {p: e} of n >= 1, by trial division below _SMALL.

    A residue with no small factor is prime when it is below _SMALL**2 or
    passes ``_residue_is_prime``; sympy factors any other residue.  A residue
    past the "prime size" limit is refused before either, as the exponent
    key of a supernatural number would be, prime or not.
    """
    if n < 1:
        raise PreconditionViolation("can only factor integers >= 1")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out[p] = e
    else:
        if n.bit_length() > LIMITS["prime size"][0]:
            raise over_limit("prime size", "exponent key ", n, error=MalformedInput)
        if n >= _SMALL**2 and not _residue_is_prime(n):
            from sympy import factorint as sympy_factorint

            return out | sympy_factorint(n)
    if n > 1:
        out[n] = 1
    return out


def _strip(n: int, m: int) -> int:
    """n with every prime factor of m divided out."""
    g = gcd(n, m)
    while g > 1:
        n //= g
        g = gcd(n, g * g)  # the primes of g that n still has, up to twice as often
    return n


def _primitive_period(items: tuple) -> tuple:
    """Shortest pattern whose repetition reproduces ``items`` (nonempty).
    The d | n for which ``items`` is n/d copies of ``items[:d]`` are the
    multiples of the shortest pattern's length that divide n, so from d = n
    each prime p of n is divided out of d while the shift of ``items`` by
    d/p, one slice compare in C, leaves it unchanged: at most log2(n)
    compares that succeed and one per prime that fails, after trial
    division of n up to its square root."""
    d = m = len(items)
    p = 2
    while m > 1:
        if p * p > m:
            p = m  # what is left of m is prime
        if m % p:
            p += 1
            continue
        while m % p == 0:
            m //= p
        while d % p == 0 and items[d // p :] == items[: -(d // p)]:
            d //= p
    return items[:d]


def _normal_form(prefix: tuple, period: tuple) -> tuple[tuple, tuple]:
    """Shortest prefix and primitive period of prefix, period, period, ...
    (period nonempty): one walk back absorbs each prefix entry equal to the
    entry a period later, then one rotation realigns the period."""
    period = _primitive_period(period)
    p, q = len(prefix), len(period)
    s = p
    while s and prefix[s - 1] == period[(s - 1 - p) % q]:
        s -= 1
    shift = (s - p) % q
    return prefix[:s], period[shift:] + period[:shift]


class Tower(Frozen):
    """Ratio stream of an increasing chain of finite subgroup orders.

    ``prefix`` is consumed once, then ``tail`` repeats forever; an empty tail
    denotes a finite group of order prod(prefix).  Normalization drops ratio-1
    entries, reduces the tail to its primitive period, and absorbs trailing
    prefix entries that merely rotate the tail, so equal ratio streams get
    equal representations.
    """

    _fields = ("prefix", "tail")

    def __init__(self, prefix: tuple[int, ...] = (), tail: tuple[int, ...] = ()):
        prefix = tuple(r for r in map(_checked_ratio, _checked_container(prefix, "prefix")) if r > 1)
        tail = tuple(r for r in map(_checked_ratio, _checked_container(tail, "tail")) if r > 1)
        if tail:
            prefix, tail = _normal_form(prefix, tail)
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "tail", tail)

    @property
    def is_infinite(self) -> bool:
        return bool(self.tail)

    def ratio(self, i: int) -> int:
        """i-th unrolled ratio (0-based); 1 once a finite tower is exhausted."""
        if _checked_int(i, "ratio index") < 0:
            raise PreconditionViolation("ratio index must be >= 0")
        if i < len(self.prefix):
            return self.prefix[i]
        if not self.tail:
            return 1
        return self.tail[(i - len(self.prefix)) % len(self.tail)]

    def levels(self) -> Iterator[int]:
        """k_0 = 1, k_1, ...: endless on an infinite tower; a finite one ends
        at k_len(prefix), the order every later level saturates at."""
        return accumulate(chain(self.prefix, cycle(self.tail)), mul, initial=1)

    def saturation_level(self, d: int) -> int:
        """A level from which gcd(k_n, d) no longer grows (d >= 1): each tail
        period raises every tail prime's valuation, no valuation of d exceeds
        d.bit_length() - 1, and a prefix-only prime is done with the prefix.
        Sharp: tail (2,) and d = 2^j need all j periods."""
        return len(self.prefix) + len(self.tail) * (d.bit_length() - 1)

    def order(self, n: int) -> int:
        """Subgroup order k_n in closed form: the prefix ratios among the
        first n, one power of the tail product for the whole periods, and the
        rest of a period.  Saturates at prod(prefix) for finite towers."""
        if _checked_int(n, "level") < 0:
            raise PreconditionViolation("level must be >= 0")
        whole, rest = divmod(max(n - len(self.prefix), 0), len(self.tail)) if self.tail else (0, 0)
        return prod(self.prefix[:n]) * prod(self.tail) ** whole * prod(self.tail[:rest])


class SupernaturalNumber(Frozen):
    """Formal product prod_p p^{e_p} with e_p in {0, 1, 2, ...} or INFINITE.

    ``exponents`` stores only primes whose exponent differs from
    ``default_exponent`` (which is 0 or INFINITE), so equal values compare
    equal structurally.  A key past the "prime size" limit is refused.
    """

    _fields = ("exponents", "default_exponent")

    def __init__(self, exponents: dict[int, int | float], default_exponent: int | float = 0):
        if default_exponent not in (0, INFINITE):
            raise MalformedInput("default exponent must be 0 or INFINITE")
        normalized = {}
        for p, e in sorted(_checked_container(exponents, "exponents", (dict,)).items()):
            _checked_prime(p, MalformedInput, "exponent key ")
            if e != INFINITE:
                _checked_int(e, f"exponent of {_clip(p)}")
            if e == default_exponent:
                continue
            if e != INFINITE and e < 1:
                raise MalformedInput(
                    f"exponent of {_clip(p)} must be >= 1 or INFINITE, got {_clip(e)}")
            normalized[p] = e
        object.__setattr__(self, "exponents", normalized)
        object.__setattr__(self, "default_exponent", default_exponent)

    def exponent_of(self, p: int) -> int | float:
        return self.exponents.get(p, self.default_exponent)


@lru_cache(maxsize=4096)
def supernatural_of_tower(t: Tower) -> SupernaturalNumber:
    """sup_n k_n as a supernatural number.

    A prime dividing the tail product recurs forever, so its exponent is
    INFINITE; otherwise the exponent is its valuation in the prefix product.
    Each distinct ratio is factored once.
    """
    exps: dict[int, int | float] = {}
    for r, count in Counter(t.prefix).items():
        for p, e in factorint(r).items():
            exps[p] = exps.get(p, 0) + e * count
    for r in set(t.tail):
        exps.update(dict.fromkeys(factorint(r), INFINITE))
    return SupernaturalNumber(exps, 0)


def sn_divides(p: int, m: int, s: SupernaturalNumber) -> bool:
    """Whether p^m divides s.  Requires p prime (within the "prime size"
    limit) and m >= 1."""
    _checked_prime(p, PreconditionViolation)
    if _checked_int(m, "exponent m") < 1:
        raise PreconditionViolation("exponent m must be an integer >= 1")
    return m <= s.exponent_of(p)


def bijectively_coarsely_equivalent(t1: Tower, t2: Tower) -> bool:
    """Complete invariant: equality of the towers' supernatural numbers,
    decided by gcds without factoring.

    The primes of infinite exponent are those of the tail product, so the two
    tail products must have the same primes.  Every other exponent is a
    valuation of the prefix product once the tail's primes are divided out.
    """
    tail1, tail2 = prod(t1.tail, start=1), prod(t2.tail, start=1)
    return (_strip(tail1, tail2) == 1 and _strip(tail2, tail1) == 1
            and _strip(prod(t1.prefix, start=1), tail1) == _strip(prod(t2.prefix, start=1), tail2))


def coarsely_equivalent(t1: Tower, t2: Tower) -> bool:
    """All infinite towers are coarsely equivalent; finite ones only to finite."""
    return t1.is_infinite == t2.is_infinite


def obstruction_witness(t1: Tower, t2: Tower) -> tuple[int, int] | None:
    """Smallest prime power p^r dividing exactly one of the two supernatural
    numbers (smallest p, then least r), or None when they are equal.

    Equal numbers are found by gcds before anything is factored.
    Tower-built numbers have default exponent 0, so unequal ones differ at a
    prime keyed in one of them.
    """
    if bijectively_coarsely_equivalent(t1, t2):
        return None
    s1 = supernatural_of_tower(t1)
    s2 = supernatural_of_tower(t2)
    p = min(p for p in s1.exponents.keys() | s2.exponents.keys()
            if s1.exponent_of(p) != s2.exponent_of(p))
    return p, int(min(s1.exponent_of(p), s2.exponent_of(p))) + 1
