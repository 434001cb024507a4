"""Ordered K0 invariant of the uniform Roe algebra of an infinite tower.

K0 is the quotient of bounded integer sequences by the subgroup H of
sequences that, at some level n, have every aligned k_n-block summing to
zero.  Eventually periodic integer sequences (finite prefix plus repeating
period) are closed under the group operations and suffice for every
invariant computed here; the order unit is the constant-1 sequence.

Membership in H is decidable exactly: with d eventually periodic of period
sum sigma and cumulative sums S, membership at level n means S vanishes at
all multiples of k_n, which forces sigma = 0; then S is eventually periodic
and only finitely many residues (the multiples of g* = lim_n gcd(k_n, |period|))
are ever hit by large multiples of k_n, so one window check at the first
gcd-stable level decides the infinite search.  Positivity reduces the same
way: beyond the stable level the block sums along the residue cycle add up
to zero, so they are all nonnegative only if they all vanish.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from math import gcd, lcm, prod

from .equivalence import TowerBijection
from .errors import LIMIT_BITS, DepthExhausted, MalformedInput, PreconditionViolation
from .supernatural import (
    Tower,
    _checked_int,
    _clip,
    _normal_form,
    bijectively_coarsely_equivalent,
    coarsely_equivalent,
    isprime,
)


@dataclass(frozen=True)
class K0Class:
    """Eventually periodic integer sequence representing a K0 element.

    Canonical form: minimal period, shortest prefix.  Structural equality is
    equality of sequences; use k0_equal for equality modulo H.
    """

    context: Tower
    prefix: tuple[int, ...]
    period: tuple[int, ...]
    _prefix_sums: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _period_sums: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        prefix = tuple(_checked_int(v, "sequence entry") for v in self.prefix)
        period = tuple(_checked_int(v, "sequence entry") for v in self.period)
        # malformed entries are reported before a finite context (exit 2 before 4)
        if not self.context.is_infinite:
            raise PreconditionViolation("K0 sequence classes need an infinite tower")
        if not period:
            raise MalformedInput("period must be nonempty")
        prefix, period = _normal_form(prefix, period)
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "_prefix_sums", tuple(accumulate(prefix, initial=0)))
        object.__setattr__(self, "_period_sums", tuple(accumulate(period, initial=0)))

    @property
    def period_sum(self) -> int:
        return self._period_sums[-1]

    def value(self, i: int) -> int:
        if i < 0:
            raise PreconditionViolation("index must be >= 0")
        if i < len(self.prefix):
            return self.prefix[i]
        return self.period[(i - len(self.prefix)) % len(self.period)]

    def partial_sum(self, i: int) -> int:
        """Sum of the first i entries."""
        s, q = len(self.prefix), len(self.period)
        if i <= s:
            return self._prefix_sums[i]
        whole, rest = divmod(i - s, q)
        return self._prefix_sums[s] + whole * self.period_sum + self._period_sums[rest]

    def block_sum(self, start: int, length: int) -> int:
        return self.partial_sum(start + length) - self.partial_sum(start)

    def is_zero(self) -> bool:
        return self.prefix == () and self.period == (0,)


@dataclass(frozen=True)
class FiniteK0:
    """Element of K0 = (Z, order unit k) for a finite tower of full order k."""

    rank: int
    unit_rank: int

    def __post_init__(self):
        _checked_int(self.rank, "rank")
        if _checked_int(self.unit_rank, "unit rank") < 1:
            raise MalformedInput("unit rank must be >= 1")


def k0_unit(t: Tower) -> K0Class | FiniteK0:
    """Class of the identity: constant 1s, or (k, k) for a finite tower."""
    if not t.is_infinite:
        k = t.order(len(t.prefix))
        return FiniteK0(k, k)
    return K0Class(t, (), (1,))


def k0_zero(t: Tower) -> K0Class:
    return K0Class(t, (), (0,))


def _same_context(a: K0Class, b: K0Class) -> Tower:
    if a.context != b.context:
        raise PreconditionViolation("classes live over different towers")
    return a.context


def k0_add(a: K0Class, b: K0Class) -> K0Class:
    t = _same_context(a, b)
    s = max(len(a.prefix), len(b.prefix))
    q = lcm(len(a.period), len(b.period))
    prefix = tuple(a.value(i) + b.value(i) for i in range(s))
    period = tuple(a.value(s + j) + b.value(s + j) for j in range(q))
    return K0Class(t, prefix, period)


def k0_neg(a: K0Class) -> K0Class:
    return K0Class(a.context, tuple(-v for v in a.prefix), tuple(-v for v in a.period))


def k0_scale(c: int, a: K0Class) -> K0Class:
    c = _checked_int(c, "sequence entry")
    return K0Class(a.context, tuple(c * v for v in a.prefix), tuple(c * v for v in a.period))


def k0_sub(a: K0Class, b: K0Class) -> K0Class:
    return k0_add(a, k0_neg(b))


def _block_sums(d: K0Class, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Aligned k_n-block sums of d, as (prefix, period): the blocks covering
    the prefix, then one lcm(k_n, |period|) stretch, which repeats forever:
    so this window holds every block sum."""
    k = d.context.order(n)
    nb = -(-len(d.prefix) // k)
    sums = [d.block_sum(j * k, k) for j in range(nb + lcm(k, len(d.period)) // k)]
    return tuple(sums[:nb]), tuple(sums[nb:])


def h_membership(t: Tower, d: K0Class, n: int) -> bool:
    """Whether d is in the kernel of the level-n connecting map alpha_iterate."""
    return alpha_iterate(t, n, d).is_zero()


def _blocks_nonneg(d: K0Class, n: int) -> bool:
    prefix, period = _block_sums(d, n)
    return min(prefix + period) >= 0


def _stable_level(d: K0Class) -> int:
    """Least n with gcd(k_n, |period|) at its limit g* and k_n >= |prefix| + |period|.

    Beyond this level the multiples of k_n land exactly on the residues of
    the subgroup generated by g* modulo the period length, so an existential
    search over all levels collapses to this single one.
    """
    t, s, q = d.context, len(d.prefix), len(d.period)
    g_star = gcd(q, t.order(t.saturation_level(q)))
    return next(n for n, k in enumerate(t.levels()) if gcd(k, q) == g_star and k >= s + q)


def k0_equal(a: K0Class, b: K0Class) -> bool:
    """Equality in K0, decided exactly.

    The difference must have period sum zero (nonzero sums survive every
    block aggregation); then one window check at the gcd-stable level is
    equivalent to the existential search over all levels.
    """
    d = k0_sub(a, b)
    if d.period_sum != 0:
        return False
    return h_membership(d.context, d, _stable_level(d))


def _spread(sums: tuple[int, ...], k: int) -> tuple[int, ...]:
    """(s_0, 0, ..., 0, s_1, 0, ...): each sum opens a block of k entries.
    A layout over 2^LIMIT_BITS entries is refused before it is allocated."""
    size = k * len(sums)
    if size > 1 << LIMIT_BITS:
        raise PreconditionViolation(
            f"a K0 layout of {_clip(size)} entries is over the 2^{LIMIT_BITS} limit")
    seq = [0] * size
    seq[::k] = sums
    return tuple(seq)


def _positive_level(a: K0Class) -> int | None:
    """A level whose aligned block sums of a are all nonnegative, or None
    when a is not in the positive cone.

    Positive period sum dominates boundary effects once
    floor(k_n/q)*sigma > (|prefix| + 2|period|)*max|entry|; negative period
    sum makes deep blocks negative at every level; zero period sum reduces to
    the stable-level window exactly like k0_equal.
    """
    sigma = a.period_sum
    if sigma < 0:
        return None
    if sigma == 0:
        n = _stable_level(a)
        return n if _blocks_nonneg(a, n) else None
    s, q = len(a.prefix), len(a.period)
    bound = (s + 2 * q) * max(abs(v) for v in a.prefix + a.period)
    return next(n for n, k in enumerate(a.context.levels())
                if (k // q) * sigma > bound and _blocks_nonneg(a, n))


def k0_positive(a: K0Class) -> tuple[bool, K0Class | None]:
    """Membership in the positive cone, with a pointwise-nonnegative witness:
    the block sums alpha_iterate gives at the level ``_positive_level``
    finds, each opening its block of k_n entries."""
    n = _positive_level(a)
    if n is None:
        return False, None
    t, k = a.context, a.context.order(n)
    sums = alpha_iterate(t, n, a)
    return True, K0Class(t, _spread(sums.prefix, k), _spread(sums.period, k))


def unit_divide(t: Tower, p: int, r: int) -> K0Class | None:
    """Witness w with p^r * w = [1] in K0, when p^r divides the supernatural
    number; None otherwise (the main obstruction to equivalence).  The
    witness has a period of p^r entries; over 2^LIMIT_BITS it is
    refused before anything is allocated."""
    if not t.is_infinite:
        raise PreconditionViolation("unit division needs an infinite tower")
    if _checked_int(r, "exponent") < 0:
        raise PreconditionViolation("exponent must be an integer >= 0")
    if r == 0:
        return K0Class(t, (), (1,))
    if not (isinstance(p, int) and isprime(p)):
        raise PreconditionViolation(f"{_clip(p)} is not prime")
    # v_p(sup k_n) is infinite when p divides the tail product, else it is
    # v_p of the prefix product; p^r >= 2^(r * (bitlen(p) - 1)), so p^r is
    # not formed once that bound passes the product: nothing is factored
    head = prod(t.prefix)
    if prod(t.tail) % p and (r * (p.bit_length() - 1) >= head.bit_length() or head % p**r):
        return None
    # p >= 2, so an exponent over the cap's bits is over the cap
    if r > LIMIT_BITS or p**r > 2**LIMIT_BITS:
        p, r = _clip(p), _clip(r)
        raise PreconditionViolation(
            f"[1]/{p}^{r} needs a period of {p}^{r} entries, over the 2^{LIMIT_BITS} limit")
    # any block of size k_n with p^r | k_n holds whole periods, so this is
    # the shortest representative; p^r copies sum blockwise to the unit
    return K0Class(t, (), _spread((1,), p**r))


def alpha_iterate(t: Tower, n: int, v: K0Class) -> K0Class:
    """Level-n connecting map on sequences: aligned k_n-block sums."""
    if v.context != t:
        raise PreconditionViolation("sequence context does not match the tower")
    if _checked_int(n, "level") < 0:
        raise PreconditionViolation("level must be an integer >= 0")
    return K0Class(t, *_block_sums(v, n))


def k0_iso_exists(t1: Tower, t2: Tower) -> bool:
    """Ordered unital isomorphism of the K0 invariants.

    Same-finiteness pairs reduce to supernatural-number equality (for finite
    towers that is equality of the full orders); a finite and an infinite
    tower never match (Z with a single generator against a non-cyclic group).
    Supernatural-number equality already implies the same finiteness: a
    finite tower's number has only finite exponents, an infinite tower's has
    an INFINITE one.
    """
    return bijectively_coarsely_equivalent(t1, t2)


def k0_groups_abstractly_iso(t1: Tower, t2: Tower) -> bool:
    """Group isomorphism ignoring order and unit: only finiteness matters."""
    return coarsely_equivalent(t1, t2)


def transport_class(b: TowerBijection, a: K0Class) -> K0Class:
    """Push a finitely supported class through a truncated bijection."""
    if a.context != b.source:
        raise PreconditionViolation("class context does not match the map source")
    if a.period != (0,):
        raise PreconditionViolation("only finitely supported classes (period [0]) transport")
    support = [i for i, v in enumerate(a.prefix) if v != 0]
    if any(i >= b.domain_size for i in support):
        raise DepthExhausted("support escapes the truncated domain")
    out: dict[int, int] = {}
    for i in support:
        y = b.mapping[i]
        if y in out:
            raise PreconditionViolation("map is not injective on the support")
        out[y] = a.prefix[i]
    length = max(out, default=-1) + 1
    return K0Class(b.target, tuple(out.get(i, 0) for i in range(length)), (0,))
