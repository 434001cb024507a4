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

from itertools import accumulate, chain, cycle, islice, repeat
from math import gcd, lcm, prod
from operator import add, floordiv, mod, mul, neg, sub

from .errors import (LIMITS, DepthExhausted, Frozen, MalformedInput, PreconditionViolation,
                     _checked_int, _checked_ints, check_limit, over_limit)
from .supernatural import Tower, _checked_prime, _normal_form, bijectively_coarsely_equivalent


class K0Class(Frozen):
    """Eventually periodic integer sequence representing a K0 element.

    Canonical form: minimal period, shortest prefix.  Structural equality is
    equality of sequences; use k0_equal for equality modulo H.
    """

    _fields = ("context", "prefix", "period")

    def __init__(self, context: Tower, prefix: tuple[int, ...], period: tuple[int, ...]):
        self.__post_init__(context, prefix, period)  # bench/spans.py times it

    def __post_init__(self, context, prefix, period):
        prefix = _checked_ints(prefix, "sequence entry", "prefix")
        period = _checked_ints(period, "sequence entry", "period")
        # malformed entries are reported before a finite context (exit 2 before 4)
        _need_infinite(context)
        if not period:
            raise MalformedInput("period must be nonempty")
        prefix, period = _normal_form(prefix, period)
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "period", period)

    def value(self, i: int) -> int:
        if _checked_int(i, "index") < 0:
            raise PreconditionViolation("index must be >= 0")
        if i < len(self.prefix):
            return self.prefix[i]
        return self.period[(i - len(self.prefix)) % len(self.period)]

    def is_zero(self) -> bool:
        return self.prefix == () and self.period == (0,)


def _need_infinite(t: Tower):
    if not t.is_infinite:
        raise PreconditionViolation("K0 sequence classes need an infinite tower")


class FiniteK0(Frozen):
    """Element of K0 = (Z, order unit k) for a finite tower of full order k."""

    _fields = ("rank", "unit_rank")

    def __init__(self, rank: int, unit_rank: int):
        _checked_int(rank, "rank")
        if _checked_int(unit_rank, "unit rank") < 1:
            raise MalformedInput("unit rank must be >= 1")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "unit_rank", unit_rank)


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
    """Entrywise sum, built in whole-sequence passes.  Its period has
    lcm(|period a|, |period b|) entries; past the "K0 layout" limit it is
    refused before anything is allocated."""
    t = _same_context(a, b)
    s = max(len(a.prefix), len(b.prefix))
    q = check_limit("K0 layout", lcm(len(a.period), len(b.period)))
    sums = map(add, chain(a.prefix, cycle(a.period)), chain(b.prefix, cycle(b.period)))
    prefix, period = _normal_form(tuple(islice(sums, s)), tuple(islice(sums, q)))
    return K0Class._of(context=t, prefix=prefix, period=period)


def k0_neg(a: K0Class) -> K0Class:
    # negation is injective on entries, so it keeps the normal form
    return K0Class._of(context=a.context, prefix=tuple(map(neg, a.prefix)),
                       period=tuple(map(neg, a.period)))


def k0_scale(c: int, a: K0Class) -> K0Class:
    if _checked_int(c, "sequence entry") == 0:
        return k0_zero(a.context)
    # multiplication by c != 0 is injective on entries too
    return K0Class._of(context=a.context, prefix=tuple(map(mul, repeat(c), a.prefix)),
                       period=tuple(map(mul, repeat(c), a.period)))


def k0_sub(a: K0Class, b: K0Class) -> K0Class:
    return k0_add(a, k0_neg(b))


def _block_sums(d: K0Class, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Aligned k_n-block sums of d, as (prefix, period): the blocks covering
    the prefix, then one lcm(k_n, |period|) stretch, which repeats forever:
    so this window holds every block sum.  The only code that sums entries:
    from the running sums head of the prefix and cyc of the period (sigma in
    all), the partial sum at boundary i is head[i] inside the prefix, else
    head[s] + (i - s)//q * sigma + cyc[(i - s) % q], with no step per block."""
    k = d.context.order(n)
    s, q = len(d.prefix), len(d.period)
    nb = -(-s // k)
    head = list(accumulate(d.prefix, initial=0))
    cyc = list(accumulate(d.period, initial=0))
    # i - s for the boundaries from the first one at or past the prefix
    past = range(nb * k - s, nb * k - s + lcm(k, q) + 1, k)
    wraps = map(mul, map(floordiv, past, repeat(q)), repeat(cyc[-1]))
    rests = map(cyc.__getitem__, map(mod, past, repeat(q)))
    bounds = head[:s:k] + list(map(add, repeat(head[-1]), map(add, wraps, rests)))
    sums = tuple(map(sub, bounds[1:], bounds))
    return sums[:nb], sums[nb:]


def h_membership(t: Tower, d: K0Class, n: int) -> bool:
    """Whether d is in the kernel of the level-n connecting map alpha_iterate."""
    return alpha_iterate(t, n, d).is_zero()


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
    """Equality in K0, decided exactly, without forming a - b.

    a - b needs period sum zero (nonzero sums survive every block
    aggregation): equal period averages.  Then a - b is in H exactly when a
    and b have the same block sums at n, the larger stable level of the
    two: gcd(k, lcm(p, q)) = lcm(gcd(k, p), gcd(k, q)), the difference's
    prefix is no longer than the longer one, and the kernels only grow.
    """
    _same_context(a, b)
    if sum(a.period) * len(b.period) != sum(b.period) * len(a.period):
        return False
    n = max(_stable_level(a), _stable_level(b))
    return _normal_form(*_block_sums(a, n)) == _normal_form(*_block_sums(b, n))


def _spread(t: Tower, prefix: tuple[int, ...], period: tuple[int, ...], k: int) -> K0Class:
    """The class of normal-form sums (prefix, period) with each sum spread
    over a block of k entries as (sum, 0, ..., 0), written in normal form.
    A shift that keeps the spread period moves its nonzero entries onto
    multiples of k, so it shifts the primitive sums: the spread period is
    primitive unless all zeros.  The k - 1 zeros ending the last prefix
    block are the period's, and prefix[-1] != period[-1] stops the prefix
    walk there, so each period sum closes its block.  Refused past the "K0
    layout" limit on k * len(prefix), then on a nonzero period's k * len(period),
    before allocating; a finite t after that, as the checking constructor would."""
    for size in (k * len(prefix), 0 if period == (0,) else k * len(period)):
        check_limit("K0 layout", size)
    _need_infinite(t)
    head = [0] * ((len(prefix) - 1) * k + 1 if prefix else 0)
    head[::k] = prefix
    if period == (0,):
        return K0Class._of(context=t, prefix=tuple(head), period=period)
    body = [0] * (k * len(period))
    body[k - 1 if prefix else 0::k] = period
    return K0Class._of(context=t, prefix=tuple(head), period=tuple(body))


def _positive_level(a: K0Class) -> tuple[int, K0Class] | None:
    """A level whose aligned block sums of a are all nonnegative, with its
    alpha_iterate class of them, or None when a is not in the positive cone.

    Positive period sum dominates boundary effects once
    floor(k_n/q)*sigma > (|prefix| + 2|period|)*max|entry|; negative period
    sum makes deep blocks negative at every level; zero period sum reduces to
    the stable-level window exactly like k0_equal.
    """
    t, sigma = a.context, sum(a.period)
    if sigma < 0:
        return None
    if sigma == 0:
        levels = [_stable_level(a)]
    else:
        s, q = len(a.prefix), len(a.period)
        bound = (s + 2 * q) * max(map(abs, a.prefix + a.period))
        levels = (n for n, k in enumerate(t.levels()) if (k // q) * sigma > bound)
    for n in levels:
        sums = alpha_iterate(t, n, a)
        if min(sums.prefix + sums.period) >= 0:
            return n, sums
    return None


def k0_positive(a: K0Class) -> tuple[bool, K0Class | None]:
    """Membership in the positive cone, with a pointwise-nonnegative witness:
    the block sums ``_positive_level`` checked, each spread over its block of
    k_n entries, laid out in normal form at a cost linear in the layout."""
    found = _positive_level(a)
    if found is None:
        return False, None
    n, sums = found
    return True, _spread(a.context, sums.prefix, sums.period, a.context.order(n))


def unit_divide(t: Tower, p: int, r: int) -> K0Class | None:
    """Witness w with p^r * w = [1] in K0, when p^r divides the supernatural
    number; None otherwise (the main obstruction to equivalence).  The
    witness has a period of p^r entries; past the "unit-division period"
    limit it is refused before anything is allocated."""
    if not t.is_infinite:
        raise PreconditionViolation("unit division needs an infinite tower")
    if _checked_int(r, "exponent") < 0:
        raise PreconditionViolation("exponent must be an integer >= 0")
    if r == 0:
        return K0Class(t, (), (1,))
    _checked_prime(p, PreconditionViolation)
    # v_p(sup k_n) is infinite when p divides the tail product, else it is
    # v_p of the prefix product; p^r >= 2^(r * (bitlen(p) - 1)), so p^r is
    # not formed once that bound passes the product: nothing is factored
    head = prod(t.prefix)
    if prod(t.tail) % p and (r * (p.bit_length() - 1) >= head.bit_length() or head % p**r):
        return None
    # p >= 2, so an exponent over the cap's bits is over the cap
    if r > LIMITS["unit-division period"][0]:
        raise over_limit("unit-division period", p, r)
    # any block of size k_n with p^r | k_n holds whole periods, so this is
    # the shortest representative; p^r copies sum blockwise to the unit
    return _spread(t, (), (1,), check_limit("unit-division period", p**r, p, r))


def alpha_iterate(t: Tower, n: int, v: K0Class) -> K0Class:
    """Level-n connecting map on sequences: aligned k_n-block sums."""
    if v.context != t:
        raise PreconditionViolation("sequence context does not match the tower")
    if _checked_int(n, "level") < 0:
        raise PreconditionViolation("level must be an integer >= 0")
    prefix, period = _normal_form(*_block_sums(v, n))
    return K0Class._of(context=t, prefix=prefix, period=period)


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


def transport_class(b: TowerBijection, a: K0Class) -> K0Class:
    """Push a finitely supported class through a truncated bijection.  Its
    layout runs to the largest image, refused past the "K0 layout" limit."""
    if a.context != b.source:
        raise PreconditionViolation("class context does not match the map source")
    if a.period != (0,):
        raise PreconditionViolation("only finitely supported classes (period [0]) transport")
    support = [i for i, v in enumerate(a.prefix) if v != 0]
    if any(i >= b.domain_size for i in support):
        raise DepthExhausted("support escapes the truncated domain")
    out: dict[int, int] = {}
    for i in support:
        y = b.image(i)
        if y in out:
            raise PreconditionViolation("map is not injective on the support")
        out[y] = a.prefix[i]
    length = check_limit("K0 layout", max(out, default=-1) + 1)
    return K0Class(b.target, tuple(out.get(i, 0) for i in range(length)), (0,))
