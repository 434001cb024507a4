"""Towers, supernatural numbers, and the equivalence predicates."""

import itertools
import math
import sys

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import factorint

from roeclass import supernatural
from roeclass.errors import LIMITS
from roeclass.ktheory import K0Class
from roeclass.supernatural import _normal_form, _primitive_period
from roeclass import (
    INFINITE,
    MalformedInput,
    PreconditionViolation,
    SupernaturalNumber,
    Tower,
    bijectively_coarsely_equivalent,
    coarsely_equivalent,
    obstruction_witness,
    sn_divides,
    supernatural_of_tower,
    unit_divide,
)

from conftest import Budget, ratios, towers


def exponent_oracle(t, p, depth=12):
    """Largest v_p(k_n) over n <= depth, or INFINITE if still growing at the end.

    Independent of supernatural_of_tower: works from raw orders only.
    """
    vals = []
    for n in range(depth + 1):
        k = t.order(n)
        v = 0
        while k % p == 0:
            k //= p
            v += 1
        vals.append(v)
    if t.tail and vals[-1] > vals[-(len(t.tail) + 1)]:
        return INFINITE
    return vals[-1]


class TestTowerOrder:
    def test_powers_of_two(self):
        t = Tower((), (2,))
        assert [t.order(n) for n in range(4)] == [1, 2, 4, 8]

    def test_empty_product(self):
        assert Tower((2, 3), (5,)).order(0) == 1
        assert Tower((), ()).order(0) == 1

    def test_prefix_then_tail(self):
        assert Tower((2, 3), (5,)).order(4) == 150

    def test_finite_tower_saturates(self):
        t = Tower((6,), ())
        assert t.order(1) == 6
        assert t.order(5) == 6

    @given(towers(), st.integers(min_value=0, max_value=8))
    def test_monotone_and_divisible(self, t, n):
        a, b = t.order(n), t.order(n + 1)
        assert b % a == 0
        assert b >= a

    @given(towers(), st.integers(min_value=0, max_value=3))
    def test_level_stream_is_running_product(self, t, periods):
        # past the prefix and across several tail periods
        depth = len(t.prefix) + len(t.tail) * periods + 2
        running = [1]
        for i in range(depth):
            running.append(running[-1] * t.ratio(i))
        assert [t.order(n) for n in range(depth + 1)] == running
        if t.is_infinite:
            assert list(itertools.islice(t.levels(), depth + 1)) == running
        else:
            assert list(t.levels()) == running[: len(t.prefix) + 1]

    @given(towers(), st.integers(min_value=0, max_value=40))
    def test_closed_form_matches_level_stream(self, t, n):
        # n reaches far past a finite tower's saturation level
        *_, last = itertools.islice(t.levels(), n + 1)
        assert t.order(n) == last

    def test_huge_level_is_one_power(self):
        budget = Budget(1.0)
        assert Tower((3,), (2,)).order(10**7) == 3 << (10**7 - 1)
        assert Tower((3,), ()).order(10**9) == 3
        budget.check()

    @example(Tower((), (2,)), 2**10)
    @given(towers(), st.builds(lambda p, e, c: p**e * c, st.sampled_from([2, 3, 5, 7]),
                               st.integers(0, 12), st.integers(1, 50)))
    def test_gcd_settles_at_saturation_level(self, t, d):
        s = t.saturation_level(d)
        g = math.gcd(t.order(s), d)
        for n in range(s, s + 3 * len(t.tail) + 1):
            assert math.gcd(t.order(n), d) == g


class TestNormalization:
    def test_ones_dropped(self):
        assert Tower((1, 2, 1), (3, 1)) == Tower((2,), (3,))

    def test_all_ones_tail_becomes_empty(self):
        assert Tower((2,), (1, 1)) == Tower((2,), ())

    def test_primitive_tail_period(self):
        assert Tower((), (2, 3, 2, 3)) == Tower((), (2, 3))

    def test_prefix_rotation_absorbed(self):
        # prefix ending in the tail's last ratio is one rotation of the tail
        assert Tower((2,), (3, 2)) == Tower((), (2, 3))

    def test_rejects_zero_ratio(self):
        with pytest.raises(ValueError):
            Tower((0,), ())

    def test_rejects_bool(self):
        with pytest.raises(ValueError):
            Tower((True,), ())

    @given(towers(), st.integers(min_value=0, max_value=3))
    def test_one_insertion_invisible(self, t, pos):
        prefix = list(t.prefix)
        prefix.insert(min(pos, len(prefix)), 1)
        assert Tower(tuple(prefix), t.tail) == t

    @given(towers(max_tail=2), st.integers(min_value=2, max_value=3))
    def test_tail_concatenation_invisible(self, t, k):
        assert Tower(t.prefix, t.tail * k) == t

    def test_long_absorbed_prefix_is_linear(self):
        # absorbing 10^5 prefix entries into the tail takes one walk, not a copy per entry
        budget = Budget(1.0)
        assert Tower((2,) * 100_000, (2,)) == Tower((), (2,))
        budget.check()


def unroll(prefix, period, n):
    return [prefix[i] if i < len(prefix) else period[(i - len(prefix)) % len(period)]
            for i in range(n)]


@st.composite
def eventually_periodic(draw, alphabet):
    """A prefix and a period that is often a repeated pattern."""
    prefix = tuple(draw(st.lists(alphabet, max_size=8)))
    base = tuple(draw(st.lists(alphabet, min_size=1, max_size=4)))
    return prefix, base * draw(st.integers(min_value=1, max_value=3))


def primitive_period_oracle(items):
    """Shortest pattern whose repetition reproduces ``items``: every divisor
    of the length, smallest first, compared entry by entry."""
    n = len(items)
    for d in range(1, n + 1):
        if n % d == 0 and all(items[i] == items[i % d] for i in range(n)):
            return items[:d]
    return items


def primitive_period_kmp_reference(items):
    """The prefix-function walk the library used before slice compares: one
    pass gives the longest proper border b of ``items``, and the pattern has
    length n - b when that divides n, else it is ``items``."""
    n = len(items)
    border = [0] * n
    b = 0
    for i in range(1, n):
        while b and items[i] != items[b]:
            b = border[b - 1]
        if items[i] == items[b]:
            b += 1
        border[i] = b
    d = n - b
    return items[:d] if n % d == 0 else items


@st.composite
def smooth_repeats(draw):
    """(q, k): a pattern length q and a count k whose product has many prime
    factors, at most 2^4 * 3^2 * 5 * 7 = 5,040 entries in all."""
    q = k = 1
    for p, most in ((2, 4), (3, 2), (5, 1), (7, 1)):
        e = draw(st.integers(0, most))
        f = draw(st.integers(0, e))
        q, k = q * p**f, k * p ** (e - f)
    return q, k


class TestPrimitivePeriod:
    @settings(max_examples=500)
    @given(st.lists(st.integers(0, 2), min_size=1, max_size=12),
           st.integers(min_value=1, max_value=40), st.lists(st.integers(0, 2), max_size=3),
           st.integers(min_value=0))
    def test_matches_kmp_reference(self, base, k, noise, at):
        # repeated patterns; the same with a few entries appended; and with
        # one entry changed, which a pattern repeated once or more hides
        items = tuple(base) * k
        changed = list(items)
        changed[at % len(items)] += 1
        for case in (items, items + tuple(noise), tuple(changed)):
            assert _primitive_period(case) == primitive_period_kmp_reference(case)

    @settings(max_examples=100)
    @given(smooth_repeats(), st.integers(1, 12), st.integers(0, 2), st.integers(min_value=0))
    def test_smooth_lengths_match_kmp_reference(self, qk, r, spoil, at):
        # a pattern of q entries, itself periodic when r | q, repeated k
        # times: every prime of q * k is divided out of the length in turn;
        # spoil = 1 changes one entry and spoil = 2 one whole copy
        q, k = qk
        pattern = tuple(i % r for i in range(q))
        items = list(pattern * k)
        if spoil == 1:
            items[at % len(items)] = -1
        elif spoil == 2 and k > 1:
            j = at % k * q
            items[j : j + q] = reversed(pattern)
        items = tuple(items)
        assert _primitive_period(items) == primitive_period_kmp_reference(items)

    @settings(max_examples=500)
    @given(st.lists(st.integers(0, 2), min_size=1, max_size=6),
           st.integers(min_value=1, max_value=4), st.lists(st.integers(0, 2), max_size=3))
    def test_matches_divisor_scan(self, base, k, noise):
        # repeated patterns, and repeated patterns with a few entries appended
        for items in (tuple(base) * k, tuple(base) * k + tuple(noise)):
            assert _primitive_period(items) == primitive_period_oracle(items)

    def test_long_primitive_period_is_linear(self):
        # 166,320 entries have 160 divisors: a divisor scan compares all of
        # them for each one, the prefix function walks them once
        budget = Budget(1.0)
        t = Tower((), (2,) * 166_319 + (3,))
        budget.check()
        assert len(t.tail) == 166_320


class TestNormalForm:
    @settings(max_examples=500)
    @given(eventually_periodic(st.integers(0, 2)))
    def test_shortest_prefix_primitive_period(self, seq):
        prefix, period = seq
        new_prefix, new_period = _normal_form(prefix, period)
        n = len(prefix) + 2 * math.lcm(len(period), len(new_period))
        assert unroll(new_prefix, new_period, n) == unroll(prefix, period, n)
        q = len(new_period)
        assert all(new_period != new_period[:d] * (q // d) for d in range(1, q) if q % d == 0)
        assert not new_prefix or new_prefix[-1] != new_period[-1]

    @given(eventually_periodic(st.sampled_from([2, 3])))
    def test_tower_stores_normal_form(self, seq):
        t = Tower(*seq)
        assert (t.prefix, t.tail) == _normal_form(*seq)

    @given(eventually_periodic(st.integers(-1, 1)))
    def test_k0_class_stores_normal_form(self, seq):
        c = K0Class(Tower((), (2,)), *seq)
        assert (c.prefix, c.period) == _normal_form(*seq)


class TestSupernaturalOfTower:
    def test_p_infinity(self):
        s = supernatural_of_tower(Tower((), (2,)))
        assert s.exponents == {2: INFINITE}
        assert s.default_exponent == 0

    def test_finite_factorization(self):
        s = supernatural_of_tower(Tower((6,), ()))
        assert s.exponents == {2: 1, 3: 1}

    def test_prefix_prime_swallowed_by_tail(self):
        expected = {p: exponent_oracle(Tower((2,), (6,)), p) for p in (2, 3)}
        assert expected == {2: INFINITE, 3: INFINITE}
        s = supernatural_of_tower(Tower((2,), (6,)))
        assert s.exponents == expected

    def test_mixed_finite_and_infinite_exponents(self):
        # 150 = 2 * 3 * 5^2, tail contributes 2^inf 5^inf, the 3 stays put
        s = supernatural_of_tower(Tower((2, 3), (5,)))
        assert s.exponents[5] == INFINITE
        assert s.exponents[3] == 1
        assert s.exponents[2] == 1

    @given(towers(), st.sampled_from([2, 3, 5, 7, 11, 13, 47]))
    def test_matches_valuation_oracle(self, t, p):
        assert supernatural_of_tower(t).exponent_of(p) == exponent_oracle(t, p)

    @given(towers(), st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]),
           st.integers(min_value=0, max_value=12))
    def test_exponent_dominates_every_order(self, t, p, n):
        k = t.order(n)
        v = 0
        while k % p == 0:
            k //= p
            v += 1
        if v >= 1:
            assert sn_divides(p, v, supernatural_of_tower(t))

    @given(towers())
    def test_tail_permutation_invariant(self, t):
        rotated = Tower(t.prefix, t.tail[1:] + t.tail[:1])
        assert supernatural_of_tower(t) == supernatural_of_tower(rotated)


class TestSnDivides:
    def test_infinity_dominates(self):
        assert sn_divides(2, 3, SupernaturalNumber({2: INFINITE}))

    def test_absent_prime(self):
        assert not sn_divides(3, 1, SupernaturalNumber({2: INFINITE}))

    def test_finite_exponent_bound(self):
        assert not sn_divides(2, 2, SupernaturalNumber({2: 1, 3: 1}))

    def test_rejects_composite(self):
        with pytest.raises(PreconditionViolation):
            sn_divides(4, 1, SupernaturalNumber({2: INFINITE}))

    def test_rejects_zero_exponent(self):
        with pytest.raises(PreconditionViolation):
            sn_divides(2, 0, SupernaturalNumber({2: INFINITE}))


# the largest prime the "prime size" limit accepts, and two numbers with no
# factor below 1000, just over the cap and at the 4300-digit limit: the Fermat
# number 2^2048 + 1 and an odd number whose primality test takes seconds
TOP_PRIME = 2**2048 - 1557
OVER_CAP = [2**2048 + 1, 10**4299 + 9]


class TestPrimeCap:
    def test_cap_is_2048_bits(self):
        assert LIMITS["prime size"][0] == 2048 == TOP_PRIME.bit_length()

    def test_top_prime_accepted(self):
        assert sympy.isprime(TOP_PRIME)
        assert sn_divides(TOP_PRIME, 1, SupernaturalNumber({TOP_PRIME: 1}))
        assert unit_divide(Tower((), (2,)), TOP_PRIME, 1) is None

    @pytest.mark.parametrize("p", OVER_CAP, ids=["fermat", "4300_digits"])
    @pytest.mark.parametrize("call, error, what", [
        (lambda p: SupernaturalNumber({p: 1}), MalformedInput, "exponent key "),
        (lambda p: sn_divides(p, 1, SupernaturalNumber({}, INFINITE)), PreconditionViolation, ""),
        (lambda p: unit_divide(Tower((), (2,)), p, 1), PreconditionViolation, ""),
    ], ids=["key", "sn_divides", "unit_divide"])
    def test_over_cap_refused_before_primality_test(self, call, error, what, p):
        budget = Budget(0.2)
        with pytest.raises(error) as caught:
            call(p)
        budget.check()
        assert str(caught.value) == (
            f"{what}<int of {p.bit_length()} bits> is over the 2048-bit limit for a prime")

    @pytest.mark.parametrize("n, bits", [(3 * (2**9689 - 1), 9689), (1009**300, 2994)],
                             ids=["prime_residue", "composite_residue"])
    def test_residue_over_cap_refused_before_primality_test(self, monkeypatch, n, bits):
        # trial division leaves 2^9689 - 1 (prime) or 1009^300 (composite),
        # each refused with the key's message and never tested or factored
        monkeypatch.setattr(supernatural, "_residue_is_prime", None)
        budget = Budget(0.2)
        with pytest.raises(MalformedInput) as caught:
            supernatural.factorint(n)
        budget.check()
        assert str(caught.value) == (
            f"exponent key <int of {bits} bits> is over the 2048-bit limit for a prime")

    def test_residue_at_cap_is_tested(self):
        assert supernatural.factorint(3 * TOP_PRIME) == {3: 1, TOP_PRIME: 1}

    def test_over_cap_with_small_factor_is_not_prime(self):
        with pytest.raises(PreconditionViolation, match=r"^<int of 2049 bits> is not prime$"):
            sn_divides(2**2048 + 3, 1, SupernaturalNumber({}, INFINITE))


class TestSnEqual:
    def test_identical(self):
        assert SupernaturalNumber({2: INFINITE}) == SupernaturalNumber({2: INFINITE})

    def test_different_primes(self):
        assert SupernaturalNumber({2: INFINITE}) != SupernaturalNumber({3: INFINITE})

    def test_default_disagreement(self):
        # all primes infinite on the left, only 2 infinite on the right
        left = SupernaturalNumber({}, INFINITE)
        right = SupernaturalNumber({2: INFINITE}, 0)
        assert left != right

    def test_default_absorbs_explicit_entries(self):
        assert SupernaturalNumber({}, INFINITE) == SupernaturalNumber({2: INFINITE}, INFINITE)

    @given(towers(), towers(), towers())
    def test_equivalence_relation(self, a, b, c):
        sa, sb, sc = map(supernatural_of_tower, (a, b, c))
        assert sa == sa
        assert (sa == sb) == (sb == sa)
        if sa == sb and sb == sc:
            assert sa == sc


class TestEquivalencePredicates:
    def test_two_vs_four(self):
        assert bijectively_coarsely_equivalent(Tower((), (2,)), Tower((4,), (2,)))

    def test_two_vs_three(self):
        assert not bijectively_coarsely_equivalent(Tower((), (2,)), Tower((), (3,)))

    @given(towers())
    def test_reflexive(self, t):
        assert bijectively_coarsely_equivalent(t, t)

    def test_coarse_ignores_primes(self):
        assert coarsely_equivalent(Tower((), (2,)), Tower((), (3,)))

    def test_coarse_finite_pair(self):
        assert coarsely_equivalent(Tower((6,), ()), Tower((8,), ()))

    def test_coarse_mixed_finiteness(self):
        assert not coarsely_equivalent(Tower((6,), ()), Tower((), (2,)))

    @given(towers(), towers())
    def test_bijective_implies_coarse(self, t1, t2):
        if bijectively_coarsely_equivalent(t1, t2):
            assert coarsely_equivalent(t1, t2)

    @given(towers(max_prefix=2, max_tail=2), st.integers(min_value=0, max_value=1))
    def test_prefix_factor_split_invisible(self, t, idx):
        # replacing a prefix ratio by two factors with the same product
        if not t.prefix:
            return
        i = min(idx, len(t.prefix) - 1)
        r = t.prefix[i]
        split = t.prefix[:i] + (r, r) + t.prefix[i + 1:]
        merged = t.prefix[:i] + (r * r,) + t.prefix[i + 1:]
        assert bijectively_coarsely_equivalent(Tower(split, t.tail), Tower(merged, t.tail))


class TestObstructionWitness:
    def test_two_vs_three(self):
        assert obstruction_witness(Tower((), (2,)), Tower((), (3,))) == (2, 1)

    def test_equal_towers(self):
        t = Tower((), (2,))
        assert obstruction_witness(t, t) is None

    def test_four_vs_two(self):
        assert obstruction_witness(Tower((), (4,)), Tower((), (2,))) is None

    @given(towers(), towers())
    def test_absent_iff_equivalent(self, t1, t2):
        witness = obstruction_witness(t1, t2)
        assert (witness is None) == bijectively_coarsely_equivalent(t1, t2)

    @given(towers(), towers())
    def test_witness_separates(self, t1, t2):
        witness = obstruction_witness(t1, t2)
        if witness is None:
            return
        p, r = witness
        s1 = supernatural_of_tower(t1)
        s2 = supernatural_of_tower(t2)
        assert sn_divides(p, r, s1) != sn_divides(p, r, s2)


class TestSupernaturalNumberValidation:
    def test_rejects_composite_key(self):
        with pytest.raises(ValueError):
            SupernaturalNumber({4: 1})

    def test_zero_entry_collapses_to_default(self):
        assert SupernaturalNumber({2: 0}).exponents == {}

    def test_rejects_zero_entry_under_infinite_default(self):
        with pytest.raises(ValueError):
            SupernaturalNumber({2: 0}, INFINITE)

    def test_normal_form_drops_default_entries(self):
        assert SupernaturalNumber({2: INFINITE, 3: INFINITE}, INFINITE).exponents == {}

    def test_factorint_agreement(self):
        # finite towers carry plain factorizations
        s = supernatural_of_tower(Tower((12, 10), ()))
        assert s.exponents == dict(factorint(120))

    def test_exponent_is_math_inf(self):
        assert supernatural_of_tower(Tower((), (2,))).exponent_of(2) == math.inf


# Carmichael numbers: the first ten, two with many small factors, and one
# (1171 * 2341 * 3511) with no factor below 1000, so Miller-Rabin decides it
CARMICHAEL = [561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341,
              232250619601, 9746347772161, 9624742921]
# least strong pseudoprimes to the first 9, 12 and 13 prime bases
STRONG_PSEUDOPRIMES = [3825123056546413051, 318665857834031151167461,
                       3317044064679887385961981]
PRIME_SQUARES = [4, 961, 997**2, 1009**2, 1000003**2, 1000000000039**2, 999999999989**3]


class TestPrimalityAndFactoring:
    """The in-repo isprime and factorint against sympy as the oracle."""

    def test_small_prime_table_is_sieved_exactly(self):
        assert supernatural._SMALL_PRIMES == tuple(sympy.primerange(2, 1000))
        assert supernatural._sieve(3) == (2,) and supernatural._sieve(2) == ()

    @settings(max_examples=1000, derandomize=True)
    @given(st.integers(min_value=-10, max_value=10**30))
    def test_isprime_matches_sympy(self, n):
        assert supernatural.isprime(n) == sympy.isprime(n)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(st.integers(min_value=1, max_value=10**30))
    def test_factorint_matches_sympy(self, n):
        assert supernatural.factorint(n) == sympy.factorint(n)

    @settings(max_examples=300, derandomize=True)
    @given(st.lists(st.sampled_from([2, 3, 997, 1009, 65537, 1000003, 2147483647]), max_size=8),
           st.integers(min_value=1, max_value=10**12))
    def test_factorint_of_products_matches_sympy(self, primes, cofactor):
        n = math.prod(primes, start=cofactor)
        assert supernatural.factorint(n) == sympy.factorint(n)

    def test_large_prime_factor_is_tested_once(self, monkeypatch):
        # factorint proves the residue prime, and the SupernaturalNumber
        # keyed by it reads that proof back instead of testing it again
        p = sympy.nextprime(3**300)
        calls = []
        monkeypatch.setattr(sympy, "isprime", lambda n: calls.append(n) or True)
        supernatural._residue_is_prime.cache_clear()
        assert supernatural_of_tower(Tower((), (5 * p,))) == SupernaturalNumber(
            {5: INFINITE, p: INFINITE})
        assert calls == [p]

    def test_composite_residue_over_prime_bits_refused(self):
        # a residue within the prime size limit is factored: 1009^200 has
        # 1,995 bits; past the limit it is refused, prime or not
        assert supernatural.factorint(1009**200) == {1009: 200}
        assert supernatural_of_tower(Tower((1009**200,), ())) == SupernaturalNumber({1009: 200})
        message = "^exponent key <int of 6986 bits> is over the 2048-bit limit for a prime$"
        with pytest.raises(MalformedInput, match=message):
            supernatural.factorint(1009**700)
        with pytest.raises(MalformedInput, match=message):
            supernatural_of_tower(Tower((1009**700,), ()))

    @pytest.mark.parametrize("n", CARMICHAEL + STRONG_PSEUDOPRIMES + PRIME_SQUARES)
    def test_named_composites(self, n):
        assert not supernatural.isprime(n)
        assert supernatural.factorint(n) == sympy.factorint(n)

    def test_primes_either_side_of_small_bound(self):
        for n in (997, 1009, 999983, 1000003, 3317044064679887385961813):
            assert supernatural.isprime(n) and supernatural.factorint(n) == {n: 1}

    def test_below_bound_needs_no_sympy(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "sympy", None)  # any import of sympy now fails
        for n in (3317044064679887385961813, 318665857834031151167461, 2**61 - 1):
            assert supernatural.isprime(n) == (n != 318665857834031151167461)
        # the residue after trial division is prime, so Miller-Rabin settles it
        assert supernatural.factorint(2**3 * 997 * (2**61 - 1)) == {2: 3, 997: 1, 2**61 - 1: 1}

    def test_prime_above_bound_goes_to_sympy(self, monkeypatch):
        big = 10000000000000000000000013  # prime, above the Miller-Rabin bound
        asked = []

        def spy(n):
            asked.append(n)
            return True

        monkeypatch.setattr(sympy, "isprime", spy)
        supernatural._residue_is_prime.cache_clear()
        assert supernatural.isprime(big)
        assert supernatural.factorint(6 * big) == {2: 1, 3: 1, big: 1}
        assert asked == [big]  # the second test reads the first one's answer

    def test_factorint_rejects_zero(self):
        with pytest.raises(PreconditionViolation):
            supernatural.factorint(0)


# ratios over a few primes, one of them large, so equal supernatural numbers are common
shared_ratios = st.sampled_from([2, 3, 4, 6, 8, 9, 12, 1000003, 2 * 1000003])


@st.composite
def shared_towers(draw):
    return Tower(tuple(draw(st.lists(shared_ratios, max_size=3))),
                 tuple(draw(st.lists(shared_ratios, max_size=2))))


class TestVerdictByGcd:
    @settings(max_examples=500)
    @given(shared_towers(), shared_towers())
    def test_matches_supernatural_equality(self, t1, t2):
        equal = supernatural_of_tower(t1) == supernatural_of_tower(t2)
        assert bijectively_coarsely_equivalent(t1, t2) == equal
        assert (obstruction_witness(t1, t2) is None) == equal
