"""K0 classes, the H-quotient decision procedures, and unit divisibility."""

import contextlib
import io
import json
import re
import tempfile
from fractions import Fraction
from math import gcd, lcm, prod
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy import factorint

from roeclass import (
    BlockSpace,
    DepthExhausted,
    FiniteK0,
    K0Class,
    PreconditionViolation,
    PropagationOperator,
    Tower,
    TowerBijection,
    alpha_iterate,
    bijectively_coarsely_equivalent,
    block_decompose,
    build_back_and_forth,
    h_membership,
    interleave_towers,
    k0_add,
    k0_class_of_projection,
    k0_equal,
    k0_iso_exists,
    k0_neg,
    k0_positive,
    k0_scale,
    k0_sub,
    k0_unit,
    k0_zero,
    sn_divides,
    supernatural_of_tower,
    transport_class,
    unit_divide,
    verify_bijective_coarse_equivalence,
)
from roeclass import errors, ktheory, supernatural
from roeclass.cli import main
from roeclass.errors import LIMITS, MalformedInput, RoeclassError, _checked_int, over_limit
from roeclass.ktheory import _positive_level, _spread, _stable_level
from roeclass.serialize import tower_to_obj
from roeclass.supernatural import _normal_form

from conftest import (Budget, block_sums_reference, partial_sum_reference, random_equivalent_pair,
                      ratios, run_limited, same_value, towers)


def blocks_zero_oracle(d, n):
    """Direct scan: every aligned k_n-block over the visible window sums to 0.

    Sums entries one by one via value(); no cumulative-sum shortcuts.
    Block sums repeat once a whole number of periods has passed, so the
    window of prefix blocks plus lcm(k, q)/k tail blocks settles everything.
    """
    t = d.context
    k = t.order(n)
    s, q = len(d.prefix), len(d.period)
    window_blocks = -(-s // k) + lcm(k, q) // k
    for j in range(window_blocks):
        if sum(d.value(i) for i in range(j * k, (j + 1) * k)) != 0:
            return False
    return True


def h_search_oracle(d, max_n):
    """First level witnessing H-membership by linear search, None if absent."""
    for n in range(max_n + 1):
        if blocks_zero_oracle(d, n):
            return n
    return None


small_infinite_towers = towers(max_prefix=2, max_tail=2, allow_finite=False,
                               max_ratio=5)

entries = st.integers(min_value=-3, max_value=3)


@st.composite
def classes(draw, context=None):
    t = context if context is not None else draw(small_infinite_towers)
    prefix = tuple(draw(st.lists(entries, max_size=6)))
    period = tuple(draw(st.lists(entries, min_size=1, max_size=6)))
    return K0Class(t, prefix, period)


@st.composite
def class_pairs(draw):
    t = draw(small_infinite_towers)
    return draw(classes(context=t)), draw(classes(context=t))


@st.composite
def h_elements(draw, context):
    """A visibly trivial class: +c and -c inside one aligned block."""
    n = draw(st.integers(min_value=0, max_value=3))
    k = context.order(n)
    j = draw(st.integers(min_value=0, max_value=2))
    c = draw(st.integers(min_value=-3, max_value=3))
    lo = draw(st.integers(min_value=0, max_value=k - 1))
    hi = draw(st.integers(min_value=0, max_value=k - 1))
    seq = [0] * (j * k + k)
    seq[j * k + lo] += c
    seq[j * k + hi] -= c
    return K0Class(context, tuple(seq), (0,))


class TestK0ClassBasics:
    def test_unit_shape(self):
        u = k0_unit(Tower((), (2,)))
        assert u.prefix == () and u.period == (1,)

    def test_finite_tower_unit(self):
        assert k0_unit(Tower((6,), ())) == FiniteK0(6, 6)

    def test_period_canonicalized(self):
        t = Tower((), (2,))
        assert K0Class(t, (), (1, 1)).period == (1,)

    def test_prefix_absorbed_into_period(self):
        t = Tower((), (2,))
        assert K0Class(t, (5,), (5,)) == K0Class(t, (), (5,))

    def test_value_and_partial_sum(self):
        t = Tower((), (2,))
        a = K0Class(t, (7,), (1, -1))
        assert [a.value(i) for i in range(5)] == [7, 1, -1, 1, -1]
        assert partial_sum_reference(a, 5) == 7
        assert partial_sum_reference(a, 5) - partial_sum_reference(a, 1) == 0

    def test_rejects_finite_context(self):
        with pytest.raises(PreconditionViolation):
            K0Class(Tower((6,), ()), (), (1,))

    @given(classes(), st.integers(min_value=0, max_value=40))
    def test_partial_sum_matches_direct(self, a, i):
        # the reference judges the block sums, so it is checked entry by entry
        assert partial_sum_reference(a, i) == sum(a.value(j) for j in range(i))


def k0_screen_reference(context, prefix, period):
    """The checks the K0Class constructor made entry by entry before its
    one-pass screen, in their order: the prefix, the period, the context,
    an empty period."""
    prefix = tuple(_checked_int(v, "sequence entry") for v in prefix)
    period = tuple(_checked_int(v, "sequence entry") for v in period)
    if not context.is_infinite:
        raise PreconditionViolation("K0 sequence classes need an infinite tower")
    if not period:
        raise MalformedInput("period must be nonempty")
    return _normal_form(prefix, period)


def k0_fields(*args):
    c = K0Class(*args)
    return c.prefix, c.period


def outcome(build, *args):
    """(exception class, message) of build(*args), or what it returned."""
    try:
        return build(*args)
    except RoeclassError as e:
        return type(e), str(e)


bad_entries = st.sampled_from([True, False, 1.0, 2.5, float("nan"), "3", "", "x" * 50])


class TestConstructorScreen:
    @settings(max_examples=300)
    @given(st.sampled_from([Tower((), (2,)), Tower((2,), (3, 2)), Tower((6,), ())]),
           st.lists(entries | st.sampled_from([-10**30, 10**30]), max_size=60),
           st.lists(entries, max_size=60), st.data())
    def test_same_error_as_entrywise_screen(self, t, prefix, period, data):
        # a bool, float or str at a random place of the prefix, the period,
        # both or neither, over an infinite or a finite tower
        for seq in (prefix, period):
            if data.draw(st.booleans()):
                seq.insert(data.draw(st.integers(0, len(seq))), data.draw(bad_entries))
        expected = outcome(k0_screen_reference, t, prefix, period)
        got = outcome(k0_fields, t, prefix, period)
        assert got == expected

    def test_laid_out_witness_is_never_summed(self):
        a = K0Class(Tower((2,), (2, 3)), (3, -3), (0,) * 29 + (1,))
        positive, w = k0_positive(a)
        assert positive and (len(w.prefix), len(w.period)) == (1, 77_760)


class TestArithmetic:
    def test_unit_plus_unit(self):
        t = Tower((), (2,))
        u = k0_unit(t)
        assert k0_add(u, u).period == (2,)

    def test_scale_four(self):
        t = Tower((), (2,))
        w = K0Class(t, (), (1, 0, 0, 0))
        assert k0_scale(4, w).period == (4, 0, 0, 0)

    def test_add_neg_is_zero(self):
        t = Tower((), (2,))
        a = K0Class(t, (3,), (1, -2))
        assert k0_add(a, k0_neg(a)).is_zero()

    def test_context_mismatch_rejected(self):
        a = K0Class(Tower((), (2,)), (), (1,))
        b = K0Class(Tower((), (3,)), (), (1,))
        with pytest.raises(PreconditionViolation):
            k0_add(a, b)

    @given(class_pairs(), st.integers(min_value=0, max_value=60))
    def test_add_pointwise(self, pair, i):
        a, b = pair
        assert k0_add(a, b).value(i) == a.value(i) + b.value(i)

    @given(classes(), st.integers(min_value=-4, max_value=4), st.integers(0, 60))
    def test_neg_and_scale_pointwise(self, a, c, i):
        assert k0_neg(a).value(i) == -a.value(i)
        assert k0_scale(c, a).value(i) == c * a.value(i)

    def test_sum_period_over_limit_refused_at_once(self):
        # periods of 2003 and 2011 entries: their sum repeats after 4,028,033,
        # a layout the sum refuses; equality forms no sum and answers
        t = Tower((), (2,))
        a, b = K0Class(t, (), (1,) + (0,) * 2002), K0Class(t, (), (1,) + (0,) * 2010)
        budget = Budget(0.5)
        for op in (k0_add, k0_sub):
            with pytest.raises(PreconditionViolation, match=re.escape(
                    "a K0 layout of 4028033 entries is over the 2^20 limit")):
                op(a, b)
        assert not k0_equal(a, b)
        budget.check()

    def test_sum_period_under_limit_answers(self):
        # 1009 * 1013 = 1,022,117 entries, under 2^20 = 1,048,576
        t = Tower((), (2,))
        a, b = K0Class(t, (), (1,) + (0,) * 1008), K0Class(t, (), (0,) * 1012 + (1,))
        c = k0_add(a, b)
        assert (c.prefix, len(c.period)) == ((), 1009 * 1013)
        assert [i for i in range(3039) if c.value(i)] == [0, 1009, 1012, 2018, 2025, 3027, 3038]

    @given(class_pairs(), st.integers(min_value=-4, max_value=4))
    def test_scale_distributes(self, pair, c):
        a, b = pair
        lhs = k0_scale(c, k0_add(a, b))
        rhs = k0_add(k0_scale(c, a), k0_scale(c, b))
        assert lhs == rhs


class TestHMembership:
    def test_alternating_at_level_one(self):
        t = Tower((), (2,))
        d = K0Class(t, (), (-1, 1))
        assert h_membership(t, d, 1)

    def test_single_bump_never_member(self):
        t = Tower((), (2,))
        d = K0Class(t, (1,), (0,))
        for n in range(5):
            assert not h_membership(t, d, n)

    def test_period_four_at_level_two(self):
        t = Tower((), (2,))
        d = K0Class(t, (), (3, -1, -1, -1))
        assert not h_membership(t, d, 1)
        assert h_membership(t, d, 2)

    @given(classes(), st.integers(min_value=0, max_value=5))
    def test_matches_direct_scan(self, d, n):
        assert h_membership(d.context, d, n) == blocks_zero_oracle(d, n)

    @given(classes(), st.integers(min_value=0, max_value=4))
    def test_monotone_in_level(self, d, n):
        if h_membership(d.context, d, n):
            assert h_membership(d.context, d, n + 1)

    @given(classes(), st.integers(min_value=0, max_value=4))
    def test_alpha_kernel_identity(self, d, n):
        image = alpha_iterate(d.context, n, d)
        assert h_membership(d.context, d, n) == image.is_zero()


def h_membership_reference(t, d, n):
    """h_membership as it was before it read the connecting map: its own
    checks, then the block-sum window."""
    if d.context != t:
        raise PreconditionViolation("sequence context does not match the tower")
    if _checked_int(n, "level") < 0:
        raise PreconditionViolation("level must be an integer >= 0")
    prefix, period = block_sums_reference(d, n)
    return not any(prefix + period)


def outcome(f, *args):
    """f(*args), or the type and message of what it raised."""
    try:
        return f(*args)
    except RoeclassError as e:
        return type(e), str(e)


# the six contexts of test_acceptance's c05
C05_CONTEXTS = [Tower((), (2,)), Tower((), (3,)), Tower((2,), (2, 3)),
                Tower((), (5, 2)), Tower((3,), (2,)), Tower((), (2, 2, 3))]


class TestHMembershipOracle:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(C05_CONTEXTS), st.data())
    def test_matches_window_check(self, t, data):
        # d over t, or over a context that may differ from it
        context = data.draw(st.just(t) | st.sampled_from(C05_CONTEXTS))
        prefix = data.draw(st.lists(entries, max_size=6))
        period = data.draw(st.lists(entries, min_size=1, max_size=6) | st.just([0]))
        n = data.draw(st.integers(0, 6) | st.sampled_from([-1, -7, True, 1.5, "2", None]))
        d = K0Class(context, tuple(prefix), tuple(period))
        assert outcome(h_membership, t, d, n) == outcome(h_membership_reference, t, d, n)


def stable_level_oracle(d):
    """Least n with gcd(k_n, q) = g* and k_n >= s + q, where g* is read off
    the supernatural number by factoring q: the product over p | q of
    p ** min(v_p(q), exponent of p)."""
    s, q = len(d.prefix), len(d.period)
    sn = supernatural_of_tower(d.context)
    g_star = 1
    for p, e in factorint(q).items():
        g_star *= p ** min(e, sn.exponent_of(p))
    n = 0
    while gcd(d.context.order(n), q) != g_star or d.context.order(n) < s + q:
        n += 1
    return n


class TestStableLevel:
    @settings(max_examples=300)
    @given(towers(max_prefix=3, max_tail=3, allow_finite=False, max_ratio=12),
           st.lists(entries, max_size=8), st.lists(entries, min_size=1, max_size=72))
    def test_matches_factoring_oracle(self, t, prefix, period):
        d = K0Class(t, tuple(prefix), tuple(period))
        assert _stable_level(d) == stable_level_oracle(d)


class TestK0Equal:
    def test_unit_equals_two_zero(self):
        t = Tower((), (2,))
        assert k0_equal(k0_unit(t), K0Class(t, (), (2, 0)))

    def test_unit_not_equal_one_zero(self):
        t = Tower((), (2,))
        assert not k0_equal(k0_unit(t), K0Class(t, (), (1, 0)))

    @given(classes())
    def test_reflexive(self, a):
        assert k0_equal(a, a)

    @settings(deadline=None, max_examples=50)
    @given(class_pairs())
    def test_matches_linear_search(self, pair):
        a, b = pair
        d = k0_sub(a, b)
        cap = (0 if d.is_zero() else _stable_level(d)) + 4
        found = h_search_oracle(d, cap)
        assert k0_equal(a, b) == (found is not None)

    @given(st.data())
    def test_congruence(self, data):
        t = data.draw(small_infinite_towers)
        a = data.draw(classes(context=t))
        c = data.draw(classes(context=t))
        b = k0_add(a, data.draw(h_elements(context=t)))
        d = k0_add(c, data.draw(h_elements(context=t)))
        assert k0_equal(a, b)
        assert k0_equal(k0_add(a, c), k0_add(b, d))

    @given(classes(), st.integers(min_value=-3, max_value=3))
    def test_scale_preserves_equality(self, a, c):
        b = k0_add(a, K0Class(a.context, (1, -1), (0,)))
        assert k0_equal(a, b)
        assert k0_equal(k0_scale(c, a), k0_scale(c, b))

    def test_million_block_window_decides_within_budget(self):
        # zero-sum periods of 1009 and 1013 entries: the difference is
        # decided at level 20 over a window of 1009 * 1013 = 1,022,117
        # blocks, which one running-sum pass reads at C speed
        t = Tower((), (2,))
        a = K0Class(t, (), (1,) + (0,) * 1007 + (-1,))
        b = K0Class(t, (), (2,) + (0,) * 1011 + (-2,))
        budget = Budget(1.5)
        assert not k0_equal(a, b)
        budget.check()


def k0_equal_reference(a, b):
    """k0_equal as it was before it compared block sums: the difference
    a - b, its period sum, then H-membership at its own stable level."""
    d = k0_sub(a, b)
    if sum(d.period) != 0:
        return False
    return h_membership(d.context, d, _stable_level(d))


@st.composite
def sparse_period(draw, length, total):
    """A period of the given length whose entries sum to total, held in at
    most three places."""
    period = [0] * length
    parts = draw(st.lists(entries, max_size=2))
    for v in parts + [total - sum(parts)]:
        period[draw(st.integers(0, length - 1))] += v
    return tuple(period)


@st.composite
def coprime_pairs(draw):
    """Two classes over one c05 context with coprime period lengths, the
    longer up to 2011, as often as not with equal period averages and
    prefixes.  Half the lengths are powers of the c05 primes, which decide
    equality by the averages where the context holds them; every lcm stays
    under 2^16 for the reference's sake."""
    t = draw(st.sampled_from(C05_CONTEXTS))
    if draw(st.booleans()):
        p = draw(st.integers(2, 2011))
        q = draw(st.integers(1, (1 << 16) // p).filter(lambda q: gcd(p, q) == 1))
    else:
        p, q = draw(st.sampled_from([(2**11, 3), (2**11, 5), (2**10, 3**3), (3**6, 2**6),
                                     (5**4, 2**6), (2**5, 3**5), (2**8, 5**2), (3**4, 5**3)]))
    c, prefix = draw(entries), draw(st.lists(entries, max_size=4))
    if draw(st.booleans()):
        sums, prefixes = (c * p, c * q), (prefix, prefix)
    else:
        sums = draw(entries), draw(entries)
        prefixes = prefix, draw(st.lists(entries, max_size=4))
    return tuple(K0Class(t, tuple(prefix), draw(sparse_period(length, total)))
                 for prefix, length, total in zip(prefixes, draw(st.permutations((p, q))), sums))


@st.composite
def equal_by_h(draw):
    """a, and a plus an aligned zero-sum block at level 0-3 of its context."""
    t = draw(st.sampled_from(C05_CONTEXTS))
    a = draw(classes(context=t))
    return a, k0_add(a, draw(h_elements(context=t)))


class TestK0EqualOracle:
    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(C05_CONTEXTS).flatmap(
        lambda t: st.tuples(classes(context=t), classes(context=t)))
        | equal_by_h() | coprime_pairs())
    def test_matches_difference_reference(self, pair):
        assert k0_equal(*pair) == k0_equal_reference(*pair)

    def test_forms_no_sum(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("k0_equal formed a sum")

        pairs = [(k0_unit(t), K0Class(t, (5, -5), (2, 0))) for t in C05_CONTEXTS]
        t2 = Tower((), (2,))
        pairs.append((K0Class(t2, (), (1,) + (0,) * 2002), K0Class(t2, (), (1,) + (0,) * 2010)))
        expected = [k0_equal_reference(a, b) for a, b in pairs[:-1]] + [False]
        for name in ("k0_add", "k0_sub", "k0_neg"):
            monkeypatch.setattr(ktheory, name, refuse)
        assert [k0_equal(a, b) for a, b in pairs] == expected

    def test_context_mismatch_refused(self):
        a = K0Class(Tower((), (2,)), (), (1,))
        b = K0Class(Tower((), (3,)), (), (1,))
        assert outcome(k0_equal, a, b) == outcome(k0_equal_reference, a, b) == (
            PreconditionViolation, "classes live over different towers")


class TestK0Positive:
    def test_zero_positive(self):
        t = Tower((), (2,))
        ok, witness = k0_positive(k0_zero(t))
        assert ok and witness.is_zero()

    def test_mixed_signs_positive(self):
        t = Tower((), (2,))
        ok, witness = k0_positive(K0Class(t, (), (-1, 2)))
        assert ok
        assert all(v >= 0 for v in witness.prefix + witness.period)
        assert k0_equal(K0Class(t, (), (-1, 2)), witness)

    def test_negative_sum_rejected(self):
        t = Tower((), (2,))
        ok, witness = k0_positive(K0Class(t, (), (-1, 0)))
        assert not ok and witness is None

    @given(classes())
    def test_witness_is_equal_and_nonnegative(self, a):
        ok, witness = k0_positive(a)
        if ok:
            assert all(v >= 0 for v in witness.prefix + witness.period)
            assert k0_equal(a, witness)

    @given(classes())
    def test_matches_block_sum_oracle(self, a):
        # positivity is witnessed at the decision level itself
        ok, _ = k0_positive(a)
        sigma = sum(a.period)
        if sigma == 0:
            n = _stable_level(a)
            k = a.context.order(n)
            s, q = len(a.prefix), len(a.period)
            blocks = -(-s // k) + q
            oracle = all(
                sum(a.value(i) for i in range(j * k, (j + 1) * k)) >= 0
                for j in range(blocks)
            )
            assert ok == oracle
        elif sigma < 0:
            assert not ok

    @given(classes())
    def test_proper_cone(self, a):
        if k0_positive(a)[0] and k0_positive(k0_neg(a))[0]:
            assert k0_equal(a, k0_zero(a.context))


def block_collapse_reference(a, n):
    """The witness k0_positive built before it read alpha_iterate (the old
    ``_block_collapse``): every aligned k_n-block of a replaced by
    (block sum, 0, ..., 0), laid out from the raw block-sum window."""
    k = a.context.order(n)

    def collapse(sums):
        return tuple(v for total in sums for v in (total,) + (0,) * (k - 1))

    prefix, period = block_sums_reference(a, n)
    return K0Class(a.context, collapse(prefix), collapse(period))


class TestK0PositiveOracle:
    @settings(max_examples=300, deadline=None)
    @given(classes())
    def test_witness_matches_block_collapse(self, a):
        found = _positive_level(a)
        if found is None:
            assert k0_positive(a) == (False, None)
        else:
            n, sums = found
            assert k0_positive(a) == (True, block_collapse_reference(a, n))
            # the witness is laid out from the very class the level was checked on
            assert sums == alpha_iterate(a.context, n, a)


class TestLayoutLimit:
    def test_boundary(self):
        t = Tower((), (2,))
        assert len(_spread(t, (), (1, 2), 2**19).period) == 2**20
        with pytest.raises(PreconditionViolation, match=re.escape(
                f"a K0 layout of {2**20 + 2} entries is over the 2^20 limit")):
            _spread(t, (), (1, 2), 2**19 + 1)

    def test_prefix_then_period_judged(self):
        # at level 20 the witness has one prefix sum and three period sums:
        # 2^20 prefix entries pass, 3 * 2^20 period entries are refused
        a = K0Class(Tower((), (2,)), (-10**5,), (1, 0, 2))
        n, sums = _positive_level(a)
        k = a.context.order(n)
        assert k * len(sums.prefix) <= 2**20 < k * len(sums.period) == 3 * 2**20
        with pytest.raises(PreconditionViolation, match=re.escape(
                f"a K0 layout of {3 * 2**20} entries is over the 2^20 limit")):
            k0_positive(a)

    def test_witness_over_limit_refused(self):
        # positive from level 22 on, where the witness lays out 2^22 entries;
        # the verdict alone never lays it out
        a = K0Class(Tower((), (2,)), (-10**6,), (1,))
        assert _positive_level(a)[0] == 22
        with pytest.raises(PreconditionViolation, match=re.escape(
                f"a K0 layout of {2**22} entries is over the 2^20 limit")):
            k0_positive(a)


def _spread_old(sums, k):
    """The layout k0_positive built before it wrote the normal form down:
    (s_0, 0, ..., 0, s_1, 0, ...), each sum opening a block of k entries,
    refused past the "K0 layout" limit."""
    size = k * len(sums)
    if size > 1 << LIMITS["K0 layout"][0]:
        raise over_limit("K0 layout", size)
    seq = [0] * size
    seq[::k] = sums
    return tuple(seq)


def spread_reference(t, sums, k):
    """The old layout of the sums (prefix, period), brought to normal form by
    the checking constructor: screen, period search and prefix walk.  The
    zero period stands for itself, as it takes no layout at any k."""
    prefix, period = sums
    return K0Class(t, _spread_old(prefix, k),
                   period if period == (0,) else _spread_old(period, k))


@st.composite
def normal_form_sums(draw):
    """Sums (prefix, period) in normal form, weighted towards the edge cases
    of the layout: an empty prefix, the zero period, a prefix ending in 0
    and a period of one sum."""
    prefix = draw(st.lists(entries, max_size=5) | st.just([]))
    period = draw(st.lists(entries, min_size=1, max_size=5)
                  | st.just([0]) | st.lists(entries, min_size=1, max_size=1))
    if prefix and draw(st.booleans()):
        prefix[-1] = 0
    return _normal_form(tuple(prefix), tuple(period))


def is_fixed_point(c):
    """c is what the checking constructor makes of its own fields: int
    entries in normal form, held as tuples."""
    return K0Class(c.context, c.prefix, c.period) == c


class TestSpreadOracle:
    @settings(max_examples=400, deadline=None)
    @given(small_infinite_towers, normal_form_sums(),
           st.integers(1, 12) | st.just(1) | st.sampled_from([64, 97]))
    @example(Tower((), (2,)), ((), (1,)), 1)
    @example(Tower((), (2,)), ((5, 0), (1,)), 3)
    @example(Tower((), (2,)), ((1, 0), (0, 2)), 4)
    def test_matches_old_layout(self, t, sums, k):
        c = _spread(t, *sums, k)
        assert c == spread_reference(t, sums, k)
        assert is_fixed_point(c)

    @settings(deadline=None)
    @given(st.sampled_from([Tower((), (2,)), Tower((6,), ())]), normal_form_sums(),
           st.integers(1, 4) | st.just(2**21))
    def test_refusals_match_old_layout(self, t, sums, k):
        # the limit on the prefix, then on a nonzero period, then a finite context
        assert outcome(_spread, t, *sums, k) == outcome(spread_reference, t, sums, k)


class TestBuiltClassesAreNormalForm:
    @settings(max_examples=300, deadline=None)
    @given(class_pairs(), st.integers(-4, 4), st.integers(0, 3))
    def test_arithmetic_and_witnesses(self, pair, c, n):
        a, b = pair
        built = [k0_neg(a), k0_scale(c, a), k0_add(a, b), alpha_iterate(a.context, n, a)]
        positive, w = k0_positive(a)
        built += [w] if positive else []
        assert all(map(is_fixed_point, built))

    @settings(deadline=None)
    @given(towers(allow_finite=False, max_ratio=6), st.sampled_from([2, 3, 5]),
           st.integers(0, 3))
    def test_unit_division(self, t, p, r):
        w = unit_divide(t, p, r)
        assert w is None or is_fixed_point(w)

    @settings(deadline=None)
    @given(small_infinite_towers, st.integers(0, 2), st.data())
    def test_projection_classes(self, t, depth, data):
        space = BlockSpace(t, depth)
        n = data.draw(st.integers(0, depth))
        support = data.draw(st.sets(st.integers(0, space.size - 1)))
        op = PropagationOperator(space, {(x, x): Fraction(1) for x in support})
        c = k0_class_of_projection(block_decompose(op, n))
        assert is_fixed_point(c)
        assert [c.value(i) for i in range(space.size)] == [
            len(support & set(range(i, i + space.order(n)))) if i % space.order(n) == 0 else 0
            for i in range(space.size)]


class TestBuiltClassesEqualCheckedOnes:
    """A class an operation lays out through K0Class._of is what the checking
    constructor makes of the same fields, and holds nothing else."""

    @settings(max_examples=300, deadline=None)
    @given(class_pairs(), st.integers(-4, 4), st.integers(0, 3), st.sampled_from([2, 3, 5]),
           st.integers(0, 3))
    @example((K0Class(Tower((), (2,)), (3, -3), (1, 0)), K0Class(Tower((), (2,)), (), (1,))),
             2, 1, 2, 3)
    def test_same_value(self, pair, c, n, p, r):
        a, b = pair
        t = a.context
        built = [k0_add(a, b), k0_sub(a, b), k0_neg(a), k0_scale(c, a), alpha_iterate(t, n, a)]
        built += [w for w in (k0_positive(a)[1], unit_divide(t, p, r)) if w is not None]
        for got in built:
            assert same_value(got, K0Class(got.context, got.prefix, got.period))


# the six shapes of the benchmark's k0_big_witness: (tower, period length),
# over the prefix (3, -3), with witnesses of 1.3e4-7.8e4 entries
BIG_WITNESS = [(((), (2,)), 15), (((2,), (2, 3)), 15), (((), (5, 2)), 15),
               (((), (3,)), 30), (((2,), (2, 3)), 30), (((), (2, 2, 3)), 30)]


class TestNoSearchOnBuiltLayouts:
    """The layouts the library builds are written down in normal form: no
    entry screen and no period search runs over more than 64 entries."""

    def test_witnesses_skip_screen_and_search(self, monkeypatch):
        def guarded(f):
            def run(items, *args):
                items = tuple(items)
                assert len(items) <= 64, f"{f.__name__} over {len(items)} entries"
                return f(items, *args)
            return run

        monkeypatch.setattr(supernatural, "_primitive_period",
                            guarded(supernatural._primitive_period))
        screen = guarded(errors._checked_ints)
        for module in (errors, ktheory):  # ktheory holds its own name for it
            monkeypatch.setattr(module, "_checked_ints", screen)
        t2 = Tower((), (2,))
        classes = [K0Class(Tower(*ctx), (3, -3), (0,) * (q - 1) + (1,)) for ctx, q in BIG_WITNESS]
        witnesses = [k0_positive(a) for a in classes]
        unit = unit_divide(t2, 2, 20)
        space = BlockSpace(t2, 7)
        projection = block_decompose(PropagationOperator.identity(space), 6)
        projected = k0_class_of_projection(projection)
        monkeypatch.undo()
        for a, (positive, w) in zip(classes, witnesses):
            n, sums = _positive_level(a)
            assert positive
            assert w == spread_reference(a.context, (sums.prefix, sums.period), a.context.order(n))
            assert len(w.prefix) + len(w.period) > 10_000
        assert unit == K0Class(t2, (), (1,) + (0,) * (2**20 - 1))
        assert projected == K0Class(t2, (64,) + (0,) * 63 + (64,), (0,))


class TestUnitDivide:
    def test_divide_four(self):
        t = Tower((), (2,))
        w = unit_divide(t, 2, 2)
        assert w.prefix == () and w.period == (1, 0, 0, 0)
        assert k0_equal(k0_scale(4, w), k0_unit(t))

    def test_three_absent(self):
        assert unit_divide(Tower((), (2,)), 3, 1) is None

    def test_exponent_zero_is_unit(self):
        t = Tower((), (2,))
        assert unit_divide(t, 7, 0) == k0_unit(t)

    def test_rejects_composite_prime(self):
        with pytest.raises(PreconditionViolation):
            unit_divide(Tower((), (2,)), 4, 1)

    @pytest.mark.parametrize("tail, p, r", [(2, 2, 21), (2, 2, 10**18), (1031, 1031, 2)],
                             ids=["exponent", "huge_exponent", "prime_power"])
    def test_refuses_period_over_size_cap(self, tail, p, r):
        # 1031^2 = 1062961 is over 2^20 = 1048576 with an exponent of 2
        with pytest.raises(PreconditionViolation, match=r"over the 2\^20 limit"):
            unit_divide(Tower((), (tail,)), p, r)

    @settings(deadline=None)
    @given(towers(allow_finite=False, max_ratio=6), st.sampled_from([2, 3, 5, 7]),
           st.integers(min_value=1, max_value=3))
    @example(Tower((2, 2, 6, 6), (2, 6, 5)), 5, 3)
    def test_witness_or_absence(self, t, p, r):
        divides = sn_divides(p, r, supernatural_of_tower(t))
        w = unit_divide(t, p, r)
        assert (w is not None) == divides
        if w is not None:
            # the verdict of k0_positive, without the witness it would lay
            # out: that can pass the 2^20 layout cap (5^3 | tail (2, 6, 5))
            assert _positive_level(w) is not None
            assert k0_equal(k0_scale(p**r, w), k0_unit(t))

    @settings(deadline=None)
    @given(st.data())
    def test_decision_matches_supernatural_number(self, data):
        # primes far above every ratio, exponents past the prefix product's
        # bit length, and prefixes holding the prime to a high power
        p = data.draw(st.sampled_from([2, 3, 5, 7, 11, 1031, 2**61 - 1]))
        t = data.draw(towers(allow_finite=False, max_prefix=6, max_ratio=12))
        t = Tower(t.prefix + (p,) * data.draw(st.integers(0, 12)), t.tail)
        r = data.draw(st.integers(min_value=1, max_value=40))
        divides = sn_divides(p, r, supernatural_of_tower(t))
        try:
            absent = unit_divide(t, p, r) is None
        except PreconditionViolation:  # the size cap, reached only when p^r divides
            absent = False
        assert absent == (not divides)

    def test_prime_checked_before_divisibility(self):
        # 4 divides the tail product; the message is the one sn_divides gave
        with pytest.raises(PreconditionViolation, match="^4 is not prime$"):
            unit_divide(Tower((), (4,)), 4, 1)


class TestAlphaIterate:
    def test_pairwise_sums(self):
        t = Tower((), (2,))
        out = alpha_iterate(t, 1, k0_unit(t))
        assert out.period == (2,)

    def test_level_zero_identity(self):
        t = Tower((), (2,))
        a = K0Class(t, (1,), (3, -2))
        assert alpha_iterate(t, 0, a) == a

    def test_alternating_cancels(self):
        t = Tower((), (2,))
        assert alpha_iterate(t, 2, K0Class(t, (), (-1, 1))).is_zero()

    @settings(max_examples=300, deadline=None)
    @given(towers(max_prefix=2, max_tail=2, allow_finite=False, max_ratio=3),
           st.lists(entries | st.sampled_from([-10**30, 10**30]), max_size=40),
           st.lists(entries, min_size=1, max_size=12), st.integers(0, 4))
    @example(Tower((), (2,)), [1, 2, 3, 4, 5, 6, 7], [1, -1, 2], 2)
    def test_matches_block_sum_reference(self, t, prefix, period, n):
        # prefixes of up to 40 entries against k_n from 1 up: several prefix
        # blocks, and a block that straddles the prefix and the period
        d = K0Class(t, tuple(prefix), tuple(period))
        assert alpha_iterate(t, n, d) == K0Class(t, *block_sums_reference(d, n))


class TestClassificationPredicates:
    def test_equal_supernaturals(self):
        assert k0_iso_exists(Tower((), (2,)), Tower((4,), (2,)))

    def test_different_primes(self):
        assert not k0_iso_exists(Tower((), (2,)), Tower((), (3,)))

    def test_finite_vs_infinite(self):
        assert not k0_iso_exists(Tower((6,), ()), Tower((), (2,)))

    def test_two_finite(self):
        assert not k0_iso_exists(Tower((6,), ()), Tower((8,), ()))
        assert k0_iso_exists(Tower((6,), ()), Tower((2, 3), ()))

    @given(towers(), towers())
    def test_main_coherence(self, t1, t2):
        bce = bijectively_coarsely_equivalent(t1, t2)
        assert k0_iso_exists(t1, t2) == bce == (
            supernatural_of_tower(t1) == supernatural_of_tower(t2))


def unit_divides(t, p, r):
    """Whether p^r divides [1] in K0 of the infinite tower t.  The period
    limit refuses a witness only where one exists."""
    try:
        return unit_divide(t, p, r) is not None
    except PreconditionViolation:
        return True


def k0_iso_oracle(t1, t2):
    """Whether (K0, K0+, [1]) of t1 and t2 are isomorphic, read off the K0
    side: a finite tower's is (Z, N, k) and an infinite tower's is not
    cyclic, so the finiteness must agree and two finite towers need the same
    unit; two infinite ones need the same prime powers dividing [1], for
    every prime of either tower and r up to the bit length of the larger
    prefix product, past the largest finite exponent."""
    if not (t1.is_infinite and t2.is_infinite):
        return t1.is_infinite == t2.is_infinite and k0_unit(t1) == k0_unit(t2)
    primes = factorint(prod(t1.prefix + t1.tail + t2.prefix + t2.tail))
    bits = max(prod(t1.prefix), prod(t2.prefix)).bit_length()
    return all(unit_divides(t1, p, r) == unit_divides(t2, p, r)
               for p in primes for r in range(1, bits + 1))


def classify_k0_iso(t1, t2):
    """The k0_iso verdict that `roeclass classify` prints for t1 and t2."""
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp, name) for name in ("t1.json", "t2.json")]
        for path, t in zip(paths, (t1, t2)):
            path.write_text(json.dumps(tower_to_obj(t)))
        with contextlib.redirect_stdout(out):
            assert main(["classify", *map(str, paths)]) == 0
    return json.loads(out.getvalue())["k0_iso"]


# any two towers, one tower twice, two towers over one prime pool (a seeded
# random_equivalent_pair), and a tower against its own tail under another prefix
tower_pairs = (st.tuples(towers(), towers()) | towers().map(lambda t: (t, t))
               | st.randoms(use_true_random=False).map(random_equivalent_pair)
               | st.tuples(towers(), st.lists(ratios, max_size=4)).map(
                   lambda tp: (tp[0], Tower(tuple(tp[1]), tp[0].tail))))


class TestK0IsoOracle:
    """classify prints the bce verdict as k0_iso, citing the theorem that
    the two agree; the oracle reaches the same verdict from the K0 side."""

    @settings(max_examples=200, deadline=None)
    @given(tower_pairs)
    def test_classify_matches_k0_side(self, pair):
        verdict = classify_k0_iso(*pair)
        assert verdict == k0_iso_oracle(*pair) == k0_iso_exists(*pair)


class TestCrossContext:
    """Equivalent towers have nested aligned blocks, so H and the positive
    cone coincide: one prefix and period is one element over either tower,
    with the same unit."""

    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False), class_pairs(), st.data())
    def test_same_decisions_in_both_contexts(self, rng, pair, data):
        t1, t2 = random_equivalent_pair(rng)
        a, b = (K0Class(t1, c.prefix, c.period) for c in pair)
        if data.draw(st.booleans()):
            b = k0_add(a, data.draw(h_elements(context=t1)))  # equal over t1
        a2, b2 = (K0Class(t2, c.prefix, c.period) for c in (a, b))
        assert k0_equal(a, b) == k0_equal(a2, b2)
        assert k0_positive(a)[0] == k0_positive(a2)[0]
        assert k0_positive(b)[0] == k0_positive(b2)[0]
        for p, r in [(2, 1), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1)]:
            assert (unit_divide(t1, p, r) is None) == (unit_divide(t2, p, r) is None)


class TestTransport:
    def test_identity_map(self):
        t = Tower((), (2,))
        b = build_back_and_forth(t, t, 2)
        a = K0Class(t, (0, 1, 2), (0,))
        assert transport_class(b, a).prefix == (0, 1, 2)

    def test_relocation(self):
        t = Tower((), (2,))
        b = TowerBijection(t, t, 1, ((1, 2),), (0, 2))
        a = K0Class(t, (0, 1), (0,))
        assert transport_class(b, a).prefix == (0, 0, 1)

    def test_zero_class(self):
        t = Tower((), (2,))
        b = build_back_and_forth(t, t, 1)
        assert transport_class(b, k0_zero(t)).is_zero()

    def test_support_escape(self):
        t = Tower((), (2,))
        b = build_back_and_forth(t, t, 1)
        with pytest.raises(DepthExhausted):
            transport_class(b, K0Class(t, (0, 0, 0, 0, 1), (0,)))

    def test_wrong_period_rejected(self):
        t = Tower((), (2,))
        b = build_back_and_forth(t, t, 1)
        with pytest.raises(PreconditionViolation):
            transport_class(b, k0_unit(t))

    @settings(max_examples=200, deadline=None)
    @given(st.randoms(use_true_random=False), st.data())
    def test_witnesses_keep_the_class(self, rng, data):
        """The K0 side of the rigidity theorem along a witness: a finitely
        supported class over t1 inside the witness's domain goes to the same
        sequence read over t2, along the built witness and along one whose
        target blocks of one level are permuted inside their parent blocks,
        which the verifier passes too.  Each image is one run lookup."""
        t1, t2 = random_equivalent_pair(rng)
        levels = interleave_towers(t1, t2, data.draw(st.integers(1, 3)))
        # the deepest of them with at most 2^12 points; depth 1 has at most 25
        depth = max(j for j, (n, _) in enumerate(levels, 1) if t1.order(n) <= 1 << 12)
        built = build_back_and_forth(t1, t2, depth)
        size = built.domain_size
        s = data.draw(st.integers(0, built.final_levels[1] - 1))
        w, r = t2.order(s), t2.ratio(s)
        perm = data.draw(st.permutations(range(r)))
        permuted = TowerBijection(t1, t2, depth, built.levels,
                                  [y + (perm[y // w % r] - y // w % r) * w for y in range(size)])
        assert verify_bijective_coarse_equivalence(permuted).passed
        entries = tuple(data.draw(st.lists(st.integers(-3, 3), max_size=min(size, 40))))
        a, want = K0Class(t1, entries, (0,)), K0Class(t2, entries, (0,))
        assert transport_class(built, a) == want  # the inclusion moves nothing
        moved = transport_class(permuted, a)
        assert k0_equal(moved, want)
        # the permuted blocks lie inside level-(s + 1) blocks, whose sums agree
        assert alpha_iterate(t2, s + 1, moved) == alpha_iterate(t2, s + 1, want)

    def test_far_image_refused_before_its_layout(self):
        # one entry sent to 2^59 would lay out 2^59 + 1 entries; in a child
        # under a memory cap, so that a regression fails instead of swapping
        budget = Budget(2.0)
        proc = run_limited("-c", """if True:
            from roeclass import K0Class, PreconditionViolation, Tower, TowerBijection
            from roeclass import transport_class
            t2 = Tower((), (2,))
            b = TowerBijection(t2, t2, 1, ((1, 60),), (0, 2**59))
            try:
                transport_class(b, K0Class(t2, (0, 1), (0,)))
            except PreconditionViolation as e:
                print(e)""")
        budget.check()
        assert proc.stdout == f"a K0 layout of {2**59 + 1} entries is over the 2^20 limit\n"
