"""Interleaving, the explicit back-and-forth map, and its verification."""

import random
import re
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from roeclass import equivalence
from roeclass import (
    BlockSpace,
    K0Class,
    MalformedInput,
    NotEquivalent,
    PreconditionViolation,
    PropagationOperator,
    Tower,
    TowerBijection,
    bijectively_coarsely_equivalent,
    build_back_and_forth,
    conjugate_by_bijection,
    interleave_towers,
    transport_class,
    verify_bijective_coarse_equivalence,
)
from roeclass.errors import LIMITS
from roeclass.serialize import (
    bijection_from_obj,
    bijection_to_obj,
    canonical_json,
    load_json,
    report_to_obj,
)

from conftest import Budget, run_limited, towers


@st.composite
def equivalent_pairs(draw):
    """Two distinct-looking towers sharing a supernatural number."""
    primes = draw(st.sets(st.sampled_from([2, 3, 5]), min_size=1, max_size=2))
    primes = sorted(primes)

    def random_tail():
        # every chosen prime must divide the tail product
        tail = [draw(st.sampled_from(primes)) for _ in range(draw(st.integers(0, 2)))]
        tail += primes
        random.Random(draw(st.integers(0, 10 ** 6))).shuffle(tail)
        return tuple(tail)

    def random_prefix():
        out = []
        for _ in range(draw(st.integers(0, 2))):
            r = draw(st.sampled_from(primes))
            out.append(r * draw(st.sampled_from([1] + primes)))
        return tuple(out)

    t1 = Tower(random_prefix(), random_tail())
    t2 = Tower(random_prefix(), random_tail())
    return t1, t2


def small_build(t1, t2, depth, cap=4096):
    """Build only when the truncation stays small; None otherwise."""
    pairs = interleave_towers(t1, t2, depth)
    if pairs and (t1.order(pairs[-1][0]) > cap or t2.order(pairs[-1][1]) > cap):
        return None
    return build_back_and_forth(t1, t2, depth)


def brute_modulus(b):
    """Least containing target level per source level, by direct block scan.

    Independent oracle: enumerates every component instead of using spans.
    """
    src_orders = [b.source.order(n) for n in range(b.final_levels[0] + 1)]
    tgt = b.target
    out = []
    for k in src_orders:
        need = 0
        for j in range(len(b.mapping) // k):
            images = [b.mapping[x] for x in range(j * k, (j + 1) * k)]
            while len({y // tgt.order(need) for y in images}) > 1:
                need += 1
        out.append(need)
    return tuple(out)


def measure_modulus_reference(b):
    """Oracle: _measure_modulus as it was before it compared per-block
    quotients: least and greatest image per span, one Python step per span
    and per span test, every level walked."""
    n_d, bits = b.final_levels[0], LIMITS["verify report rows"][0]
    if n_d >= 1 << bits:
        raise PreconditionViolation(f"source level {n_d} would make a report of over 2^{bits} rows")
    los = his = b.mapping
    out = []
    walk = enumerate(b.target.levels())
    s, k = next(walk)
    for level in range(n_d + 1):
        if level:
            r = b.source.ratio(level - 1)
            los = [min(los[i : i + r]) for i in range(0, len(los), r)]
            his = [max(his[i : i + r]) for i in range(0, len(his), r)]
        while any(lo // k != hi // k for lo, hi in zip(los, his)):
            s, k = next(walk)
        out.append(s)
    return tuple(out)


def brute_levels(b):
    """Every LevelCheck field from its definition, by listing components.

    The decomposition holds when the map is injective and every covered
    target bound-component holds exactly the images of the whole source
    components that meet it.
    """
    modulus = brute_modulus(b)
    injective = len(set(b.mapping)) == len(b.mapping)
    rows = []
    for level in range(b.final_levels[0] + 1):
        bound = min((m for n, m in b.levels if n >= level), default=0) if level else 0
        k, w = b.source.order(level), b.target.order(bound)
        images = [set(b.mapping[j * k : (j + 1) * k]) for j in range(len(b.mapping) // k)]
        covered = {}
        for y in b.mapping:
            covered.setdefault(y // w, set()).add(y)
        whole = all(
            points == set().union(*(img for img in images if any(y // w == c for y in img)))
            for c, points in covered.items()
        )
        rows.append((level, modulus[level], bound, modulus[level] <= bound,
                     injective and whole, w % k == 0))
    return rows


# orders stay at most 4**4 = 256
map_towers = towers(max_prefix=2, max_tail=2, allow_finite=False, max_ratio=4)


@st.composite
def candidate_maps(draw):
    """Arbitrary candidate witnesses: inclusions, injections (permutations
    when the truncations have equal size), inclusions with the target blocks
    of one level shuffled, and maps with repeated images."""
    source, target = draw(map_towers), draw(map_towers)
    depth = draw(st.integers(min_value=0, max_value=3))
    increasing = st.sets(st.integers(1, 4), min_size=depth, max_size=depth).map(sorted)
    levels = tuple(zip(draw(increasing), draw(increasing)))
    n_d, m_d = levels[-1] if levels else (0, 0)
    dom, cod = source.order(n_d), target.order(m_d)
    kind = draw(st.sampled_from(["inclusion", "injection", "block_shuffle", "repeats"]))
    if kind == "repeats" or dom > cod:
        images = draw(st.lists(st.integers(0, cod - 1), min_size=dom, max_size=dom))
    elif kind == "inclusion":
        images = list(range(dom))
    elif kind == "injection":
        images = draw(st.permutations(range(cod)))[:dom]
    else:
        w = target.order(draw(st.integers(0, m_d)))
        blocks = draw(st.permutations(range(cod // w)))
        images = [blocks[y // w] * w + y % w for y in range(dom)]
    return TowerBijection(source, target, depth, levels, tuple(images))


@st.composite
def deep_inclusions(draw):
    """Inclusion maps of small domain whose last target level lies past the
    target's saturation level for the domain size (candidate_maps never gets
    there: its levels stop at 4)."""
    source = draw(map_towers)
    target = draw(towers(max_prefix=2, max_tail=2, max_ratio=4))
    depth = draw(st.integers(min_value=1, max_value=3))
    ns = sorted(draw(st.sets(st.integers(1, 3), min_size=depth, max_size=depth)))
    ms = sorted(draw(st.sets(st.integers(1, 30), min_size=depth, max_size=depth)))
    dom = source.order(ns[-1])
    assume(dom <= target.order(ms[-1]) and ms[-1] > target.saturation_level(dom))
    return TowerBijection(source, target, depth, tuple(zip(ns, ms)), tuple(range(dom)))


@st.composite
def modulus_maps(draw):
    """Candidate witnesses for the modulus oracle: finite sources whose last
    level lies past their prefix, so that ratios reach 1; finite and infinite
    targets with levels past saturation; inclusions, shifted inclusions whose
    images straddle target blocks, and arbitrary maps with repeated images."""
    source = draw(towers(max_prefix=3, max_tail=2, max_ratio=4))
    target = draw(towers(max_prefix=3, max_tail=2, max_ratio=4))
    depth = draw(st.integers(min_value=0, max_value=3))
    top = 6 if source.tail else 40
    ns = sorted(draw(st.sets(st.integers(1, top), min_size=depth, max_size=depth)))
    ms = sorted(draw(st.sets(st.integers(1, 30), min_size=depth, max_size=depth)))
    n_d, m_d = (ns[-1], ms[-1]) if depth else (0, 0)
    dom, cod = source.order(n_d), min(target.order(m_d), 4096)
    assume(dom <= 512)
    kind = draw(st.sampled_from(["inclusion", "shifted", "repeats"]))
    if kind == "repeats" or dom > cod:
        images = draw(st.lists(st.integers(0, cod - 1), min_size=dom, max_size=dom))
    else:
        shift = draw(st.integers(0, cod - dom)) if kind == "shifted" else 0
        images = range(shift, shift + dom)
    return TowerBijection(source, target, depth, tuple(zip(ns, ms)), tuple(images))


class TestInterleave:
    def test_identical_towers(self):
        t = Tower((), (2,))
        pairs = interleave_towers(t, t, 2)
        assert pairs == ((1, 1), (2, 2))
        # chain of orders 2 | 2 | 4 | 4
        assert [t.order(n) for n, _ in pairs] == [2, 4]

    def test_two_versus_four(self):
        t1, t2 = Tower((), (2,)), Tower((), (4,))
        pairs = interleave_towers(t1, t2, 2)
        assert pairs == ((1, 1), (3, 2))
        assert [t1.order(n) for n, _ in pairs] == [2, 8]
        assert [t2.order(m) for _, m in pairs] == [4, 16]

    def test_not_equivalent(self):
        with pytest.raises(NotEquivalent):
            interleave_towers(Tower((), (2,)), Tower((), (3,)), 1)

    def test_finite_tower_rejected(self):
        with pytest.raises(PreconditionViolation):
            interleave_towers(Tower((6,), ()), Tower((6,), ()), 1)

    def test_depth_zero(self):
        assert interleave_towers(Tower((), (2,)), Tower((), (4,)), 0) == ()

    @given(equivalent_pairs(), st.integers(min_value=1, max_value=3))
    def test_divisibility_chain(self, pair, depth):
        t1, t2 = pair
        pairs = interleave_towers(t1, t2, depth)
        assert len(pairs) == depth
        chain = []
        for n, m in pairs:
            chain.append(t1.order(n))
            chain.append(t2.order(m))
        for a, b in zip(chain, chain[1:]):
            assert b % a == 0
        ns = [n for n, _ in pairs]
        ms = [m for _, m in pairs]
        assert ns == sorted(set(ns)) and ms == sorted(set(ms))


class TestBuild:
    def test_identity_on_equal_towers(self):
        t = Tower((), (2,))
        b = build_back_and_forth(t, t, 2)
        assert b.mapping == (0, 1, 2, 3)

    def test_inclusion_two_into_four(self):
        b = build_back_and_forth(Tower((), (2,)), Tower((), (4,)), 1)
        assert b.mapping == (0, 1)
        assert b.final_levels == (1, 1)

    def test_depth_zero_fixes_origin(self):
        b = build_back_and_forth(Tower((), (2,)), Tower((), (4,)), 0)
        assert b.mapping == (0,)

    def test_points_over_limit_refused(self):
        # tail 2 against itself has 2^D points at depth D
        t, bits = Tower((), (2,)), LIMITS["map points"][0]
        assert build_back_and_forth(t, t, bits).domain_size == 1 << bits
        with pytest.raises(PreconditionViolation, match=re.escape(
                f"a map of {2**21} points is over the 2^20 limit")):
            build_back_and_forth(t, t, bits + 1)

    def test_depth_over_limit_bits_refused_before_interleaving_it(self):
        # every ratio is at least 2, so 21 steps already pass the 2^20
        # cap; in a child, so that a regression times out instead of hanging
        budget = Budget(2.0)
        proc = run_limited("-c", """if True:
            from roeclass import PreconditionViolation, Tower, build_back_and_forth
            try:
                build_back_and_forth(Tower((), (2,)), Tower((), (2,)), 10**18)
            except PreconditionViolation as e:
                print(e)""")
        budget.check()
        assert proc.stdout == f"a map of {2**21} or more points is over the 2^20 limit\n"

    @pytest.mark.parametrize("t1, t2, depth, error, message", [
        (Tower((), (2,)), Tower((), (3,)), 10**6, NotEquivalent,
         "towers have different supernatural numbers"),
        (Tower((6,), ()), Tower((6,), ()), 10**6, PreconditionViolation,
         "interleaving requires two infinite towers"),
        (Tower((), (2,)), Tower((), (2,)), -1, PreconditionViolation,
         "depth must be an integer >= 0"),
        (Tower((), (2,)), Tower((), (2,)), True, MalformedInput,
         "depth must be an integer, got bool True"),
    ], ids=["not_equivalent", "finite", "negative", "bool"])
    def test_inputs_refused_before_the_cap_keep_their_messages(self, t1, t2, depth, error,
                                                                message):
        with pytest.raises(error) as caught:
            build_back_and_forth(t1, t2, depth)
        assert type(caught.value) is error and str(caught.value) == message

    @given(equivalent_pairs(), st.integers(min_value=1, max_value=3))
    def test_extension_consistency(self, pair, depth):
        t1, t2 = pair
        big = small_build(t1, t2, depth)
        if big is None:
            return
        small = build_back_and_forth(t1, t2, depth - 1)
        assert big.mapping[: small.domain_size] == small.mapping

    @given(equivalent_pairs(), st.integers(min_value=1, max_value=3))
    def test_round_trip(self, pair, depth):
        t1, t2 = pair
        b = small_build(t1, t2, depth)
        if b is None:
            return
        inverse = {y: x for x, y in enumerate(b.mapping)}
        assert all(inverse[b.mapping[x]] == x for x in range(b.domain_size))

    @given(equivalent_pairs(), st.integers(min_value=1, max_value=2))
    def test_deterministic_serialization(self, pair, depth):
        t1, t2 = pair
        one = small_build(t1, t2, depth)
        if one is None:
            return
        two = build_back_and_forth(t1, t2, depth)
        assert canonical_json(bijection_to_obj(one)) == canonical_json(bijection_to_obj(two))


class TestVerify:
    @settings(max_examples=300, deadline=None)
    @given(modulus_maps())
    def test_modulus_and_report_match_reference(self, b):
        with mock.patch.object(equivalence, "_measure_modulus", measure_modulus_reference):
            old = TowerBijection(b.source, b.target, b.depth, b.levels, b.mapping)
            want = report_to_obj(verify_bijective_coarse_equivalence(old))
        assert b.modulus == old.modulus
        assert report_to_obj(verify_bijective_coarse_equivalence(b)) == want

    def test_finite_source_fills_levels_past_its_prefix(self):
        # 2^20 - 1 levels over a two-point map: every level past the prefix
        # repeats the last entry, so the measure does not walk them
        two = Tower((2,), ())
        rows = 1 << LIMITS["verify report rows"][0]
        b = TowerBijection(two, two, 1, ((rows - 1, 1),), (1, 0))
        budget = Budget(1.0)
        assert b.modulus == (0,) + (1,) * (rows - 1)
        budget.check()

    def test_depth_ten_map_reads_and_verifies_at_c_speed(self):
        # 524,288 points: one interpreted step per point in the parse or the
        # measure takes longer than the budget
        b = build_back_and_forth(Tower((), (2,)), Tower((), (4,)), 10)
        text = canonical_json(bijection_to_obj(b))
        budget = Budget(1.2)
        report = verify_bijective_coarse_equivalence(bijection_from_obj(load_json(text)))
        budget.check()
        assert report.passed and len(report.levels) == 20

    def test_identity_modulus(self):
        t = Tower((), (2,))
        b = build_back_and_forth(t, t, 3)
        assert b.modulus == (0, 1, 2, 3)
        report = verify_bijective_coarse_equivalence(b)
        assert report.passed

    def test_built_map_passes(self):
        b = build_back_and_forth(Tower((), (2,)), Tower((), (4,)), 2)
        report = verify_bijective_coarse_equivalence(b)
        assert report.passed
        for check, rho in zip(report.levels, b.modulus):
            assert check.modulus == rho
            assert rho <= check.bound

    def test_block_swap_fails_at_level_one(self):
        t = Tower((), (2,))
        b = TowerBijection(t, t, 2, ((1, 1), (2, 2)), (0, 2, 1, 3))
        report = verify_bijective_coarse_equivalence(b)
        assert not report.passed
        failing = [c.level for c in report.levels if not c.passed]
        assert 1 in failing
        assert report.levels[1].modulus > report.levels[1].bound

    @settings(max_examples=300, deadline=None)
    @given(candidate_maps() | modulus_maps())
    # a finite source past its prefix: order 2 does not divide 3 at any level
    @example(TowerBijection(Tower((2,), ()), Tower((3,), ()), 1, ((3, 1),), (0, 1)))
    def test_report_matches_brute_force(self, b):
        report = verify_bijective_coarse_equivalence(b)
        assert b.modulus == brute_modulus(b)
        assert report.injective == (len(set(b.mapping)) == len(b.mapping))
        fields = [(c.level, c.modulus, c.bound, c.within_bound, c.decomposition_ok,
                   c.order_divides) for c in report.levels]
        assert fields == brute_levels(b)

    @given(deep_inclusions())
    def test_order_divides_past_saturation(self, b):
        report = verify_bijective_coarse_equivalence(b)
        for check in report.levels:
            expected = b.target.order(check.bound) % b.source.order(check.level) == 0
            assert check.order_divides == expected

    def test_many_level_pairs_verify_in_one_pass(self):
        # 20,001 levels: each level's bound must not cost a scan of the level pairs
        t = Tower((2,), ())
        n = 20_000
        b = TowerBijection(t, t, n, tuple((i, i) for i in range(1, n + 1)), (0, 1))
        budget = Budget(1.0)
        report = verify_bijective_coarse_equivalence(b)
        budget.check()
        assert len(report.levels) == n + 1
        assert report.passed

    def test_modulus_measured_only_when_read(self, monkeypatch):
        calls = []
        measure = equivalence._measure_modulus
        monkeypatch.setattr(equivalence, "_measure_modulus",
                            lambda b: calls.append(b) or measure(b))
        t2, t4 = Tower((), (2,)), Tower((), (4,))
        b = build_back_and_forth(t2, t4, 3)
        op = PropagationOperator(BlockSpace(t2, 1), {(0, 1): 1})
        conjugate_by_bijection(b, op)
        transport_class(b, K0Class(t2, (1, 0, 2), (0,)))
        assert calls == []
        assert b.modulus == brute_modulus(b)
        assert verify_bijective_coarse_equivalence(b).passed
        assert calls == [b]  # measured once, then cached

    def test_non_injective_reported(self):
        t = Tower((), (2,))
        b = TowerBijection(t, t, 1, ((1, 1),), (0, 0))
        report = verify_bijective_coarse_equivalence(b)
        assert not report.injective
        assert not report.passed

    def test_malformed_levels_rejected(self):
        t = Tower((), (2,))
        with pytest.raises(MalformedInput):
            TowerBijection(t, t, 2, ((2, 2), (1, 1)), (0, 1, 2, 3))

    def test_wrong_domain_rejected(self):
        t = Tower((), (2,))
        with pytest.raises(MalformedInput):
            TowerBijection(t, t, 1, ((1, 1),), (0, 1, 2))

    def test_image_out_of_range_rejected(self):
        t = Tower((), (2,))
        with pytest.raises(MalformedInput):
            TowerBijection(t, t, 1, ((1, 1),), (0, 9))

    @given(equivalent_pairs(), st.integers(min_value=1, max_value=3))
    def test_built_maps_always_verify(self, pair, depth):
        t1, t2 = pair
        b = small_build(t1, t2, depth)
        if b is None:
            return
        report = verify_bijective_coarse_equivalence(b)
        assert report.passed

    @given(equivalent_pairs(), st.integers(min_value=1, max_value=2))
    def test_modulus_matches_brute_force(self, pair, depth):
        t1, t2 = pair
        b = small_build(t1, t2, depth, cap=1024)
        if b is None:
            return
        assert b.modulus == brute_modulus(b)

    @given(equivalent_pairs(), st.integers(min_value=1, max_value=2))
    def test_transport_coherence(self, pair, depth):
        # source component orders divide the promised target component orders
        t1, t2 = pair
        b = small_build(t1, t2, depth)
        if b is None:
            return
        report = verify_bijective_coarse_equivalence(b)
        for check in report.levels:
            assert t2.order(check.bound) % t1.order(check.level) == 0
