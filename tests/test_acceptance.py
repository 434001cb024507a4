"""Top-level acceptance suite.

One test per advertised guarantee, each with its own seeded randomness and
wall-clock budget. Run with -v to get a single verdict line per item.
"""

import random
from fractions import Fraction
from math import ceil, lcm

import numpy as np
import pytest

from roeclass import (
    BlockSpace,
    FiniteMetricSpace,
    K0Class,
    PropagationOperator,
    SupernaturalNumber,
    Tower,
    bijectively_coarsely_equivalent,
    block_decompose,
    build_back_and_forth,
    coarsely_equivalent,
    connecting_map,
    embed_into_nonneg_integers,
    interleave_towers,
    k0_equal,
    k0_iso_exists,
    k0_positive,
    k0_sub,
    k0_unit,
    mvn_partial_isometry,
    obstruction_witness,
    r_components,
    recompose,
    sn_divides,
    supernatural_of_tower,
    trace_vector,
    unit_divide,
    verify_bijective_coarse_equivalence,
)
from roeclass.errors import NotBlockDiagonal
from roeclass.ktheory import _stable_level
from roeclass.roeops import adjoint, compose, propagation

from conftest import Budget


def random_tower(rng, max_prefix=4, max_tail=3, allow_finite=True):
    prefix = tuple(rng.randint(2, 10) for _ in range(rng.randint(0, max_prefix)))
    low = 0 if allow_finite else 1
    tail = tuple(rng.randint(2, 10) for _ in range(rng.randint(low, max_tail)))
    return Tower(prefix, tail)


def random_equivalent_pair(rng):
    """Two towers built over the same prime pool, hence the same invariant."""
    primes = rng.choice([[2], [3], [2, 3], [2, 5], [3, 5]])

    def tail():
        t = primes + [rng.choice(primes) for _ in range(rng.randint(0, 1))]
        rng.shuffle(t)
        return tuple(t)

    def prefix():
        return tuple(
            rng.choice(primes) ** rng.randint(1, 2)
            for _ in range(rng.randint(0, 2))
        )

    return Tower(prefix(), tail()), Tower(prefix(), tail())


def window_block_sums(d, k):
    """All distinct aligned k-block sums of an eventually periodic sequence."""
    s, q = len(d.prefix), len(d.period)
    nb = ceil(s / k) + lcm(k, q) // k
    return [d.block_sum(j * k, k) for j in range(nb)]


def test_c01_supernatural_values():
    budget = Budget(1.0)
    infinite_two = supernatural_of_tower(Tower((), (2,)))
    assert infinite_two == SupernaturalNumber({2: float("inf")}, 0)
    order_six = supernatural_of_tower(Tower((6,), ()))
    assert order_six == SupernaturalNumber({2: 1, 3: 1}, 0)
    budget.check()


def test_c02_k0_representatives():
    budget = Budget(1.0)
    t = Tower((), (2,))
    ones = k0_unit(t)
    two_zero = K0Class(t, (), (2, 0))
    four_zeros = K0Class(t, (), (4, 0, 0, 0))
    one_zero = K0Class(t, (), (1, 0))
    assert k0_equal(ones, two_zero)
    assert k0_equal(two_zero, four_zeros)
    assert k0_equal(ones, four_zeros)
    assert not k0_equal(ones, one_zero)
    budget.check()


def test_c03_invariant_coherence():
    budget = Budget(10.0)
    rng = random.Random(20260816)
    pairs = [(random_tower(rng), random_tower(rng)) for _ in range(120)]
    pairs += [random_equivalent_pair(rng) for _ in range(60)]
    for _ in range(30):
        t = random_tower(rng)
        pairs.append((t, t))
    assert len(pairs) >= 200

    equivalent = 0
    for t1, t2 in pairs:
        bce = bijectively_coarsely_equivalent(t1, t2)
        assert bce == (supernatural_of_tower(t1) == supernatural_of_tower(t2))
        assert bce == k0_iso_exists(t1, t2)
        witness = obstruction_witness(t1, t2)
        assert (witness is None) == bce
        if bce:
            equivalent += 1
            continue
        p, r = witness
        d1 = sn_divides(p, r, supernatural_of_tower(t1))
        d2 = sn_divides(p, r, supernatural_of_tower(t2))
        assert d1 != d2
        # unit division is only defined over infinite towers
        if t1.is_infinite:
            assert (unit_divide(t1, p, r) is not None) == d1
        if t2.is_infinite:
            assert (unit_divide(t2, p, r) is not None) == d2
        if t1.is_infinite and t2.is_infinite:
            assert (unit_divide(t1, p, r) is None) != (unit_divide(t2, p, r) is None)
    assert equivalent >= 60
    budget.check()


def test_c04_back_and_forth_soundness():
    budget = Budget(30.0)
    rng = random.Random(31415)
    checked = 0
    attempts = 0
    while checked < 50 and attempts < 500:
        attempts += 1
        t1, t2 = random_equivalent_pair(rng)
        steps = interleave_towers(t1, t2, 3)
        n_d, m_d = steps[-1]
        if t1.order(n_d) > 4096 or t2.order(m_d) > 4096:
            continue
        b = build_back_and_forth(t1, t2, 3)
        report = verify_bijective_coarse_equivalence(b)
        assert report.passed and report.injective
        for check in report.levels:
            assert check.decomposition_ok and check.order_divides
            assert check.within_bound
        shallow = build_back_and_forth(t1, t2, 2)
        assert shallow.levels == b.levels[:2]
        assert shallow.mapping == b.mapping[: len(shallow.mapping)]
        checked += 1
    assert checked >= 50
    budget.check()


def test_c05_k0_decision_vs_oracle():
    budget = Budget(20.0)
    rng = random.Random(27182)
    contexts = [
        Tower((), (2,)),
        Tower((), (3,)),
        Tower((2,), (2, 3)),
        Tower((), (5, 2)),
        Tower((3,), (2,)),
        Tower((), (2, 2, 3)),
    ]

    def random_class(t):
        prefix = tuple(rng.randint(-3, 3) for _ in range(rng.randint(0, 6)))
        period = tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 6)))
        return K0Class(t, prefix, period)

    def oracle_vanishes(t, d, depth):
        return any(
            all(v == 0 for v in window_block_sums(d, t.order(n)))
            for n in range(depth + 1)
        )

    def oracle_nonneg(t, a, depth):
        return any(
            all(v >= 0 for v in window_block_sums(a, t.order(n)))
            for n in range(depth + 1)
        )

    total = 0
    for t in contexts:
        for _ in range(90):
            a, b = random_class(t), random_class(t)
            d = k0_sub(a, b)
            assert k0_equal(a, b) == oracle_vanishes(t, d, _stable_level(d) + 4)
            positive, witness = k0_positive(a)
            assert positive == oracle_nonneg(t, a, _stable_level(a) + 4)
            if positive:
                assert k0_equal(witness, a)
                assert all(v >= 0 for v in witness.prefix + witness.period)
            total += 2
    assert total >= 500
    budget.check()


def test_c06_trace_functoriality():
    budget = Budget(5.0)
    rng = random.Random(16180)
    towers = [Tower((), (2,)), Tower((), (3,)), Tower((), (2, 3)), Tower((), (6,))]
    for t in towers:
        assert t.order(4) <= 1296
        space = BlockSpace(t, 4)
        for n in range(4):
            r = t.order(n + 1) // t.order(n)
            for _ in range(100):
                diag = {
                    (i, i): Fraction(1)
                    for i in range(space.size)
                    if rng.random() < 0.5
                }
                bt = block_decompose(PropagationOperator(space, diag), n)
                coarse = trace_vector(connecting_map(bt), require_projection=True)
                fine = trace_vector(bt, require_projection=True)
                grouped = tuple(
                    sum(fine[i * r : (i + 1) * r]) for i in range(len(fine) // r)
                )
                assert coarse == grouped
    budget.check()


def test_c07_ultrametric_and_propagation():
    budget = Budget(10.0)
    rng = random.Random(14142)
    spaces = [
        BlockSpace(Tower((), (2,)), 9),
        BlockSpace(Tower((), (3,)), 5),
        BlockSpace(Tower((), (2, 3)), 5),
        BlockSpace(Tower((), (5,)), 3),
        BlockSpace(Tower((4,), (6,)), 3),
        BlockSpace(Tower((7, 3), ()), 2),
    ]
    for space in spaces:
        assert space.size <= 512
        d = np.array(space.metric_matrix(), dtype=np.int64)
        # one pivot at a time covers every (x, y, z) triple exactly
        for y in range(space.size):
            assert not (d > np.maximum(d[:, [y]], d[[y], :])).any()

        def sparse_operator():
            entries = {}
            for _ in range(rng.randint(1, 4)):
                x, y = rng.randrange(space.size), rng.randrange(space.size)
                entries[(x, y)] = Fraction(rng.randint(1, 3), rng.randint(1, 3))
            return PropagationOperator(space, entries)

        for _ in range(100):
            a, b = sparse_operator(), sparse_operator()
            assert propagation(compose(a, b)) <= max(propagation(a), propagation(b))
    budget.check()


def test_c08_embedding_components():
    budget = Budget(10.0)
    rng = random.Random(17320)
    pool = [
        (Tower((), (2,)), 8),
        (Tower((), (3,)), 5),
        (Tower((), (2, 3)), 4),
        (Tower((), (5,)), 3),
        (Tower((4,), (3,)), 3),
        (Tower((6,), (2,)), 4),
        (Tower((7,), ()), 1),
    ]
    for _ in range(50):
        tower, depth = rng.choice(pool)
        base = BlockSpace(tower, depth)
        assert base.size <= 256
        perm = list(range(base.size))
        rng.shuffle(perm)
        dist = [
            [base.distance(perm[x], perm[y]) for y in range(base.size)]
            for x in range(base.size)
        ]
        m = FiniteMetricSpace(base.size, tuple(tuple(row) for row in dist))
        images = embed_into_nonneg_integers(m)
        assert len(set(images)) == m.size

        for radius in range(m.max_distance + 1):
            source_parts = {
                frozenset(images[x] for x in blk)
                for blk in r_components(m, radius).blocks
            }
            image_parts = set()
            run = []
            for v in sorted(images):
                if run and v - run[-1] > radius:
                    image_parts.add(frozenset(run))
                    run = []
                run.append(v)
            image_parts.add(frozenset(run))
            assert source_parts == image_parts
    budget.check()


def test_c09_block_decomposition_density():
    budget = Budget(5.0)
    rng = random.Random(22360)
    spaces = [
        BlockSpace(Tower((), (2,)), 4),
        BlockSpace(Tower((), (2, 3)), 3),
        BlockSpace(Tower((3,), (3,)), 3),
    ]
    for space in spaces:
        for n in range(space.depth + 1):
            k = space.tower.order(n)
            for _ in range(30):
                entries = {}
                for _ in range(rng.randint(1, 5)):
                    block = rng.randrange(space.size // k)
                    x = block * k + rng.randrange(k)
                    y = block * k + rng.randrange(k)
                    entries[(x, y)] = Fraction(rng.randint(1, 5), rng.randint(1, 3))
                op = PropagationOperator(space, entries)
                assert propagation(op) <= n
                assert recompose(block_decompose(op, n)) == op
        for n in range(space.depth):
            k = space.tower.order(n)
            k_up = space.tower.order(n + 1)
            for _ in range(10):
                block = rng.randrange(space.size // k_up)
                x = block * k_up + rng.randrange(k)
                y = block * k_up + k + rng.randrange(k)
                crossing = PropagationOperator(space, {(x, y): Fraction(1)})
                assert propagation(crossing) == n + 1
                with pytest.raises(NotBlockDiagonal):
                    block_decompose(crossing, n)
    budget.check()


def test_c10_mvn_witness():
    budget = Budget(5.0)
    rng = random.Random(26457)
    spaces = [
        BlockSpace(Tower((), (2,)), 4),
        BlockSpace(Tower((), (3, 2)), 3),
        BlockSpace(Tower((4,), (2,)), 3),
    ]
    for space in spaces:
        for n in range(space.depth + 1):
            k = space.tower.order(n)
            for _ in range(25):
                p_entries, q_entries = {}, {}
                for block in range(space.size // k):
                    rank = rng.randint(0, k)
                    start = block * k
                    for i in rng.sample(range(k), rank):
                        p_entries[(start + i, start + i)] = Fraction(1)
                    for i in rng.sample(range(k), rank):
                        q_entries[(start + i, start + i)] = Fraction(1)
                p = block_decompose(PropagationOperator(space, p_entries), n)
                q = block_decompose(PropagationOperator(space, q_entries), n)
                assert trace_vector(p, require_projection=True) == trace_vector(
                    q, require_projection=True
                )
                v = mvn_partial_isometry(p, q)
                assert v is not None
                big_v = recompose(v)
                assert compose(adjoint(big_v), big_v) == recompose(p)
                assert compose(big_v, adjoint(big_v)) == recompose(q)
    budget.check()
