"""Block metric spaces, R-components, and the integer embedding."""

import random
import re
import tracemalloc
from itertools import accumulate, islice
from operator import mul
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from roeclass import blockspace
from roeclass import (
    BlockSpace,
    FiniteMetricSpace,
    MalformedInput,
    PreconditionViolation,
    PropagationOperator,
    Tower,
    asdim_zero_profile,
    block_decompose,
    components,
    embed_into_nonneg_integers,
    propagation,
    r_components,
)
from roeclass.errors import _clip

from conftest import Budget, run_limited, set_limit_bits, towers


def bfs_components(m, R):
    """Component partition by breadth-first search, independent of union-find."""
    seen = [False] * m.size
    blocks = []
    for start in range(m.size):
        if seen[start]:
            continue
        frontier = [start]
        seen[start] = True
        block = []
        while frontier:
            x = frontier.pop()
            block.append(x)
            for y in range(m.size):
                if not seen[y] and m.distances[x][y] <= R:
                    seen[y] = True
                    frontier.append(y)
        blocks.append(frozenset(block))
    return set(blocks)


def line_metric(points):
    """Metric induced from positions on the integer line."""
    n = len(points)
    d = tuple(tuple(abs(points[i] - points[j]) for j in range(n)) for i in range(n))
    return FiniteMetricSpace(n, d)


def shuffled_space(tower, depth, seed):
    """A BlockSpace rendered as a plain matrix with relabeled points."""
    s = BlockSpace(tower, depth)
    rng = random.Random(seed)
    perm = list(range(s.size))
    rng.shuffle(perm)
    d = tuple(
        tuple(s.distance(perm[i], perm[j]) for j in range(s.size))
        for i in range(s.size)
    )
    return FiniteMetricSpace(s.size, d), perm


small_block_spaces = st.builds(
    BlockSpace,
    towers(max_prefix=2, max_tail=2, allow_finite=False),
    st.integers(min_value=0, max_value=3),
).filter(lambda s: s.size <= 512)


def scan_distance(orders, x, y):
    """Oracle: the bottom-up scan over every order k_0..k_depth, with the
    point checks written out, as BlockSpace.distance was before it bisected
    and before it formed orders only as far as its points."""
    size = orders[-1]
    for p in (x, y):
        if not (isinstance(p, int) and 0 <= p < size):
            raise PreconditionViolation(f"point {_clip(p)} outside 0..{_clip(size - 1)}")
    for n, k in enumerate(orders):
        if x // k == y // k:
            return n
    raise AssertionError("unreachable: whole truncation is one block")


@st.composite
def divisor_chain_spaces(draw):
    """Spaces the shared strategies never draw, each with its orders up to
    the depth: prefix ratios of 1, finite towers cut past saturation,
    depths up to 12, and up to 150, past the 2^64 below which a space forms
    its orders at once.  Tower drops ratio 1 and BlockSpace cuts saturated
    levels, so half the spaces get a divisor chain with repeated orders
    written in directly, as orders already formed to the depth."""
    r = st.integers(min_value=1, max_value=5)
    prefix, tail = draw(st.lists(r, max_size=6)), draw(st.lists(r, max_size=2))
    depth = draw(st.integers(0, 12) | st.integers(40, 150))
    s = BlockSpace(Tower(tuple(prefix), tuple(tail)), depth)
    if draw(st.booleans()):
        orders = tuple(accumulate(draw(st.lists(r, max_size=12)), mul, initial=1))
        object.__setattr__(s, "depth", len(orders) - 1)
        object.__setattr__(s, "_orders", orders)
        object.__setattr__(s, "size", orders[-1])
        return s, orders
    return s, tuple(islice(s.tower.levels(), s.depth + 1))


def points(s):
    """Points of s, nearly always; sometimes out of range or not an int."""
    inside = st.integers(min_value=0, max_value=s.size - 1)
    outside = st.one_of(st.integers(max_value=-1), st.integers(min_value=s.size))
    odd = st.sampled_from([1.0, "0", None, True, False, 2**70])
    return st.one_of(inside, inside, inside, outside, odd)


class TestDistance:
    def test_identity(self):
        s = BlockSpace(Tower((), (2,)), 3)
        assert s.distance(0, 0) == 0

    def test_adjacent_blocks(self):
        s = BlockSpace(Tower((), (2,)), 3)
        assert s.distance(1, 2) == 2
        assert s.distance(3, 4) == 3

    def test_out_of_range(self):
        s = BlockSpace(Tower((), (2,)), 2)
        with pytest.raises(ValueError):
            s.distance(0, 4)
        with pytest.raises(ValueError):
            s.distance(-1, 0)
        for x, y, bad in [(4, -1, "4"), (-1, 4, "-1"), (1.0, "1", "1.0"), (3, None, "None")]:
            with pytest.raises(PreconditionViolation, match=f"^point {bad} outside 0..3$"):
                s.distance(x, y)

    @settings(max_examples=500)
    @given(divisor_chain_spaces(), st.data())
    def test_matches_bottom_up_scan(self, space, data):
        # a few pairs on one space: later ones meet the orders the earlier
        # ones formed, which are always a leading part of every order
        s, orders = space
        for _ in range(data.draw(st.integers(1, 4))):
            x = data.draw(points(s))
            y = data.draw(st.one_of(st.just(x), points(s)))
            try:
                want = scan_distance(orders, x, y)
            except PreconditionViolation as e:
                with pytest.raises(PreconditionViolation) as got:
                    s.distance(x, y)
                assert str(got.value) == str(e)
            else:
                assert s.distance(x, y) == want
            assert s._orders == orders[:len(s._orders)]

    def test_deep_space_within_budget(self):
        # a scan from level 0 is quadratic on the far pair (20,000 divisions
        # of 20,000-bit numbers); one from the top is slow on the near pairs
        s = BlockSpace(Tower((), (2,)), 20000)
        rng = random.Random(0)
        pairs = [(rng.randrange(1000), rng.randrange(1000)) for _ in range(1000)]
        budget = Budget(1.0)
        got = [s.distance(x, y) for x, y in pairs]
        assert s.distance(2**19999 - 1, 2**19999) == 20000
        budget.check()
        assert got == [(x ^ y).bit_length() for x, y in pairs]

    def test_deep_space_forms_orders_only_as_far_as_the_points(self):
        # all 20,001 orders of tail 6 at depth 2*10^4 take about 70 MB; a
        # one-entry operator needs those up to the first above 2^64, below
        # which every order is formed at once
        s = BlockSpace(Tower((), (6,)), 20000)
        op = PropagationOperator(s, {(0, 1): 1})
        tracemalloc.start()
        try:
            assert propagation(op) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20 and s._orders == tuple(6**n for n in range(26))
        assert "size" not in vars(s)

    @given(small_block_spaces, st.data())
    def test_min_level_definition(self, s, data):
        x = data.draw(st.integers(min_value=0, max_value=s.size - 1))
        y = data.draw(st.integers(min_value=0, max_value=s.size - 1))
        d = s.distance(x, y)
        assert x // s.order(d) == y // s.order(d)
        if d > 0:
            assert x // s.order(d - 1) != y // s.order(d - 1)

    @given(small_block_spaces)
    def test_ultrametric_exhaustive(self, s):
        # distances are at most the depth (<= 3); int8 keeps the pivot loop
        # inside the deadline, and numpy raises on a value that does not fit
        d = np.array(s.metric_matrix(), dtype=np.int8)
        for y in range(s.size):
            assert not (d > np.maximum(d[:, [y]], d[[y], :])).any()

    @given(small_block_spaces, st.data())
    def test_bounded_geometry_ball_is_block(self, s, data):
        x = data.draw(st.integers(min_value=0, max_value=s.size - 1))
        r = data.draw(st.integers(min_value=0, max_value=s.depth))
        ball = sum(1 for y in range(s.size) if s.distance(x, y) <= r)
        assert ball == s.order(r)


def numpy_metric_matrix(s):
    """Oracle: BlockSpace.metric_matrix as it was in NumPy, one pass of block
    labels per level below the last, each adding 1 where two labels differ."""
    pts = np.arange(s.size)
    d = np.zeros((s.size, s.size), dtype=np.int64)
    for k in tuple(islice(s.tower.levels(), s.depth + 1))[:-1]:
        labels = pts // k
        d += labels[:, None] != labels[None, :]
    return d.tolist()


@st.composite
def matrix_spaces(draw):
    """Block spaces up to the metric matrix cap of 2^20 entries (1,024
    points): prefix/tail towers, and finite ones cut up to 12 levels deep,
    so often past saturation."""
    t = draw(st.one_of(towers(max_prefix=3, max_tail=2, max_ratio=6),
                       towers(max_prefix=4, max_tail=0, max_ratio=6)))
    depth = draw(st.integers(min_value=0, max_value=12))
    while t.order(depth) ** 2 > 1 << blockspace.LIMITS["metric matrix"][0]:
        depth -= 1
    return BlockSpace(t, depth)


class TestMetricMatrix:
    @settings(max_examples=60, deadline=None)
    @given(matrix_spaces())
    @example(BlockSpace(Tower((), (2,)), 10))
    @example(BlockSpace(Tower((), (32,)), 2))
    @example(BlockSpace(Tower((2, 3), ()), 9))
    @example(BlockSpace(Tower((5,), (2,)), 0))
    def test_matches_numpy_oracle(self, s):
        assert s.metric_matrix() == numpy_metric_matrix(s)

    def test_block_space_embeds_without_numpy(self):
        proc = run_limited("-c", """if True:
            import sys
            from roeclass import BlockSpace, Tower, embed_into_nonneg_integers
            m = BlockSpace(Tower((), (2,)), 10).to_metric_space()
            assert m.size == 1024 and m.distance(0, 1023) == 10
            assert len(embed_into_nonneg_integers(m)) == 1024
            assert "numpy" not in sys.modules
            """)
        assert (proc.returncode, proc.stderr) == (0, "")


def diameter_reference(s, n):
    """The level-n block diameter as components computed it before it read
    the distance: the first level already of order k_n (saturating finite
    towers repeat orders, so it can be below n)."""
    k = s.order(n)
    return next(m for m in range(n + 1) if s.order(m) == k)


class TestComponents:
    def test_singletons(self):
        s = BlockSpace(Tower((), (2,)), 3)
        part = components(s, 0)
        assert len(part) == 8
        assert all(len(b) == 1 for b in part.blocks)

    def test_pairs(self):
        s = BlockSpace(Tower((), (2,)), 3)
        part = components(s, 1)
        assert [tuple(b) for b in part.blocks] == [(0, 1), (2, 3), (4, 5), (6, 7)]
        assert part.diameters == (1, 1, 1, 1)

    def test_whole_space(self):
        s = BlockSpace(Tower((), (2,)), 3)
        part = components(s, 3)
        assert len(part) == 1
        assert part.cardinalities == (8,)

    def test_level_above_depth_rejected(self):
        s = BlockSpace(Tower((), (2,)), 2)
        with pytest.raises(ValueError):
            components(s, 3)

    def test_saturated_finite_tower_diameter(self):
        # levels past the prefix add no new merges, so diameters stop growing
        s = BlockSpace(Tower((6,), ()), 3)
        part = components(s, 3)
        assert part.diameters == (1,)

    def test_deep_level_builds_no_orders(self):
        # a level-n block's diameter is read from the ratio count, not
        # bisected over every order up to the depth (quadratic in bits)
        s = BlockSpace(Tower((), (2,)), 20_000)
        assert components(s, 20_000).diameters == (20_000,)
        assert "_orders" not in vars(s)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(towers(max_prefix=3, max_tail=2, max_ratio=4),
                     towers(max_prefix=3, max_tail=0, max_ratio=4)), st.data())
    def test_diameters_match_scan_and_distances(self, t, data):
        # finite towers (the second kind) are cut up to 3 levels past
        # saturation, where orders repeat
        depth = data.draw(st.integers(min_value=0, max_value=6))
        while t.order(depth) > 64:
            depth -= 1
        s = BlockSpace(t, depth)
        n = data.draw(st.integers(min_value=0, max_value=depth))
        part = components(s, n)
        widest = tuple(max(s.distance(x, y) for x in b for y in b) for b in part.blocks)
        assert part.diameters == widest == (diameter_reference(s, n),) * len(part)

    @given(small_block_spaces, st.integers(min_value=0, max_value=3))
    def test_blocks_are_aligned_intervals(self, s, n):
        n = min(n, s.depth)
        part = components(s, n)
        k = s.order(n)
        assert [tuple(b) for b in part.blocks] == [
            tuple(range(j * k, (j + 1) * k)) for j in range(s.size // k)
        ]


def zero_split(s, n):
    return block_decompose(PropagationOperator.zero(s), n)


class TestBlockLimit:
    """A split into level-n blocks refuses more than the "blocks of a split"
    limit allows, before any block is allocated."""

    @pytest.mark.parametrize("split", [components, zero_split], ids=["components", "decompose"])
    @pytest.mark.parametrize("bits", [1, 3, 5])
    def test_boundary(self, monkeypatch, split, bits):
        set_limit_bits(monkeypatch, "blocks of a split", bits)
        refused = re.escape(f"split the space into over 2^{bits} blocks")
        two = Tower((), (2,))
        assert len(split(BlockSpace(two, bits), 0).blocks) == 2**bits
        assert len(split(BlockSpace(two, bits + 4), 4).blocks) == 2**bits
        # bits + 1 ratios of 2 pass the limit: refused without the size
        deep = BlockSpace(two, bits + 1)
        with pytest.raises(PreconditionViolation, match=refused):
            split(deep, 0)
        assert "size" not in vars(deep)
        # bits ratios of 3 give 3^bits blocks: refused by comparing the size
        with pytest.raises(PreconditionViolation, match=refused):
            split(BlockSpace(Tower((), (3,)), bits), 0)
        # a finite tower cut past saturation multiplies only its prefix
        assert len(split(BlockSpace(Tower((2,) * bits, ()), bits + 5), 0).blocks) == 2**bits
        with pytest.raises(PreconditionViolation, match=refused):
            split(BlockSpace(Tower((2,) * bits + (3,), ()), bits + 5), 0)


class TestPointCountLimits:
    """Calls that would build one item per point: the identity shares the
    "blocks of a split" limit at level 0, a metric matrix has its own
    "metric matrix" limit on entries, and component blocks are ranges."""

    @pytest.mark.parametrize("bits", [2, 4])
    def test_boundary(self, monkeypatch, bits):
        set_limit_bits(monkeypatch, "blocks of a split", bits)
        set_limit_bits(monkeypatch, "metric matrix", bits)
        two = Tower((), (2,))
        assert len(PropagationOperator.identity(BlockSpace(two, bits)).entries) == 2**bits
        deep = BlockSpace(two, bits + 1)
        with pytest.raises(PreconditionViolation, match=re.escape(f"over 2^{bits} blocks")):
            PropagationOperator.identity(deep)
        assert "size" not in vars(deep)
        entries = re.escape(f"a metric matrix would have over 2^{bits} entries")
        assert len(BlockSpace(two, bits // 2).metric_matrix()) == 2 ** (bits // 2)
        # bits // 2 + 1 ratios of 2 pass the limit: refused without the size
        deep = BlockSpace(two, bits // 2 + 1)
        with pytest.raises(PreconditionViolation, match=entries):
            deep.metric_matrix()
        assert "size" not in vars(deep)
        # bits // 2 ratios of 3 give 9^(bits // 2) entries: refused by the size
        with pytest.raises(PreconditionViolation, match=entries):
            BlockSpace(Tower((), (3,)), bits // 2).metric_matrix()

    def test_deep_space_in_a_memory_capped_child(self):
        proc = run_limited("-c", """if True:
            from roeclass import BlockSpace, PreconditionViolation, PropagationOperator, Tower, components
            s = BlockSpace(Tower((), (2,)), 40)
            part = components(s, 40)
            assert part.blocks == (range(2**40),) and part.cardinalities == (2**40,)
            assert part.diameters == (40,)
            assert len(components(s, 20).blocks) == 2**20
            assert components(BlockSpace(Tower((), (2,)), 70), 70).cardinalities == (2**70,)
            for refused in (lambda: PropagationOperator.identity(s),
                            lambda: BlockSpace(Tower((), (2,)), 20).metric_matrix()):
                try:
                    refused()
                except PreconditionViolation:
                    continue
                raise AssertionError("not refused")
            """)
        assert (proc.returncode, proc.stderr) == (0, "")


class TestRComponents:
    def test_chain_connects(self):
        m = line_metric([0, 1, 2])
        assert len(r_components(m, 1)) == 1

    def test_far_points_split(self):
        m = line_metric([0, 10])
        assert len(r_components(m, 1)) == 2

    @given(st.integers(min_value=0, max_value=99))
    def test_matches_bfs_oracle_on_shuffled_spaces(self, seed):
        m, _ = shuffled_space(Tower((), (2,)), 3, seed)
        for R in range(4):
            part = r_components(m, R)
            assert {frozenset(b) for b in part.blocks} == bfs_components(m, R)
            for block, diam in zip(part.blocks, part.diameters):
                assert diam == max(m.distance(x, y) for x in block for y in block)

    @given(small_block_spaces.filter(lambda s: s.size <= 128),
           st.integers(min_value=0, max_value=3))
    def test_matches_block_components(self, s, n):
        n = min(n, s.depth)
        m = s.to_metric_space()
        ours = {frozenset(b) for b in r_components(m, n).blocks}
        theirs = {frozenset(b) for b in components(s, n).blocks}
        assert ours == theirs

    def test_scale_tree_built_once_per_space(self, monkeypatch):
        built = []
        real = blockspace._scale_tree
        monkeypatch.setattr(blockspace, "_scale_tree", lambda m: built.append(m) or real(m))
        m, _ = shuffled_space(Tower((), (2,)), 3, 0)
        for R in range(m.max_distance + 1):
            r_components(m, R)
        asdim_zero_profile(m)
        embed_into_nonneg_integers(m)
        assert built == [m]

    @given(st.integers(min_value=0, max_value=20), st.integers(min_value=0, max_value=20))
    def test_monotone_coarsening(self, r_small, extra):
        m = line_metric([0, 2, 3, 9, 14, 15])
        fine = r_components(m, r_small)
        coarse = r_components(m, r_small + extra)
        for block in fine.blocks:
            assert any(set(block) <= set(big) for big in coarse.blocks)


class TestAsdimProfile:
    def test_block_space_profile(self):
        m = BlockSpace(Tower((), (2,)), 3).to_metric_space()
        profile = asdim_zero_profile(m)
        assert profile[1] == (1, 2)
        assert profile[2] == (2, 4)

    def test_single_point(self):
        m = FiniteMetricSpace(1, ((0,),))
        assert asdim_zero_profile(m) == {0: (0, 1)}

    def test_threshold(self):
        m = line_metric([0, 5])
        profile = asdim_zero_profile(m)
        assert profile[4] == (0, 1)
        assert profile[5] == (5, 2)

    def test_far_pair_refused_at_once(self):
        # one entry per R in 0..10^9 would never finish
        budget = Budget(1.0)
        with pytest.raises(PreconditionViolation, match=re.escape(
                "an asdim profile of 1000000001 entries is over the 2^20 limit")):
            asdim_zero_profile(line_metric([0, 10**9]))
        budget.check()


class TestEmbedding:
    def test_single_point(self):
        m = FiniteMetricSpace(1, ((0,),))
        assert embed_into_nonneg_integers(m) == [0]

    def test_two_points_gap_rule(self):
        m = line_metric([0, 3])
        assert sorted(embed_into_nonneg_integers(m)) == [0, 3]

    def test_depth_two_blockspace_image(self):
        m, perm = shuffled_space(Tower((), (2,)), 2, seed=7)
        images = embed_into_nonneg_integers(m)
        assert sorted(images) == [0, 1, 3, 4]

    def test_images_pinned(self):
        # images of the per-scale recursive layout, kept byte-identical
        assert embed_into_nonneg_integers(line_metric([9, 0, 15, 2, 14, 3])) == [
            0, 12, 5, 14, 6, 15]
        m, _ = shuffled_space(Tower((), (2, 3)), 2, seed=5)
        scaled = FiniteMetricSpace(
            m.size, tuple(tuple(50 * v for v in row) for row in m.distances))
        assert embed_into_nonneg_integers(scaled) == [0, 50, 150, 300, 200, 350]

    def test_far_pair_costs_nothing_per_scale(self):
        budget = Budget(1.0)
        m = line_metric([0, 10**6])
        assert embed_into_nonneg_integers(m) == [0, 10**6]
        assert len(r_components(m, 10**6 - 1)) == 2
        assert len(r_components(m, 10**6)) == 1
        budget.check()

    @given(st.integers(min_value=0, max_value=49))
    def test_component_preserving_both_ways(self, seed):
        rng = random.Random(seed)
        tower = Tower((), tuple(rng.choice([2, 2, 3])
                                for _ in range(rng.randint(1, 2))))
        depth = rng.randint(0, 3)
        m, _ = shuffled_space(tower, depth, seed)
        images = embed_into_nonneg_integers(m)
        assert len(set(images)) == m.size

        max_d = max(max(row) for row in m.distances) if m.size > 1 else 0
        idx = {v: i for i, v in enumerate(images)}
        for R in range(max_d + 1):
            source = {frozenset(b) for b in r_components(m, R).blocks}
            image_line = line_metric(images)
            image_parts = {
                frozenset(idx[images[p]] for p in b)
                for b in r_components(image_line, R).blocks
            }
            assert source == image_parts


def reference_check(size, distances):
    """Oracle: the checks of FiniteMetricSpace as they were before the entry
    screen and the min-plus square; returns the MalformedInput message, or
    None when the matrix is accepted."""
    if isinstance(size, bool) or not isinstance(size, int) or size < 1:
        return "size must be an integer >= 1"
    rows = tuple(tuple(row) for row in distances)
    if len(rows) != size or any(len(r) != size for r in rows):
        return "distance matrix shape does not match size"
    for row in rows:
        for v in row:
            if isinstance(v, bool) or not isinstance(v, int) or v < 0:
                return f"distance {_clip(v)} is not a nonnegative integer"
            if v >= 2**62:
                return "distances this large are not supported"
    d = np.array(rows, dtype=np.int64)
    if (np.diag(d) != 0).any():
        return "d(x, x) must be 0"
    if (d == 0).sum() != size:
        return "d(x, y) = 0 requires x = y"
    if (d != d.T).any():
        return "distance matrix must be symmetric"
    for k in range(size):
        if (d > d[:, [k]] + d[[k], :]).any():
            return "triangle inequality fails"
    return None


class Dist(int):
    """An int subclass, which the entry screen leaves to the per-entry walk."""


@st.composite
def ultrametrics(draw, n):
    """Merge n singletons one random pair at a time, at rising heights."""
    clusters, d = [[i] for i in range(n)], [[0] * n for _ in range(n)]
    height = 0
    while len(clusters) > 1:
        height += draw(st.integers(min_value=0, max_value=3))
        i, j = sorted(draw(st.lists(st.integers(0, len(clusters) - 1), min_size=2,
                                    max_size=2, unique=True)))
        for x in clusters[i]:
            for y in clusters[j]:
                d[x][y] = d[y][x] = max(height, 1)
        clusters[i] += clusters.pop(j)
    return d


@st.composite
def candidate_matrices(draw):
    """1-6-point matrices: valid line metrics and ultrametrics, either kept,
    with one entry changed (mirrored or not), or wholly random entries."""
    n = draw(st.integers(min_value=1, max_value=6))
    kind = draw(st.sampled_from(["line", "ultra", "line", "ultra", "random"]))
    entry = st.one_of(st.integers(0, 9), st.integers(-3, -1), st.booleans(),
                      st.sampled_from([2**62 - 1, 2**62, 2**62 + 1, 1.0, "1", Dist(2)]))
    if kind == "line":
        top = draw(st.sampled_from([20, 2**61]))
        pos = draw(st.lists(st.integers(0, top), min_size=n, max_size=n, unique=True))
        d = [[abs(a - b) for b in pos] for a in pos]
    elif kind == "ultra":
        d = draw(ultrametrics(n))
    else:
        d = [[draw(entry) for _ in range(n)] for _ in range(n)]
    changes = ["none", "one", "mirrored"] + ["stretch"] * (n >= 3)
    change = "none" if kind == "random" else draw(st.sampled_from(changes))
    if change == "stretch":  # d(x, y) at, or just past, d(x, z) + d(z, y)
        x, y, z = draw(st.permutations(range(n)))[:3]
        d[x][y] = d[y][x] = d[x][z] + d[z][y] + draw(st.integers(0, 1))
    elif change != "none":
        x, y = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        near = st.integers(0, 2 * max(map(max, d)) + 1)  # often breaks the triangle
        d[x][y] = draw(st.one_of(st.just(0), near, near, entry))
        if change == "mirrored":
            d[y][x] = d[x][y]
    return n, tuple(map(tuple, d))


def is_ultrametric(d):
    """Oracle: d(x, y) <= max(d(x, z), d(z, y)) for every triple."""
    n = len(d)
    return all(d[x][y] <= max(d[x][z], d[z][y])
               for x in range(n) for y in range(n) for z in range(n))


@st.composite
def nudged_ultrametrics(draw):
    """Scaled ultrametrics of 1-12 points with one off-diagonal entry raised
    or lowered, its mirror changed along with it or not; one in five is
    kept as drawn."""
    n = draw(st.integers(min_value=1, max_value=12))
    scale = draw(st.sampled_from([1, 1, 3, 2**40]))
    d = [[scale * v for v in row] for row in draw(ultrametrics(n))]
    change = draw(st.sampled_from(["none", "raise", "lower", "raise mirrored",
                                   "lower mirrored"]))
    if change != "none" and n > 1:
        x, y = draw(st.permutations(range(n)))[:2]
        if change.startswith("raise"):
            d[x][y] += draw(st.integers(1, 2 * max(map(max, d))))
        else:  # down to 0 at most, which the zero-entry check refuses
            d[x][y] -= draw(st.integers(1, d[x][y]))
        if change.endswith("mirrored"):
            d[y][x] = d[x][y]
    return n, tuple(map(tuple, d))


class TestUltrametricCertificate:
    """The scale tree certifies an ultrametric; only a matrix that is not
    one reaches the NumPy min-plus square.  reference_check judges both."""

    @settings(max_examples=400)
    @given(nudged_ultrametrics())
    def test_fallback_runs_exactly_off_ultrametrics(self, case):
        n, d = case
        want = reference_check(n, d)
        calls, real = [], blockspace._triangle_holds
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(blockspace, "_triangle_holds", lambda *a: calls.append(a) or real(*a))
            try:
                got = FiniteMetricSpace(n, d)
            except MalformedInput as e:
                got = str(e)
        if want is None:
            assert got.distances == d
            assert got.max_distance == max(map(max, d))
        else:
            assert got == want
        checked = want in (None, "triangle inequality fails")
        assert len(calls) == int(checked and not is_ultrametric(d))

    def test_large_ultrametric_within_budget_in_a_memory_capped_child(self):
        # the certificate costs O(n^2) and imports no NumPy; 1024 points of
        # tail (2), whose d(x, y) is the bit length of x ^ y
        proc = run_limited("-c", f"""if True:
            import sys
            sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})
            from conftest import Budget
            from roeclass import FiniteMetricSpace, embed_into_nonneg_integers
            n = 1024
            d = tuple(tuple((x ^ y).bit_length() for y in range(n)) for x in range(n))
            budget = Budget(2.0)
            images = embed_into_nonneg_integers(FiniteMetricSpace(n, d))
            budget.check()
            # bit i moves a point past the 2^i points below it, whose images
            # reach top[i], and a gap of i + 1
            top = [0]
            for i in range(1, 11):
                top.append(2 * top[-1] + i)
            assert images == [sum(top[i] + i + 1 for i in range(10) if x >> i & 1)
                              for x in range(n)]
            assert "numpy" not in sys.modules
            """)
        assert (proc.returncode, proc.stderr) == (0, "")


class TestFiniteMetricSpaceValidation:
    @settings(max_examples=500)
    @given(candidate_matrices())
    @example((2, ((0, 2**62), (-1, 0))))  # too large comes first, row-major
    @example((2, ((0, -1), (2**62, 0))))
    @example((3, ((0, 1, 3), (1, 0, 1), (3, 1, 0))))
    @example((2, ((0, Dist(2)), (2, 0))))
    def test_agrees_with_reference(self, case):
        n, d = case
        want = reference_check(n, d)
        if want is None:
            assert FiniteMetricSpace(n, d).distances == d
        else:
            with pytest.raises(MalformedInput) as got:
                FiniteMetricSpace(n, d)
            assert str(got.value) == want

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            FiniteMetricSpace(2, ((0, 1), (2, 0)))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError):
            FiniteMetricSpace(2, ((0, 1), (1, 1)))

    def test_rejects_triangle_violation(self):
        with pytest.raises(ValueError):
            FiniteMetricSpace(3, ((0, 1, 9), (1, 0, 1), (9, 1, 0)))

    def test_rejects_zero_off_diagonal(self):
        with pytest.raises(ValueError):
            FiniteMetricSpace(2, ((0, 0), (0, 0)))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            FiniteMetricSpace(2, ((0, -1), (-1, 0)))
