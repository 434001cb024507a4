"""Block metric spaces, R-components, and the integer embedding."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roeclass import blockspace
from roeclass import (
    BlockSpace,
    FiniteMetricSpace,
    Tower,
    asdim_zero_profile,
    components,
    distance,
    embed_into_nonneg_integers,
    r_components,
)

from conftest import Budget, towers


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
            distance(s, -1, 0)

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

    @given(small_block_spaces, st.integers(min_value=0, max_value=3))
    def test_blocks_are_aligned_intervals(self, s, n):
        n = min(n, s.depth)
        part = components(s, n)
        k = s.order(n)
        assert [tuple(b) for b in part.blocks] == [
            tuple(range(j * k, (j + 1) * k)) for j in range(s.size // k)
        ]


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


class TestFiniteMetricSpaceValidation:
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
