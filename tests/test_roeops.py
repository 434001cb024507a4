"""Finite-propagation operator calculus on block spaces."""

import functools
import math
import random
import re
from collections import namedtuple
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import Matrix

from roeclass import (
    BlockSpace,
    BlockTuple,
    DepthExhausted,
    K0Class,
    MalformedInput,
    NotBlockDiagonal,
    NotProjection,
    PreconditionViolation,
    PropagationOperator,
    RoeclassError,
    Tower,
    TowerBijection,
    UnsupportedEntries,
    add,
    adjoint,
    alpha_iterate,
    block_decompose,
    build_back_and_forth,
    compose,
    conjugate_by_bijection,
    connecting_map,
    interleave_towers,
    k0_add,
    k0_class_of_projection,
    k0_equal,
    k0_positive,
    k0_zero,
    mvn_partial_isometry,
    propagation,
    recompose,
    trace_vector,
    transport_class,
    verify_bijective_coarse_equivalence,
)
from roeclass.errors import LIMITS
from roeclass.roeops import _mat_add, _mat_mul, _projection_rank

from conftest import Budget, random_equivalent_pair, same_value, towers


def dense(op):
    """Operator as a dense list-of-lists of Fractions."""
    n = op.space.size
    m = [[Fraction(0)] * n for _ in range(n)]
    for (r, c), v in op.entries.items():
        m[r][c] = v
    return m


def dense_mul(a, b):
    n = len(a)
    return [
        [sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0)) for j in range(n)]
        for i in range(n)
    ]


@st.composite
def crossing_spaces(draw):
    """Spaces of small towers, finite ones cut past saturation among them,
    at depths up to 12 and of at most 2^12 points."""
    t = draw(towers(max_prefix=2, max_tail=2, max_ratio=5))
    depth = draw(st.integers(min_value=0, max_value=12))
    while t.order(depth) > 2**12:
        depth -= 1
    return BlockSpace(t, depth)


scalars = st.integers(min_value=-3, max_value=3).flatmap(
    lambda n: st.integers(min_value=1, max_value=3).map(lambda d: Fraction(n, d))
)

spaces = st.builds(
    BlockSpace,
    st.sampled_from([Tower((), (2,)), Tower((), (3,)), Tower((2,), (3,)), Tower((), (2, 3))]),
    st.integers(min_value=1, max_value=3),
).filter(lambda s: s.size <= 64)


@st.composite
def operators(draw, space=None):
    s = space if space is not None else draw(spaces)
    pts = st.integers(min_value=0, max_value=s.size - 1)
    entries = draw(st.dictionaries(st.tuples(pts, pts), scalars, max_size=6))
    return PropagationOperator(s, entries)


@st.composite
def operator_pairs(draw):
    s = draw(spaces)
    return draw(operators(space=s)), draw(operators(space=s))


@st.composite
def diagonal_projections(draw, space, level):
    k = space.order(level)
    blocks = []
    for _ in range(space.size // k):
        support = draw(st.sets(st.integers(min_value=0, max_value=k - 1), max_size=k))
        blocks.append({(x, x): Fraction(1) for x in support})
    return BlockTuple(space, level, tuple(blocks))


def pruned_mul(a, b):
    """Sparse product of entry dicts that keeps only its nonzero entries, so
    that it compares with a stored block entry by entry."""
    by_row = {}
    for (r, c), v in b.items():
        by_row.setdefault(r, []).append((c, v))
    out = {}
    for (r, k), u in a.items():
        for c, v in by_row.get(k, ()):
            out[(r, c)] = out.get((r, c), 0) + u * v
    return {key: v for key, v in out.items() if v}


def _mat_adjoint(a):
    # rational scalars: the adjoint is the transpose
    return {(c, r): v for (r, c), v in a.items()}


def is_projection_oracle(a):
    """The projection rule by squaring: p*p = p = p*, entry by entry."""
    return pruned_mul(a, a) == a and _mat_adjoint(a) == a


def trace_vector_reference(bt, require_projection=False):
    """The two-pass trace_vector: each block checked by the squaring rule,
    then read again for its trace."""
    out = []
    for blk in bt.blocks:
        if require_projection and not is_projection_oracle(blk):
            raise NotProjection("block fails p*p = p = p*")
        diag = [v for (r, c), v in blk.items() if r == c]
        if all(v.denominator == 1 for v in diag):
            out.append(sum(v.numerator for v in diag))
        else:
            tr = sum(diag, Fraction(0))
            out.append(int(tr) if tr.denominator == 1 else tr)
    return tuple(out)


def orthogonal_projection(vectors, k):
    """Exact orthogonal projection of Q^k onto the span of integer
    ``vectors``, and its rank: Gram-Schmidt kept on integer vectors."""
    basis = []
    for v in vectors:
        w = list(v)
        for u in basis:
            uu, wu = sum(y * y for y in u), sum(x * y for x, y in zip(w, u))
            w = [uu * x - wu * y for x, y in zip(w, u)]
            g = math.gcd(*w)
            if g > 1:
                w = [x // g for x in w]
        if any(w):
            basis.append(w)
    p = {}
    for u in basis:
        uu = sum(y * y for y in u)
        for i in range(k):
            for j in range(k):
                if u[i] and u[j]:
                    p[(i, j)] = p.get((i, j), 0) + Fraction(u[i] * u[j], uu)
    return {key: v for key, v in p.items() if v}, len(basis)


def dense_matrix(a, k):
    m = [[Fraction(0)] * k for _ in range(k)]
    for (r, c), v in a.items():
        m[r][c] = v
    return m


def sparse_matrix(m):
    return {(r, c): v for r, row in enumerate(m) for c, v in enumerate(row) if v}


def one_block(blk, k):
    """A hand-built level-1 tuple holding ``blk`` as its only k x k block."""
    return BlockTuple(BlockSpace(Tower((k,), ()), 1), 1, (blk,))


@st.composite
def projection_candidates(draw):
    """A k x k block, 1 <= k <= 8, of one of these kinds: random rational,
    random symmetric, an exact projection of any rank, a projection with one
    entry changed (mirrored or not), an idempotent that is not symmetric, a
    projection holding an explicit 0, a projection with int entries."""
    k = draw(st.integers(min_value=1, max_value=8))
    kind = draw(st.sampled_from(["random", "symmetric", "projection", "mirrored",
                                 "unmirrored", "oblique", "stored_zero", "ints"]))
    pts = st.integers(min_value=0, max_value=k - 1)
    nonzero = scalars.filter(bool)
    if kind in ("random", "symmetric"):
        blk = draw(st.dictionaries(st.tuples(pts, pts), nonzero, max_size=k * k))
        if kind == "symmetric":
            blk.update({(c, r): v for (r, c), v in list(blk.items())})
        return k, blk
    rank = draw(st.integers(min_value=0, max_value=k))
    vectors = draw(st.lists(st.lists(st.integers(-2, 2), min_size=k, max_size=k),
                            min_size=rank, max_size=rank))
    blk, _ = orthogonal_projection(vectors, k)
    if kind in ("mirrored", "unmirrored"):
        i, j, delta = draw(pts), draw(pts), draw(nonzero)
        for key in {(i, j), (j, i)} if kind == "mirrored" else {(i, j)}:
            blk[key] = blk.get(key, 0) + delta
            if not blk[key]:
                del blk[key]
    elif kind == "oblique":
        # p + p n (1 - p) is idempotent for every n, and symmetric only by chance
        p = dense_matrix(blk, k)
        n = dense_matrix(draw(st.dictionaries(st.tuples(pts, pts), nonzero, max_size=3)), k)
        one_minus_p = [[int(r == c) - p[r][c] for c in range(k)] for r in range(k)]
        pnq = dense_mul(dense_mul(p, n), one_minus_p)
        blk = sparse_matrix([[p[r][c] + pnq[r][c] for c in range(k)] for r in range(k)])
    elif kind == "stored_zero":
        blk[(draw(pts), draw(pts))] = Fraction(0)
    elif kind == "ints":
        blk = {key: int(v) if v.denominator == 1 else v for key, v in blk.items()}
        # an integral block beside it keeps int entries off the diagonal too
        blk.update({(r, c): draw(st.integers(-1, 1)) for r, c in draw(st.lists(
            st.tuples(pts, pts), max_size=2)) if (r, c) not in blk})
    return k, blk


class TestPropagation:
    def test_identity(self):
        s = BlockSpace(Tower((), (2,)), 3)
        assert propagation(PropagationOperator.identity(s)) == 0

    def test_matrix_unit(self):
        s = BlockSpace(Tower((), (2,)), 3)
        assert propagation(PropagationOperator.matrix_unit(s, 1, 2)) == 2

    def test_zero(self):
        s = BlockSpace(Tower((), (2,)), 3)
        assert propagation(PropagationOperator.zero(s)) == 0

    @given(operator_pairs())
    def test_sum_law(self, pair):
        a, b = pair
        assert propagation(add(a, b)) <= max(propagation(a), propagation(b))

    @given(operator_pairs())
    def test_product_ultrametric_law(self, pair):
        a, b = pair
        p = propagation(compose(a, b))
        assert p <= propagation(a) + propagation(b)
        assert p <= max(propagation(a), propagation(b))

    @given(operators())
    def test_adjoint_preserves_propagation(self, a):
        assert propagation(adjoint(a)) == propagation(a)


class TestArithmetic:
    def test_matrix_unit_composition(self):
        s = BlockSpace(Tower((), (2,)), 2)
        e01 = PropagationOperator.matrix_unit(s, 0, 1)
        e12 = PropagationOperator.matrix_unit(s, 1, 2)
        assert compose(e01, e12) == PropagationOperator.matrix_unit(s, 0, 2)

    def test_add_zero(self):
        s = BlockSpace(Tower((), (2,)), 2)
        a = PropagationOperator.matrix_unit(s, 0, 3, Fraction(2, 7))
        assert add(a, PropagationOperator.zero(s)) == a

    def test_add_negation_is_zero(self):
        s = BlockSpace(Tower((), (2,)), 2)
        a = PropagationOperator(s, {(0, 3): Fraction(2, 7), (1, 1): 1, (2, 0): Fraction(-1, 2)})
        minus = PropagationOperator(s, {key: -v for key, v in a.entries.items()})
        assert add(a, minus) == PropagationOperator.zero(s)

    def test_compose_drops_cancelled_entries(self):
        # row (1, 1) against column (1, -1): the only product entry cancels
        s = BlockSpace(Tower((), (2,)), 1)
        row = PropagationOperator(s, {(0, 0): 1, (0, 1): 1})
        column = PropagationOperator(s, {(0, 0): 1, (1, 0): -1})
        assert compose(row, column) == PropagationOperator.zero(s)

    def test_fraction_subclass_entries_stored_as_fractions(self):
        class Half(Fraction):
            pass

        s = BlockSpace(Tower((), (2,)), 1)
        for op in (PropagationOperator(s, {(0, 1): Half(1, 2)}),
                   PropagationOperator.matrix_unit(s, 0, 1, Half(1, 2))):
            assert op.entries == {(0, 1): Fraction(1, 2)}
            assert type(op.entries[(0, 1)]) is Fraction

    def test_adjoint_of_matrix_unit(self):
        s = BlockSpace(Tower((), (2,)), 2)
        e03 = PropagationOperator.matrix_unit(s, 0, 3)
        assert adjoint(e03) == PropagationOperator.matrix_unit(s, 3, 0)

    def test_space_mismatch(self):
        a = PropagationOperator.identity(BlockSpace(Tower((), (2,)), 1))
        b = PropagationOperator.identity(BlockSpace(Tower((), (2,)), 2))
        with pytest.raises(PreconditionViolation):
            add(a, b)

    @given(operator_pairs())
    def test_compose_matches_dense_oracle(self, pair):
        a, b = pair
        assert dense(compose(a, b)) == dense_mul(dense(a), dense(b))

    @given(operator_pairs())
    def test_adjoint_antihomomorphism(self, pair):
        a, b = pair
        assert adjoint(compose(a, b)) == compose(adjoint(b), adjoint(a))


class TestBlockDecompose:
    def test_identity_blocks(self):
        s = BlockSpace(Tower((), (2,)), 2)
        bt = block_decompose(PropagationOperator.identity(s), 1)
        assert bt.blocks == ({(0, 0): 1, (1, 1): 1}, {(0, 0): 1, (1, 1): 1})

    def test_local_coordinates(self):
        s = BlockSpace(Tower((), (2,)), 2)
        op = PropagationOperator.matrix_unit(s, 2, 3)
        bt = block_decompose(op, 1)
        assert bt.blocks == ({}, {(0, 1): Fraction(1)})

    def test_crossing_entry_rejected(self):
        s = BlockSpace(Tower((), (2,)), 2)
        op = PropagationOperator.matrix_unit(s, 1, 2)
        with pytest.raises(NotBlockDiagonal):
            block_decompose(op, 1)

    @settings(max_examples=200)
    @given(crossing_spaces(), st.data())
    def test_crossing_message_names_the_distance(self, s, data):
        # the refusal bisects the levels above n over Tower.order; its
        # message is the one BlockSpace.distance gave
        pts = st.integers(min_value=0, max_value=s.size - 1)
        r, c = data.draw(pts), data.draw(pts)
        n = data.draw(st.integers(min_value=0, max_value=s.depth))
        d = BlockSpace(s.tower, s.depth).distance(r, c)
        op = PropagationOperator(s, {(0, 0): 1, (r, c): Fraction(1, 3)})
        if d <= n:
            assert block_decompose(op, n).level == n
            return
        message = f"entry ({r}, {c}) at distance {d} crosses level-{n} blocks"
        with pytest.raises(NotBlockDiagonal, match=f"^{re.escape(message)}$"):
            block_decompose(op, n)

    def test_crossing_refusal_on_a_deep_space_forms_no_orders(self):
        # distance(r, c) formed every order up to the point: 0.2-0.4 s and
        # about 245 MB at depth 60,000; the closed form needs a few orders
        space = BlockSpace(Tower((), (2,)), 60000)
        op = PropagationOperator(space, {(0, 2**59995): 1})
        budget = Budget(0.05)
        message = r"^entry \(0, <int of 59996 bits>\) at distance 59996 crosses level-59990 blocks$"
        with pytest.raises(NotBlockDiagonal, match=message):
            block_decompose(op, 59990)
        budget.check()
        assert "_orders" not in vars(space)

    @given(operators(), st.integers(min_value=0, max_value=3))
    def test_roundtrip(self, op, n):
        n = min(n, op.space.depth)
        if propagation(op) > n:
            with pytest.raises(NotBlockDiagonal):
                block_decompose(op, n)
            return
        assert recompose(block_decompose(op, n)) == op


class TestConnectingMap:
    def test_pairwise_grouping(self):
        s = BlockSpace(Tower((), (2,)), 3)
        blocks = tuple({(0, 0): Fraction(i + 1)} for i in range(4))
        bt = BlockTuple(s, 1, blocks)
        out = connecting_map(bt)
        assert out.level == 2
        assert out.blocks == (
            {(0, 0): Fraction(1), (2, 2): Fraction(2)},
            {(0, 0): Fraction(3), (2, 2): Fraction(4)},
        )

    def test_preserves_operator(self):
        s = BlockSpace(Tower((), (2,)), 3)
        op = PropagationOperator.matrix_unit(s, 2, 3, Fraction(5, 2))
        bt = block_decompose(op, 1)
        assert recompose(connecting_map(bt)) == op

    def test_depth_limit(self):
        s = BlockSpace(Tower((), (2,)), 2)
        bt = block_decompose(PropagationOperator.identity(s), 2)
        with pytest.raises(PreconditionViolation):
            connecting_map(bt)

    @given(operators(), st.integers(min_value=0, max_value=2))
    def test_recompose_commutes(self, op, n):
        n = min(n, op.space.depth)
        if propagation(op) > n or n + 1 > op.space.depth:
            return
        bt = block_decompose(op, n)
        assert recompose(connecting_map(bt)) == recompose(bt)


class TestTraceVector:
    def test_identity_ranks(self):
        s = BlockSpace(Tower((), (2,)), 3)
        bt = block_decompose(PropagationOperator.identity(s), 1)
        assert trace_vector(bt, require_projection=True) == (2, 2, 2, 2)

    def test_zero(self):
        s = BlockSpace(Tower((), (2,)), 2)
        bt = block_decompose(PropagationOperator.zero(s), 1)
        assert trace_vector(bt) == (0, 0)

    def test_diagonal_projection(self):
        s = BlockSpace(Tower((), (2,)), 2)
        entries = {(0, 0): Fraction(1), (2, 2): Fraction(1)}
        bt = block_decompose(PropagationOperator(s, entries), 1)
        assert trace_vector(bt, require_projection=True) == (1, 1)

    def test_non_projection_flagged(self):
        s = BlockSpace(Tower((), (2,)), 1)
        bt = block_decompose(PropagationOperator(s, {(0, 0): Fraction(1, 2)}), 1)
        assert trace_vector(bt) == (Fraction(1, 2),)
        with pytest.raises(NotProjection):
            trace_vector(bt, require_projection=True)

    @pytest.mark.parametrize("value", [2, -1, Fraction(1, 2), 0])
    def test_diagonal_non_projection_rejected(self, value):
        # the all-diagonal shortcut of the projection check must refuse
        # every entry but 1; an explicit 0 in a hand-built tuple is dropped
        # as an operator drops it, which leaves diag(1, 0), of trace (1,)
        s = BlockSpace(Tower((), (2,)), 1)
        blk = {(0, 0): Fraction(1), (1, 1): Fraction(value)}
        bt = BlockTuple(s, 1, (blk,))
        good = block_decompose(PropagationOperator.identity(s), 1)
        if value == 0:
            assert trace_vector(bt, require_projection=True) == (1,)
            assert mvn_partial_isometry(bt, good) is None
            assert k0_equal(k0_class_of_projection(bt), k0_class_of_projection(
                block_decompose(PropagationOperator(s, {(0, 0): 1}), 1)))
            return
        with pytest.raises(NotProjection):
            trace_vector(bt, require_projection=True)
        with pytest.raises(NotProjection):
            mvn_partial_isometry(bt, good)
        with pytest.raises(NotProjection):
            k0_class_of_projection(bt)

    def test_non_diagonal_projection_accepted(self):
        s = BlockSpace(Tower((), (2,)), 1)
        half = Fraction(1, 2)
        blk = {(0, 0): half, (0, 1): half, (1, 0): half, (1, 1): half}
        bt = BlockTuple(s, 1, (blk,))
        ranks = trace_vector(bt, require_projection=True)
        assert ranks == (1,) and type(ranks[0]) is int

    def test_trace_types(self):
        s = BlockSpace(Tower((), (2,)), 1)
        ints = BlockTuple(s, 1, ({(0, 0): Fraction(2), (1, 1): Fraction(-1)},))
        halves = BlockTuple(s, 1, ({(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)},))
        thirds = BlockTuple(s, 1, ({(0, 0): Fraction(1, 3)},))
        assert trace_vector(ints) == (1,) and type(trace_vector(ints)[0]) is int
        assert trace_vector(halves) == (1,) and type(trace_vector(halves)[0]) is int
        assert trace_vector(thirds) == (Fraction(1, 3),)
        assert type(trace_vector(thirds)[0]) is Fraction

    @given(st.data())
    def test_functoriality_with_alpha(self, data):
        # block traces of the grouped projection are the alpha image of the
        # block traces, level by level
        space = BlockSpace(Tower((), (2,)), data.draw(st.integers(2, 4)))
        n = data.draw(st.integers(min_value=0, max_value=space.depth - 1))
        p = data.draw(diagonal_projections(space, n))
        tr = trace_vector(p, require_projection=True)
        grouped_tr = trace_vector(connecting_map(p), require_projection=True)
        r_n = space.order(n + 1) // space.order(n)
        assert grouped_tr == tuple(
            sum(tr[i * r_n + j] for j in range(r_n)) for i in range(len(grouped_tr))
        )


@functools.cache
def rank_18_projection():
    """A dense rank-18 projection on the 36 points of tower 6 at depth 2."""
    rng = random.Random(36)
    vectors = [[rng.randint(-3, 3) for _ in range(36)] for _ in range(18)]
    blk, rank = orthogonal_projection(vectors, 36)
    assert rank == 18 and len(blk) == 36 * 36
    return PropagationOperator(BlockSpace(Tower((), (6,)), 2), blk)


class TestProjectionCheck:
    @settings(max_examples=500)
    @given(projection_candidates())
    def test_matches_squaring_rule(self, case):
        # None exactly when the squaring rule fails, else the rank of an
        # independent exact elimination
        # the block as BlockTuple stores it: an explicit 0 is dropped, an
        # int made a Fraction, as an operator's entries are
        k, blk = case
        blk = one_block(blk, k).blocks[0]
        rank = _projection_rank(blk)
        if not is_projection_oracle(blk):
            assert rank is None
            with pytest.raises(NotProjection):
                trace_vector(one_block(blk, k), require_projection=True)
        else:
            assert type(rank) is int and rank == Matrix(dense_matrix(blk, k)).rank()
            assert trace_vector(one_block(blk, k), require_projection=True) == (rank,)

    def test_projections_of_every_rank_accepted(self):
        rng = random.Random(8)
        for rank in range(9):
            vectors = [[rng.randint(-2, 2) for _ in range(8)] for _ in range(rank)]
            blk, got = orthogonal_projection(vectors, 8)
            assert _projection_rank(blk) == got and is_projection_oracle(blk)
            assert trace_vector(one_block(blk, 8), require_projection=True) == (got,)

    def test_non_symmetric_idempotent_refused(self):
        blk = {(0, 0): Fraction(1), (0, 1): Fraction(1)}
        assert pruned_mul(blk, blk) == blk
        assert not is_projection_oracle(blk) and _projection_rank(blk) is None

    def test_216_point_rank_one_block(self):
        # a dense 216-point block took 35 s through the squared block
        rng = random.Random(216)
        v = [rng.randint(-3, 3) for _ in range(216)]
        v[0] = 1
        norm = sum(x * x for x in v)
        entries = {(i, j): Fraction(v[i] * v[j], norm)
                   for i in range(216) for j in range(216) if v[i] * v[j]}
        bt = block_decompose(PropagationOperator(BlockSpace(Tower((), (6,)), 3), entries), 3)
        budget = Budget(2.0)
        assert trace_vector(bt, require_projection=True) == (1,)
        budget.check()

    def test_36_point_rank_18_block(self):
        # half the columns independent: guards coefficient growth in the elimination
        bt = block_decompose(rank_18_projection(), 2)
        budget = Budget(1.0)
        assert trace_vector(bt, require_projection=True) == (18,)
        budget.check()

    def test_36_point_rank_18_block_one_entry_changed(self):
        op = rank_18_projection()
        entries = dict(op.entries)
        entries[(5, 5)] = entries.get((5, 5), 0) + Fraction(1, 7)
        bt = block_decompose(PropagationOperator(op.space, entries), 2)
        budget = Budget(1.0)
        with pytest.raises(NotProjection):
            trace_vector(bt, require_projection=True)
        budget.check()


class TestMvn:
    def test_projection_to_itself(self):
        s = BlockSpace(Tower((), (2,)), 1)
        p = block_decompose(PropagationOperator(s, {(0, 0): Fraction(1)}), 1)
        v = mvn_partial_isometry(p, p)
        assert v.blocks == p.blocks

    def test_rank_one_shift(self):
        s = BlockSpace(Tower((), (2,)), 2)
        p = block_decompose(
            PropagationOperator(s, {(0, 0): Fraction(1), (2, 2): Fraction(1)}), 1)
        q = block_decompose(
            PropagationOperator(s, {(1, 1): Fraction(1), (3, 3): Fraction(1)}), 1)
        v = mvn_partial_isometry(p, q)
        assert v.blocks == ({(1, 0): Fraction(1)}, {(1, 0): Fraction(1)})

    def test_trace_mismatch(self):
        s = BlockSpace(Tower((), (2,)), 1)
        p = block_decompose(PropagationOperator(s, {(0, 0): Fraction(1)}), 1)
        q = block_decompose(PropagationOperator.identity(s), 1)
        assert mvn_partial_isometry(p, q) is None

    def test_non_projection_rejected(self):
        s = BlockSpace(Tower((), (2,)), 1)
        bad = block_decompose(PropagationOperator(s, {(0, 1): Fraction(1)}), 1)
        good = block_decompose(PropagationOperator.zero(s), 1)
        with pytest.raises(NotProjection):
            mvn_partial_isometry(bad, good)

    def test_off_diagonal_projection_refused(self):
        s = BlockSpace(Tower((), (2,)), 1)
        half = Fraction(1, 2)
        blk = {(0, 0): half, (0, 1): half, (1, 0): half, (1, 1): half}
        p = BlockTuple(s, 1, (blk,))
        q = block_decompose(PropagationOperator(s, {(0, 0): Fraction(1)}), 1)
        with pytest.raises(UnsupportedEntries):
            mvn_partial_isometry(p, q)

    @given(st.data())
    def test_isometry_identities_exact(self, data):
        space = BlockSpace(Tower((), (2,)), data.draw(st.integers(1, 3)))
        level = data.draw(st.integers(min_value=0, max_value=space.depth))
        p = data.draw(diagonal_projections(space, level))
        q = data.draw(diagonal_projections(space, level))
        v = mvn_partial_isometry(p, q)
        if v is None:
            assert trace_vector(p) != trace_vector(q)
            return
        vo, po, qo = recompose(v), recompose(p), recompose(q)
        assert compose(adjoint(vo), vo) == po
        assert compose(vo, adjoint(vo)) == qo


class TestConjugation:
    def test_identity_bijection(self):
        t = Tower((), (2,))
        b = build_back_and_forth(t, t, 2)
        s = BlockSpace(t, 2)
        op = PropagationOperator.matrix_unit(s, 1, 2, Fraction(3))
        out = conjugate_by_bijection(b, op)
        assert out.entries == op.entries

    def test_matrix_unit_relocation(self):
        t1, t2 = Tower((), (2,)), Tower((), (4,))
        b = build_back_and_forth(t1, t2, 1)
        s = BlockSpace(t1, 1)
        op = PropagationOperator.matrix_unit(s, 0, 1)
        out = conjugate_by_bijection(b, op)
        assert out.entries == {(b.mapping[0], b.mapping[1]): Fraction(1)}

    def test_support_escape(self):
        t = Tower((), (2,))
        b = build_back_and_forth(t, t, 1)
        op = PropagationOperator.matrix_unit(BlockSpace(t, 2), 0, 3)
        with pytest.raises(DepthExhausted):
            conjugate_by_bijection(b, op)

    def test_tower_mismatch(self):
        b = build_back_and_forth(Tower((), (2,)), Tower((), (4,)), 1)
        op = PropagationOperator.identity(BlockSpace(Tower((), (3,)), 1))
        with pytest.raises(PreconditionViolation):
            conjugate_by_bijection(b, op)

    @given(st.data())
    def test_star_homomorphism(self, data):
        t = Tower((), (2,))
        b = build_back_and_forth(t, t, 3)
        s = BlockSpace(t, 3)
        a = data.draw(operators(space=s))
        c = data.draw(operators(space=s))
        phi = lambda op: conjugate_by_bijection(b, op)
        assert phi(add(a, c)) == add(phi(a), phi(c))
        assert phi(compose(a, c)) == compose(phi(a), phi(c))
        assert phi(adjoint(a)) == adjoint(phi(a))

    @given(st.data())
    def test_propagation_bounded_by_modulus(self, data):
        t1, t2 = Tower((), (2,)), Tower((), (4,))
        b = build_back_and_forth(t1, t2, 2)
        s = BlockSpace(t1, b.final_levels[0])
        op = data.draw(operators(space=s))
        out = conjugate_by_bijection(b, op)
        assert propagation(out) <= b.modulus[propagation(op)]


class TestK0ClassOfProjection:
    def test_rank_expansion(self):
        s = BlockSpace(Tower((), (2,)), 2)
        entries = {(0, 0): Fraction(1), (1, 1): Fraction(1), (2, 2): Fraction(1)}
        bt = block_decompose(PropagationOperator(s, entries), 1)
        cls = k0_class_of_projection(bt)
        assert cls.prefix == (2, 0, 1) and cls.period == (0,)

    def test_layout_over_limit_refused(self):
        # one level-40 block of 2^40 points and rank 0 is the zero class,
        # which takes no layout; rank 1 in the second of two level-39 blocks
        # lays out both, 2^40 entries, and is refused before it is allocated
        space = BlockSpace(Tower((), (2,)), 40)
        bt = block_decompose(PropagationOperator.zero(space), 40)
        assert k0_class_of_projection(bt) == k0_zero(space.tower)
        far = PropagationOperator(space, {(2**39, 2**39): Fraction(1)})
        refused = re.escape(f"a K0 layout of {2**40} entries is over the 2^20 limit")
        with pytest.raises(PreconditionViolation, match=refused):
            k0_class_of_projection(block_decompose(far, 39))

    def test_layout_judged_up_to_last_nonzero_rank(self):
        # two level-39 blocks of rank 0 are the zero class too; with rank 1
        # in the first block alone, the layout is judged on that block,
        # 2^39 entries, and not on both
        space = BlockSpace(Tower((), (2,)), 40)
        bt = block_decompose(PropagationOperator.zero(space), 39)
        assert k0_class_of_projection(bt) == k0_zero(space.tower)
        near = PropagationOperator(space, {(0, 0): Fraction(1)})
        refused = re.escape(f"a K0 layout of {2**39} entries is over the 2^20 limit")
        with pytest.raises(PreconditionViolation, match=refused):
            k0_class_of_projection(block_decompose(near, 39))

    @given(st.data())
    def test_invariant_under_connecting_map(self, data):
        space = BlockSpace(Tower((), (2,)), data.draw(st.integers(1, 3)))
        n = data.draw(st.integers(min_value=0, max_value=space.depth - 1))
        p = data.draw(diagonal_projections(space, n))
        before = k0_class_of_projection(p)
        after = k0_class_of_projection(connecting_map(p))
        assert k0_equal(before, after)


# The loops that connecting_map, recompose and k0_class_of_projection ran
# before they shared one regroup and one K0 layout, kept as oracles.
def connecting_map_reference(bt):
    n, k = bt.level, bt.block_size
    r_n = bt.space.order(n + 1) // k
    grouped = []
    for i in range(len(bt.blocks) // r_n):
        blk = {}
        for j in range(r_n):
            off = j * k
            for (r, c), v in bt.blocks[i * r_n + j].items():
                blk[(off + r, off + c)] = v
        grouped.append(blk)
    return BlockTuple(bt.space, n + 1, tuple(grouped))


def recompose_reference(bt):
    k = bt.block_size
    entries = {}
    for i, blk in enumerate(bt.blocks):
        for (r, c), v in blk.items():
            entries[(i * k + r, i * k + c)] = v
    return PropagationOperator(bt.space, entries)


def k0_class_reference(bt):
    ranks = trace_vector(bt, require_projection=True)
    k = bt.block_size
    prefix = []
    for rank in ranks:
        prefix += [int(rank)] + [0] * (k - 1)
    return K0Class(bt.space.tower, tuple(prefix), (0,))


def outcome(f, *args):
    """f(*args), or the type and message of what it raised."""
    try:
        return f(*args)
    except RoeclassError as e:
        return type(e), str(e)


# finite towers cut past saturation repeat their last order, so a regroup
# there has ratio 1; the others are infinite
regroup_spaces = st.builds(
    BlockSpace,
    st.sampled_from([Tower((), (2,)), Tower((), (3,)), Tower((2,), (3,)), Tower((), (2, 3)),
                     Tower((2, 3), ()), Tower((4,), ()), Tower((), ())]),
    st.integers(min_value=0, max_value=4),
).filter(lambda s: s.size <= 48)


@st.composite
def block_tuples(draw, space, level, projections=False):
    """Level-``level`` blocks of random rational entries, or (``projections``)
    each block a diagonal 0/1 projection or a dense rank-1 projection."""
    k = space.order(level)
    pts = st.integers(min_value=0, max_value=k - 1)
    blocks = []
    for _ in range(space.size // k):
        if not projections:
            blocks.append(draw(st.dictionaries(st.tuples(pts, pts), scalars, max_size=3)))
        elif k > 1 and draw(st.booleans()):
            v = draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k))
            blocks.append(orthogonal_projection([v], k)[0])
        else:
            blocks.append({(x, x): Fraction(1) for x in draw(st.sets(pts, max_size=k))})
    return BlockTuple(space, level, tuple(blocks))


class TestRegroupOracle:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_reference_loops(self, data):
        space = data.draw(regroup_spaces)
        n = data.draw(st.integers(min_value=0, max_value=space.depth))
        bt = data.draw(block_tuples(space, n))
        assert recompose(bt) == recompose_reference(bt)
        if n < space.depth:
            assert connecting_map(bt) == connecting_map_reference(bt)
        p = data.draw(block_tuples(space, n, projections=True))
        assert outcome(k0_class_of_projection, p) == outcome(k0_class_reference, p)


@st.composite
def verified_witnesses(draw):
    """A witness between two towers of one supernatural number, at the
    deepest of depths 1-3 with at most 64 source points (depth 1 has at
    most 25) and at most 2^20 target points: as bce build makes it, or with
    its images' aligned k2_s-point pieces permuted inside their level-(s + 1)
    target blocks.  Either way the verifier passes it.  The target bound is
    the "blocks of a split" limit: at modulus 0 the conjugate splits into
    one block per target point, and a larger target is refused there
    (``test_large_target_refused_at_modulus_0``), so a pair whose depth 1
    already passes it is not drawn."""
    t1, t2 = random_equivalent_pair(draw(st.randoms(use_true_random=False)))
    levels = interleave_towers(t1, t2, draw(st.integers(1, 3)))
    most = 1 << LIMITS["blocks of a split"][0]
    fits = [j for j, (n, m) in enumerate(levels, 1) if t1.order(n) <= 64 and t2.order(m) <= most]
    assume(fits)
    b = build_back_and_forth(t1, t2, fits[-1])
    if draw(st.booleans()):
        s = draw(st.integers(0, b.final_levels[1] - 1))
        w, r = t2.order(s), t2.ratio(s)
        perm = draw(st.permutations(range(r)))
        images = [y + (perm[y // w % r] - y // w % r) * w for y in b.mapping]
        b = TowerBijection(t1, t2, b.depth, b.levels, images)
    assert verify_bijective_coarse_equivalence(b).passed
    return b


class TestCommutingSquare:
    """Conjugation by a witness induces transport on K0: the class of the
    conjugated projection, split at the measured modulus of the level, is
    the transported class of the projection.  The square holds for dense
    rank-1 blocks as for diagonal ones, the identity goes to the projection
    onto the image, and the induced map keeps the positive cone and sums."""

    @settings(max_examples=300, deadline=None)
    @given(verified_witnesses(), st.data())
    def test_conjugation_induces_transport(self, b, data):
        space = BlockSpace(b.source, b.final_levels[0])
        level = data.draw(st.integers(0, space.depth))
        rho = b.modulus[level]

        def both_ways(p):
            """(class of the conjugate at rho, transported class) of a projection tuple."""
            conjugate = conjugate_by_bijection(b, recompose(p))
            return (k0_class_of_projection(block_decompose(conjugate, rho)),
                    transport_class(b, k0_class_of_projection(p)))

        p, q = (data.draw(block_tuples(space, level, projections=True)) for _ in range(2))
        (conjugated, transported), (conjugated_q, transported_q) = both_ways(p), both_ways(q)
        assert k0_equal(conjugated, transported)
        # each source level block lies in one target rho-block, so the
        # rho-block sums agree exactly, and not only in K0
        assert alpha_iterate(b.target, rho, conjugated) == alpha_iterate(b.target, rho, transported)
        # positivity: both are in the positive cone, and zero exactly for p = 0
        assert k0_positive(conjugated)[0] and k0_positive(transported)[0]
        assert transported.is_zero() == (sum(trace_vector(p, require_projection=True)) == 0)
        # additivity: the sum of two classes goes to the sum of their images
        summed = k0_add(k0_class_of_projection(p), k0_class_of_projection(q))
        assert transport_class(b, summed) == k0_add(transported, transported_q)
        assert k0_equal(k0_add(conjugated, conjugated_q), k0_add(transported, transported_q))
        # the unit: the identity of the source truncation goes to the
        # projection onto the image, and its class to that projection's
        unit = PropagationOperator.identity(space)
        onto_image = PropagationOperator(BlockSpace(b.target, b.final_levels[1]),
                                         {(y, y): 1 for y in b.mapping})
        assert conjugate_by_bijection(b, unit) == onto_image
        assert k0_equal(*both_ways(block_decompose(unit, level)))

    def test_large_target_refused_at_modulus_0(self):
        # depth 1 of this pair already reaches target level 8, of
        # 25^2 * 5^4 * 2^2 = 1,562,500 points: the level-0 split of a
        # conjugate there is refused by the limit, not miscomputed
        b = build_back_and_forth(Tower((4,), (2, 5)), Tower((25, 25), (5, 5, 2)), 1)
        assert b.target.order(b.final_levels[1]) == 1_562_500 and b.modulus == (0, 1)
        conjugate = conjugate_by_bijection(b, PropagationOperator.identity(
            BlockSpace(b.source, b.final_levels[0])))
        with pytest.raises(PreconditionViolation,
                           match=r"^level 0 would split the space into over 2\^20 blocks$"):
            block_decompose(conjugate, 0)
        assert len(block_decompose(conjugate, 1).blocks) == 62_500


def diagonal_support_reference(blk):
    """The support helper mvn_partial_isometry used before it read the keys
    of a checked block: UnsupportedEntries off the diagonal or off 1."""
    for (r, c), v in blk.items():
        if r != c or v != 1:
            raise UnsupportedEntries("only projections diagonal in the standard basis are supported")
    return sorted(r for (r, c) in blk)


def mvn_reference(p, q):
    if p.space != q.space or p.level != q.level:
        raise PreconditionViolation("projections must share a space and level")
    for blk in tuple(p.blocks) + tuple(q.blocks):
        if _projection_rank(blk) is None:
            raise NotProjection("block fails p*p = p = p*")
    supports = []
    for pb, qb in zip(p.blocks, q.blocks):
        sp, sq = diagonal_support_reference(pb), diagonal_support_reference(qb)
        if len(sp) != len(sq):
            return None
        supports.append((sp, sq))
    blocks = tuple({(y, x): Fraction(1) for x, y in zip(sp, sq)} for sp, sq in supports)
    return BlockTuple(p.space, p.level, blocks)


@st.composite
def mvn_blocks(draw, space, level, like=None):
    """Level-``level`` blocks, each most often a diagonal 0/1 projection (of
    the rank of the same block of ``like``, half the time), else a dense
    rank-1 projection or random entries."""
    k = space.order(level)
    pts = st.integers(min_value=0, max_value=k - 1)
    blocks = []
    for i in range(space.size // k):
        kind = draw(st.sampled_from(["diagonal"] * 4 + ["dense", "random"]))
        if kind == "dense" and k > 1:
            v = draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k))
            blocks.append(orthogonal_projection([v], k)[0])
        elif kind == "random":
            blocks.append(draw(st.dictionaries(st.tuples(pts, pts), scalars, max_size=3)))
        else:
            rank = min(len(like.blocks[i]), k) if like and draw(st.booleans()) else None
            support = draw(st.sets(pts, min_size=rank or 0, max_size=k if rank is None else rank))
            blocks.append({(x, x): Fraction(1) for x in support})
    return BlockTuple(space, level, tuple(blocks))


class TestMvnOracle:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_support_helper(self, data):
        space = data.draw(regroup_spaces)
        n = data.draw(st.integers(min_value=0, max_value=space.depth))
        p = data.draw(mvn_blocks(space, n))
        q = data.draw(mvn_blocks(space, n, like=p))
        assert outcome(mvn_partial_isometry, p, q) == outcome(mvn_reference, p, q)

    def test_first_rank_mismatch_before_an_off_diagonal_block(self):
        s = BlockSpace(Tower((), (2,)), 2)
        half = Fraction(1, 2)
        dense = {(0, 0): half, (0, 1): half, (1, 0): half, (1, 1): half}
        one, two = {(0, 0): Fraction(1)}, {(0, 0): Fraction(1), (1, 1): Fraction(1)}
        p, q = BlockTuple(s, 1, (one, dense)), BlockTuple(s, 1, (two, one))
        assert mvn_partial_isometry(p, q) is None is mvn_reference(p, q)
        p, q = BlockTuple(s, 1, (dense, one)), BlockTuple(s, 1, (one, two))
        for f in (mvn_partial_isometry, mvn_reference):
            with pytest.raises(UnsupportedEntries):
                f(p, q)


class TestTraceOracle:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_ranks_of_projections_are_their_traces(self, data):
        space = data.draw(regroup_spaces)
        n = data.draw(st.integers(min_value=0, max_value=space.depth))
        p = data.draw(block_tuples(space, n, projections=True))
        ranks = trace_vector(p, require_projection=True)
        assert ranks == trace_vector(p) == trace_vector_reference(p, require_projection=True)
        assert all(type(r) is int for r in ranks)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_two_pass_reference(self, data):
        # diagonal, dense rank-1 and random blocks: the same traces, or the
        # same refusal
        space = data.draw(regroup_spaces)
        n = data.draw(st.integers(min_value=0, max_value=space.depth))
        bt = data.draw(mvn_blocks(space, n))
        for require in (False, True):
            assert (outcome(trace_vector, bt, require)
                    == outcome(trace_vector_reference, bt, require))


class TestEntryBounds:
    """An entry check that reads the space's size only for an index that
    reaches 2^n, n the number of ratios the space multiplies."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_size_check(self, data):
        t = data.draw(towers(max_prefix=3, max_tail=2, max_ratio=5))
        depth = data.draw(st.integers(min_value=0, max_value=8))
        size = t.order(depth)
        # indices around the size and around the powers of two below it
        idx = st.one_of(st.integers(-2, 2 * size + 2),
                        st.integers(0, depth + 2).map(lambda b: 2**b - 1),
                        st.integers(0, depth + 2).map(lambda b: 2**b))
        entries = {key: Fraction(1) for key in data.draw(st.lists(st.tuples(idx, idx), max_size=4))}
        bad = [key for key in entries if not (0 <= key[0] < size and 0 <= key[1] < size)]
        if bad:
            with pytest.raises(MalformedInput, match=re.escape(f"entry {bad[0]} outside")):
                PropagationOperator(BlockSpace(t, depth), entries)
        else:
            assert PropagationOperator(BlockSpace(t, depth), entries).entries == entries

    def test_deep_space_never_computes_its_size(self):
        # 6^(10^7) has 2.6 * 10^7 bits, several seconds of multiplying; a
        # finite tower saturates at 6
        budget = Budget(1.0)
        deep = BlockSpace(Tower((), (6,)), 10**7)
        op = PropagationOperator(deep, {(0, 0): 1, (6**40, 5): Fraction(1, 2)})
        assert op.entries == {(0, 0): 1, (6**40, 5): Fraction(1, 2)}
        assert "size" not in vars(deep)
        with pytest.raises(MalformedInput, match=r"entry \(-1, 0\) outside"):
            PropagationOperator(deep, {(-1, 0): 1})
        finite = BlockSpace(Tower((2, 3), ()), 10**9)
        assert PropagationOperator(finite, {(5, 5): 1}).entries == {(5, 5): 1}
        with pytest.raises(MalformedInput, match=r"entry \(6, 0\) outside"):
            PropagationOperator(finite, {(6, 0): 1})
        budget.check()


# the spaces of the geometry benchmark's sparse compose and of its diagonal
# and mvn projections
SPARSE_SPACES = [BlockSpace(Tower(p, t), d) for p, t, d in [
    ((), (2,), 9), ((), (3,), 5), ((), (2, 3), 5), ((), (5,), 3), ((4,), (6,), 3), ((7, 3), (), 2)]]
PROJECTION_SPACES = [BlockSpace(Tower(p, t), d) for p, t, d in [
    ((), (2,), 4), ((), (3, 2), 3), ((4,), (2,), 3), ((), (6,), 3), ((), (2, 3), 6)]]


@st.composite
def sparse_operators(draw, space, like=None):
    """1-6 entries of rational scalars, or (half the time, given ``like``)
    the negation of some of like's entries next to a few of their own, so
    that sums and products cancel."""
    pts = st.integers(min_value=0, max_value=space.size - 1)
    entries = draw(st.dictionaries(st.tuples(pts, pts), scalars, min_size=1, max_size=6))
    if like is not None and like.entries and draw(st.booleans()):
        keys = draw(st.lists(st.sampled_from(sorted(like.entries)), max_size=6))
        entries.update({key: -like.entries[key] for key in keys})
    return PropagationOperator(space, entries)


@st.composite
def block_diagonal(draw, space, level):
    """An operator of propagation at most level: each entry inside its
    row's level block."""
    k = space.order(level)
    entries = {}
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        r = draw(st.integers(min_value=0, max_value=space.size - 1))
        entries[r, r - r % k + draw(st.integers(min_value=0, max_value=k - 1))] = draw(scalars)
    return PropagationOperator(space, entries)


class TestUncheckedConstructors:
    """Results the library builds from checked values skip the checks; each
    equals what the checking constructor makes of the same fields."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(SPARSE_SPACES), st.data())
    def test_operations_equal_checked_operators(self, s, data):
        a = data.draw(sparse_operators(s))
        b = data.draw(sparse_operators(s, like=a))
        for got, entries in [(compose(a, b), _mat_mul(a.entries, b.entries)),
                             (compose(b, a), _mat_mul(b.entries, a.entries)),
                             (add(a, b), _mat_add(a.entries, b.entries)),
                             (adjoint(a), _mat_adjoint(a.entries))]:
            assert same_value(got, PropagationOperator(s, entries))
            assert all(type(v) is Fraction and v for v in got.entries.values())

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(PROJECTION_SPACES), st.data())
    def test_block_tuples_equal_checked_tuples(self, s, data):
        n = data.draw(st.integers(min_value=0, max_value=s.depth))
        bt = block_decompose(data.draw(block_diagonal(s, n)), n)
        assert same_value(bt, BlockTuple(s, n, bt.blocks))
        if n < s.depth:
            up = connecting_map(bt)
            assert same_value(up, BlockTuple(s, n + 1, up.blocks))
        p = data.draw(diagonal_projections(s, n))
        q = BlockTuple(s, n, tuple({(x, x): Fraction(1) for x in data.draw(
            st.permutations(range(p.block_size)))[:len(blk)]} for blk in p.blocks))
        v = mvn_partial_isometry(p, q)
        assert same_value(v, BlockTuple(s, n, v.blocks))

    @pytest.mark.parametrize("entries, message", [
        ({(True, 0): 1}, "entry row must be an integer, got bool True"),
        ({(0, False): 1}, "entry column must be an integer, got bool False"),
        ({(0.0, 0): 1}, "entry row must be an integer, got float 0.0"),
        ({(0, 1.5): 1}, "entry column must be an integer, got float 1.5"),
        ({(-1, 0): 1}, "entry (-1, 0) outside the truncation"),
        ({(0, -3): 1}, "entry (0, -3) outside the truncation"),
        ({(8, 0): 1}, "entry (8, 0) outside the truncation"),
        ({(0, 2**70): 1}, f"entry (0, {2**70}) outside the truncation"),
        ({(0, 0): True}, "an entry that is not a Fraction must be an integer, got bool True"),
        ({(0, 0): 0.5}, "an entry that is not a Fraction must be an integer, got float 0.5"),
        ({(0, 0): "1"}, "an entry that is not a Fraction must be an integer, got str '1'"),
        # the first bad entry in order decides
        ({(0, 0): 1, (1, 9): 0.5, (2, 2.0): 1}, "entry (1, 9) outside the truncation"),
        ({(1, 2, 3): 1}, "key (1, 2, 3) is not a (row, column) pair"),
        ({5: 1}, "key 5 is not a (row, column) pair"),
        # a key that unpacks into two integers is still no pair unless a tuple
        ({frozenset({3, 0}): 1}, "key frozenset({0, 3}) is not a (row, column) pair"),
        ({range(1, 3): 1}, "key range(1, 3) is not a (row, column) pair"),
        ({(0, 0): 1, "ab": 1}, "key 'ab' is not a (row, column) pair"),
    ])
    def test_constructor_messages_pinned(self, entries, message):
        with pytest.raises(MalformedInput, match=f"^{re.escape(message)}$"):
            PropagationOperator(BlockSpace(Tower((), (2,)), 3), entries)

    @pytest.mark.parametrize("block, message", [
        ({(1, 2, 3): 1}, "key (1, 2, 3) is not a (row, column) pair"),
        ({5: 1}, "key 5 is not a (row, column) pair"),
        ({(0.5, 0): 1}, "entry row must be an integer, got float 0.5"),
        ({(0, True): 1}, "entry column must be an integer, got bool True"),
        ({(0, 2): 1}, "entry (0, 2) outside the block"),
        ({(0, 0): "x"}, "an entry that is not a Fraction must be an integer, got str 'x'"),
        ({(0, 0): 0.5}, "an entry that is not a Fraction must be an integer, got float 0.5"),
        ([((0, 0), 1)], "block must be a dict, got list [((0, 0), 1)]"),
        # a key that unpacks into two integers is still no pair unless a tuple
        ({frozenset({1, 0}): 1}, "key frozenset({0, 1}) is not a (row, column) pair"),
        ({range(0, 2): 1}, "key range(0, 2) is not a (row, column) pair"),
        ({"ab": 1}, "key 'ab' is not a (row, column) pair"),
    ])
    def test_block_tuple_messages_pinned(self, block, message):
        with pytest.raises(MalformedInput, match=f"^{re.escape(message)}$"):
            BlockTuple(BlockSpace(Tower((), (2,)), 2), 1, ({}, block))

    @pytest.mark.parametrize("blocks, shown", [
        ((b for b in ({}, {})), "generator <generator object"),
        (iter(({}, {})), "tuple_iterator <tuple_iterator object"),
        ({0: {}, 1: {}}, "dict {0: {}, 1: {}}"),
        (None, "NoneType None"),
    ])
    def test_blocks_not_a_sequence_refused(self, blocks, shown):
        with pytest.raises(MalformedInput,
                           match=f"^blocks must be a tuple or list, got {re.escape(shown)}"):
            BlockTuple(BlockSpace(Tower((), (2,)), 2), 1, blocks)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(PROJECTION_SPACES), st.data())
    def test_block_tuple_equals_decomposed_operator(self, s, data):
        # hand-built blocks of ints, Fractions and explicit zeros, in a list
        # or a tuple, are the blocks of the operator that holds them in place
        n = data.draw(st.integers(min_value=0, max_value=s.depth))
        k = s.order(n)
        pts = st.integers(min_value=0, max_value=k - 1)
        values = st.integers(-2, 2) | scalars | st.sampled_from([0, Fraction(0)])
        blocks = [data.draw(st.dictionaries(st.tuples(pts, pts), values, max_size=4))
                  for _ in range(s.size // k)]
        bt = BlockTuple(s, n, data.draw(st.sampled_from([list, tuple]))(blocks))
        shifted = {(i * k + r, i * k + c): v
                   for i, blk in enumerate(blocks) for (r, c), v in blk.items()}
        assert bt == block_decompose(PropagationOperator(s, shifted), n)
        assert type(bt.blocks) is tuple
        assert all(got is not blk for got, blk in zip(bt.blocks, blocks))
        assert all(type(v) is Fraction and v for blk in bt.blocks for v in blk.values())

    def test_block_tuple_stores_its_blocks_as_entries(self):
        # zeros are dropped and ints made Fractions, into new dicts, so a
        # later write into the caller's dict leaves the value as it was
        blocks = [{(0, 0): 0, (1, 1): 2}, {(0, 1): Fraction(1, 2)}]
        bt = BlockTuple(BlockSpace(Tower((), (2,)), 2), 1, blocks)
        assert bt.blocks == ({(1, 1): Fraction(2)}, {(0, 1): Fraction(1, 2)})
        assert type(bt.blocks) is tuple and type(bt.blocks[0][1, 1]) is Fraction
        assert all(got is not given for got, given in zip(bt.blocks, blocks))
        blocks[1][(1, 0)] = 7
        assert bt.blocks[1] == {(0, 1): Fraction(1, 2)}

    def test_accepted_entries_stored_as_plain_fractions_under_tuple_keys(self):
        class Index(int):
            pass

        class Half(Fraction):
            pass

        Key = namedtuple("Key", "row column")
        s = BlockSpace(Tower((), (2,)), 3)
        op = PropagationOperator(s, {(0, 0): -1, (Index(1), 2): Half(1, 2), Key(3, 4): 2,
                                     (5, 5): 0, (6, 6): Fraction(0)})
        assert op.entries == {(0, 0): -1, (1, 2): Fraction(1, 2), (3, 4): 2}
        assert all(type(v) is Fraction for v in op.entries.values())
        assert all(type(key) is tuple for key in op.entries)
