"""``geometry``: exact operators and finite metric spaces, called in process.

Work falls on ``roeops`` and ``blockspace``; this workload is the control for
changes to ``supernatural``, ``ktheory``, ``serialize`` and the command line.
Each group has the same composition:

- 6 diagonal 0/1 projections (density 1/2) on block spaces of towers 2, 6
  and (2, 3) with 216-1296 points, through ``block_decompose``,
  ``trace_vector(require_projection=True)``, ``connecting_map`` and the
  coarser trace (``test_c06`` made longer);
- 3 dense rational rank-1 projections, in blocks of 4, 6 and 36 points
  (36-point dense blocks are the cost driver of the general multiply);
- 2 ``mvn_partial_isometry`` witnesses between equal-trace projections;
- 200 ``compose`` + ``propagation`` of sparse operators with 1-6 entries,
  about 1% of the time.  So many make ``p50_ms`` about the median compose
  latency: with 40 it sat on the upper tail of their latencies, which
  spread 1.7 times as much from run to run;
- 8 metric spaces built through ``BlockSpace.distance`` from a permuted
  block space, then validated, embedded and profiled: 36, 64, 81 and 128
  points with block distances, and 36, 64, 64 and 81 points scaled x50.
  Scaling multiplies the per-R work and leaves the per-point work alone.  A
  128-point space x50 (0.85 s) is left out: alone it would set the tail.
"""

from __future__ import annotations

from fractions import Fraction

import oracle
from oracle import canonical, expect
from workload import InProcess, Op

DIAGONAL_SPACES = [((), (2,), 8), ((), (6,), 3), ((), (2, 3), 6),
                   ((), (2,), 10), ((), (6,), 4), ((), (2, 3), 8)]
DENSE_CASES = [((), (2,), 4, 2), ((), (6,), 2, 1), ((), (6,), 2, 2)]  # tower, depth, level
MVN_SPACES = [((), (2,), 4), ((), (3, 2), 3), ((4,), (2,), 3)]
SPARSE_SPACES = [((), (2,), 9), ((), (3,), 5), ((), (2, 3), 5), ((), (5,), 3),
                 ((4,), (6,), 3), ((7, 3), (), 2)]
METRIC_SPACES = [((), (6,), 2), ((), (2,), 6), ((), (3,), 4), ((), (2,), 7)]
SCALED_SPACES = [((), (6,), 2), ((), (2,), 6), ((), (2,), 6), ((), (3,), 4)]
SCALE = 50


def _size(prefix, tail, depth) -> int:
    return oracle.orders((prefix, tail), depth)[-1]


def _ranks(diag: set[int], k: int, size: int) -> list[int]:
    ranks = [0] * (size // k)
    for i in diag:
        ranks[i // k] += 1
    return ranks


class Workload(InProcess):
    def op_diagonal(self, rng, case) -> Op:
        prefix, tail, depth = case
        size = _size(prefix, tail, depth)
        level = rng.randrange(depth)
        diag = {i for i in range(size) if rng.random() < 0.5}
        orders = oracle.orders((prefix, tail), depth)
        fine = _ranks(diag, orders[level], size)
        coarse = _ranks(diag, orders[level + 1], size)
        rc = self.rc

        def run():
            space = rc.BlockSpace(rc.Tower(prefix, tail), depth)
            op = rc.PropagationOperator(space, {(i, i): Fraction(1) for i in diag})
            bt = rc.block_decompose(op, level)
            return (rc.trace_vector(bt, require_projection=True),
                    rc.trace_vector(rc.connecting_map(bt), require_projection=True))

        def check(out):
            expect(list(out[0]) == fine, "block traces are not the ranks")
            expect(list(out[1]) == coarse, "connecting map changed the ranks")
            return canonical([fine, coarse])

        return Op("diagonal_projection", run, check)

    def op_dense(self, rng, case) -> Op:
        prefix, tail, depth, level = case
        size = _size(prefix, tail, depth)
        k = oracle.orders((prefix, tail), depth)[level]
        entries = {}
        for b in range(size // k):
            v = [rng.randint(-3, 3) for _ in range(k)]
            v[rng.randrange(k)] = rng.randint(1, 3)
            norm = sum(x * x for x in v)
            for i in range(k):
                for j in range(k):
                    if v[i] * v[j]:
                        entries[(b * k + i, b * k + j)] = Fraction(v[i] * v[j], norm)
        rc = self.rc

        def run():
            space = rc.BlockSpace(rc.Tower(prefix, tail), depth)
            bt = rc.block_decompose(rc.PropagationOperator(space, entries), level)
            return rc.trace_vector(bt, require_projection=True)

        def check(out):
            expect(list(out) == [1] * (size // k), f"rank-1 blocks traced as {out}")
            return canonical(list(out))

        return Op(f"dense_projection_{k}", run, check)

    def op_mvn(self, rng) -> Op:
        prefix, tail, depth = rng.choice(MVN_SPACES)
        size = _size(prefix, tail, depth)
        level = rng.randint(0, depth)
        k = oracle.orders((prefix, tail), depth)[level]
        p, q = set(), set()
        for start in range(0, size, k):
            rank = rng.randint(0, k)
            p.update(start + i for i in rng.sample(range(k), rank))
            q.update(start + i for i in rng.sample(range(k), rank))
        rc = self.rc

        def run():
            space = rc.BlockSpace(rc.Tower(prefix, tail), depth)
            bp = rc.block_decompose(rc.PropagationOperator(space, {(i, i): 1 for i in p}), level)
            bq = rc.block_decompose(rc.PropagationOperator(space, {(i, i): 1 for i in q}), level)
            return rc.mvn_partial_isometry(bp, bq)

        def check(v):
            expect(v is not None, "equal-trace projections got no partial isometry")
            cols, rows = [], []
            for b, blk in enumerate(v.blocks):
                for (r, c), val in blk.items():
                    expect(val == 1, "partial isometry entry is not 1")
                    rows.append(b * k + r)
                    cols.append(b * k + c)
            # v*v = p and vv* = q: a partial permutation from p's range onto q's
            expect(sorted(cols) == sorted(p) and sorted(rows) == sorted(q)
                   and len(set(cols)) == len(cols) and len(set(rows)) == len(rows),
                   "v*v != p or vv* != q")
            return canonical([oracle.entries_text(blk) for blk in v.blocks])

        return Op("mvn_partial_isometry", run, check)

    def op_compose(self, rng) -> Op:
        prefix, tail, depth = rng.choice(SPARSE_SPACES)
        size = _size(prefix, tail, depth)
        orders = oracle.orders((prefix, tail), depth)

        def sparse():
            return {(rng.randrange(size), rng.randrange(size)):
                    Fraction(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(rng.randint(1, 6))}

        a, b = sparse(), sparse()
        want = oracle.mat_mul(a, b)
        prop = max((oracle.block_distance(orders, r, c) for r, c in want), default=0)
        rc = self.rc

        def run():
            space = rc.BlockSpace(rc.Tower(prefix, tail), depth)
            c = rc.roeops.compose(rc.PropagationOperator(space, a), rc.PropagationOperator(space, b))
            return c, rc.roeops.propagation(c)

        def check(out):
            c, p = out
            expect(c.entries == want, "product entries are wrong")
            expect(p == prop, f"propagation {p}, expected {prop}")
            return canonical([oracle.entries_text(want), p])

        return Op("compose_propagation", run, check)

    def op_metric(self, rng, case, scale: int) -> Op:
        prefix, tail, depth = case
        size = _size(prefix, tail, depth)
        perm = list(range(size))
        rng.shuffle(perm)
        orders = oracle.orders((prefix, tail), depth)
        dist = [[scale * oracle.block_distance(orders, perm[x], perm[y]) for y in range(size)]
                for x in range(size)]
        rc = self.rc

        def distances(space):
            return tuple(tuple(scale * space.distance(perm[x], perm[y]) for y in range(size))
                         for x in range(size))

        def run():
            space = rc.BlockSpace(rc.Tower(prefix, tail), depth)
            rows = self.span("blockspace.distance", distances, space)
            m = rc.FiniteMetricSpace(size, rows)
            return rows, rc.embed_into_nonneg_integers(m), rc.asdim_zero_profile(m)

        def check(out):
            rows, images, prof = out
            expect([list(r) for r in rows] == dist, "BlockSpace.distance disagrees")
            oracle.check_embedding(dist, images)
            expect(prof == oracle.profile(dist), "asdim profile is wrong")
            return canonical([images, sorted(prof.items())])

        return Op(f"metric_{size}_x{scale}", run, check)

    def group(self, index: int) -> list[Op]:
        rng = self.rng("group", index)
        ops = [self.op_diagonal(rng, case) for case in DIAGONAL_SPACES]
        ops += [self.op_dense(rng, case) for case in DENSE_CASES]
        ops += [self.op_mvn(rng) for _ in range(2)]
        ops += [self.op_compose(rng) for _ in range(200)]
        ops += [self.op_metric(rng, case, 1) for case in METRIC_SPACES]
        ops += [self.op_metric(rng, case, SCALE) for case in SCALED_SPACES]
        rng.shuffle(ops)
        return ops

    def warmup_ops(self) -> list[Op]:
        """One light operation of each kind: the dense 36-point block and the
        large scaled spaces would only repeat code already warmed."""
        rng = self.rng("warmup")
        return ([self.op_diagonal(rng, DIAGONAL_SPACES[1]), self.op_dense(rng, DENSE_CASES[0]),
                 self.op_mvn(rng), self.op_compose(rng)]
                + [self.op_metric(rng, METRIC_SPACES[0], s) for s in (1, SCALE)])
