"""``algebra``: invariants, witnesses and K0 decisions, called in process.

Work falls on ``supernatural``, ``equivalence`` and ``ktheory``; nothing here
touches ``roeops``, ``blockspace``, ``serialize`` or the command line, so
this workload is the control for changes to those.  Each group has the same
composition, so any run of whole groups measures the same mix:

- 200 ``classify`` verdicts on pairs from a pool of 3000 towers (ratios up
  to 30, in triples of equivalent towers; 30% of pairs come from one
  triple), so the ``supernatural_of_tower`` cache sees hits and misses.
  They are most of the operations, so ``p50_ms`` is a classify latency;
- 2 ``obstruction_witness`` calls whose keyed prime lies in 90000..100000
  (the nextprime walk is the cost);
- 6 ``supernatural_of_tower`` calls on prefixes carrying a 30-32 bit prime;
- 2 in-memory ``build_back_and_forth`` + ``verify`` pairs: one of 1e3-4e3
  points, cycling through fixed tower pairs, and 2 vs 4 at depth 8 (32768
  points).  The latter are the slowest operations, all alike, so
  ``tail_ms`` is theirs;
- 30 K0 decisions over the six contexts of ``test_c05``: ``k0_equal`` on
  random and on equal-by-construction pairs, ``k0_positive`` of classes and
  of differences, ``unit_divide``; periods stay in {1, 2, 3, 4, 6}, which
  keeps witnesses small;
- 1 ``k0_positive`` whose witness has 1.3e4-7.8e4 entries, cycling through
  six fixed shapes.
"""

from __future__ import annotations

from math import inf

import oracle
from oracle import canonical, expect
from workload import CONTEXTS, InProcess, Op, random_class

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
BIG_WITNESS = [(((), (2,)), 15), (((2,), (2, 3)), 15), (((), (5, 2)), 15),
               (((), (3,)), 30), (((2,), (2, 3)), 30), (((), (2, 2, 3)), 30)]
BCE_LARGE = (((), (2,)), ((), (4,)), 8)
BCE_PAIRS = [((), (2,)), ((), (4,)), ((), (8,)), ((), (3,)), ((), (9,)),
             ((), (6,)), ((), (2, 3)), ((2,), (4,)), ((3,), (3, 9))]
POOL_TRIPLES = 1000


def _group_ratios(primes, rng) -> tuple[int, ...]:
    """Multiply shuffled primes into ratios no larger than 30."""
    primes = list(primes)
    rng.shuffle(primes)
    out = []
    for p in primes:
        if out and out[-1] * p <= 30 and rng.random() < 0.5:
            out[-1] *= p
        else:
            out.append(p)
    return tuple(out)


def _sn_text(s) -> dict:
    return {str(p): ("inf" if e == inf else str(e)) for p, e in s.exponents.items()}


def _k0_seq(c) -> tuple:
    return (tuple(c.prefix), tuple(c.period))


class Workload(InProcess):
    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.cache_deltas: list[tuple[int, int, int]] = []

    def setup(self):
        rng = self.rng("pool")
        self.pool = []
        for _ in range(POOL_TRIPLES):
            finite = rng.random() < 0.1
            support = [] if finite else rng.sample(SMALL_PRIMES[:6], rng.randint(1, 2))
            others = [p for p in SMALL_PRIMES if p not in support]
            part = [rng.choice(others) for _ in range(rng.randint(0 if support else 1, 3))]
            triple = []
            for _ in range(3):
                extra = [rng.choice(support) for _ in range(rng.randint(0, 2))] if support else []
                tail = support + [rng.choice(support) for _ in range(rng.randint(0, 1))] if support else []
                triple.append((_group_ratios(part + extra, rng), _group_ratios(tail, rng)))
            self.pool.append(triple)
        # fixed tower pairs whose witness domain has 1000-4000 points
        self.bce_small = []
        for i, t1 in enumerate(BCE_PAIRS):
            for t2 in BCE_PAIRS[i:]:
                if oracle.sn(*t1) != oracle.sn(*t2):
                    continue
                for depth in range(1, 12):
                    levels = oracle.interleave(t1, t2, depth)
                    size = oracle.orders(t1, levels[-1][0])[-1]
                    if 1000 <= size <= 4000:
                        self.bce_small.append((t1, t2, depth))
                    if size > 4000:
                        break

    # -- generators of one operation each ------------------------------------------

    def op_classify(self, rng) -> Op:
        if rng.random() < 0.3:
            triple = rng.choice(self.pool)
            t1, t2 = rng.choice(triple), rng.choice(triple)
        else:
            t1, t2 = rng.choice(rng.choice(self.pool)), rng.choice(rng.choice(self.pool))
        rc = self.rc

        def run():
            a, b = rc.Tower(*t1), rc.Tower(*t2)
            w = rc.obstruction_witness(a, b)
            return {"bce": rc.bijectively_coarsely_equivalent(a, b),
                    "ce": rc.coarsely_equivalent(a, b), "k0_iso": rc.k0_iso_exists(a, b),
                    "obstruction": None if w is None else list(w)}

        def check(out):
            expect(out == oracle.classify(t1, t2), f"classify {t1} {t2} gave {out}")
            return canonical(out)

        return Op("classify", run, check)

    def op_obstruction(self, rng) -> Op:
        p = rng.randrange(90000, 100000)
        while not oracle.is_prime(p):
            p += 1
        q = rng.choice([2, 3, 5, 6])
        t1 = ((), (q,))
        t2 = ((), (q, p)) if rng.random() < 0.5 else ((p,), (q,))
        rc = self.rc

        def run():
            return rc.obstruction_witness(rc.Tower(*t1), rc.Tower(*t2))

        def check(out):
            expect(list(out) == oracle.classify(t1, t2)["obstruction"], f"obstruction {out}")
            return canonical(list(out))

        return Op("obstruction", run, check)

    def op_sn_big(self, rng) -> Op:
        p = rng.randrange(2**30, 2**32) | 1
        while not oracle.is_prime(p):
            p += 2
        t = ((p * rng.randint(1, 30), rng.randint(2, 30)), (rng.randint(2, 30),))
        rc = self.rc

        def run():
            return rc.supernatural_of_tower(rc.Tower(*t))

        def check(out):
            got = _sn_text(out)
            want = oracle.sn_obj(oracle.sn(*t, known_primes=(p,)))["exponents"]
            expect(got == want and out.default_exponent == 0, f"sn of {t} gave {got}")
            return canonical(got)

        return Op("sn_big_prime", run, check)

    def op_bce(self, case) -> Op:
        t1, t2, depth = case
        levels = oracle.interleave(t1, t2, depth)
        size = oracle.orders(t1, levels[-1][0])[-1]
        rc = self.rc

        def run():
            b = rc.build_back_and_forth(rc.Tower(*t1), rc.Tower(*t2), depth)
            return b, rc.verify_bijective_coarse_equivalence(b)

        def check(out):
            b, report = out
            expect([list(lv) for lv in b.levels] == levels, f"interleave levels {b.levels}")
            expect(b.mapping == tuple(range(size)), "witness is not the inclusion map")
            expect(report.passed and report.injective, "verify rejected a built witness")
            expect(len(report.levels) == levels[-1][0] + 1, "verify skipped levels")
            return canonical({"levels": levels, "points": size,
                              "modulus": list(b.modulus), "passed": report.passed})

        return Op("bce_build_verify", run, check)

    def op_k0_equal(self, rng) -> Op:
        ctx = rng.choice(CONTEXTS)
        a = random_class(rng)
        if rng.random() < 0.5:
            k = oracle.orders(ctx, rng.randint(1, 2))[-1]
            block = [rng.randint(-3, 3) for _ in range(k - 1)]
            block.append(-sum(block))
            lead = [rng.randint(-3, 3) for _ in range(k - 1)]
            lead.append(-sum(lead))
            b = oracle.combine(a, (tuple(lead), tuple(block)))  # a + h, h in H
        else:
            b = random_class(rng)
        want = oracle.vanishes(ctx, oracle.combine(a, b, -1))
        rc = self.rc

        def run():
            t = rc.Tower(*ctx)
            return rc.k0_equal(rc.K0Class(t, *a), rc.K0Class(t, *b))

        def check(out):
            expect(out is want, f"k0_equal {a} {b} over {ctx} gave {out}")
            return canonical(out)

        return Op("k0_equal", run, check)

    def op_k0_positive(self, rng, difference: bool) -> Op:
        ctx = rng.choice(CONTEXTS)
        a = random_class(rng)
        b = random_class(rng) if difference else None
        seq = oracle.combine(a, b, -1) if difference else a
        rc = self.rc

        def run():
            t = rc.Tower(*ctx)
            c = rc.K0Class(t, *a)
            if difference:
                c = rc.k0_sub(c, rc.K0Class(t, *b))
            return rc.k0_positive(c)

        def check(out):
            positive, w = out
            oracle.check_positive(ctx, seq, positive, None if w is None else _k0_seq(w))
            return canonical([positive, None if w is None else _k0_seq(w)])

        return Op("k0_positive_diff" if difference else "k0_positive", run, check)

    def op_unit_divide(self, rng) -> Op:
        ctx = rng.choice(CONTEXTS)
        p, r = rng.choice([2, 3, 5, 7]), rng.randint(1, 3)
        rc = self.rc

        def run():
            return rc.unit_divide(rc.Tower(*ctx), p, r)

        def check(out):
            w = None if out is None else _k0_seq(out)
            oracle.check_divide(ctx, p, r, w)
            return canonical(w)

        return Op("unit_divide", run, check)

    def op_big_witness(self, rng, index: int) -> Op:
        ctx, q = BIG_WITNESS[index % len(BIG_WITNESS)]
        period = [0] * q
        period[rng.randrange(q)] = 1
        seq = ((3, -3), tuple(period))
        rc = self.rc

        def run():
            return rc.k0_positive(rc.K0Class(rc.Tower(*ctx), *seq))

        def check(out):
            positive, w = out
            oracle.check_positive(ctx, seq, positive, _k0_seq(w))
            return canonical([positive, len(w.prefix), len(w.period)])

        return Op("k0_big_witness", run, check)

    def group(self, index: int) -> list[Op]:
        rng = self.rng("group", index)
        ops = [self.op_classify(rng) for _ in range(200)]
        ops += [self.op_obstruction(rng) for _ in range(2)]
        ops += [self.op_sn_big(rng) for _ in range(6)]
        ops.append(self.op_bce(self.bce_small[index % len(self.bce_small)]))
        ops.append(self.op_bce(BCE_LARGE))
        ops += [self.op_k0_equal(rng) for _ in range(12)]
        ops += [self.op_k0_positive(rng, difference=i % 2 == 1) for i in range(12)]
        ops += [self.op_unit_divide(rng) for _ in range(6)]
        ops.append(self.op_big_witness(rng, index))
        rng.shuffle(ops)
        return ops

    def layer_metrics(self, tracer, traced, plain) -> dict:
        hits, misses, size = self.cache_deltas[0]
        return {"supernatural.sn_cache_hits": hits, "supernatural.sn_cache_misses": misses,
                "supernatural.sn_cache_size": size}

    def begin_phase(self, tracer):
        self._cache_start = self._cache_info()
        super().begin_phase(tracer)

    def end_phase(self):
        super().end_phase()
        (h0, m0, _), (h1, m1, size) = self._cache_start, self._cache_info()
        self.cache_deltas.append((h1 - h0, m1 - m0, size))

    def _cache_info(self) -> tuple[int, int, int]:
        """Hits, misses and size of the supernatural_of_tower cache, read
        with its public cache_info(); zeros if the program has none."""
        info = getattr(self.rc.supernatural.supernatural_of_tower, "cache_info", None)
        if info is None:
            return (0, 0, 0)
        i = info()
        return (i.hits, i.misses, i.currsize)
