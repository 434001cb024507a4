"""Shared hypothesis strategies for tower-based tests, seeded pairs of
equivalent towers, a wall-clock budget, a child interpreter under a memory
cap, a patch of one size limit, the check that a value the library built
equals the checked one field by field, the K0 block-sum reference, the
operator scalar parse that captured numerator and denominator, and the
block distance bisection and the scale tree's cross-diameter walk as they
were before they took their one-comparison and C-speed paths."""

import os
import re
import resource
import subprocess
import sys
import time
from bisect import bisect_right
from itertools import accumulate, groupby
from math import lcm
from operator import itemgetter
from pathlib import Path

from hypothesis import strategies as st

import roeclass
from roeclass import Tower
from roeclass.blockspace import _order_bits
from roeclass.errors import LIMITS, PreconditionViolation, _clip
from roeclass.serialize import _convert, _expect

ratios = st.integers(min_value=2, max_value=10)


@st.composite
def towers(draw, max_prefix=4, max_tail=3, allow_finite=True, max_ratio=10):
    r = st.integers(min_value=2, max_value=max_ratio)
    prefix = draw(st.lists(r, max_size=max_prefix))
    min_tail = 0 if allow_finite else 1
    tail = draw(st.lists(r, min_size=min_tail, max_size=max_tail))
    return Tower(tuple(prefix), tuple(tail))


def infinite_towers(max_prefix=4, max_tail=3):
    return towers(max_prefix=max_prefix, max_tail=max_tail, allow_finite=False)


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



class Budget:
    def __init__(self, seconds):
        self.limit = seconds
        self.start = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.limit, f"took {elapsed:.2f}s, budget {self.limit}s"
        return elapsed


def run_limited(*args):
    """``python *args`` in a child process under a 1 GiB address space, with
    the tree of the imported roeclass package on its path, so the child runs
    the code under test: a call that allocates per point fails there with
    MemoryError instead of taking the machine's memory."""
    src = str(Path(roeclass.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, *args],
        env=env, capture_output=True, text=True, timeout=30,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)))


def same_value(got, want):
    """got equals want, field by field, and holds nothing else."""
    return type(got) is type(want) and vars(got) == vars(want)


def set_limit_bits(monkeypatch, row, bits):
    """Patch the bits of one ``errors.LIMITS`` row for a test, keeping its message."""
    monkeypatch.setitem(LIMITS, row, (bits, LIMITS[row][1]))


def partial_sum_reference(d, i):
    """Sum of the first i entries of the K0 class d, read off the running
    sums of its prefix and its period (the old ``K0Class.partial_sum``)."""
    s, q = len(d.prefix), len(d.period)
    head, cyc = list(accumulate(d.prefix, initial=0)), list(accumulate(d.period, initial=0))
    if i <= s:
        return head[i]
    whole, rest = divmod(i - s, q)
    return head[s] + whole * cyc[-1] + cyc[rest]


def block_sums_reference(d, n):
    """The aligned k_n-block sums of d as ``ktheory._block_sums`` found them
    before its one pass: two partial sums per block (the old
    ``K0Class.block_sum``) over the prefix's blocks and one
    lcm(k_n, |period|) stretch, split into (prefix, period)."""
    k = d.context.order(n)
    nb = -(-len(d.prefix) // k)
    sums = [partial_sum_reference(d, (j + 1) * k) - partial_sum_reference(d, j * k)
            for j in range(nb + lcm(k, len(d.period)) // k)]
    return tuple(sums[:nb]), tuple(sums[nb:])


_SCALAR_GROUPS_RE = re.compile(r"(-?[0-9]+)(?:/([1-9][0-9]*))?")


def _int_groups(match: re.Match) -> tuple[int, ...]:
    num, den = match.groups()
    return (int(num),) if den is None else (int(num), int(den))


def _scalar_from_str(s, what: str) -> tuple[int, ...]:
    """The numerator of s, a string like '-3' or '3/4', and its denominator
    if it has one, each parsed once: ``Fraction(*result)`` is ``Fraction(s)``.
    ``serialize`` read operator scalars this way one entry at a time, until
    its entry walk took the whole-list passes' screen and ``Fraction(s)``."""
    match = isinstance(s, str) and _SCALAR_GROUPS_RE.fullmatch(s)
    _expect(match, f"{what} must be a string like '-3' or '3/4'")
    return _convert(_int_groups, match, what)


def distance_reference(s, x, y):
    """``BlockSpace.distance`` as it was before it tested the level just
    below the first order above max(x, y) on its own: one bisection over
    the levels between the first order above |x - y| and that one, after
    the same point checks, forming orders on s just as far."""
    orders = s._orders
    size = orders[-1]
    if not (isinstance(x, int) and isinstance(y, int) and 0 <= x < size and 0 <= y < size):
        for p in (x, y):
            if not (isinstance(p, int) and 0 <= p < s._orders_past(p)[-1]):
                deep = _order_bits(s.tower, s.depth) > 1 << LIMITS["block order"][0]
                top = f"k_{_clip(s.depth)} - 1" if deep else _clip(s.size - 1)
                raise PreconditionViolation(f"point {_clip(p)} outside 0..{top}")
        orders = s._orders
    lo = bisect_right(orders, x - y if x > y else y - x)
    hi = bisect_right(orders, x if x > y else y, lo)
    while lo < hi:
        mid = (lo + hi) // 2
        k = orders[mid]
        if x // k == y // k:
            hi = mid
        else:
            lo = mid + 1
    return lo


def scale_tree_reference(m):
    """``blockspace._scale_tree`` as it was before it read each merge's
    cross diameter in C: one generator step per point of the cluster that
    joins, each the largest entry of that point's row over the points
    already merged.  m needs only ``distances`` and ``size``."""
    d, n = m.distances, m.size
    best, link, rest, edges = list(d[0]), [0] * n, list(range(1, n)), []
    while rest:
        y = min(rest, key=best.__getitem__)
        rest.remove(y)
        edges.append((best[y], link[y], y))
        row = d[y]
        for z in rest:
            if row[z] < best[z]:
                best[z], link[z] = row[z], y
    edges.sort()
    key = list(range(n))
    clusters = {x: ((x,), 0, {x: 0}) for x in range(n)}
    yield 0, tuple(clusters.values())
    for R, group in groupby(edges, key=itemgetter(0)):
        merged = {}
        for _, a, b in group:
            ka, kb = sorted((key[a], key[b]))
            absorbed = merged.pop(kb, [kb])
            for c in absorbed:
                for x in clusters[c][0]:
                    key[x] = ka
            merged.setdefault(ka, [ka]).extend(absorbed)
        for k, kids in merged.items():
            points, diam, images, offset = [], 0, {}, 0
            for c in sorted(kids):
                pts, c_diam, c_images = clusters.pop(c)
                cross = (max(map(d[x].__getitem__, points), default=0) for x in pts)
                diam = max(diam, c_diam, *cross)
                images.update((x, offset + v) for x, v in c_images.items())
                offset += max(c_images.values()) + R
                points += pts
            clusters[k] = (tuple(sorted(points)), diam, images)
        yield R, tuple(clusters[k] for k in sorted(clusters))
