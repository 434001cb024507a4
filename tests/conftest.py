"""Shared hypothesis strategies for tower-based tests, seeded pairs of
equivalent towers, a wall-clock budget, a child interpreter under a memory
cap, a patch of one size limit, the K0 block-sum reference and the operator
scalar parse that captured numerator and denominator."""

import os
import re
import resource
import subprocess
import sys
import time
from itertools import accumulate
from math import lcm
from pathlib import Path

from hypothesis import strategies as st

import roeclass
from roeclass import Tower
from roeclass.errors import LIMITS
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
