"""Shared hypothesis strategies for tower-based tests, and a wall-clock budget."""

import time

from hypothesis import strategies as st

from roeclass import Tower

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


class Budget:
    def __init__(self, seconds):
        self.limit = seconds
        self.start = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.limit, f"took {elapsed:.2f}s, budget {self.limit}s"
        return elapsed
