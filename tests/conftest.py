"""Shared hypothesis strategies for tower-based tests, a wall-clock budget,
and a child interpreter under a memory cap."""

import os
import resource
import subprocess
import sys
import time
from pathlib import Path

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


def run_limited(*args):
    """``python *args`` in a child process under a 1 GiB address space, with
    the source tree on its path: a call that allocates per point fails there
    with MemoryError instead of taking the machine's memory."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, *args],
        env=env, capture_output=True, text=True, timeout=30,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)))
