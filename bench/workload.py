"""What every workload provides to the runner, and the inputs they share."""

from __future__ import annotations

import random
import resource
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

SRC = Path(__file__).resolve().parent.parent / "src"
# a fresh interpreter's import of the program, timed by that interpreter
IMPORT_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
               "import roeclass; print(time.perf_counter() - t0)")


@dataclass
class Op:
    """One operation: ``run`` is the timed call into the program, ``check``
    validates its result and returns the canonical text the digest hashes."""

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], str]


# The six K0 contexts of test_c05, as (prefix, tail) ratio tuples.
CONTEXTS = [((), (2,)), ((), (3,)), ((2,), (2, 3)), ((), (5, 2)), ((3,), (2,)), ((), (2, 2, 3))]


def random_class(rng: random.Random) -> tuple:
    """An eventually periodic sequence with entries in -3..3.  Periods stay in
    {1, 2, 3, 4, 6}, so differences have periods of at most 12 and positivity
    witnesses stay small."""
    return (tuple(rng.randint(-3, 3) for _ in range(rng.randint(0, 6))),
            tuple(rng.randint(-3, 3) for _ in range(rng.choice([1, 2, 3, 4, 6]))))


class Base:
    """Runs whole groups of operations; group ``i`` is the same for a seed
    whatever ran before it.  ``digest_groups`` is how many groups the pinned
    seed's digest covers."""

    min_groups = 1
    digest_groups = 1
    gauge = "loop"  # the speed.GAUGES entry its times are scaled by

    def __init__(self, seed: int):
        self.seed = seed
        self.tracer = None

    def rng(self, *key) -> random.Random:
        return random.Random(":".join(map(str, (self.seed,) + key)))

    def group(self, index: int) -> list[Op]:
        raise NotImplementedError

    def begin_phase(self, tracer):
        self.tracer = tracer

    def end_phase(self):
        self.tracer = None

    def reset(self):
        """Empty the program's caches between the phases of a traced run."""

    def layer_metrics(self, tracer, traced, plain) -> dict:
        return {}

    def close(self):
        pass


class InProcess(Base):
    """A workload that calls the library directly.

    Inputs are plain Python data made from the seed; only ``Op.run`` calls
    the program, through attributes of the ``roeclass`` package looked up at
    call time, so a traced phase sees every call.
    """

    def __init__(self, seed: int, work):
        super().__init__(seed)
        self.rc = None

    def import_program(self):
        import roeclass

        self.rc = roeclass

    def import_s(self) -> float:
        """Import time of the program in a fresh interpreter.  This
        process imports it only once, so set-up time takes the import from
        fresh interpreters, where it can be repeated."""
        proc = subprocess.run([sys.executable, "-I", "-c", IMPORT_CODE, str(SRC)],
                              capture_output=True, text=True, check=True, timeout=120)
        return float(proc.stdout)

    def setup(self):
        """Generate the inputs shared by all groups."""

    def warmup(self):
        """Run one group of a separate stream so lazy imports and first-call
        costs are paid before timing, then drop what it cached."""
        for op in self.warmup_ops():
            op.run()
        self.reset()

    def warmup_ops(self) -> list[Op]:
        return self.group(-1)

    def reset(self):
        """Empty the program's caches, as a new process would have them."""
        clear = getattr(self.rc.supernatural.supernatural_of_tower, "cache_clear", None)
        if clear is not None:
            clear()

    def begin_phase(self, tracer):
        super().begin_phase(tracer)
        if tracer is not None:
            tracer.install()

    def end_phase(self):
        if self.tracer is not None:
            self.tracer.uninstall()
        super().end_phase()

    def span(self, name: str, fn, *args):
        """A span the benchmark puts around a batch of calls it makes itself."""
        if self.tracer is None:
            return fn(*args)
        return self.tracer.span(name, fn, *args)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
