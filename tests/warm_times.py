"""Warm in-process times of the four geometry hot paths, for two source
trees in one process.

    python tests/warm_times.py BASE CHANGE

Each tree's ``src/roeclass`` is imported under its own package name
(``roeclass_0``, ``roeclass_1``), so both run warm on one interpreter.
The inputs are made once, from seed 0:

- ``metric 128``: the distances of a 128-point block space (tail 2, depth
  7) with its points permuted, read with ``BlockSpace.distance``, then
  ``FiniteMetricSpace``, ``embed_into_nonneg_integers`` and
  ``asdim_zero_profile`` (the ``geometry`` benchmark's ``metric_128_x1``);
- ``diagonal 1296``: a diagonal 0/1 projection of density 1/2 on tail 6 at
  depth 4 (1,296 points) through ``block_decompose`` at level 2,
  ``trace_vector(require_projection=True)``, ``connecting_map`` and the
  coarser trace;
- ``compose 200``: 200 ``compose`` + ``propagation`` of operators of 1-6
  rational entries on the ``geometry`` benchmark's sparse spaces;
- ``dense 36``: a dense rational rank-1 projection on the 36 points of tail
  6 at depth 2 through ``block_decompose`` at level 2 and
  ``trace_vector(require_projection=True)``, the general branch of the
  projection test (the ``geometry`` benchmark's ``dense_projection_36``).

A round times each path once on each tree, the trees taking turns (the base
first on even rounds); 40 rounds are timed, after one untimed round.  Every
result is checked to be equal on both trees.  The output is a markdown table
of the median time of each path, in ms, and the change/base ratio of the
medians.
"""

import importlib.util
import random
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

SPARSE_SPACES = [((), (2,), 9), ((), (3,), 5), ((), (2, 3), 5), ((), (5,), 3),
                 ((4,), (6,), 3), ((7, 3), (), 2)]
ROUNDS = 40


def load(tree: Path, name: str):
    """The package under ``tree/src/roeclass``, imported as ``name``."""
    src = tree / "src" / "roeclass"
    spec = importlib.util.spec_from_file_location(name, src / "__init__.py",
                                                  submodule_search_locations=[str(src)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def paths(rng: random.Random) -> dict:
    """Path name -> function of a package, on inputs drawn from rng."""
    perm = list(range(128))
    rng.shuffle(perm)
    diag = {i for i in range(1296) if rng.random() < 0.5}
    pairs = []
    for _ in range(200):
        prefix, tail, depth = rng.choice(SPARSE_SPACES)
        size = 1
        for r in (prefix + tail * depth)[:depth]:
            size *= r

        def sparse():
            return {(rng.randrange(size), rng.randrange(size)):
                    Fraction(rng.randint(1, 3), rng.randint(1, 3))
                    for _ in range(rng.randint(1, 6))}

        pairs.append((prefix, tail, depth, sparse(), sparse()))
    v = [rng.randint(-3, 3) for _ in range(36)]
    v[rng.randrange(36)] = rng.randint(1, 3)
    norm = sum(x * x for x in v)
    rank_one = {(i, j): Fraction(v[i] * v[j], norm)
                for i in range(36) for j in range(36) if v[i] * v[j]}

    def metric(rc):
        space = rc.BlockSpace(rc.Tower((), (2,)), 7)
        rows = tuple(tuple(space.distance(x, y) for y in perm) for x in perm)
        m = rc.FiniteMetricSpace(128, rows)
        return rows, rc.embed_into_nonneg_integers(m), rc.asdim_zero_profile(m)

    def diagonal(rc):
        space = rc.BlockSpace(rc.Tower((), (6,)), 4)
        bt = rc.block_decompose(rc.PropagationOperator(space, {(i, i): Fraction(1) for i in diag}), 2)
        return (rc.trace_vector(bt, require_projection=True),
                rc.trace_vector(rc.connecting_map(bt), require_projection=True))

    def compose(rc):
        out = []
        for prefix, tail, depth, a, b in pairs:
            space = rc.BlockSpace(rc.Tower(prefix, tail), depth)
            c = rc.compose(rc.PropagationOperator(space, a), rc.PropagationOperator(space, b))
            out.append((c.entries, rc.propagation(c)))
        return out

    def dense(rc):
        space = rc.BlockSpace(rc.Tower((), (6,)), 2)
        return rc.trace_vector(rc.block_decompose(rc.PropagationOperator(space, rank_one), 2),
                               require_projection=True)

    return {"metric 128": metric, "diagonal 1296": diagonal, "compose 200": compose,
            "dense 36": dense}


def main() -> int:
    if len(sys.argv) != 3:
        raise SystemExit(f"usage: python {sys.argv[0]} BASE CHANGE")
    packages = [load(Path(tree), f"roeclass_{i}") for i, tree in enumerate(sys.argv[1:])]
    funcs = paths(random.Random(0))
    times = {(side, name): [] for side in range(2) for name in funcs}
    for round_ in range(-1, ROUNDS):
        for name, f in funcs.items():
            results = []
            for side in (0, 1) if round_ % 2 == 0 else (1, 0):
                start = time.perf_counter()
                results.append(f(packages[side]))
                if round_ >= 0:
                    times[side, name].append(time.perf_counter() - start)
            if results[0] != results[1]:
                raise SystemExit(f"{name}: the trees disagree")
    print(f"| median of {ROUNDS} warm rounds, ms | base | change | change/base |")
    print("| --- | --- | --- | --- |")
    for name in funcs:
        base, change = (statistics.median(times[side, name]) for side in (0, 1))
        print(f"| `{name}` | {base * 1000:.3f} | {change * 1000:.3f} | {change / base:.3f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
