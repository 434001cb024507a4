"""Cold wall times of two light commands and the artifact commands, for two
source trees.

    python tests/cold_times.py BASE CHANGE

The inputs are written to a temporary directory: the towers tail 2 and
tail 4 (``sn`` and ``classify`` read them: the light path, which costs
start-up and imports), a 2,000-entry operator over tail 2 at depth 15
(``roe conjugate``) and one of about 3,800 entries over tail (2, 3) at
depth 8 (``roe decompose --level 4``).  Each tree builds its own depth-8
tail-2-against-tail-4 witness, 32,768 points, with its own ``bce build``,
and verifies and conjugates that one.  The "block-permuted" commands read the same witness
with the four points of every target 4-block permuted by a seeded shuffle
(the verifier still passes it), made from each tree's file the same way:
a map of tens of thousands of runs, whose images are found run by run.
The two "pieces permuted" commands verify the same witness with its
aligned 32-point (128-point) pieces shuffled inside target 256-blocks
(1024-blocks), the coarsest that the verifier's bounds still allow: runs
of about 37 and at least 128 points, one on each side of the 64 points a
run below which the modulus is measured point by point.

Each tree's ``src/roeclass`` is copied without its ``__pycache__``, and one
untimed run compiles the copy's bytecode first.  A run is one ``python -m
roeclass.cli`` process, timed from start to exit, that must exit 0; each
command runs 5 times on each tree, the trees taking turns run by run.  The
output is a markdown table of the median wall time of each command, in ms,
in the columns "base" and "change".
"""

import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

COMMANDS = {
    "sn": ["sn", "t2.json"],
    "classify": ["classify", "t2.json", "t4.json"],
    "bce build": ["bce", "build", "--depth", "8", "--output", "{out}", "t2.json", "t4.json"],
    "bce verify": ["bce", "verify", "{map}"],
    "roe decompose": ["roe", "decompose", "--level", "4", "--output", "{out}", "decompose.json"],
    "roe conjugate": ["roe", "conjugate", "--output", "{out}", "{map}", "conjugate.json"],
    "bce verify, block-permuted": ["bce", "verify", "{permuted}"],
    "roe conjugate, block-permuted": ["roe", "conjugate", "--output", "{out}", "{permuted}",
                                      "conjugate.json"],
    "bce verify, 32-point pieces permuted": ["bce", "verify", "{pieces32}"],
    "bce verify, 128-point pieces permuted": ["bce", "verify", "{pieces128}"],
}
# (piece, target block) of each permuted map: the level-1 target blocks of
# tail 4 for points, and the coarsest blocks that pass the depth-8 bounds
PERMUTED = {"permuted": (1, 4), "pieces32": (32, 256), "pieces128": (128, 1024)}
LABELS = ("base", "change")
RUNS = 5


def tower(*tail):
    return {"prefix": [], "tail": [str(r) for r in tail]}


def operator(tail, depth, entries):
    return {"space": {"tower": tower(*tail), "depth": depth},
            "entries": [[r, c, str(v)] for (r, c), v in sorted(entries.items())]}


def write_inputs(work: Path):
    rng = random.Random(29)
    (work / "t2.json").write_text(json.dumps(tower(2)))
    (work / "t4.json").write_text(json.dumps(tower(4)))
    conjugate = {(rng.randrange(2**15), rng.randrange(2**15)):
                 Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(2000)}
    while len(conjugate) < 2000:
        conjugate[rng.randrange(2**15), rng.randrange(2**15)] = Fraction(1)
    (work / "conjugate.json").write_text(json.dumps(operator((2,), 15, conjugate)))
    # 1296 points, three entries a row inside its level-4 block of 36
    decompose = {(x, x - x % 36 + rng.randrange(36)): Fraction(rng.choice([-3, -1, 1, 2]),
                                                               rng.randint(1, 4))
                 for x in range(1296) for _ in range(3)}
    (work / "decompose.json").write_text(json.dumps(operator((2, 3), 8, decompose)))


def block_permuted(built: Path, out: Path, piece: int, block: int):
    """The map file ``built`` with the aligned ``piece``-point pieces of the
    images in each target ``block``-block permuted by a shuffle seeded by
    the block."""
    obj = json.loads(built.read_text())
    images = [int(y) for y in obj["map"][1::2]]
    pieces, perms = block // piece, {}
    for i, y in enumerate(images):
        if y // block not in perms:
            perms[y // block] = random.Random(y // block).sample(range(pieces), pieces)
        images[i] = y - y % block + perms[y // block][y % block // piece] * piece + y % piece
    obj["map"][1::2] = map(str, images)
    out.write_text(json.dumps(obj, separators=(",", ":")))


def run(work: Path, argv: list, env: dict) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-m", "roeclass.cli", *argv], cwd=work, env=env,
                   stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - start


def main() -> int:
    if len(sys.argv) != 3:
        raise SystemExit(f"usage: python {sys.argv[0]} BASE CHANGE")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        write_inputs(work)
        sides = []
        for i, tree in enumerate(map(Path, sys.argv[1:])):
            src = work / f"src{i}"
            shutil.copytree(tree / "src" / "roeclass", src / "roeclass",
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, PYTHONPATH=str(src))
            env.pop("PYTHONDONTWRITEBYTECODE", None)
            # the tree's own witness; the run also compiles the bytecode
            subprocess.run([sys.executable, "-m", "roeclass.cli", "bce", "build", "--depth", "8",
                            "--output", f"map{i}.json", "t2.json", "t4.json"],
                           cwd=work, env=env, check=True)
            for name, (piece, block) in PERMUTED.items():
                block_permuted(work / f"map{i}.json", work / f"{name}{i}.json", piece, block)
            files = {name: f"{name}{i}.json" for name in ["map", *PERMUTED]}
            sides.append((env, dict(files, out=f"out{i}.json")))
        times = {(side, name): [] for side in range(len(sides)) for name in COMMANDS}
        for _ in range(RUNS):
            for name in COMMANDS:
                for side, (env, files) in enumerate(sides):
                    argv = [a.format(**files) for a in COMMANDS[name]]
                    times[side, name].append(run(work, argv, env))
    print(f"| median of {RUNS} cold runs, ms, with compiled bytecode | {' | '.join(LABELS)} |")
    print(f"| --- |{' --- |' * len(LABELS)}")
    for name in COMMANDS:
        cells = [f"{statistics.median(times[side, name]) * 1000:.1f}" for side in range(len(sides))]
        print(f"| `{name}` | {' | '.join(cells)} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
