"""The command line exit-code contract, over generated files and argv.

For every generated input ``main`` either returns 0, 2, 3 or 4 (1 only
from ``bce verify``) or stops in argparse with ``SystemExit(2)``.  Nothing
else escapes, stderr holds no traceback, and a second run prints
byte-identical stdout.  Inputs include decimal strings over Python's
4300-digit conversion limit and ``--output`` paths that cannot be written.
"""

import contextlib
import io
import json
import random
import tempfile
from bisect import bisect_right
from fractions import Fraction
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from roeclass import Tower
from roeclass.cli import main

from conftest import Budget

# str.isdigit accepts all of these: superscript two, Arabic-Indic three and
# zero, fullwidth three
NON_ASCII_DIGITS = "²٣٠３"

# Decimal-looking text; the ASCII digits stay 0 and 1 so that an accepted
# value keeps every generated space and witness small.
decimal_text = st.text(alphabet="01" + NON_ASCII_DIGITS, max_size=2)
junk = st.sampled_from([2, -1, True, None, 1.5, "-2", "2.0", " 2", [], {}])
# Python's int/str conversion refuses more than 4300 digits
too_long = st.sampled_from(["1" * 4301, "1/" + "1" * 4301])
small_ratios = st.lists(st.integers(1, 4), max_size=2)


def _nodes(obj, path=()):
    """Paths to every value inside a JSON object, the root excluded."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return []
    return [p for k, v in items for p in [path + (k,), *_nodes(v, path + (k,))]]


def _spoil(draw, obj):
    """obj, half the time with one value inside replaced by decimal-looking
    text or a value of another type."""
    nodes = _nodes(obj)
    if nodes and draw(st.booleans()):
        *path, last = draw(st.sampled_from(nodes))
        parent = obj
        for k in path:
            parent = parent[k]
        parent[last] = draw(st.one_of(decimal_text, junk, too_long))
    return obj


def tower_obj(prefix, tail) -> dict:
    return {"prefix": list(map(str, prefix)), "tail": list(map(str, tail))}


tower_objs = st.builds(tower_obj, small_ratios, small_ratios)


@st.composite
def tower_pairs(draw):
    """Two towers, the second often the first, so that builds can succeed."""
    first = (draw(small_ratios), draw(small_ratios))
    second = draw(st.one_of(st.just(first), st.tuples(small_ratios, small_ratios)))
    return tower_obj(*first), tower_obj(*second)


@st.composite
def k0_objs(draw):
    """Classes over a tower that is infinite unless spoiled.  An entry of
    ±10^12 is decided only where k_n has outgrown it, so `k0 pos --output`
    reaches the 2^20 layout limit.  A quarter of the periods spread their
    entries over up to 300 places, so that two of them repeat together
    after up to 300 * 299 entries, under the 2^20 limit of a sum; an eighth
    of the classes hold one entry that is a bool, a float, a string or null."""
    tail = draw(st.lists(st.integers(2, 4), min_size=1, max_size=2))
    entries = st.integers(-3, 3) | st.sampled_from([-10**12, 10**12])
    prefix = draw(st.lists(entries, max_size=3))
    period = draw(st.lists(entries, min_size=1, max_size=3))
    if draw(st.integers(0, 3)) == 0:
        spread = [0] * draw(st.integers(1, 300))
        for v in period:
            spread[draw(st.integers(0, len(spread) - 1))] = v
        period = spread
    if draw(st.integers(0, 7)) == 0:
        seq = draw(st.sampled_from([prefix, period]))
        seq.insert(draw(st.integers(0, len(seq))), draw(st.sampled_from([True, 1.5, "2", None])))
    return {"context": tower_obj(draw(small_ratios), tail), "prefix": prefix, "period": period}


@st.composite
def metric_objs(draw):
    """Points on a line."""
    xs = draw(st.lists(st.integers(0, 20), min_size=1, max_size=5, unique=True))
    return {"size": len(xs), "distances": [[abs(x - y) for y in xs] for x in xs]}


@st.composite
def operator_objs(draw, dense=False, ratios=None):
    """Operators, half of them (three quarters when ``dense``) one dense
    symmetric rank-1 projection v·vᵀ/|v|² at the start of a block, so that
    `roe trace --projection` reaches the non-diagonal check.  ``ratios``, a
    (prefix, tail) pair of ratio lists, fixes the tower of a sparse one.
    A quarter of the other sparse ones live over tail (2) at a depth of
    10^3..10^4, where a split at a low level passes the 2^20 block limit;
    their entries stay among the first 2^20 points."""
    dense = ratios is None and (draw(st.booleans()) or (dense and draw(st.booleans())))
    if not dense and ratios is None and draw(st.integers(0, 3)) == 0:
        prefix, tail, depth = [], [2], draw(st.integers(10**3, 10**4))
    else:
        # a dense block needs two points: an infinite tower and a depth of 1 or more
        prefix, tail = ratios or (draw(small_ratios), draw(
            st.lists(st.integers(2, 4), min_size=1, max_size=2) if dense else small_ratios))
        depth = draw(st.integers(int(dense), 4))
    tower = Tower(tuple(prefix), tuple(tail))
    size = tower.order(depth)
    if dense:
        v = draw(st.lists(st.integers(-2, 2), min_size=2, max_size=min(size, 4))
                 .filter(lambda v: sum(map(bool, v)) >= 2))
        k = next(k for k in tower.levels() if k >= len(v))  # the least level that holds it
        at, norm = k * draw(st.integers(0, size // k - 1)), sum(x * x for x in v)
        entries = [[at + i, at + j, str(Fraction(x * y, norm))]
                   for i, x in enumerate(v) for j, y in enumerate(v) if x * y]
    else:
        scalars = st.one_of(st.sampled_from(["1", "0", "-1", "1/2", "-3/4"]),
                            st.integers(-3, 3).map(str), too_long,
                            st.text(alphabet="0123456789-/" + NON_ASCII_DIGITS, max_size=4))
        point = st.integers(0, min(size, 2**20) - 1)
        positions = draw(st.lists(st.one_of(point.map(lambda r: (r, r)), st.tuples(point, point)),
                                  max_size=4, unique=True))
        entries = [[r, c, draw(scalars)] for r, c in positions]
    return {"space": {"tower": tower_obj(prefix, tail), "depth": depth},
            "entries": entries}


@st.composite
def map_objs(draw):
    """Bijection files whose shape fits their towers, so that most reach the
    verifier.  Half of them put the last target level anywhere up to 10^7;
    images stay below k_min(m_D, 6), so no order above level 6 is computed
    here.  A domain of over 64 points is mapped x -> x mod k, with the
    target blocks of one level permuted, or with up to three cuts anywhere
    and each piece shifted: runs long enough for the run measure."""
    # a quarter of the maps go from tail 4 to tail 4 at levels 4 and 4 or
    # more: 256 points or more, and a target as large
    big = draw(st.integers(0, 3)) == 0
    src = (draw(small_ratios), [4] if big else draw(small_ratios))
    tgt = (draw(small_ratios), [4] if big else draw(small_ratios))
    depth = draw(st.integers(int(big), 2))
    increasing = st.sets(st.integers(1, 4), min_size=depth, max_size=depth).map(sorted)
    levels = [list(nm) for nm in zip(draw(increasing), draw(increasing))]
    if big:
        levels[-1] = [4, 4]
    if levels and draw(st.booleans()):
        levels[-1][1] = draw(st.integers(levels[-1][1], 10**7))
    n_d, m_d = levels[-1] if levels else (0, 0)
    dom = Tower(*map(tuple, src)).order(n_d)
    cod = Tower(*map(tuple, tgt)).order(min(m_d, 6))
    if dom <= 64:
        images = draw(st.lists(st.integers(0, cod - 1), min_size=dom, max_size=dom))
    else:
        images = [x % cod for x in range(dom)]
        shape = draw(st.sampled_from(["modulo", "block permutation", "shifted runs"]))
        shuffle = random.Random(draw(st.integers(0, 10**6))).shuffle
        if shape == "block permutation":
            w = Tower(*map(tuple, tgt)).order(draw(st.integers(0, min(m_d, 6))))
            blocks = list(range(cod // w))
            shuffle(blocks)
            images = [blocks[y // w] * w + y % w for y in images]
        elif shape == "shifted runs":
            cuts = sorted(draw(st.sets(st.integers(1, dom - 1), max_size=3)))
            shifts = draw(st.lists(st.integers(0, cod - 1), min_size=4, max_size=4))
            images = [(y + shifts[bisect_right(cuts, x)]) % cod for x, y in enumerate(images)]
    flat = [str(v) for x, y in enumerate(images) for v in (x, y)]
    # a third are not as bce build writes them, so that the pair walk reads them
    edit = draw(st.sampled_from([None] * 14 + list(FLAT_EDITS)))
    if edit:
        _edit_flat(flat, edit, 2 * draw(st.integers(0, dom - 1)))
    return {"source": tower_obj(*src), "target": tower_obj(*tgt),
            "depth": depth, "levels": levels, "map": flat}


# edits of a canonical flat list: two leave it valid, the rest malformed
FLAT_EDITS = ("leading zeros", "out of order", "non-ASCII digit", "duplicate source",
              "bare int", "odd length", "image over the digit limit")


def _edit_flat(flat, edit, i):
    """Apply one of FLAT_EDITS to flat at the pair whose source is flat[i]."""
    if edit == "leading zeros":
        flat[i] = "00" + flat[i]
    elif edit == "out of order":
        flat[:2], flat[i : i + 2] = flat[i : i + 2], flat[:2]
    elif edit == "non-ASCII digit":
        flat[i + 1] = NON_ASCII_DIGITS[i // 2 % len(NON_ASCII_DIGITS)]
    elif edit == "duplicate source":
        flat[i] = "1" if i == 0 else "0"
    elif edit == "bare int":
        flat[i] = i // 2
    elif edit == "odd length":
        del flat[i]
    else:
        flat[i + 1] = "1" * 4301


# --prime values at the 2048-bit cap of a prime and over it, up to the
# 4300-digit limit.  Past the cap, the Fermat number 2^2048 + 1, the
# Mersenne prime 2^3217 - 1 and the 4300-digit 10^4299 + 9, none with a
# factor below 1000, are refused before any primality test
big_primes = st.sampled_from([10**4299 + 9, 2**2048 + 1, 2**3217 - 1,
                              2**2048 - 1, 10**4299, -(2**5000 + 1)])
level_args = st.integers(-3, 8)
# a file in the run's directory, or one under a directory that does not exist
OUTPUTS = ("out.json", "missing/out.json")
# (p, r) with p^r in 2^16..2^20: a k0 divide-unit witness laid out large
LARGE_LAYOUTS = [(2, 16), (2, 17), (2, 20), (3, 11), (3, 12)]


@st.composite
def invocations(draw):
    """(argv, files): one command line and the JSON text of each file it names."""
    kind = draw(st.sampled_from(["sn", "classify", "build", "verify", "k0 eq", "k0 pos",
                                 "divide-unit", "embed", "decompose", "trace", "conjugate"]))
    if kind == "sn":
        files = {"t.json": draw(tower_objs)}
        argv = ["sn", "t.json"]
    elif kind in ("classify", "build"):
        t1, t2 = draw(tower_pairs())
        files = {"t1.json": t1, "t2.json": t2}
        argv = ["classify", "t1.json", "t2.json"]
        if kind == "build":
            argv = ["bce", "build", "--depth", str(draw(st.integers(-1, 4))), *argv[1:]]
    elif kind == "verify":
        files = {"m.json": draw(map_objs())}
        argv = ["bce", "verify", "m.json"]
    elif kind == "k0 eq":
        files = {"a.json": draw(k0_objs()), "b.json": draw(k0_objs())}
        argv = ["k0", "eq", "a.json", "b.json"]
    elif kind == "k0 pos":
        files = {"a.json": draw(k0_objs())}
        argv = ["k0", "pos", "a.json"]
    elif kind == "divide-unit":
        # half over any tower; half over an infinite tail with exponents that
        # give a short witness or reach the 2^20 cap, which refuses at once,
        # and primes that are small or reach the 2048-bit cap; one in eight
        # of those asks for a witness of 2^16..2^20 entries, under the cap
        if draw(st.booleans()):
            tower, prime, exp = draw(tower_objs), st.integers(-1, 7), st.integers(-1, 64)
        else:
            tail = draw(st.lists(st.integers(2, 4), min_size=1, max_size=2))
            tower = tower_obj(draw(small_ratios), tail)
            prime = big_primes if draw(st.integers(0, 3)) == 0 else st.sampled_from([2, 3])
            exp = st.integers(0, 4) | st.integers(21, 64)
            if draw(st.integers(0, 7)) == 5:
                prime, exp = map(st.just, draw(st.sampled_from(LARGE_LAYOUTS)))
        files = {"t.json": tower}
        argv = ["k0", "divide-unit", "--prime", str(draw(prime)),
                "--exp", str(draw(exp)), "t.json"]
    elif kind == "embed":
        files = {"s.json": draw(metric_objs())}
        argv = ["embed", "s.json"]
    elif kind in ("decompose", "trace"):
        projection = kind == "trace" and draw(st.booleans())
        files = {"op.json": draw(operator_objs(dense=projection))}
        # half the levels lie in the operator's 0..depth; a --projection
        # level is the depth, whose one block holds every entry; a deep
        # operator splits at 0..8, over the block limit, or into 16 blocks at most
        depth = files["op.json"]["space"]["depth"]
        levels = (st.integers(0, 8) | st.integers(depth - 4, depth) if depth > 4 else
                  level_args | st.integers(0, depth))
        level = str(depth if projection else draw(levels))
        argv = ["roe", kind, "--level", level, "op.json"]
        if projection:
            argv.insert(2, "--projection")
    else:
        # half the operators live on the map's source tower, so that some
        # conjugations succeed, onto deep target levels among them
        m = draw(map_objs())
        source = [[int(r) for r in m["source"][part]] for part in ("prefix", "tail")]
        files = {"m.json": m, "op.json": draw(operator_objs(ratios=draw(st.sampled_from(
            [None, source]))))}
        argv = ["roe", "conjugate", "m.json", "op.json"]
    if kind in ("build", "k0 pos", "embed", "decompose", "conjugate") and draw(st.booleans()):
        argv[-1:-1] = ["--output", draw(st.sampled_from(OUTPUTS))]
    if draw(st.integers(0, 9)) == 5:
        argv = argv[:-1]  # a missing argument: argparse's usage error
    return argv, {name: json.dumps(_spoil(draw, obj), ensure_ascii=False)
                  for name, obj in files.items()}


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            assert e.code == 2, f"argparse exited {e.code}"
            code = "usage"
    return code, out.getvalue(), err.getvalue()


def test_exit_code_contract():
    budget = Budget(30.0)

    @settings(max_examples=500, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(invocations())
    def check(invocation):
        argv, files = invocation
        with tempfile.TemporaryDirectory() as tmp:
            for name, text in files.items():
                Path(tmp, name).write_text(text, encoding="utf-8")
            argv = [str(Path(tmp, a)) if a in files or a in OUTPUTS else a for a in argv]
            code, out, err = run(argv)
            again = run(argv)
        verify = argv[:2] == ["bce", "verify"]
        assert code in (0, 2, 3, 4, "usage") or (code == 1 and verify), (argv, code, err)
        assert "Traceback" not in err
        assert again[:2] == (code, out), argv

    check()
    budget.check()
