"""Canonical JSON forms for every artifact the CLI reads or writes.

All orders and points are decimal strings so arbitrarily large integers
survive the trip; small structural integers (depths, levels, matrix indices,
sequence entries) stay bare.  Output is deterministic: sorted keys, compact
separators, no floats anywhere.

Every command reads a tower, so ``supernatural`` is imported at the top; a
parser that builds a class of another layer reads it off the lazy package
root when it runs, so a command loads only the layers its inputs and its
action need.
"""

from __future__ import annotations

import json
import re
import sys
from functools import partial
from itertools import repeat

import roeclass as rc

from .errors import MalformedInput, PreconditionViolation, _checked_int, check_limit
from .supernatural import INFINITE, SupernaturalNumber, Tower


def canonical_json(obj) -> str:
    dumps = partial(json.dumps, sort_keys=True, separators=(",", ":"))
    return _convert(dumps, obj, "output number", PreconditionViolation)


def load_json(text: str):
    try:
        return json.loads(text)
    # ValueError: JSONDecodeError or over the digit limit; RecursionError: too deep
    except (ValueError, RecursionError) as e:
        raise MalformedInput(f"invalid JSON: {e}") from e


def _expect(cond: bool, msg: str):
    if not cond:
        raise MalformedInput(msg)


def _as_object(obj, what: str, keys: set[str]) -> dict:
    _expect(isinstance(obj, dict), f"{what} must be a JSON object")
    _expect(set(obj) == keys, f"{what} must have exactly the keys {sorted(keys)}")
    return obj


def _convert(convert, value, what: str, error=MalformedInput):
    """convert(value), turning Python's int/str digit limit into ``error``.

    Every caller hands over a well-formed value (checked text on input,
    numbers and JSON-ready objects on output), so that limit is the one
    ValueError left.
    """
    try:
        return convert(value)
    except ValueError as e:
        limit = sys.get_int_max_str_digits()
        raise error(f"{what} is over the {limit}-digit limit") from e


def _parse_uint(value, what: str) -> int:
    _expect(isinstance(value, str) and value.isascii() and value.isdigit(),
            f"{what} must be a decimal string")
    return _convert(int, value, what)


# -- towers and supernatural numbers --------------------------------------

def tower_to_obj(t: Tower) -> dict:
    return {"prefix": [str(r) for r in t.prefix], "tail": [str(r) for r in t.tail]}


def tower_from_obj(obj) -> Tower:
    obj = _as_object(obj, "tower", {"prefix", "tail"})
    _expect(isinstance(obj["prefix"], list) and isinstance(obj["tail"], list),
            "tower prefix/tail must be lists")
    prefix = tuple(_parse_uint(r, "ratio") for r in obj["prefix"])
    tail = tuple(_parse_uint(r, "ratio") for r in obj["tail"])
    return Tower(prefix, tail)


def sn_to_obj(s: SupernaturalNumber) -> dict:
    def fmt(e):
        return "inf" if e == INFINITE else str(e)

    return {
        "exponents": {str(p): fmt(e) for p, e in s.exponents.items()},
        "default": fmt(s.default_exponent),
    }


def sn_from_obj(obj) -> SupernaturalNumber:
    obj = _as_object(obj, "supernatural number", {"exponents", "default"})
    _expect(isinstance(obj["exponents"], dict), "exponents must be an object")

    def parse_exp(v, what):
        if v == "inf":
            return INFINITE
        return _parse_uint(v, what)

    exps = {}
    for p, e in obj["exponents"].items():
        exps[_parse_uint(p, "prime")] = parse_exp(e, f"exponent of {p}")
    return SupernaturalNumber(exps, parse_exp(obj["default"], "default"))


# -- metric spaces ----------------------------------------------------------

def metric_space_from_obj(obj) -> FiniteMetricSpace:
    obj = _as_object(obj, "metric space", {"size", "distances"})
    rows = obj["distances"]
    _expect(isinstance(rows, list) and all(isinstance(row, list) for row in rows),
            "distances must be a list of rows")
    return rc.FiniteMetricSpace(obj["size"], rows)


# -- K0 classes -------------------------------------------------------------

def k0_to_obj(a: K0Class) -> dict:
    return {
        "context": tower_to_obj(a.context),
        "prefix": list(a.prefix),
        "period": list(a.period),
    }


def k0_from_obj(obj) -> K0Class:
    obj = _as_object(obj, "K0 class", {"context", "prefix", "period"})
    context = tower_from_obj(obj["context"])
    _expect(isinstance(obj["prefix"], list) and isinstance(obj["period"], list),
            "prefix/period must be lists")
    return rc.K0Class(context, obj["prefix"], obj["period"])


# -- bijections -------------------------------------------------------------

def bijection_to_obj(b: TowerBijection) -> dict:
    # the runs expanded to the flat pair list of every point, in C passes;
    # the identity, as bce build writes it, reuses the source strings
    n = b.domain_size
    check_limit("map points", n, n, "")
    sources = [*map(str, range(n))]
    images = sources if b.runs[1] == (0,) else [*map(str, b.mapping)]
    flat = [""] * (2 * n)
    flat[::2], flat[1::2] = sources, images
    return {
        "source": tower_to_obj(b.source),
        "target": tower_to_obj(b.target),
        "depth": b.depth,
        "levels": [[n, m] for n, m in b.levels],
        "map": flat,
    }


def bijection_from_obj(obj) -> TowerBijection:
    obj = _as_object(obj, "bijection", {"source", "target", "depth", "levels", "map"})
    source = tower_from_obj(obj["source"])
    target = tower_from_obj(obj["target"])
    _expect(isinstance(obj["levels"], list), "levels must be a list")
    bijection = partial(rc.TowerBijection, source, target, obj["depth"], obj["levels"])
    flat = obj["map"]
    _expect(isinstance(flat, list), "map must be a flat pair list")
    check_limit("map points", len(flat) // 2, len(flat) // 2, "")
    _expect(len(flat) % 2 == 0, "map must be a flat pair list")
    images = flat[1::2]
    n = len(images)
    strings = [*map(str, range(n))]
    # sources "0".."N-1" in order, in one list compare: the identity map, as
    # bce build writes it, is one run, and any other map with ASCII-digit
    # images is parsed at C speed; walk any other list to name its first bad pair
    if flat[::2] == strings:
        if n and images == strings:
            return bijection(runs=((0,), (0,), (n,)))
        if (set(map(type, images)) == {str} and "".join(images).isascii()
                and all(map(str.isdigit, images))):
            return bijection(_convert(tuple, map(int, images), "image point"))
    assignments = {}
    for i in range(0, len(flat), 2):
        x = _parse_uint(flat[i], "source point")
        y = _parse_uint(flat[i + 1], "image point")
        _expect(x not in assignments, f"source point {x} assigned twice")
        assignments[x] = y
    _expect(set(assignments) == set(range(len(assignments))),
            "map sources must cover 0..N-1 exactly")
    return bijection(tuple(assignments[x] for x in range(len(assignments))))


def report_to_obj(r: VerificationReport) -> dict:
    return {
        "passed": r.passed,
        "injective": r.injective,
        "levels": [
            {
                "level": c.level,
                "modulus": c.modulus,
                "bound": c.bound,
                "within_bound": c.within_bound,
                "decomposition": c.decomposition_ok,
                "order_divides": c.order_divides,
            }
            for c in r.levels
        ],
    }


# -- operators ---------------------------------------------------------------

def scalar_to_str(v: Fraction | int) -> str:
    return _convert(str, v, "output number", PreconditionViolation)


_SCALAR_RE = re.compile(r"-?[0-9]+(?:/[1-9][0-9]*)?")


def space_to_obj(s: BlockSpace) -> dict:
    return {"tower": tower_to_obj(s.tower), "depth": s.depth}


def space_from_obj(obj) -> BlockSpace:
    obj = _as_object(obj, "space", {"tower", "depth"})
    return rc.BlockSpace(tower_from_obj(obj["tower"]), obj["depth"])


def operator_to_obj(t: PropagationOperator) -> dict:
    entries = [[r, c, scalar_to_str(v)] for (r, c), v in sorted(t.entries.items())]
    return {"space": space_to_obj(t.space), "entries": entries}


def operator_from_obj(obj) -> PropagationOperator:
    obj = _as_object(obj, "operator", {"space", "entries"})
    space = space_from_obj(obj["space"])
    items = obj["entries"]
    _expect(isinstance(items, list), "entries must be a list")
    return rc.PropagationOperator(space, _entries(items))


def _entries(items: list) -> dict:
    """The entries of an operator file, screened and parsed in whole-list C
    passes; a list that fails a pass is walked, so that the message names
    its first bad entry."""
    from fractions import Fraction  # only operators hold scalars

    if set(map(type, items)) == {list} and set(map(len, items)) == {3}:
        rows, cols, scalars = zip(*items)
        positions = [*zip(rows, cols)]
        if (set(map(type, rows)) | set(map(type, cols)) == {int}
                and len(set(positions)) == len(items) and set(map(type, scalars)) == {str}
                and all(map(_SCALAR_RE.fullmatch, scalars))):
            nums, _, dens = zip(*map(str.partition, scalars, repeat("/")))
            try:
                return dict(zip(positions, map(Fraction, map(int, nums),
                                               map(int, [d or "1" for d in dens]))))
            except ValueError:  # a number over the digit limit
                pass
    entries = {}
    for item in items:
        _expect(isinstance(item, list) and len(item) == 3, "each entry must be [row, col, value]")
        r = _checked_int(item[0], "row")
        c = _checked_int(item[1], "col")
        _expect((r, c) not in entries, f"entry ({r}, {c}) given twice")
        _expect(isinstance(item[2], str) and _SCALAR_RE.fullmatch(item[2]),
                f"entry ({r}, {c}) must be a string like '-3' or '3/4'")
        entries[(r, c)] = _convert(Fraction, item[2], f"entry ({r}, {c})")
    return entries


def blocktuple_to_obj(bt: BlockTuple) -> dict:
    return {
        "space": space_to_obj(bt.space),
        "level": bt.level,
        "blocks": [
            [[r, c, scalar_to_str(v)] for (r, c), v in sorted(blk.items())]
            for blk in bt.blocks
        ],
    }
