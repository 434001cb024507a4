"""The whole-list readers of map and operator files, and the bulk
conjugation, against the one-value-at-a-time code they replaced.

The references below are that code, kept as it was.  On every drawn input
both sides must give an equal object (and operators the same entry order)
or raise the same exception class with the same message, so that the first
bad entry of a file still names the error.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from roeclass import (
    BlockSpace,
    DepthExhausted,
    MalformedInput,
    PreconditionViolation,
    PropagationOperator,
    Tower,
    TowerBijection,
    build_back_and_forth,
    conjugate_by_bijection,
)
from roeclass.errors import LIMITS, _checked_int, over_limit
from roeclass.serialize import (
    _as_object,
    _convert,
    _expect,
    _parse_uint,
    bijection_from_obj,
    bijection_to_obj,
    operator_from_obj,
    space_from_obj,
    tower_from_obj,
    tower_to_obj,
)

from conftest import _scalar_from_str

# -- the references ----------------------------------------------------------


def reference_bijection_from_obj(obj) -> TowerBijection:
    from itertools import islice
    from operator import eq

    obj = _as_object(obj, "bijection", {"source", "target", "depth", "levels", "map"})
    source = tower_from_obj(obj["source"])
    target = tower_from_obj(obj["target"])
    _expect(isinstance(obj["levels"], list), "levels must be a list")
    flat = obj["map"]
    _expect(isinstance(flat, list), "map must be a flat pair list")
    if len(flat) // 2 > 1 << LIMITS["map points"][0]:
        raise over_limit("map points", len(flat) // 2, "")
    _expect(len(flat) % 2 == 0, "map must be a flat pair list")
    images = flat[1::2]
    sources = islice(flat, 0, None, 2)
    if (set(map(type, images)) == {str} and "".join(images).isascii()
            and all(map(str.isdigit, images)) and all(map(eq, sources, map(str, range(len(images)))))):
        mapping = _convert(tuple, map(int, images), "image point")
    else:
        assignments = {}
        for i in range(0, len(flat), 2):
            x = _parse_uint(flat[i], "source point")
            y = _parse_uint(flat[i + 1], "image point")
            _expect(x not in assignments, f"source point {x} assigned twice")
            assignments[x] = y
        _expect(set(assignments) == set(range(len(assignments))),
                "map sources must cover 0..N-1 exactly")
        mapping = tuple(assignments[x] for x in range(len(assignments)))
    return TowerBijection(source, target, obj["depth"], obj["levels"], mapping)


def reference_operator_from_obj(obj) -> PropagationOperator:
    obj = _as_object(obj, "operator", {"space", "entries"})
    space = space_from_obj(obj["space"])
    _expect(isinstance(obj["entries"], list), "entries must be a list")
    entries = {}
    for item in obj["entries"]:
        _expect(isinstance(item, list) and len(item) == 3, "each entry must be [row, col, value]")
        r = _checked_int(item[0], "row")
        c = _checked_int(item[1], "col")
        _expect((r, c) not in entries, f"entry ({r}, {c}) given twice")
        entries[(r, c)] = Fraction(*_scalar_from_str(item[2], f"entry ({r}, {c})"))
    return PropagationOperator(space, entries)


def reference_conjugate_by_bijection(b: TowerBijection, t: PropagationOperator):
    if t.space.tower != b.source:
        raise PreconditionViolation("operator space does not match the map source")
    entries = {}
    for (r, c), v in t.entries.items():
        if r >= b.domain_size or c >= b.domain_size:
            raise DepthExhausted("operator support escapes the truncated domain")
        key = (b.image(r), b.image(c))
        if key in entries:
            raise PreconditionViolation("map is not injective on the support")
        entries[key] = v
    return PropagationOperator(BlockSpace(b.target, b.final_levels[1]), entries)


def outcome(call, *args):
    """("ok", result) or ("raised", class, message) of call(*args)."""
    try:
        return "ok", call(*args)
    except Exception as e:  # the class and the message are compared
        return "raised", type(e), str(e)


def same(call, reference, *args):
    got, want = outcome(call, *args), outcome(reference, *args)
    assert got == want
    if got[0] == "ok" and isinstance(got[1], PropagationOperator):
        assert list(got[1].entries) == list(want[1].entries)
    return got


SETTINGS = settings(max_examples=300, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
TOWERS = [((), (2,)), ((), (4,)), ((), (2, 3)), ((), (6,)), ((3,), (2,)), ((2,), ())]
# the pairs of equal supernatural numbers bce build interleaves
EQUIVALENT = [((), (2,)), ((), (4,))], [((), (2,)), ((), (2,))], [((), (2, 3)), ((), (6,))]

# -- maps --------------------------------------------------------------------


@st.composite
def identity_maps(draw):
    """The file of the identity on 0..n-1: written by bce build, or with
    any towers, depth and levels, and n near the source order or anywhere,
    so that the bijection's own checks refuse some."""
    if draw(st.booleans()):
        t1, t2 = (Tower(*t) for t in draw(st.sampled_from(EQUIVALENT)))
        return bijection_to_obj(build_back_and_forth(t1, t2, draw(st.integers(0, 4))))
    source, target = draw(st.sampled_from(TOWERS)), draw(st.sampled_from(TOWERS))
    depth = draw(st.integers(0, 2))
    increasing = st.sets(st.integers(1, 4), min_size=depth, max_size=depth).map(sorted)
    levels = [list(pair) for pair in zip(draw(increasing), draw(increasing))]
    dom = Tower(*source).order(levels[-1][0] if levels else 0)
    n = draw(st.sampled_from([dom, dom, dom - 1, dom + 1]) | st.integers(0, 40))
    strings = [str(x) for x in range(n)]
    return {"source": tower_to_obj(Tower(*source)), "target": tower_to_obj(Tower(*target)),
            "depth": depth, "levels": levels,
            "map": [s for x in strings for s in (x, x)]}


SPOILS = ("swapped image", "leading zero", "non-ASCII digit", "bare int", "source out of order")


@st.composite
def spoiled_identity_maps(draw):
    """An identity map with one pair spoiled at a random position."""
    obj = draw(identity_maps())
    flat = obj["map"]
    if not flat:
        return obj
    i = 2 * draw(st.integers(0, len(flat) // 2 - 1))
    spoil = draw(st.sampled_from(SPOILS))
    side = i + draw(st.integers(0, 1))  # the source or the image of the pair
    if spoil == "swapped image":
        j = 2 * draw(st.integers(0, len(flat) // 2 - 1))
        flat[i + 1], flat[j + 1] = flat[j + 1], flat[i + 1]
    elif spoil == "leading zero":
        flat[side] = "0" + flat[side]
    elif spoil == "non-ASCII digit":
        flat[side] = draw(st.sampled_from(["٣", "1٣", "²"]))
    elif spoil == "bare int":
        flat[side] = int(flat[side])
    else:
        j = 2 * draw(st.integers(0, len(flat) // 2 - 1))
        flat[i : i + 2], flat[j : j + 2] = flat[j : j + 2], flat[i : i + 2]
    return obj


class TestMaps:
    @SETTINGS
    @given(identity_maps())
    def test_identity_maps(self, obj):
        same(bijection_from_obj, reference_bijection_from_obj, obj)

    @SETTINGS
    @given(spoiled_identity_maps())
    def test_spoiled_identity_maps(self, obj):
        same(bijection_from_obj, reference_bijection_from_obj, obj)

    def test_identity_is_read_as_one_run(self):
        built = build_back_and_forth(Tower((), (2,)), Tower((), (4,)), 3)
        obj = bijection_to_obj(built)
        b = bijection_from_obj(obj)
        assert b == built and b.runs == ((0,), (0,), (2**5,))
        assert bijection_to_obj(b) == obj

    @SETTINGS
    @given(spoiled_identity_maps())
    def test_write_reads_back(self, obj):
        kind, *b = outcome(bijection_from_obj, obj)
        if kind == "ok":
            assert bijection_from_obj(bijection_to_obj(b[0])) == b[0]

    def test_writing_runs_over_two_to_the_twenty_points_raises(self):
        t2 = Tower((), (2,))
        b = TowerBijection(t2, t2, 1, ((21, 21),), runs=((0,), (0,), (1 << 21,)))
        with pytest.raises(PreconditionViolation, match="^a map of 2097152 points is over "):
            bijection_to_obj(b)


# -- operators ---------------------------------------------------------------

SCALARS = ["1", "-1", "0", "-0", "3/4", "-6/8", "10/5", "007", "12345678901234567890/3"]
BAD_ENTRIES = {
    "shape": ["x", None, [], [0, 0], [0, 0, "1", 0], {"row": 0}],
    "row": [True, "0", 0.0, None, [0]],
    "col": [False, "1", 1.5, None],
    "scalar": [1, 0.5, None, "1.5", "٣", "1/0", "1/-2", " 1", "", "-", "1/2/3",
               "1" * 4301, "1/" + "1" * 4301],
}


@st.composite
def operator_objs(draw):
    """An operator file of 0..40 entries, with 0..2 bad ones at random
    positions: a bad shape, row, column or scalar, or a repeated place."""
    prefix, tail = draw(st.sampled_from(TOWERS[:5]))
    depth = draw(st.integers(0, 4))
    size = Tower(prefix, tail).order(depth)
    places = draw(st.lists(st.tuples(st.integers(0, size + 1), st.integers(0, size + 1)),
                           max_size=40, unique=True))
    entries = [[r, c, draw(st.sampled_from(SCALARS))] for r, c in places]
    for _ in range(draw(st.integers(0, 2))):
        if not entries:
            break
        at = draw(st.integers(0, len(entries) - 1))
        kind = draw(st.sampled_from([*BAD_ENTRIES, "duplicate"]))
        if kind == "duplicate":
            r, c = draw(st.sampled_from(places))
            entries[at] = [r, c, draw(st.sampled_from(SCALARS))]
        elif kind == "shape":
            entries[at] = draw(st.sampled_from(BAD_ENTRIES["shape"]))
        else:
            if not (isinstance(entries[at], list) and len(entries[at]) == 3):
                entries[at] = [0, 0, "1"]
            entries[at] = list(entries[at])
            entries[at][["row", "col", "scalar"].index(kind)] = draw(
                st.sampled_from(BAD_ENTRIES[kind]))
    return {"space": {"tower": tower_to_obj(Tower(prefix, tail)), "depth": depth},
            "entries": entries}


class TestOperators:
    @SETTINGS
    @given(operator_objs())
    def test_matches_reference(self, obj):
        same(operator_from_obj, reference_operator_from_obj, obj)

    def test_late_bad_entry_is_named(self):
        entries = [[x, x, "1/2"] for x in range(2000)]
        entries[1999][2] = "1.5"
        obj = {"space": {"tower": tower_to_obj(Tower((), (2,))), "depth": 11}, "entries": entries}
        assert same(operator_from_obj, reference_operator_from_obj, obj) == (
            "raised", MalformedInput, "entry (1999, 1999) must be a string like '-3' or '3/4'")


# -- conjugation -------------------------------------------------------------


@st.composite
def conjugations(draw):
    """A map, the identity as one run or any points with repeats, and an
    operator on its source whose support may leave the map's domain."""
    t1 = Tower(*draw(st.sampled_from(TOWERS[:5])))
    n = draw(st.integers(1, 3))
    dom = t1.order(n)
    if draw(st.booleans()):
        b = TowerBijection(t1, t1, 1, ((n, n),), runs=((0,), (0,), (dom,)))
    else:
        target = Tower((), (2,))
        m = (dom - 1).bit_length() + draw(st.integers(0, 1))
        images = draw(st.lists(st.integers(0, target.order(m) - 1), min_size=dom, max_size=dom))
        b = TowerBijection(t1, target, 1, ((n, m),), images)
    depth = n + draw(st.integers(0, 1))
    size = t1.order(depth)
    places = draw(st.lists(st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)),
                           max_size=12, unique=True))
    entries = {p: Fraction(draw(st.integers(1, 3)), draw(st.integers(1, 3))) for p in places}
    return b, PropagationOperator(BlockSpace(t1, depth), entries)


class TestConjugate:
    @SETTINGS
    @given(conjugations())
    def test_matches_reference(self, case):
        same(conjugate_by_bijection, reference_conjugate_by_bijection, *case)

    def test_first_entry_decides_between_escape_and_clash(self):
        t2 = Tower((), (2,))
        b = TowerBijection(t2, t2, 1, ((1, 1),), (0, 0))  # both points go to 0
        space = BlockSpace(t2, 2)
        clash_first = PropagationOperator(space, {(0, 0): 1, (1, 1): 1, (3, 3): 1})
        escape_first = PropagationOperator(space, {(0, 0): 1, (3, 3): 1, (1, 1): 1})
        for op, error in ((clash_first, PreconditionViolation), (escape_first, DepthExhausted)):
            got = same(conjugate_by_bijection, reference_conjugate_by_bijection, b, op)
            assert got[1] is error
