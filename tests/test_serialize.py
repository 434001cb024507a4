"""JSON round-trips and canonical formatting."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from roeclass import (
    BlockSpace,
    K0Class,
    MalformedInput,
    RoeclassError,
    SupernaturalNumber,
    Tower,
    TowerBijection,
    build_back_and_forth,
    supernatural_of_tower,
)
from roeclass import serialize
from roeclass.serialize import (
    bijection_from_obj,
    bijection_to_obj,
    canonical_json,
    k0_from_obj,
    k0_to_obj,
    load_json,
    metric_space_from_obj,
    metric_space_to_obj,
    operator_from_obj,
    operator_to_obj,
    sn_from_obj,
    sn_to_obj,
    space_from_obj,
    space_to_obj,
    tower_from_obj,
    tower_to_obj,
)
from roeclass.roeops import PropagationOperator

from conftest import towers


class TestTower:
    def test_format(self):
        assert tower_to_obj(Tower((2, 3), (5,))) == {"prefix": ["2", "3"], "tail": ["5"]}

    def test_big_integers_survive(self):
        big = 10**30 + 7
        t = Tower((big,), (2,))
        assert tower_from_obj(tower_to_obj(t)) == t

    @given(towers())
    def test_round_trip(self, t):
        assert tower_from_obj(tower_to_obj(t)) == t

    def test_rejects_bare_int(self):
        with pytest.raises(MalformedInput):
            tower_from_obj({"prefix": [2], "tail": []})

    def test_rejects_extra_keys(self):
        with pytest.raises(MalformedInput):
            tower_from_obj({"prefix": [], "tail": [], "depth": 1})

    def test_rejects_bad_ratio(self):
        with pytest.raises(MalformedInput):
            tower_from_obj({"prefix": ["0"], "tail": []})

    @pytest.mark.parametrize("ratio", ["²", "٣", "1٣", "３"])
    def test_rejects_non_ascii_digits(self, ratio):
        # str.isdigit accepts each of these; "²" then made int() raise
        with pytest.raises(MalformedInput):
            tower_from_obj({"prefix": [], "tail": [ratio]})


class TestSupernatural:
    def test_format(self):
        s = supernatural_of_tower(Tower((3,), (2,)))
        assert sn_to_obj(s) == {"exponents": {"2": "inf", "3": "1"}, "default": "0"}

    @given(towers())
    def test_round_trip(self, t):
        s = supernatural_of_tower(t)
        assert sn_from_obj(sn_to_obj(s)) == s

    def test_infinite_default(self):
        s = SupernaturalNumber({}, float("inf"))
        assert sn_to_obj(s) == {"exponents": {}, "default": "inf"}
        assert sn_from_obj(sn_to_obj(s)) == s

    def test_rejects_composite_key(self):
        with pytest.raises(MalformedInput):
            sn_from_obj({"exponents": {"4": "1"}, "default": "0"})

    def test_rejects_non_ascii_digits(self):
        with pytest.raises(MalformedInput):
            sn_from_obj({"exponents": {"٣": "1"}, "default": "0"})
        with pytest.raises(MalformedInput):
            sn_from_obj({"exponents": {"3": "²"}, "default": "0"})


class TestMetricSpace:
    def test_bare_int_format(self):
        m = BlockSpace(Tower((), (2,)), 1).to_metric_space()
        assert metric_space_to_obj(m) == {"size": 2, "distances": [[0, 1], [1, 0]]}

    def test_round_trip(self):
        m = BlockSpace(Tower((2,), (3,)), 2).to_metric_space()
        assert metric_space_from_obj(metric_space_to_obj(m)) == m

    def test_rejects_string_distances(self):
        with pytest.raises(MalformedInput):
            metric_space_from_obj({"size": 1, "distances": [["0"]]})

    def test_rejects_invalid_metric(self):
        with pytest.raises(MalformedInput):
            metric_space_from_obj({"size": 2, "distances": [[0, 1], [2, 0]]})

    @pytest.mark.parametrize("obj", [
        {"size": True, "distances": [[0]]},
        {"size": 2, "distances": [[0, True], [True, 0]]},
        {"size": 1, "distances": [[0.0]]},
        {"size": 1, "distances": ["0"]},
    ])
    def test_rejects_non_integers(self, obj):
        with pytest.raises(MalformedInput):
            metric_space_from_obj(obj)


class TestK0:
    def test_format(self):
        a = K0Class(Tower((), (2,)), (1,), (0, 2))
        obj = k0_to_obj(a)
        assert obj["prefix"] == [1] and obj["period"] == [0, 2]

    @given(towers(allow_finite=False),
           st.lists(st.integers(-5, 5), max_size=4),
           st.lists(st.integers(-5, 5), min_size=1, max_size=4))
    def test_round_trip(self, t, prefix, period):
        a = K0Class(t, tuple(prefix), tuple(period))
        assert k0_from_obj(k0_to_obj(a)) == a

    def test_rejects_empty_period(self):
        with pytest.raises(MalformedInput):
            k0_from_obj({"context": {"prefix": [], "tail": ["2"]},
                         "prefix": [], "period": []})

    @pytest.mark.parametrize("entry", [True, "1", 1.5, None])
    def test_rejects_non_integer_entry(self, entry):
        with pytest.raises(MalformedInput):
            k0_from_obj({"context": {"prefix": [], "tail": ["2"]},
                         "prefix": [entry], "period": [1]})

    def test_bad_entry_is_malformed_before_finite_context(self):
        with pytest.raises(MalformedInput):
            k0_from_obj({"context": {"prefix": ["6"], "tail": []},
                         "prefix": [True], "period": [1]})


def bijection_from_obj_reference(obj):
    """Oracle: bijection_from_obj as it was before the canonical-map screen,
    one walk over the pairs that names the first bad one."""
    obj = serialize._as_object(obj, "bijection", {"source", "target", "depth", "levels", "map"})
    source = tower_from_obj(obj["source"])
    target = tower_from_obj(obj["target"])
    serialize._expect(isinstance(obj["levels"], list), "levels must be a list")
    flat = obj["map"]
    serialize._expect(isinstance(flat, list) and len(flat) % 2 == 0,
                      "map must be a flat pair list")
    assignments = {}
    for i in range(0, len(flat), 2):
        x = serialize._parse_uint(flat[i], "source point")
        y = serialize._parse_uint(flat[i + 1], "image point")
        serialize._expect(x not in assignments, f"source point {x} assigned twice")
        assignments[x] = y
    serialize._expect(set(assignments) == set(range(len(assignments))),
                      "map sources must cover 0..N-1 exactly")
    mapping = tuple(assignments[x] for x in range(len(assignments)))
    return TowerBijection(source, target, obj["depth"], obj["levels"], mapping)


def outcome(f, *args):
    """f(*args), or the type and message of what it raised."""
    try:
        return f(*args)
    except RoeclassError as e:
        return type(e), str(e)


class Digits(str):
    """A str subclass, which the canonical screen leaves to the pair walk."""


# entries that spoil a flat list, each malformed or merely non-canonical
FLAT_SPOILERS = ["9", "007", "00", "", "-1", " 1", "+1", "1_0", "²", "٣", "３", "1" * 4301,
                 "0" * 4300 + "1", 7, True, None, 1.5, [], Digits("1")]


@st.composite
def flat_maps(draw):
    """Bijection files over two (2,)-towers at depth 2: a canonical flat list
    with random images (repeats and straddles among them), spoiled by up to
    three edits: an entry replaced, two pairs swapped, a pair repeated, an
    entry dropped or the list emptied."""
    t = Tower((), (2,))
    obj = bijection_to_obj(build_back_and_forth(t, t, 2))
    flat = obj["map"]
    for x in range(len(flat) // 2):  # images anywhere in the target, repeats too
        flat[2 * x + 1] = str(draw(st.integers(0, 3)))
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["replace"] * 4 + ["swap"] * 2 + ["repeat", "drop", "empty"]))
        i = draw(st.integers(0, max(len(flat) - 1, 0)))
        if edit == "replace" and flat:
            flat[i] = draw(st.sampled_from(FLAT_SPOILERS))
        elif edit == "swap" and len(flat) >= 4:
            j = draw(st.integers(0, len(flat) // 2 - 1))
            p = i // 2
            flat[2 * p : 2 * p + 2], flat[2 * j : 2 * j + 2] = (
                flat[2 * j : 2 * j + 2], flat[2 * p : 2 * p + 2])
        elif edit == "repeat":
            k = i - i % 2
            flat[k:k] = flat[k : k + 2]
        elif edit == "drop" and flat:
            del flat[i]
        elif edit == "empty":
            flat.clear()
    return obj


class TestBijection:
    @settings(max_examples=400)
    @given(flat_maps())
    @example({**bijection_to_obj(build_back_and_forth(Tower((), (2,)), Tower((), (4,)), 1)),
              "map": ["0", "0", "1", "1" * 4301]})  # over the limit, canonical sources
    @example({**bijection_to_obj(build_back_and_forth(Tower((), (2,)), Tower((), (4,)), 1)),
              "map": ["0", "1" * 4301, "01", "1"]})
    def test_agrees_with_pair_walk(self, obj):
        assert outcome(bijection_from_obj, obj) == outcome(bijection_from_obj_reference, obj)

    def test_flat_pair_format(self):
        b = build_back_and_forth(Tower((), (2,)), Tower((), (4,)), 1)
        obj = bijection_to_obj(b)
        assert obj["map"] == ["0", "0", "1", "1"]
        assert obj["levels"] == [[1, 1]]

    def test_round_trip(self):
        b = build_back_and_forth(Tower((), (2,)), Tower((), (4,)), 2)
        assert bijection_from_obj(bijection_to_obj(b)) == b

    def test_out_of_order_pairs_accepted(self):
        b = build_back_and_forth(Tower((), (2,)), Tower((), (2,)), 1)
        obj = bijection_to_obj(b)
        obj["map"] = ["1", "1", "0", "0"]
        assert bijection_from_obj(obj) == b

    def test_rejects_duplicate_source(self):
        b = build_back_and_forth(Tower((), (2,)), Tower((), (2,)), 1)
        obj = bijection_to_obj(b)
        obj["map"] = ["0", "0", "0", "1"]
        with pytest.raises(MalformedInput):
            bijection_from_obj(obj)

    def test_rejects_gap_in_sources(self):
        b = build_back_and_forth(Tower((), (2,)), Tower((), (2,)), 1)
        obj = bijection_to_obj(b)
        obj["map"] = ["0", "0", "2", "1"]
        with pytest.raises(MalformedInput):
            bijection_from_obj(obj)

    @pytest.mark.parametrize("i", [0, 1])
    def test_rejects_non_ascii_digit_point(self, i):
        b = build_back_and_forth(Tower((), (2,)), Tower((), (2,)), 1)
        obj = bijection_to_obj(b)
        obj["map"][i] = "٠"
        with pytest.raises(MalformedInput):
            bijection_from_obj(obj)


class TestOperator:
    def test_format_and_round_trip(self):
        s = BlockSpace(Tower((), (2,)), 2)
        op = PropagationOperator(s, {(1, 2): Fraction(-3, 4), (0, 0): Fraction(5)})
        obj = operator_to_obj(op)
        assert obj["entries"] == [[0, 0, "5"], [1, 2, "-3/4"]]
        assert operator_from_obj(obj) == op

    def test_space_round_trip(self):
        s = BlockSpace(Tower((3,), (2,)), 3)
        assert space_from_obj(space_to_obj(s)) == s

    def test_rejects_duplicate_entry(self):
        s = BlockSpace(Tower((), (2,)), 1)
        obj = {"space": space_to_obj(s), "entries": [[0, 0, "1"], [0, 0, "2"]]}
        with pytest.raises(MalformedInput):
            operator_from_obj(obj)

    def test_rejects_float_scalar(self):
        s = BlockSpace(Tower((), (2,)), 1)
        obj = {"space": space_to_obj(s), "entries": [[0, 0, "0.5"]]}
        with pytest.raises(MalformedInput):
            operator_from_obj(obj)

    def test_rejects_out_of_range(self):
        s = BlockSpace(Tower((), (2,)), 1)
        obj = {"space": space_to_obj(s), "entries": [[0, 9, "1"]]}
        with pytest.raises(MalformedInput):
            operator_from_obj(obj)

    @pytest.mark.parametrize("scalar", ["٣", "1/٣", "-²"])
    def test_rejects_non_ascii_digit_scalar(self, scalar):
        s = BlockSpace(Tower((), (2,)), 1)
        obj = {"space": space_to_obj(s), "entries": [[0, 0, scalar]]}
        with pytest.raises(MalformedInput):
            operator_from_obj(obj)

    @pytest.mark.parametrize("depth", [True, -1, "1", 1.0])
    def test_rejects_bad_depth(self, depth):
        with pytest.raises(MalformedInput):
            space_from_obj({"tower": {"prefix": [], "tail": ["2"]}, "depth": depth})


class TestCanonicalJson:
    def test_sorted_compact(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    def test_load_rejects_garbage(self):
        with pytest.raises(MalformedInput):
            load_json("{not json")

    def test_load_rejects_deep_nesting(self):
        # json raises RecursionError here, not JSONDecodeError
        with pytest.raises(MalformedInput):
            load_json("[" * 100_000 + "]" * 100_000)

    @given(towers())
    def test_emit_parse_emit_stable(self, t):
        text = canonical_json(tower_to_obj(t))
        again = canonical_json(tower_to_obj(tower_from_obj(load_json(text))))
        assert text == again
