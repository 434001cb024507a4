"""The library's immutable values against the frozen dataclasses they replace.

The classes below are the library's 11 value classes as they were written
with ``@dataclass(frozen=True)``: the same fields, defaults, ``InitVar`` and
keyword-only field, and the same ``__post_init__`` bodies.  Each Hypothesis
test builds a class both ways from the same arguments and compares what the
dataclass machinery decided: construction outcome, ``repr``, ``==`` and
``!=`` within a class and across classes, ``hash`` (a ``TypeError`` for a
value with a dict field), refusal of attribute assignment and deletion, and
``copy.copy``, ``copy.deepcopy`` and ``pickle`` round trips.  The library's
refusal is a plain ``AttributeError`` where a dataclass raises its subclass
``FrozenInstanceError``, with the same message.

It also covers ``errors.lazy``, the attribute computed on first read.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
from collections.abc import Sequence
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, islice
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roeclass import blockspace, equivalence, errors, ktheory, roeops, supernatural
from roeclass.blockspace import _scale_tree, _triangle_holds
from roeclass.equivalence import LevelCheck, _checked_runs, _merged, build_back_and_forth
from roeclass.errors import (MalformedInput, PreconditionViolation, _checked_int,
                             _checked_ints, _clip, lazy)
from roeclass.ktheory import _need_infinite
from roeclass.roeops import _coerce_scalar
from roeclass.supernatural import INFINITE, _checked_prime, _checked_ratio, _normal_form

from conftest import set_limit_bits

# -- the oracle: the dataclass definitions, as they were -----------------------------


@dataclass(frozen=True)
class Tower:
    prefix: tuple[int, ...] = ()
    tail: tuple[int, ...] = ()

    def __post_init__(self):
        prefix = tuple(r for r in map(_checked_ratio, self.prefix) if r > 1)
        tail = tuple(r for r in map(_checked_ratio, self.tail) if r > 1)
        if tail:
            prefix, tail = _normal_form(prefix, tail)
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "tail", tail)


@dataclass(frozen=True, eq=True)
class SupernaturalNumber:
    exponents: dict[int, int | float]
    default_exponent: int | float = 0

    def __post_init__(self):
        if self.default_exponent not in (0, INFINITE):
            raise MalformedInput("default exponent must be 0 or INFINITE")
        normalized = {}
        for p, e in sorted(self.exponents.items()):
            _checked_prime(p, MalformedInput, "exponent key ")
            if e != INFINITE:
                _checked_int(e, f"exponent of {_clip(p)}")
            if e == self.default_exponent:
                continue
            if e != INFINITE and e < 1:
                raise MalformedInput(
                    f"exponent of {_clip(p)} must be >= 1 or INFINITE, got {_clip(e)}")
            normalized[p] = e
        object.__setattr__(self, "exponents", normalized)


@dataclass(frozen=True)
class K0Class:
    context: Tower
    prefix: tuple[int, ...]
    period: tuple[int, ...]

    def __post_init__(self):
        prefix = _checked_ints(self.prefix, "sequence entry")
        period = _checked_ints(self.period, "sequence entry")
        _need_infinite(self.context)
        if not period:
            raise MalformedInput("period must be nonempty")
        prefix, period = _normal_form(prefix, period)
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "period", period)


@dataclass(frozen=True)
class FiniteK0:
    rank: int
    unit_rank: int

    def __post_init__(self):
        _checked_int(self.rank, "rank")
        if _checked_int(self.unit_rank, "unit rank") < 1:
            raise MalformedInput("unit rank must be >= 1")


@dataclass(frozen=True)
class Partition:
    blocks: tuple[Sequence[int], ...]
    diameters: tuple[int, ...]


@dataclass(frozen=True)
class BlockSpace:
    tower: Tower
    depth: int

    def __post_init__(self):
        if _checked_int(self.depth, "depth") < 0:
            raise MalformedInput("depth must be an integer >= 0")

    @cached_property
    def size(self) -> int:
        return self.tower.order(self.depth)

    @cached_property
    def _orders(self) -> tuple[int, ...]:
        return tuple(islice(self.tower.levels(), self.depth + 1))


@dataclass(frozen=True)
class FiniteMetricSpace:
    size: int
    distances: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if _checked_int(self.size, "size") < 1:
            raise MalformedInput("size must be an integer >= 1")
        rows = tuple(tuple(row) for row in self.distances)
        if len(rows) != self.size or any(len(r) != self.size for r in rows):
            raise MalformedInput("distance matrix shape does not match size")
        plain = set(map(type, chain.from_iterable(rows))) == {int}
        top = max(map(max, rows)) if plain else -1
        if not (plain and 0 <= min(map(min, rows)) and top < 2**62):
            for row in rows:
                for v in row:
                    if isinstance(v, bool) or not isinstance(v, int) or v < 0:
                        raise MalformedInput(f"distance {_clip(v)} is not a nonnegative integer")
                    if v >= 2**62:
                        raise MalformedInput("distances this large are not supported")
            top = max(map(max, rows))
        if any(row[x] for x, row in enumerate(rows)):
            raise MalformedInput("d(x, x) must be 0")
        if sum(row.count(0) for row in rows) != self.size:
            raise MalformedInput("d(x, y) = 0 requires x = y")
        if rows != tuple(zip(*rows)):
            raise MalformedInput("distance matrix must be symmetric")
        object.__setattr__(self, "distances", rows)
        object.__setattr__(self, "_top", top)
        object.__setattr__(self, "_scales", tuple(_scale_tree(self)))
        wide = any(c[1] > R for R, clusters in self._scales for c in clusters)
        if wide and not _triangle_holds(rows, top):
            raise MalformedInput("triangle inequality fails")


@dataclass(frozen=True)
class TowerBijection:
    source: Tower
    target: Tower
    depth: int
    levels: tuple[tuple[int, int], ...]
    points: InitVar[Sequence[int] | None] = None
    runs: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]] = field(
        default=None, kw_only=True)

    def __post_init__(self, points):
        _checked_int(self.depth, "depth")
        if not all(isinstance(pair, (tuple, list)) and len(pair) == 2 for pair in self.levels):
            raise MalformedInput("each level must be a pair")
        levels = tuple((_checked_int(n, "level"), _checked_int(m, "level")) for n, m in self.levels)
        object.__setattr__(self, "levels", levels)
        if (points is None) == (self.runs is None):
            raise PreconditionViolation("a map is given by its points or by its runs")
        if len(levels) != self.depth:
            raise MalformedInput("levels length must equal depth")
        prev_n, prev_m = 0, 0
        for n, m in levels:
            if n <= prev_n or m <= prev_m:
                raise MalformedInput("level indices must be strictly increasing")
            prev_n, prev_m = n, m
        if points is None:
            starts, _, lengths = runs = _checked_runs(self.runs)
            size = starts[-1] + lengths[-1]
        else:
            points = tuple(points)
            size = len(points)
        n_d, m_d = self.final_levels
        dom = self.source.order(min(n_d, size.bit_length()))
        if dom != size:
            need = f"at least {_clip(dom)}" if dom > size else dom
            raise MalformedInput(f"map must cover the full source truncation ({need} points)")
        if points is not None:
            runs = range(size), _checked_ints(points, "image"), (1,) * size
        starts, images, lengths = runs = _merged(*runs)
        object.__setattr__(self, "runs", runs)
        lo, hi = min(images), max(map(add, images, lengths)) - 1
        if lo < 0 or hi >= self.target.order(min(m_d, hi.bit_length())):
            raise MalformedInput(
                f"image {_clip(lo if lo < 0 else hi)} outside the target truncation")

    @property
    def final_levels(self) -> tuple[int, int]:
        return self.levels[-1] if self.levels else (0, 0)


@dataclass(frozen=True)
class VerificationReport:
    injective: bool
    levels: tuple[LevelCheck, ...]


@dataclass(frozen=True)
class PropagationOperator:
    space: BlockSpace
    entries: dict

    def __post_init__(self):
        n = self.space._ratios
        clean = {}
        for (r, c), v in self.entries.items():
            _checked_int(r, "entry row")
            _checked_int(c, "entry column")
            if r < 0 or c < 0 or (r | c) >> n and not (r < self.space.size > c):
                raise MalformedInput(f"entry ({_clip(r)}, {_clip(c)}) outside the truncation")
            v = _coerce_scalar(v)
            if v:
                clean[(r, c)] = v
        object.__setattr__(self, "entries", clean)


@dataclass(frozen=True)
class BlockTuple:
    space: BlockSpace
    level: int
    blocks: tuple[dict, ...]

    def __post_init__(self):
        k = self.space.order(self.level)
        if len(self.blocks) != self.space.size // k:
            raise MalformedInput("wrong number of blocks for the level")
        for blk in self.blocks:
            for (r, c), v in blk.items():
                if not (0 <= r < k and 0 <= c < k):
                    raise MalformedInput("block entry outside the block")


# the library's class of each oracle class
LIBRARY = {
    Tower: supernatural.Tower, SupernaturalNumber: supernatural.SupernaturalNumber,
    K0Class: ktheory.K0Class, FiniteK0: ktheory.FiniteK0, Partition: blockspace.Partition,
    BlockSpace: blockspace.BlockSpace, FiniteMetricSpace: blockspace.FiniteMetricSpace,
    TowerBijection: equivalence.TowerBijection,
    VerificationReport: equivalence.VerificationReport,
    PropagationOperator: roeops.PropagationOperator, BlockTuple: roeops.BlockTuple,
}

# -- arguments: library values stand in as fields on both sides ----------------------

T = supernatural.Tower
TOWERS = [T((), (2,)), T((2,), (2, 3)), T((3,), (2,)), T((), (2, 2)), T((2, 3), ())]
SPACES = [blockspace.BlockSpace(T((), (2,)), 2), blockspace.BlockSpace(T((3,), (2,)), 1),
          blockspace.BlockSpace(T((2,), ()), 3)]
MAPS = [build_back_and_forth(T((), (2,)), T((), (4,)), 2),
        build_back_and_forth(T((2,), (6,)), T((), (6,)), 1),
        build_back_and_forth(T((), (2, 3)), T((3,), (6,)), 2)]

small = st.integers(-3, 3)
odd = st.sampled_from([True, 1.5, "2", None])


def tuples(elements, **kw):
    return st.lists(elements, **kw).map(tuple)


def call(*args, **kwargs):
    return st.tuples(st.tuples(*args), st.fixed_dictionaries(kwargs))


@st.composite
def symmetric(draw):
    """size and a square matrix, symmetric with a zero diagonal but for a few draws."""
    n = draw(st.integers(1, 4))
    rows = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(x + 1, n):
            rows[x][y] = rows[y][x] = draw(st.integers(1, 4))
    if n > 1 and draw(st.integers(0, 5)) == 0:
        rows[0][n - 1] = draw(st.integers(0, 4) | odd)
    return draw(st.sampled_from([n, n + 1])), tuple(map(tuple, rows))


@st.composite
def bijection_call(draw):
    b = draw(st.sampled_from(MAPS))
    levels = draw(st.just(b.levels) | st.just(b.levels[:-1]) | st.just([list(b.levels[0])]))
    if draw(st.booleans()):
        points = draw(st.permutations(b.mapping))
        if draw(st.booleans()):
            points = points[:-1] + [draw(st.integers(-1, 2 * len(points)))]
        return (b.source, b.target, len(levels), levels, points), {}
    return (b.source, b.target, b.depth, levels), {"runs": b.runs}


@st.composite
def block_tuple_call(draw):
    space = draw(st.sampled_from(SPACES))
    level = draw(st.integers(0, space.depth))
    k = space.order(level)
    count = space.size // k + draw(st.sampled_from([0, 0, 0, 1]))
    cell = st.tuples(st.integers(0, k), st.integers(0, k - 1))
    blocks = tuple(draw(st.dictionaries(cell, small, max_size=2)) for _ in range(count))
    return (space, level, blocks), {}


CALLS = {
    Tower: st.one_of(
        call(), call(tuples(st.integers(0, 6), max_size=3)),
        call(tuples(st.integers(0, 6) | odd, max_size=3), tuples(st.integers(1, 6), max_size=3)),
        st.tuples(st.just(()), st.fixed_dictionaries({"tail": tuples(st.integers(2, 4),
                                                                      max_size=2)}))),
    SupernaturalNumber: st.one_of(
        call(st.dictionaries(st.sampled_from([2, 3, 5]), st.sampled_from([0, 1, 2, INFINITE]))),
        call(st.dictionaries(st.sampled_from([2, 3, 7]), st.sampled_from([0, 1, INFINITE])),
             st.sampled_from([0, INFINITE])),
        call(st.dictionaries(st.sampled_from([2, 4]), st.sampled_from([1, -1])),
             st.sampled_from([0, 1]))),
    K0Class: call(st.sampled_from(TOWERS[:4]), tuples(small, max_size=4),
                  tuples(small, min_size=1, max_size=3))
    | call(st.sampled_from(TOWERS), tuples(small, max_size=4), tuples(small | odd, max_size=3)),
    FiniteK0: call(st.integers(-2, 3), st.integers(0, 3) | odd),
    Partition: call(tuples(st.builds(range, st.integers(0, 4), st.integers(4, 8))
                           | tuples(st.integers(0, 5)) | st.lists(st.integers(0, 5)), max_size=3),
                    tuples(st.integers(0, 3), max_size=3)),
    BlockSpace: call(st.sampled_from(TOWERS), st.integers(-1, 4) | odd),
    FiniteMetricSpace: symmetric().map(lambda args: (args, {})),
    TowerBijection: bijection_call(),
    VerificationReport: call(st.booleans(), tuples(st.builds(
        LevelCheck, st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.booleans(),
        st.booleans(), st.booleans()), max_size=3)),
    PropagationOperator: call(st.sampled_from(SPACES), st.dictionaries(
        st.tuples(st.integers(0, 1), st.integers(0, 1)) | st.tuples(st.integers(-1, 4), small),
        small | st.builds(Fraction, small, st.integers(1, 3)), max_size=3)),
    BlockTuple: block_tuple_call(),
}


def outcome(f, *args, **kwargs):
    """("ok", value) or the exception's type and message."""
    try:
        return "ok", f(*args, **kwargs)
    except Exception as e:  # noqa: BLE001 - the comparison is the point
        return type(e).__name__, str(e)


def both(cls, args, kwargs):
    """The oracle and the library built from one call; both None when it
    fails, after asserting that it fails alike."""
    old, new = outcome(cls, *args, **kwargs), outcome(LIBRARY[cls], *args, **kwargs)
    assert old[0] == new[0] and (old[0] == "ok" or old == new), (old, new)
    return (old[1], new[1]) if old[0] == "ok" else (None, None)


# one value of every class, both ways, for comparisons across classes
ZOO = [both(cls, args, {}) for cls, args in [
    (Tower, ((), (2,))), (SupernaturalNumber, ({2: INFINITE},)),
    (K0Class, (TOWERS[0], (), (1,))), (FiniteK0, (2, 2)),
    (Partition, ((range(0, 2),), (1,))), (BlockSpace, (TOWERS[0], 2)),
    (FiniteMetricSpace, (2, ((0, 1), (1, 0)))), (VerificationReport, (True, ())),
    (PropagationOperator, (SPACES[0], {(0, 0): 1})), (BlockTuple, (SPACES[0], 2, ({},))),
]] + [both(TowerBijection, (MAPS[0].source, MAPS[0].target, MAPS[0].depth, MAPS[0].levels),
           {"runs": MAPS[0].runs})]


class TestAgainstDataclasses:
    @settings(max_examples=100, deadline=None)
    @pytest.mark.parametrize("cls", list(CALLS), ids=lambda c: c.__name__)
    @given(data=st.data())
    def test_same_semantics(self, cls, data):
        args, kwargs = data.draw(CALLS[cls])
        old, new = both(cls, args, kwargs)
        if old is None:
            return
        assert repr(new) == repr(old)
        assert outcome(hash, new) == outcome(hash, old)

        # == and != within the class, against a second call that is often the same
        args2, kwargs2 = data.draw(st.just((args, kwargs)) | CALLS[cls])
        old2, new2 = both(cls, args2, kwargs2)
        if old2 is not None:
            assert (new == new2, new != new2) == (old == old2, old != old2)
            assert new.__eq__(new2) == old.__eq__(old2)
        # and across classes: NotImplemented, so identity decides
        for old3, new3 in ZOO:
            assert (new == new3, new != new3) == (old == old3, old != old3)
            assert (new.__eq__(new3) is NotImplemented) == (old.__eq__(old3) is NotImplemented)
        fields = tuple(getattr(old, f.name) for f in dataclasses.fields(old))
        assert new.__eq__(fields) is NotImplemented is old.__eq__(fields)
        assert new != fields and new != object()

        # no attribute is written or deleted, a field or not
        for name in [f.name for f in dataclasses.fields(old)] + ["_other"]:
            for act in (lambda x: setattr(x, name, 0), lambda x: delattr(x, name)):
                o, n = outcome(act, old), outcome(act, new)
                assert (o[0], n[0]) == ("FrozenInstanceError", "AttributeError")
                assert o[1] == n[1]
        assert repr(new) == repr(old)

        # copies: the same class, equal to the original, the same attributes and still frozen
        for dup in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
            o, n = dup(old), dup(new)
            assert type(n) is type(new) and type(o) is type(old)
            assert repr(n) == repr(o) == repr(old)
            assert (n == new) == (o == old)
            assert vars(n).keys() == vars(o).keys()
            with pytest.raises(AttributeError):
                setattr(n, "_other", 0)

    def test_every_class_is_covered(self):
        assert len(LIBRARY) == len(CALLS) == len(ZOO) == 11
        assert all(old is not None for old, _ in ZOO)
        assert not any(dataclasses.is_dataclass(cls) for cls in LIBRARY.values())

    def test_a_subclass_is_never_equal(self):
        class Sub(supernatural.Tower):
            pass

        class OldSub(Tower):
            pass

        assert Sub((), (2,)) != supernatural.Tower((), (2,)) and Sub((), (2,)) == Sub((), (2,))
        assert OldSub((), (2,)) != Tower((), (2,)) and OldSub((), (2,)) == OldSub((), (2,))
        assert repr(Sub((), (2,))) == f"{Sub.__qualname__}(prefix=(), tail=(2,))"

    def test_signatures(self):
        assert supernatural.Tower() == supernatural.Tower((), ())
        assert supernatural.SupernaturalNumber({2: 1}).default_exponent == 0
        b = MAPS[0]
        with pytest.raises(TypeError):
            equivalence.TowerBijection(b.source, b.target, b.depth, b.levels, None, b.runs)
        with pytest.raises(TypeError):
            ktheory.K0Class(TOWERS[0], ())

    def test_laid_out_k0_classes_equal_checked_ones(self):
        # K0 classes the library lays out itself equal those built by checking
        t = TOWERS[1]
        assert ktheory._k0(t, (1,), (2, 0)) == ktheory.K0Class(t, (1,), (2, 0))
        assert vars(ktheory._k0(t, (1,), (2, 0))) == vars(ktheory.K0Class(t, (1,), (2, 0)))


# -- lazy: computed once, into the instance's __dict__ -----------------------------------


class Counted:
    calls = 0

    @lazy
    def value(self):
        """the doc"""
        Counted.calls += 1
        if Counted.calls == 1:
            raise PreconditionViolation("first read refused")
        return [Counted.calls]


class TestLazy:
    def test_read_once_and_stored(self):
        Counted.calls = 0
        c = Counted()
        with pytest.raises(PreconditionViolation):
            c.value
        assert "value" not in vars(c)
        first = c.value
        assert c.value is first and vars(c)["value"] is first and Counted.calls == 2
        assert Counted.value.__doc__ == "the doc" and isinstance(Counted.value, lazy)

    def test_block_space_attributes(self):
        s = blockspace.BlockSpace(T((2, 3), (2,)), 6)
        assert "size" not in vars(s) and "_orders" not in vars(s)
        assert s.size == 96 and s.distance(3, 17) == 4
        assert vars(s)["size"] == 96 and vars(s)["_orders"] == (1, 2, 6, 12, 24, 48, 96)
        assert s == blockspace.BlockSpace(T((2, 3), (2,)), 6)
        assert repr(s) == "BlockSpace(tower=Tower(prefix=(2, 3), tail=(2,)), depth=6)"

    def test_mapping_past_limit_raises_every_read(self, monkeypatch):
        # one run of 2^3 points, read under a 2^2 limit: refused twice, cached never
        b = build_back_and_forth(T((), (2,)), T((), (4,)), 2)
        assert b.domain_size == 8 and len(b.runs[0]) == 1
        set_limit_bits(monkeypatch, "map points", 2)
        for _ in range(2):
            with pytest.raises(PreconditionViolation, match=r"a map of 8 points is over the 2\^2"):
                b.mapping
            assert "mapping" not in vars(b)
        monkeypatch.undo()
        assert b.mapping == tuple(range(8)) and vars(b)["mapping"] is b.mapping
        assert b.modulus is b.modulus and "modulus" in vars(b)

    def test_library_holds_no_dataclass_or_cached_property(self):
        for module in (blockspace, equivalence, errors, ktheory, roeops, supernatural):
            assert not any(v is dataclass or v is cached_property for v in vars(module).values())
            for value in vars(module).values():
                if isinstance(value, type) and value.__module__ == module.__name__:
                    assert not any(isinstance(v, cached_property) for v in vars(value).values())
