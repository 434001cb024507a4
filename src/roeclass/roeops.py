"""Finite-propagation operators on truncated block spaces, exactly.

Operators are sparse matrices with rational entries indexed by the points of
a BlockSpace; propagation is the largest distance on the support.  An
operator of propagation <= n is block diagonal for the level-n intervals, and
grouping consecutive blocks realizes the connecting maps of the inductive
limit, with the (non-normalized) block trace vector tracking K0 data.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import chain, starmap
from math import gcd, lcm

import roeclass as rc

from .blockspace import BlockSpace
from .errors import (
    DepthExhausted,
    Frozen,
    MalformedInput,
    NotBlockDiagonal,
    NotProjection,
    PreconditionViolation,
    UnsupportedEntries,
    _checked_container,
    _checked_int,
    _clip,
)
from .supernatural import _normal_form

Entries = dict[tuple[int, int], Fraction]


def _mat_mul(a: Entries, b: Entries) -> Entries:
    by_row: dict[int, list[tuple[int, Fraction]]] = {}
    for (r, c), v in b.items():
        by_row.setdefault(r, []).append((c, v))
    out: Entries = {}
    for (r, k), u in a.items():
        for c, v in by_row.get(k, ()):
            key = (r, c)
            out[key] = out[key] + u * v if key in out else u * v
    return {key: v for key, v in out.items() if v}


def _mat_add(a: Entries, b: Entries) -> Entries:
    out = dict(a)
    for key, v in b.items():
        out[key] = out[key] + v if key in out else v
    return {key: v for key, v in out.items() if v}


Rows = dict[int, dict[int, int]]


def _rank(rows: Rows) -> int:
    """Rank of a set of integer rows, by fraction-free elimination: each row
    is reduced against the kept rows in the order they were kept, and
    divided by the gcd of its entries after every step, so it stays the
    primitive multiple of a vector of minors."""
    # pivot column -> (order kept, pivot column, reduced row)
    pivots: dict[int, tuple[int, int, dict[int, int]]] = {}
    for x in rows.values():
        while hit := [pivots[c] for c in x if c in pivots]:
            _, c, p = min(hit)
            s, t = p[c], x[c]
            x = {k: s * v for k, v in x.items()}
            for k, v in p.items():
                w = x.get(k, 0) - t * v
                if w:
                    x[k] = w
                else:
                    del x[k]
            g = gcd(*x.values())
            if g > 1:
                x = {k: v // g for k, v in x.items()}
        if x:
            c = next(iter(x))
            pivots[c] = (len(pivots), c, x)
    return len(pivots)


def _projection_rank(a: Entries) -> int | None:
    """rank p of a block p with p*p = p = p*, None for any other block."""
    if all(r == c for r, c in a):
        # a nonzero rational v with v*v = v is 1
        return len(a) if all(v == 1 for v in a.values()) else None
    # p = M/D: integer numerators over one positive denominator
    d = lcm(*(v.denominator for v in a.values()))
    rows: Rows = {}
    for (r, c), v in a.items():
        rows.setdefault(r, {})[c] = v.numerator * (d // v.denominator)
    # p* = p entry by entry
    if any(rows.get(c, {}).get(r) != m for r, row in rows.items() for c, m in row.items()):
        return None
    # A symmetric p has real eigenvalues; tr p = tr p^2 = rank p makes every
    # nonzero one 1 (Cauchy-Schwarz is then an equality), so p is a
    # projection.  tr p^2 is the sum of squared entries, by symmetry.
    trace = sum(row.get(r, 0) for r, row in rows.items())
    squares = sum(m * m for row in rows.values() for m in row.values())
    return trace // d if squares == trace * d and trace == _rank(rows) * d else None


def _not_a_pair(key) -> MalformedInput:
    return MalformedInput(f"key {_clip(key)} is not a (row, column) pair")


def _checked_entries(entries, n: int, size, what="entries", inside="the truncation") -> Entries:
    """An operator's or a block's entries in their one stored form: a new dict
    of the nonzero ones as Fractions under (int, int) tuple keys, each index
    below size() >= 2^n.  size() is read only for an index that reaches 2^n."""
    clean: Entries = {}
    for key, v in _checked_container(entries, what, (dict,)).items():
        try:
            r, c = key
        except (TypeError, ValueError):
            raise _not_a_pair(key) from None
        if type(r) is not int or type(c) is not int or type(key) is not tuple:
            if not isinstance(key, tuple):  # a set or range unpacks in iteration order
                raise _not_a_pair(key)
            key = (_checked_int(r, "entry row"), _checked_int(c, "entry column"))
        if r < 0 or c < 0 or (r | c) >> n and not (r < size() > c):
            raise MalformedInput(f"entry ({_clip(r)}, {_clip(c)}) outside {inside}")
        if type(v) is not Fraction:
            if type(v) is not int and not isinstance(v, Fraction):
                _checked_int(v, "an entry that is not a Fraction")
            v = Fraction(v)
        if v:
            clean[key] = v
    return clean


class PropagationOperator(Frozen):
    """Sparse exact-rational matrix over the points of a block space."""

    _fields = ("space", "entries")

    def __init__(self, space: BlockSpace, entries: Entries):
        self.__post_init__(space, entries)  # bench/spans.py times it

    def __post_init__(self, space, entries):
        # size >= 2^n for the n ratios (each >= 2) among the first depth
        entries = _checked_entries(entries, space._ratios, lambda: space.size)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "entries", entries)

    @classmethod
    def zero(cls, space: BlockSpace) -> "PropagationOperator":
        return cls(space, {})

    @classmethod
    def identity(cls, space: BlockSpace) -> "PropagationOperator":
        # the "blocks of a split" limit at level 0, whose blocks are the points
        points = range(space._blocks(0)[1])
        return cls._of(space=space, entries={(x, x): Fraction(1) for x in points})

    @classmethod
    def matrix_unit(cls, space: BlockSpace, x: int, y: int, value=1) -> "PropagationOperator":
        return cls(space, {(x, y): value})


def _same_space(a: PropagationOperator, b: PropagationOperator) -> BlockSpace:
    if a.space != b.space:
        raise PreconditionViolation("operators live on different spaces")
    return a.space


def propagation(t: PropagationOperator) -> int:
    return max(starmap(t.space.distance, t.entries), default=0)


def compose(a: PropagationOperator, b: PropagationOperator) -> PropagationOperator:
    return PropagationOperator._of(space=_same_space(a, b), entries=_mat_mul(a.entries, b.entries))


def add(a: PropagationOperator, b: PropagationOperator) -> PropagationOperator:
    return PropagationOperator._of(space=_same_space(a, b), entries=_mat_add(a.entries, b.entries))


def adjoint(a: PropagationOperator) -> PropagationOperator:
    # rational scalars: the adjoint is the transpose
    return PropagationOperator._of(space=a.space,
                                   entries={(c, r): v for (r, c), v in a.entries.items()})


class BlockTuple(Frozen):
    """Level-n block decomposition: k_depth/k_n square blocks of size k_n, stored as entries are."""

    _fields = ("space", "level", "blocks")

    def __init__(self, space: BlockSpace, level: int, blocks: tuple[Entries, ...]):
        k, count = space._blocks(level)
        if len(_checked_container(blocks, "blocks")) != count:
            raise MalformedInput("wrong number of blocks for the level")
        blocks = tuple(_checked_entries(blk, k.bit_length() - 1, lambda: k, "block", "the block")
                       for blk in blocks)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "blocks", blocks)

    @property
    def block_size(self) -> int:
        return self.space.order(self.level)


def block_decompose(t: PropagationOperator, n: int) -> BlockTuple:
    """Split into level-n diagonal blocks; propagation above n is an error,
    and so is a split past the "blocks of a split" limit."""
    k, count = t.space._blocks(n)
    blocks: list[Entries] = [{} for _ in range(count)]
    for (r, c), v in t.entries.items():
        if r // k != c // k:
            # the distance, above n, bisected over the closed-form orders
            # of levels n + 1..depth: no order below n is formed
            order = t.space.tower.order
            at = n + 1 + bisect_left(range(n + 1, t.space.depth), True,
                                     key=lambda m: r // (k_m := order(m)) == c // k_m)
            raise NotBlockDiagonal(f"entry ({_clip(r)}, {_clip(c)}) at distance "
                                   f"{at} crosses level-{_clip(n)} blocks")
        i = r // k
        blocks[i][(r - i * k, c - i * k)] = v
    return BlockTuple._of(space=t.space, level=n, blocks=tuple(blocks))


def _regroup(bt: BlockTuple, m: int) -> tuple[Entries, ...]:
    """Group consecutive level-n blocks into level-m diagonal blocks (m >= n)."""
    k = bt.block_size
    r = bt.space.tower.order(m) // k  # m >= the level, which is judged already
    grouped: list[Entries] = []
    for i in range(0, len(bt.blocks), r):
        blk: Entries = {}
        for j, part in enumerate(bt.blocks[i : i + r]):
            off = j * k
            for (row, c), v in part.items():
                blk[(off + row, off + c)] = v
        grouped.append(blk)
    return tuple(grouped)


def recompose(bt: BlockTuple) -> PropagationOperator:
    """Operator of a block tuple: at the top level one block is the whole truncation."""
    return PropagationOperator._of(space=bt.space, entries=_regroup(bt, bt.space.depth)[0])


def connecting_map(bt: BlockTuple) -> BlockTuple:
    """Group consecutive level-n blocks into level-(n+1) diagonal blocks."""
    bt.space._blocks(bt.level + 1)  # the level's range and limits, as BlockTuple(...) judges them
    return BlockTuple._of(space=bt.space, level=bt.level + 1, blocks=_regroup(bt, bt.level + 1))


def trace_vector(bt: BlockTuple, require_projection: bool = False) -> tuple:
    """Non-normalized block traces; for projections, the ranks that the
    projection test finds, one pass per block."""
    out = []
    if require_projection:
        for blk in bt.blocks:
            if (rank := _projection_rank(blk)) is None:
                raise NotProjection("block fails p*p = p = p*")
            out.append(rank)
        return tuple(out)
    for blk in bt.blocks:
        diag = [v for (r, c), v in blk.items() if r == c]
        if all(v.denominator == 1 for v in diag):
            out.append(sum(v.numerator for v in diag))
        else:
            tr = sum(diag, Fraction(0))
            out.append(int(tr) if tr.denominator == 1 else tr)
    return tuple(out)


def mvn_partial_isometry(p: BlockTuple, q: BlockTuple) -> BlockTuple | None:
    """Partial isometry v with v*v = p and vv* = q, for diagonal 0/1
    projections of equal trace vector; None when the traces differ."""
    if p.space != q.space or p.level != q.level:
        raise PreconditionViolation("projections must share a space and level")
    if None in map(_projection_rank, p.blocks + q.blocks):
        raise NotProjection("block fails p*p = p = p*")
    # a diagonal projection holds only 1s, so its support is its keys
    blocks = []
    for pb, qb in zip(p.blocks, q.blocks):
        if any(r != c for r, c in chain(pb, qb)):
            raise UnsupportedEntries("only projections diagonal in the standard basis are supported")
        if len(pb) != len(qb):
            return None
        blocks.append({(y, x): Fraction(1) for (x, _), (y, _) in zip(sorted(pb), sorted(qb))})
    return BlockTuple._of(space=p.space, level=p.level, blocks=tuple(blocks))


def conjugate_by_bijection(b: TowerBijection, t: PropagationOperator) -> PropagationOperator:
    """Relocate entries along the bijection: (x1, x2) -> (f(x1), f(x2)).  The
    first entry, in order, that escapes the domain (exit 3) or lands on an
    earlier entry's place (exit 4) decides the error."""
    if t.space.tower != b.source:
        raise PreconditionViolation("operator space does not match the map source")
    size, image = b.domain_size, b.image
    entries: Entries = {}
    for (r, c), v in t.entries.items():
        if r >= size or c >= size:
            raise DepthExhausted("operator support escapes the truncated domain")
        key = (image(r), image(c))
        if key in entries:
            raise PreconditionViolation("map is not injective on the support")
        entries[key] = v
    m_d = b.final_levels[1]
    return PropagationOperator(BlockSpace(b.target, m_d), entries)


def k0_class_of_projection(bt: BlockTuple) -> K0Class:
    """Finitely supported K0 class of a level-n projection: each block
    contributes (rank, 0, ..., 0).  The ranks past the last nonzero one are
    dropped before the layout, so its limit judges the blocks up to there.
    It reads ktheory off the package root, so no roe command loads it."""
    ranks = trace_vector(bt, require_projection=True)
    return rc.ktheory._spread(bt.space.tower, *_normal_form(ranks, (0,)), bt.block_size)
