"""Canonical ultrametric block model and finite metric spaces of asymptotic
dimension zero.

A tower truncated at depth N gives the point set {0, ..., k_N - 1} with
d(x, y) = min{n >= 0 : floor(x/k_n) == floor(y/k_n)}; the n-components are the
consecutive intervals of length k_n.  Arbitrary finite integer metric spaces
are supported alongside: one minimum spanning tree gives their R-components
at every scale R, certifies those that are ultrametrics, and lays any such
space out in the nonnegative integers so that components are preserved at
every scale.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from itertools import chain, groupby, islice
from operator import itemgetter

from .errors import (LIMITS, Frozen, MalformedInput, PreconditionViolation, _checked_int, _clip,
                     lazy, over_limit)
from .supernatural import Tower


class Partition(Frozen):
    """Disjoint blocks covering a space, ordered by least element, each
    annotated with its diameter and cardinality.  The blocks of a
    BlockSpace are ranges, so a block costs nothing per point."""

    _fields = ("blocks", "diameters")

    def __init__(self, blocks: tuple[Sequence[int], ...], diameters: tuple[int, ...]):
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "diameters", diameters)

    @property
    def cardinalities(self) -> tuple[int, ...]:
        # len() of a range over 2^63 points overflows
        return tuple(b.stop - b.start if type(b) is range else len(b) for b in self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)


def _order_bits(t: Tower, n: int) -> int:
    """floor(log2 k_n) or less, from the ratios alone: each ratio r among the
    first n adds at least r.bit_length() - 1 bits (prefix, whole tail periods, rest)."""
    whole, rest = divmod(max(n - len(t.prefix), 0), len(t.tail)) if t.tail else (0, 0)
    low = [r.bit_length() - 1 for r in t.tail]
    return sum(r.bit_length() - 1 for r in t.prefix[:n]) + whole * sum(low) + sum(low[:rest])


class BlockSpace(Frozen):
    """Truncation {0, ..., k_depth - 1} of the canonical tower model."""

    _fields = ("tower", "depth")

    def __init__(self, tower: Tower, depth: int):
        if _checked_int(depth, "depth") < 0:
            raise MalformedInput("depth must be an integer >= 0")
        object.__setattr__(self, "tower", tower)
        object.__setattr__(self, "depth", depth)

    @lazy
    def size(self) -> int:
        return self.tower.order(self.depth)

    _orders = (1,)  # k_0, k_1, ... as far as _orders_past has been asked

    def _orders_past(self, top: int) -> tuple[int, ...]:
        """The orders up to the first above top, the square of the last known
        and 2^64, or to the depth (a finite tower's stop at saturation): a
        longer tuple is bound, none mutated, O(log depth) times at most."""
        orders = self._orders
        if orders[-1] <= top:
            goal, more = max(top, orders[-1] ** 2, 1 << 64), []
            for k in islice(self.tower.levels(), len(orders), self.depth + 1):
                more.append(k)
                if k > goal:
                    break
            orders += tuple(more)
            object.__setattr__(self, "_orders", orders)  # past the frozen __setattr__
        return orders

    def order(self, n: int) -> int:
        """k_n, refused past the "block order" limit before it is formed."""
        if not 0 <= _checked_int(n, "level") <= self.depth:
            raise PreconditionViolation(f"level {_clip(n)} outside 0..{_clip(self.depth)}")
        if _order_bits(self.tower, n) > 1 << LIMITS["block order"][0]:
            raise over_limit("block order", n)
        return self.tower.order(n)

    @property
    def _ratios(self) -> int:
        """Ratios among the first depth levels; each is at least 2."""
        return self.depth if self.tower.tail else min(self.depth, len(self.tower.prefix))

    def _blocks(self, n: int) -> tuple[int, int]:
        """(k_n, number of level-n blocks), refused past the "blocks of a split"
        limit without reading size when the ratios above n already pass it."""
        k = self.order(n)
        bits = LIMITS["blocks of a split"][0]
        if self._ratios - n > bits or self.size // k > 1 << bits:
            raise over_limit("blocks of a split", n)
        return k, self.size // k

    def distance(self, x: int, y: int) -> int:
        """Least level whose blocks contain both points.

        Each order divides the next, so "same block" is false and then true
        as the level grows.  It holds from the first level with k_n >
        max(x, y), and most pairs part at the level just below, which one
        comparison tests first.  Otherwise it also needs k_n > |x - y|, and
        only the levels from there up to that one are bisected.  Orders are
        formed about as far as max(x, y).
        """
        orders = self._orders
        size = orders[-1]
        if not (isinstance(x, int) and isinstance(y, int) and 0 <= x < size and 0 <= y < size):
            for p in (x, y):  # size is read only to refuse a point, and named
                # by its level where the "block order" row would refuse to form it
                if not (isinstance(p, int) and 0 <= p < self._orders_past(p)[-1]):
                    deep = _order_bits(self.tower, self.depth) > 1 << LIMITS["block order"][0]
                    top = f"k_{_clip(self.depth)} - 1" if deep else _clip(self.size - 1)
                    raise PreconditionViolation(f"point {_clip(p)} outside 0..{top}")
            orders = self._orders
        hi = bisect_right(orders, x if x > y else y) - 1  # level hi + 1 holds both
        if hi < 0 or x // orders[hi] != y // orders[hi]:  # hi < 0: x = y = 0
            return hi + 1
        lo = bisect_right(orders, x - y if x > y else y - x, 0, hi)
        while lo < hi:
            mid = (lo + hi) // 2
            k = orders[mid]
            if x // k == y // k:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def metric_matrix(self) -> list[list[int]]:
        """size^2 distances, refused past the "metric matrix" limit before
        allocating, without reading size when the ratios already pass it."""
        bits = LIMITS["metric matrix"][0]
        if self._ratios > bits // 2 or self.size ** 2 > 1 << bits:
            raise over_limit("metric matrix")
        # row x holds n on its level-n block outside its level-(n-1) block:
        # one slice per level, from the whole row down to x's own entry
        orders = self._orders_past(self.size - 1)
        fills = [[n] * k for n, k in enumerate(orders)]
        rows = [fills[-1][:] for _ in range(self.size)]
        for x, row in enumerate(rows):
            for k, fill in zip(orders[-2::-1], fills[-2::-1]):
                row[x // k * k:x // k * k + k] = fill
        return rows

    def to_metric_space(self) -> "FiniteMetricSpace":
        return FiniteMetricSpace(self.size, tuple(map(tuple, self.metric_matrix())))


def components(s: BlockSpace, n: int) -> Partition:
    """Level-n components: k_depth/k_n consecutive intervals of length k_n.
    A block's diameter is the least level of order k_n: each ratio raises it."""
    k, count = s._blocks(n)
    blocks = tuple(range(j * k, (j + 1) * k) for j in range(count))
    return Partition(blocks, (min(n, s._ratios),) * count)


class FiniteMetricSpace(Frozen):
    """Finite metric space with integer distances, given by full matrix.

    Construction checks the entries, the zero diagonal, that no other entry
    is 0 and symmetry, then builds the scale tree once (``_scale_tree``,
    O(n^2)).  The tree certifies the triangle inequality of an ultrametric:
    d is one, and so a metric, exactly when no cluster of any state is wider
    than that state's R.  Only a matrix that fails the certificate pays for
    the O(n^3) min-plus square in NumPy.
    """

    _fields = ("size", "distances")

    def __init__(self, size: int, distances: tuple[tuple[int, ...], ...]):
        self.__post_init__(size, distances)  # bench/spans.py times it

    def __post_init__(self, size, distances):
        if _checked_int(size, "size") < 1:
            raise MalformedInput("size must be an integer >= 1")
        rows = tuple(tuple(row) for row in distances)
        if len(rows) != size or any(len(r) != size for r in rows):
            raise MalformedInput("distance matrix shape does not match size")
        # screen all entries at C speed; walk them only to name the first bad one
        plain = set(map(type, chain.from_iterable(rows))) == {int}
        top = max(map(max, rows)) if plain else -1
        if not (plain and 0 <= min(map(min, rows)) and top < 2**62):
            for row in rows:
                for v in row:
                    if isinstance(v, bool) or not isinstance(v, int) or v < 0:
                        raise MalformedInput(f"distance {_clip(v)} is not a nonnegative integer")
                    if v >= 2**62:
                        raise MalformedInput("distances this large are not supported")
            top = max(map(max, rows))  # only int subclasses get here
        if any(row[x] for x, row in enumerate(rows)):
            raise MalformedInput("d(x, x) must be 0")
        if sum(row.count(0) for row in rows) != size:
            raise MalformedInput("d(x, y) = 0 requires x = y")
        if rows != tuple(zip(*rows)):
            raise MalformedInput("distance matrix must be symmetric")
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "distances", rows)
        object.__setattr__(self, "_top", top)
        object.__setattr__(self, "_scales", tuple(_scale_tree(self)))
        wide = any(c[1] > R for R, clusters in self._scales for c in clusters)
        if wide and not _triangle_holds(rows, top):
            raise MalformedInput("triangle inequality fails")

    def distance(self, x: int, y: int) -> int:
        return self.distances[x][y]

    @property
    def max_distance(self) -> int:
        return self._top


def _triangle_holds(rows: tuple[tuple[int, ...], ...], top: int) -> bool:
    """Whether a symmetric matrix with a zero diagonal and largest entry top
    is its own min-plus square, which is the triangle inequality: O(n^3), in
    the narrowest unsigned NumPy type that holds a sum of two entries."""
    import numpy as np

    d = np.array(rows, dtype=np.min_scalar_type(2 * top))
    square, through_k = d[:, 0, None] + d[0], np.empty_like(d)
    for k in range(1, len(rows)):
        np.minimum(square, np.add(d[:, k, None], d[k], out=through_k), out=square)
    return np.array_equal(square, d)


def _scale_tree(m: FiniteMetricSpace):
    """Single-linkage clusters of m, as (R, clusters) for R = 0 and for each
    scale R at which clusters merge, in increasing order.

    Cutting a minimum spanning tree above R leaves exactly the R-components
    (Gower & Ross 1969), so one Prim pass and one walk over its edges by
    length give every scale.  ``clusters`` is ordered by least point; each is
    (points ascending, diameter, images), where images lays the clusters
    merged at R out from the least point on, a gap of exactly R apart.

    It costs O(n^2): Prim reads each entry once, and the walk reads each
    pair once, when its clusters merge.  It is FiniteMetricSpace's
    certificate: two points first share a cluster at the scale R where
    their clusters merge, and d(x, y) >= R always holds, since a shorter
    distance would have joined them below R.  So no cluster of any state is
    wider than its R exactly when d(x, y) is that R for every pair, that is,
    when d is an ultrametric.
    """
    d, n = m.distances, m.size
    best, link, rest, edges = list(d[0]), [0] * n, list(range(1, n)), []
    while rest:  # Prim, O(n^2)
        y = min(rest, key=best.__getitem__)
        rest.remove(y)
        edges.append((best[y], link[y], y))
        row = d[y]
        for z in rest:
            if row[z] < best[z]:
                best[z], link[z] = row[z], y
    edges.sort()
    key = list(range(n))  # point -> least point of its cluster
    clusters = {x: ((x,), 0, {x: 0}) for x in range(n)}
    yield 0, tuple(clusters.values())
    for R, group in groupby(edges, key=itemgetter(0)):
        merged: dict[int, list[int]] = {}  # new cluster key -> old keys
        for _, a, b in group:
            ka, kb = sorted((key[a], key[b]))  # distinct: tree edges close no cycle
            absorbed = merged.pop(kb, [kb])
            for c in absorbed:
                for x in clusters[c][0]:
                    key[x] = ka
            merged.setdefault(ka, [ka]).extend(absorbed)
        for k, kids in merged.items():
            points, diam, images, offset = [], 0, {}, 0
            for c in sorted(kids):  # least point first
                pts, c_diam, c_images = clusters.pop(c)
                if points:  # each pair is met once in the walk, row by row in C;
                    # the repeated column keeps a tuple for a one-point cluster
                    cut = itemgetter(*points, points[0])
                    diam = max(diam, c_diam, max(map(max, map(cut, map(d.__getitem__, pts)))))
                else:
                    diam = c_diam
                images.update((x, offset + v) for x, v in c_images.items())
                offset += max(c_images.values()) + R
                points += pts
            clusters[k] = (tuple(sorted(points)), diam, images)
        yield R, tuple(clusters[k] for k in sorted(clusters))


def r_components(m: FiniteMetricSpace, R: int) -> Partition:
    """Components of the graph joining points at distance <= R."""
    if _checked_int(R, "R") < 0:
        raise PreconditionViolation("R must be >= 0")
    for scale, clusters in m._scales:
        if scale > R:
            break
        state = clusters
    return Partition(tuple(c[0] for c in state), tuple(c[1] for c in state))


def asdim_zero_profile(m: FiniteMetricSpace) -> dict[int, tuple[int, int]]:
    """R -> (max component diameter, max component cardinality), R = 0..max,
    refused past the "asdim profile" limit before any entry is built."""
    if m.max_distance >= 1 << LIMITS["asdim profile"][0]:
        raise over_limit("asdim profile", m.max_distance + 1)
    profile: dict[int, tuple[int, int]] = {}
    entry = None
    for scale, clusters in m._scales:
        profile.update(dict.fromkeys(range(len(profile), scale), entry))
        entry = (max(c[1] for c in clusters), max(len(c[0]) for c in clusters))
    profile.update(dict.fromkeys(range(len(profile), m.max_distance + 1), entry))
    return profile


def embed_into_nonneg_integers(m: FiniteMetricSpace) -> list[int]:
    """Component-preserving embedding into the nonnegative integers.

    At every merge scale R the merging components are laid out from the
    least-indexed one, successive images a gap of exactly R apart, so that
    for every scale the image of each component is exactly a component of
    the image.  The base point (least index) goes to 0.
    """
    images = m._scales[-1][1][0][2]
    return [images[x] for x in range(m.size)]
