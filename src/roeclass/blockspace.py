"""Canonical ultrametric block model and finite metric spaces of asymptotic
dimension zero.

A tower truncated at depth N gives the point set {0, ..., k_N - 1} with
d(x, y) = min{n >= 0 : floor(x/k_n) == floor(y/k_n)}; the n-components are the
consecutive intervals of length k_n.  Arbitrary finite integer metric spaces
are supported alongside: one minimum spanning tree gives their R-components
at every scale R, and lays any such space out in the nonnegative integers so
that components are preserved at every scale.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, groupby, islice
from operator import itemgetter

from .errors import LIMIT_BITS, MalformedInput, PreconditionViolation
from .supernatural import Tower, _checked_int, _clip


@dataclass(frozen=True)
class Partition:
    """Disjoint blocks covering a space, ordered by least element, each
    annotated with its diameter and cardinality."""

    blocks: tuple[tuple[int, ...], ...]
    diameters: tuple[int, ...]

    @property
    def cardinalities(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)


@dataclass(frozen=True)
class BlockSpace:
    """Truncation {0, ..., k_depth - 1} of the canonical tower model."""

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
        """k_0..k_depth, cut where a finite tower's orders saturate; built on
        first use, so questions that never bisect never pay for it."""
        return tuple(islice(self.tower.levels(), self.depth + 1))

    def order(self, n: int) -> int:
        if not 0 <= _checked_int(n, "level") <= self.depth:
            raise PreconditionViolation(f"level {_clip(n)} outside 0..{_clip(self.depth)}")
        return self.tower.order(n)

    @property
    def _ratios(self) -> int:
        """Ratios among the first depth levels; each is at least 2."""
        return self.depth if self.tower.tail else min(self.depth, len(self.tower.prefix))

    def _blocks(self, n: int) -> tuple[int, int]:
        """(k_n, number of level-n blocks); more than 2^LIMIT_BITS blocks are
        refused, without reading size when the ratios above n already pass it."""
        k = self.order(n)
        if self._ratios - n > LIMIT_BITS or self.size // k > 1 << LIMIT_BITS:
            raise PreconditionViolation(
                f"level {_clip(n)} would split the space into over 2^{LIMIT_BITS} blocks")
        return k, self.size // k

    def _check_point(self, x: int):
        if not (isinstance(x, int) and 0 <= x < self.size):
            raise PreconditionViolation(f"point {_clip(x)} outside 0..{_clip(self.size - 1)}")

    def distance(self, x: int, y: int) -> int:
        """Least level whose blocks contain both points.

        Each order divides the next, so "same block" is false and then true
        as the level grows: bisect for the first level where it holds.  It
        needs k_n > |x - y| and holds once k_n > max(x, y), so only the
        levels between those two are searched.
        """
        orders = self._orders
        size = orders[-1]
        if not (isinstance(x, int) and isinstance(y, int) and 0 <= x < size and 0 <= y < size):
            self._check_point(x)
            self._check_point(y)
        lo = bisect_right(orders, x - y if x > y else y - x)
        hi = bisect_right(orders, x if x > y else y, lo)
        while lo < hi:
            mid = (lo + hi) // 2
            k = orders[mid]
            if x // k == y // k:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def metric_matrix(self) -> list[list[int]]:
        import numpy as np  # only here and in FiniteMetricSpace, to keep it off light commands

        pts = np.arange(self.size)
        d = np.zeros((self.size, self.size), dtype=np.int64)
        for k in self._orders[:-1]:  # saturated levels add nothing
            labels = pts // k
            d += labels[:, None] != labels[None, :]
        return d.tolist()

    def to_metric_space(self) -> "FiniteMetricSpace":
        return FiniteMetricSpace(self.size, tuple(map(tuple, self.metric_matrix())))


def distance(s: BlockSpace, x: int, y: int) -> int:
    return s.distance(x, y)


def components(s: BlockSpace, n: int) -> Partition:
    """Level-n components: k_depth/k_n consecutive intervals of length k_n."""
    k, count = s._blocks(n)
    blocks = tuple(tuple(range(j * k, (j + 1) * k)) for j in range(count))
    return Partition(blocks, (s.distance(0, k - 1),) * count)


@dataclass(frozen=True)
class FiniteMetricSpace:
    """Finite metric space with integer distances, given by full matrix."""

    size: int
    distances: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if _checked_int(self.size, "size") < 1:
            raise MalformedInput("size must be an integer >= 1")
        rows = tuple(tuple(row) for row in self.distances)
        if len(rows) != self.size or any(len(r) != self.size for r in rows):
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
        import numpy as np

        # the narrowest unsigned type that holds a sum of two entries
        d = np.array(rows, dtype=np.min_scalar_type(2 * top))
        if (np.diag(d) != 0).any():
            raise MalformedInput("d(x, x) must be 0")
        if (d == 0).sum() != self.size:
            raise MalformedInput("d(x, y) = 0 requires x = y")
        if (d != d.T).any():
            raise MalformedInput("distance matrix must be symmetric")
        # with a zero diagonal, the triangle inequality says d is its own
        # min-plus square
        square, through_k = d[:, 0, None] + d[0], np.empty_like(d)
        for k in range(1, self.size):
            np.minimum(square, np.add(d[:, k, None], d[k], out=through_k), out=square)
        if not np.array_equal(square, d):
            raise MalformedInput("triangle inequality fails")
        object.__setattr__(self, "distances", rows)

    def distance(self, x: int, y: int) -> int:
        return self.distances[x][y]

    @property
    def max_distance(self) -> int:
        return max(max(row) for row in self.distances)

    @cached_property
    def _scales(self) -> tuple:
        """Every (R, clusters) state of ``_scale_tree``, built on first use."""
        return tuple(_scale_tree(self))


def _scale_tree(m: FiniteMetricSpace):
    """Single-linkage clusters of m, as (R, clusters) for R = 0 and for each
    scale R at which clusters merge, in increasing order.

    Cutting a minimum spanning tree above R leaves exactly the R-components
    (Gower & Ross 1969), so one Prim pass and one walk over its edges by
    length give every scale.  ``clusters`` is ordered by least point; each is
    (points ascending, diameter, images), where images lays the clusters
    merged at R out from the least point on, a gap of exactly R apart.
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
                cross = (max(map(d[x].__getitem__, points), default=0) for x in pts)
                diam = max(diam, c_diam, *cross)  # each pair is met once in the walk
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
    """R -> (max component diameter, max component cardinality), R = 0..max."""
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
