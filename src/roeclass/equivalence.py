"""Back-and-forth witnesses for bijective coarse equivalence of towers.

Two infinite towers with equal supernatural numbers admit interleaved level
subsequences n_1 < n_2 < ... and m_1 < m_2 < ... with

    k1_{n_1} | k2_{m_1} | k1_{n_2} | k2_{m_2} | ...

(forward divisibility may be an equality, the return step is a proper
multiple).  Along such a chain a bijective coarse equivalence is built level
by level; with all choices made deterministically (block containing 0 first,
then lowest-index blocks, order-preserving within the smallest blocks) the
truncated witness is the inclusion of {0..k1_{n_D}-1} into {0..k2_{m_D}-1}.
The verifier re-measures every claim on an arbitrary candidate map and
reports rather than raises.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from itertools import chain, compress, islice, repeat
from math import gcd
from operator import add, eq, floordiv, le, lt, mod, ne, sub
from typing import NamedTuple

from .errors import (LIMITS, DepthExhausted, Frozen, MalformedInput, NotEquivalent,
                     PreconditionViolation, _checked_container, _checked_int, _checked_ints, _clip,
                     check_limit, lazy)
from .supernatural import Tower, bijectively_coarsely_equivalent


def interleave_towers(t1: Tower, t2: Tower, depth: int) -> tuple[tuple[int, int], ...]:
    """Greedy interleaved level pairs ((n_1, m_1), ..., (n_D, m_D)).

    Each index is the smallest admissible one: n_j is the least level above
    n_{j-1} whose order is a proper multiple of k2_{m_{j-1}}, and m_j the
    least level above m_{j-1} whose order k1_{n_j} divides (equality allowed).
    """
    if _checked_int(depth, "depth") < 0:
        raise PreconditionViolation("depth must be an integer >= 0")
    if not (t1.is_infinite and t2.is_infinite):
        raise PreconditionViolation("interleaving requires two infinite towers")
    if not bijectively_coarsely_equivalent(t1, t2):
        raise NotEquivalent("towers have different supernatural numbers")

    def scan(t: Tower, walk, level: int, divisor: int, proper: bool, side: str):
        # a period past saturation_level(divisor) always works; the rest is slack
        cap = max(level + 1, t.saturation_level(divisor) + 2 * len(t.tail) + 2)
        for n, k in walk:
            if n > cap:
                raise DepthExhausted(f"no {side} level above {level} found by level {cap}")
            if k % divisor == 0 and not (proper and k == divisor):
                return n, k

    walk1, walk2 = enumerate(t1.levels()), enumerate(t2.levels())
    (n, k1), (m, k2) = next(walk1), next(walk2)
    pairs = []
    for _ in range(depth):
        n, k1 = scan(t1, walk1, n, k2, True, "source")
        m, k2 = scan(t2, walk2, m, k1, False, "target")
        pairs.append((n, m))
    return tuple(pairs)


class TowerBijection(Frozen):
    """Truncated bijective coarse equivalence between two towers.

    The map is held as its maximal slope-1 runs: ``runs`` is three parallel
    tuples (starts, images, lengths), and source point starts[i] + t goes to
    images[i] + t for 0 <= t < lengths[i].  The runs tile the full source
    truncation {0..k1_{n_D}-1}, and images lie in {0..k2_{m_D}-1}.  A map is
    given either as the image of every point, in order (the fifth argument),
    or as ``runs=``; runs that continue each other are merged either way.
    ``mapping``, the image of every point, is expanded on first read.
    ``modulus`` is measured from the map: modulus[l] is the least target
    level whose components absorb the image of every source l-component.
    """

    _fields = ("source", "target", "depth", "levels", "runs")

    def __init__(self, source: Tower, target: Tower, depth: int,
                 levels: tuple[tuple[int, int], ...], points: Sequence[int] | None = None, *,
                 runs: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]] | None = None):
        self.__post_init__(source, target, depth, levels, points, runs)  # bench/spans.py times it

    def __post_init__(self, source, target, depth, levels, points, runs):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "depth", _checked_int(depth, "depth"))
        levels = _checked_container(levels, "levels")
        if not all(isinstance(pair, (tuple, list)) and len(pair) == 2 for pair in levels):
            raise MalformedInput("each level must be a pair")
        levels = tuple((_checked_int(n, "level"), _checked_int(m, "level")) for n, m in levels)
        object.__setattr__(self, "levels", levels)
        if (points is None) == (runs is None):
            raise PreconditionViolation("a map is given by its points or by its runs")
        if len(levels) != depth:
            raise MalformedInput("levels length must equal depth")
        prev_n, prev_m = 0, 0
        for n, m in levels:
            if n <= prev_n or m <= prev_m:
                raise MalformedInput("level indices must be strictly increasing")
            prev_n, prev_m = n, m
        if points is None:
            starts, _, lengths = runs = _checked_runs(runs)
            size = starts[-1] + lengths[-1]
        else:
            points = tuple(_checked_container(points, "points"))
            size = len(points)
        n_d, m_d = self.final_levels
        # every ratio is >= 2, so k_n > cap once n >= cap.bit_length(): each
        # side's order is taken no higher, and a huge level costs nothing
        dom = self.source.order(min(n_d, size.bit_length()))
        if dom != size:
            need = f"at least {_clip(dom)}" if dom > size else dom
            raise MalformedInput(f"map must cover the full source truncation ({need} points)")
        if points is None:
            _, images, lengths = runs
            lo, hi = min(images), max(map(add, images, lengths)) - 1
        else:
            # whole-list passes in C: a witness file has up to 2^20 images
            points = _checked_ints(points, "image")
            lo, hi = min(points), max(points)
            runs = range(size), points, (1,) * size
        object.__setattr__(self, "runs", _merged(*runs))
        if lo < 0 or hi >= self.target.order(min(m_d, hi.bit_length())):
            raise MalformedInput(
                f"image {_clip(lo if lo < 0 else hi)} outside the target truncation")

    @property
    def final_levels(self) -> tuple[int, int]:
        return self.levels[-1] if self.levels else (0, 0)

    @property
    def domain_size(self) -> int:
        starts, _, lengths = self.runs
        return starts[-1] + lengths[-1]

    @lazy
    def mapping(self) -> tuple[int, ...]:
        """The image of every source point, expanded from the runs on first
        read; a map given by runs may have over 2^20 points, and is refused."""
        n = check_limit("map points", self.domain_size, self.domain_size, "")
        _, images, lengths = self.runs
        if len(images) == n:
            return images
        return tuple(chain.from_iterable(map(range, images, map(add, images, lengths))))

    def image(self, x: int) -> int:
        """The image of source point x (0 <= x < domain_size), by bisecting the run starts."""
        starts, images, _ = self.runs
        i = bisect_right(starts, x) - 1
        return images[i] + x - starts[i]

    @lazy
    def modulus(self) -> tuple[int, ...]:
        """Measured on first use: building or conjugating never pays for it."""
        return _measure_modulus(self)


def _checked_runs(runs) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """(starts, images, lengths) of integers that tile 0..N-1 from 0, in order."""
    if not (isinstance(runs, (tuple, list)) and len(runs) == 3):
        raise MalformedInput("runs must be three parallel tuples: starts, images, lengths")
    starts, images, lengths = (_checked_ints(part, "run", "a part of runs") for part in runs)
    if not (len(starts) == len(images) == len(lengths) and starts[:1] == (0,)
            and min(lengths) >= 1 and all(map(eq, starts[1:], map(add, starts, lengths)))):
        raise MalformedInput("runs must tile the source from 0, in order")
    return starts, images, lengths


def _merged(starts, images, lengths) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """The maximal runs: each run that continues the one before it joins it.
    Whole-list passes in C, as a map given point by point is one run a point."""
    keep = [True, *map(ne, islice(images, 1, None), map(add, images, lengths))]
    if all(keep):
        return tuple(starts), tuple(images), tuple(lengths)
    size = starts[-1] + lengths[-1]
    starts = tuple(compress(starts, keep))
    return starts, tuple(compress(images, keep)), tuple(map(sub, (*starts[1:], size), starts))


# maps whose runs average fewer points are measured and checked point by
# point, in C passes over the images; the break measure pays per run and
# target order, so it wins only on long runs: on 32,768-point maps the two
# tie near 37 points a run, and the breaks take a third of the time at 148
_RUN_POINTS = 64


def _by_points(b: TowerBijection) -> bool:
    return len(b.runs[0]) * _RUN_POINTS > b.domain_size


def _measure_modulus(b: TowerBijection) -> tuple[int, ...]:
    """One entry per source level 0..n_D; the verifier reads it before its
    report grows, so the "verify report rows" limit refuses both here."""
    n_d = b.final_levels[0]
    check_limit("verify report rows", n_d + 1, n_d)
    # once one block holds every image, as on a finite source past its
    # prefix, every later level repeats the last entry
    out = (_modulus_of_points if _by_points(b) else _modulus_of_runs)(b, n_d)
    return tuple(out + [out[-1]] * (n_d + 1 - len(out)))


def _modulus_of_points(b: TowerBijection, n_d: int) -> list[int]:
    # reps[i] is y // k_s for every image y of source block i: a block's image
    # lies in one target s-block exactly when its images agree there.  Each
    # level compares the r blocks it merges, a C pass per slice, and divides
    # by the next target ratio until they agree (y // k_s // c = y // k_(s+1))
    reps = b.mapping
    s = 0
    out = [0]  # level-0 blocks are single points
    for level in range(1, n_d + 1):
        if len(reps) == 1:
            break
        r = b.source.ratio(level - 1)
        head = reps[::r]
        # coarser source blocks contain finer ones, so the modulus never
        # decreases; at the target's last order every image divides to 0
        while any(reps[j::r] != head for j in range(1, r)):
            reps = list(map(floordiv, reps, repeat(b.target.ratio(s))))
            head = reps[::r]
            s += 1
        reps = head
        out.append(s)
    return out


def _modulus_of_runs(b: TowerBijection, n_d: int) -> list[int]:
    # Call x a K-break when x - 1 and x map into different target K-blocks:
    # the source k-blocks fit in target K-blocks exactly when k divides every
    # K-break, that is their gcd.  A run start is a break when the image
    # before it lies in another K-block.  Inside a run the breaks are the
    # points whose image is a multiple of K: the least multiple m above the
    # run's first image y, shifted back by y - x0 to the source, then every K
    # points, of gcd (m - y + x0, K).  A break for a multiple of K is one for
    # K: the breaks only thin out as K grows, so s moves only forward
    starts, images, lengths = b.runs
    ends, shifts = [*map(add, images, lengths)], [*map(sub, starts, images)]
    # each later run start, the image before it and its own first image
    ats, befores, afters = starts[1:], [e - 1 for e in ends[:-1]], images[1:]

    def breaks_gcd(big: int) -> int:
        each = repeat(big)
        split = map(ne, map(floordiv, befores, each), map(floordiv, afters, each))
        above = [*map(sub, map(add, images, each), map(mod, images, each))]
        return gcd(*compress(ats, split), *compress(map(add, above, shifts), map(lt, above, ends)),
                   big if any(map(lt, map(add, above, each), ends)) else 0)

    targets = b.target.levels()
    s, big = 0, next(targets)
    g = breaks_gcd(big)
    k, out = 1, [0]
    for level in range(1, n_d + 1):
        if k == b.domain_size:
            break
        k *= b.source.ratio(level - 1)
        while g % k:
            s, big = s + 1, next(targets)
            g = breaks_gcd(big)
        out.append(s)
    return out


def build_back_and_forth(t1: Tower, t2: Tower, depth: int) -> TowerBijection:
    """Deterministic back-and-forth witness truncated at interleave depth.
    A map past the "map points" limit is refused before it is allocated."""
    # k1_{n_j} is a proper multiple of k2_{m_{j-1}}, itself a multiple of
    # k1_{n_{j-1}}: so k1_{n_D} >= 2^D, and bits + 1 steps settle a deeper map
    bits = LIMITS["map points"][0]
    levels = interleave_towers(t1, t2, min(_checked_int(depth, "depth"), bits + 1))
    points = t1.order(levels[-1][0] if levels else 0)
    check_limit("map points", points, points, " or more" if depth > len(levels) else "")
    return TowerBijection(t1, t2, depth, levels, runs=((0,), (0,), (points,)))


class LevelCheck(NamedTuple):
    level: int
    modulus: int
    bound: int
    within_bound: bool
    decomposition_ok: bool
    order_divides: bool

    @property
    def passed(self) -> bool:
        return self.within_bound and self.decomposition_ok and self.order_divides


class VerificationReport(Frozen):
    _fields = ("injective", "levels")

    def __init__(self, injective: bool, levels: tuple[LevelCheck, ...]):
        object.__setattr__(self, "injective", injective)
        object.__setattr__(self, "levels", levels)

    @property
    def passed(self) -> bool:
        return self.injective and all(c.passed for c in self.levels)


def _injective(b: TowerBijection) -> bool:
    """No two images meet: half-open intervals are disjoint exactly when
    sorted_ends[i] <= sorted_starts[i + 1] for every i (two C sorts of ints)."""
    if _by_points(b):
        return len(set(b.mapping)) == b.domain_size
    _, images, lengths = b.runs
    return all(map(le, sorted(map(add, images, lengths)), sorted(images)[1:]))


def verify_bijective_coarse_equivalence(b: TowerBijection) -> VerificationReport:
    """Measure every claimed property of a candidate truncated witness.

    For each source level l the image of every l-component must fit in a
    single target component at the interleave-promised level m_{j(l)}
    (j(l) = least j with n_j >= l); the covered part of each such target
    component must decompose into complete source-component images; and the
    source component order must divide the promised target component order.

    The decomposition needs no scan of its own: modulus[l] <= bound puts each
    source l-component's image in one target modulus[l]-component, inside one
    bound-component as target orders divide one another, so an injective map
    covers bound-components with whole, disjoint images.  Without the bound
    an image straddles two bound-components; without injectivity images meet.
    """
    injective = _injective(b)
    modulus = b.modulus  # refuses an over-long report before anything grows

    # bound at level l is m_j for the least j with n_j >= l, and 0 at level 0
    bounds = [0]
    for n, m in b.levels:
        bounds += [m] * (n + 1 - len(bounds))
    # k_l from one walk of the source's levels, which a finite source ends
    # at the order every later level keeps
    orders = b.source.levels()
    k = 1
    divides = {}
    checks = []
    for level, bound in enumerate(bounds):
        k = next(orders, k)
        # k1 | k2_bound is decided at min(bound, saturation_level(k1)): past that
        # level gcd(k2_n, k1) no longer grows, and it only grows along the chain.
        # Past a finite source's prefix the pair (k, bound) repeats row after row
        if (k, bound) not in divides:
            divides[k, bound] = b.target.order(min(bound, b.target.saturation_level(k))) % k == 0
        rho = modulus[level]
        within = rho <= bound
        checks.append(LevelCheck(level, rho, bound, within, within and injective, divides[k, bound]))
    return VerificationReport(injective, tuple(checks))
