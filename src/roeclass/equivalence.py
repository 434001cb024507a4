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

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from operator import floordiv

from .errors import (LIMITS, DepthExhausted, MalformedInput, NotEquivalent,
                     PreconditionViolation, _checked_int, _checked_ints, _clip, over_limit)
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


@dataclass(frozen=True)
class TowerBijection:
    """Truncated bijective coarse equivalence between two towers.

    ``mapping[x]`` is the image of source point x; the domain is the full
    source truncation {0..k1_{n_D}-1} and images lie in {0..k2_{m_D}-1}.
    ``modulus`` is measured from the map: modulus[l] is the least target
    level whose components absorb the image of every source l-component.
    """

    source: Tower
    target: Tower
    depth: int
    levels: tuple[tuple[int, int], ...]
    mapping: tuple[int, ...]

    def __post_init__(self):
        _checked_int(self.depth, "depth")
        if not all(isinstance(pair, (tuple, list)) and len(pair) == 2 for pair in self.levels):
            raise MalformedInput("each level must be a pair")
        levels = tuple((_checked_int(n, "level"), _checked_int(m, "level")) for n, m in self.levels)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "mapping", tuple(self.mapping))
        if len(levels) != self.depth:
            raise MalformedInput("levels length must equal depth")
        prev_n, prev_m = 0, 0
        for n, m in levels:
            if n <= prev_n or m <= prev_m:
                raise MalformedInput("level indices must be strictly increasing")
            prev_n, prev_m = n, m
        n_d, m_d = self.final_levels
        # every ratio is >= 2, so k_n > cap once n >= cap.bit_length(): each
        # side's order is taken no higher, and a huge level costs nothing
        dom = self.source.order(min(n_d, len(self.mapping).bit_length()))
        if dom != len(self.mapping):
            points = f"at least {_clip(dom)}" if dom > len(self.mapping) else dom
            raise MalformedInput(f"map must cover the full source truncation ({points} points)")
        # whole-map passes in C: a witness has tens of thousands of images
        _checked_ints(self.mapping, "image")
        lo, hi = min(self.mapping), max(self.mapping)
        if lo < 0 or hi >= self.target.order(min(m_d, hi.bit_length())):
            raise MalformedInput(
                f"image {_clip(lo if lo < 0 else hi)} outside the target truncation")

    @property
    def final_levels(self) -> tuple[int, int]:
        return self.levels[-1] if self.levels else (0, 0)

    @property
    def domain_size(self) -> int:
        return len(self.mapping)

    @cached_property
    def modulus(self) -> tuple[int, ...]:
        """Measured on first use: building or conjugating never pays for it."""
        return _measure_modulus(self)


def _measure_modulus(b: TowerBijection) -> tuple[int, ...]:
    """One entry per source level 0..n_D; the verifier reads it before its
    report grows, so the "verify report rows" limit refuses both here."""
    n_d = b.final_levels[0]
    if n_d >= 1 << LIMITS["verify report rows"][0]:
        raise over_limit("verify report rows", n_d)
    # reps[i] is y // k_s for every image y of source block i: a block's image
    # lies in one target s-block exactly when its images agree there.  Each
    # level compares the r blocks it merges, a C pass per slice, and divides
    # by the next target ratio until they agree (y // k_s // c = y // k_(s+1))
    reps = b.mapping
    s = 0
    out = [0]  # level-0 blocks are single points
    for level in range(1, n_d + 1):
        if len(reps) == 1:
            break  # one block holds every image: a finite source past its prefix
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
    return tuple(out + [s] * (n_d + 1 - len(out)))


def build_back_and_forth(t1: Tower, t2: Tower, depth: int) -> TowerBijection:
    """Deterministic back-and-forth witness truncated at interleave depth.
    A map past the "map points" limit is refused before it is allocated."""
    # k1_{n_j} is a proper multiple of k2_{m_{j-1}}, itself a multiple of
    # k1_{n_{j-1}}: so k1_{n_D} >= 2^D, and bits + 1 steps settle a deeper map
    bits = LIMITS["map points"][0]
    levels = interleave_towers(t1, t2, min(_checked_int(depth, "depth"), bits + 1))
    points = t1.order(levels[-1][0] if levels else 0)
    if points > 1 << bits:
        raise over_limit("map points", points, " or more" if depth > len(levels) else "")
    return TowerBijection(source=t1, target=t2, depth=depth, levels=levels,
                          mapping=tuple(range(points)))


@dataclass(frozen=True)
class LevelCheck:
    level: int
    modulus: int
    bound: int
    within_bound: bool
    decomposition_ok: bool
    order_divides: bool

    @property
    def passed(self) -> bool:
        return self.within_bound and self.decomposition_ok and self.order_divides


@dataclass(frozen=True)
class VerificationReport:
    injective: bool
    levels: tuple[LevelCheck, ...]

    @property
    def passed(self) -> bool:
        return self.injective and all(c.passed for c in self.levels)


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
    injective = len(set(b.mapping)) == len(b.mapping)
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
