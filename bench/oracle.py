"""Reference computations the benchmark checks outputs against.

Nothing here imports roeclass: every check re-derives the answer from the
definitions (trial division, explicit block sums, union-find over the
distance matrix), so a wrong program output cannot also be the reference.
"""

from __future__ import annotations

import json
from math import gcd


class CheckFailed(Exception):
    """An operation's output disagrees with the reference."""


def expect(cond: bool, msg: str):
    if not cond:
        raise CheckFailed(msg)


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# -- integers -----------------------------------------------------------------

def factor(n: int) -> dict[int, int]:
    """Trial division; callers keep every cofactor below about 10**9."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.4 * 10**14."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# -- towers and supernatural numbers -------------------------------------------
# A tower is (prefix, tail), two tuples of ratios >= 1.

INF = "inf"


def sn(prefix, tail, known_primes=()) -> dict[int, object]:
    """Supernatural number {p: exponent or INF}.  ``known_primes`` are large
    primes the caller put into the ratios; they are divided out before trial
    division so it only ever sees small cofactors."""
    exps: dict[int, object] = {}

    def add(n, inf):
        for p in known_primes:
            while n % p == 0:
                n //= p
                exps[p] = INF if inf or exps.get(p) == INF else exps.get(p, 0) + 1
        for p, e in factor(n).items():
            exps[p] = INF if inf or exps.get(p) == INF else exps.get(p, 0) + e

    for r in prefix:
        add(r, False)
    for r in tail:
        add(r, True)
    return exps


def sn_obj(s: dict) -> dict:
    return {"default": "0",
            "exponents": {str(p): (e if e == INF else str(e)) for p, e in s.items()}}


def classify(t1, t2) -> dict:
    """All verdicts of ``roeclass classify``: equal supernatural numbers decide
    bce and k0_iso, finiteness decides ce, and the obstruction is the least
    prime whose exponents differ with one more than the smaller exponent."""
    s1, s2 = sn(*t1), sn(*t2)
    finite1, finite2 = not any(r > 1 for r in t1[1]), not any(r > 1 for r in t2[1])
    obstruction = None
    for p in sorted(set(s1) | set(s2)):
        e1, e2 = s1.get(p, 0), s2.get(p, 0)
        if e1 != e2:
            low = e2 if e1 == INF else e1 if e2 == INF else min(e1, e2)
            obstruction = [p, low + 1]
            break
    bce = s1 == s2
    return {"bce": bce, "ce": finite1 == finite2,
            "k0_iso": bce and finite1 == finite2, "obstruction": obstruction}


def ratio(t, i: int) -> int:
    prefix, tail = t
    if i < len(prefix):
        return prefix[i]
    return tail[(i - len(prefix)) % len(tail)] if tail else 1


def orders(t, depth: int) -> list[int]:
    out = [1]
    for i in range(depth):
        out.append(out[-1] * ratio(t, i))
    return out


def interleave(t1, t2, depth: int) -> list[list[int]]:
    """Greedy level pairs of the back-and-forth chain, from the definition:
    n_j is the least level above n_{j-1} with k1 a proper multiple of the last
    target order, m_j the least level above m_{j-1} whose order k1 divides."""
    pairs = []
    n = m = 0
    k1 = k2 = 1
    for _ in range(depth):
        while True:
            k1 *= ratio(t1, n)
            n += 1
            if k1 % k2 == 0 and k1 != k2:
                break
        while True:
            k2 *= ratio(t2, m)
            m += 1
            if k2 % k1 == 0:
                break
        pairs.append([n, m])
    return pairs


def normalize(t):
    """The README's normal form: ratio-1 entries dropped, the tail reduced to
    its primitive period, prefix entries that only rotate the tail absorbed."""
    prefix = [r for r in t[0] if r > 1]
    tail = [r for r in t[1] if r > 1]
    if tail:
        n = len(tail)
        d = next(d for d in range(1, n + 1) if n % d == 0 and tail == tail[:d] * (n // d))
        tail = tail[:d]
        while prefix and prefix[-1] == tail[-1]:
            prefix.pop()
            tail = tail[-1:] + tail[:-1]
    return tuple(prefix), tuple(tail)


def tower_obj(t) -> dict:
    return {"prefix": [str(r) for r in t[0]], "tail": [str(r) for r in t[1]]}


def witness_obj(t1, t2, depth: int) -> dict:
    """Canonical file of the deterministic witness: the inclusion map."""
    levels = interleave(t1, t2, depth)
    size = orders(t1, levels[-1][0])[-1] if levels else 1
    flat = []
    for x in range(size):
        s = str(x)
        flat += [s, s]
    return {"depth": depth, "levels": levels, "map": flat,
            "source": tower_obj(normalize(t1)), "target": tower_obj(normalize(t2))}


def check_report(report, n_d: int):
    """A witness built by the program must pass every level check."""
    expect(report["passed"] is True and report["injective"] is True,
           "verify did not pass a built witness")
    expect(len(report["levels"]) == n_d + 1, "verify reported the wrong number of levels")
    for lv in report["levels"]:
        expect(all(lv[k] is True for k in ("within_bound", "decomposition", "order_divides")),
               f"verify failed level {lv['level']}")


# -- K0 sequences ---------------------------------------------------------------
# An eventually periodic sequence is (prefix, period).

def value(seq, i: int) -> int:
    prefix, period = seq
    return prefix[i] if i < len(prefix) else period[(i - len(prefix)) % len(period)]


def combine(a, b, sign: int = 1):
    s = max(len(a[0]), len(b[0]))
    q = len(a[1]) * len(b[1]) // gcd(len(a[1]), len(b[1]))
    return (tuple(value(a, i) + sign * value(b, i) for i in range(s)),
            tuple(value(a, s + j) + sign * value(b, s + j) for j in range(q)))


def _window_block_sums(seq, k: int):
    """Every distinct aligned k-block sum: the prefix blocks plus one
    lcm(k, period) stretch, after which the block sums repeat."""
    prefix, period = seq
    s, q = len(prefix), len(period)
    sigma = sum(period)
    pre = [0]
    for v in prefix:
        pre.append(pre[-1] + v)
    per = [0]
    for v in period:
        per.append(per[-1] + v)

    def partial(i):
        if i <= s:
            return pre[i]
        whole, rest = divmod(i - s, q)
        return pre[s] + whole * sigma + per[rest]

    blocks = -(-s // k) + q // gcd(k, q)
    return (partial((j + 1) * k) - partial(j * k) for j in range(blocks))


def _levels(ctx, seq):
    """Orders k_n to scan: every level until k_n exceeds the sequence data and
    the valuations of the period length have long stabilised."""
    extra = len(ctx[0]) + 8 * len(ctx[1]) + 8
    k, n = 1, 0
    while n <= extra or k <= len(seq[0]) + len(seq[1]):
        yield k
        k *= ratio(ctx, n)
        n += 1


def vanishes(ctx, seq) -> bool:
    """seq is in H: at some level every aligned block sums to zero."""
    if sum(seq[1]) != 0:
        return False
    return any(all(v == 0 for v in _window_block_sums(seq, k)) for k in _levels(ctx, seq))


def nonneg_somewhere(ctx, seq) -> bool:
    """seq is positive in K0: at some level every aligned block sum is >= 0."""
    sigma = sum(seq[1])
    if sigma != 0:
        return sigma > 0
    return any(all(v >= 0 for v in _window_block_sums(seq, k)) for k in _levels(ctx, seq))


def check_positive(ctx, seq, positive: bool, witness):
    expect(positive == nonneg_somewhere(ctx, seq), "k0_positive verdict is wrong")
    if positive:
        expect(witness is not None, "positive class came without a witness")
        expect(all(v >= 0 for v in witness[0] + witness[1]), "witness has a negative entry")
        expect(vanishes(ctx, combine(witness, seq, -1)), "witness is not equal to its class")


def check_divide(ctx, p: int, r: int, result):
    s = sn(*ctx)
    e = s.get(p, 0)
    divides = e == INF or e >= r
    expect((result is not None) == divides, "unit division verdict is wrong")
    if result is not None:
        scaled = (tuple(v * p**r for v in result[0]), tuple(v * p**r for v in result[1]))
        expect(vanishes(ctx, combine(scaled, ((), (1,)), -1)), "p^r * w is not the unit")


# -- operators and metric spaces -------------------------------------------------

def entries_text(entries: dict) -> list:
    """Sparse entries in the program's file form: sorted [row, col, "p/q"]."""
    return [[r, c, str(v)] for (r, c), v in sorted(entries.items())]


def block_distance(ords: list[int], x: int, y: int) -> int:
    n = 0
    while x // ords[n] != y // ords[n]:
        n += 1
    return n


def mat_mul(a: dict, b: dict) -> dict:
    rows: dict[int, dict[int, object]] = {}
    for (r, c), v in b.items():
        rows.setdefault(r, {})[c] = v
    out: dict = {}
    for (r, k), u in a.items():
        for c, v in rows.get(k, {}).items():
            out[(r, c)] = out.get((r, c), 0) + u * v
    return {key: v for key, v in out.items() if v != 0}


def components(dist, radius: int) -> set[frozenset]:
    n = len(dist)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x in range(n):
        for y in range(x + 1, n):
            if dist[x][y] <= radius:
                parent[find(x)] = find(y)
    groups: dict[int, set] = {}
    for x in range(n):
        groups.setdefault(find(x), set()).add(x)
    return {frozenset(g) for g in groups.values()}


def scales(dist) -> list[int]:
    """Radii at which the component structure can change, plus 0."""
    return sorted({0} | {v for row in dist for v in row})


def check_embedding(dist, images):
    """Injective, and at every scale the image of each R-component is exactly
    one maximal run of the sorted images with gaps <= R."""
    expect(len(images) == len(dist) and len(set(images)) == len(images), "embedding not injective")
    expect(min(images) == 0 and all(v >= 0 for v in images), "embedding not based at 0")
    for radius in scales(dist):
        src = {frozenset(images[x] for x in c) for c in components(dist, radius)}
        runs, run = set(), []
        for v in sorted(images):
            if run and v - run[-1] > radius:
                runs.add(frozenset(run))
                run = []
            run.append(v)
        runs.add(frozenset(run))
        expect(src == runs, f"embedding breaks components at scale {radius}")


def profile(dist) -> dict[int, tuple[int, int]]:
    """R -> (max component diameter, max component size) for R = 0..max; the
    components only change at radii that are distances."""
    changes = set(scales(dist))
    out, last = {}, None
    for radius in range(max(max(row) for row in dist) + 1):
        if radius in changes:
            parts = components(dist, radius)
            last = (max(max(dist[a][b] for a in c for b in c) for c in parts),
                    max(len(c) for c in parts))
        out[radius] = last
    return out
