"""Censuses: enumerate cyclic torsors of bounded discriminant, build count
ladders T(B)/M(B), and fit the exponents of B^alpha (log B)^beta.

Two enumerators share one walk, ``_walk``, over supports of increasing
primes pruned by the partial |disc|; each supplies only the local types a
tame prime p admits.  ``enumerate_mu`` walks canonical Kummer classes, whose
tame primes admit every twisted sector of ``heights.sectors`` (order k | n,
cost p^(n - n/k)), and whose sign and wild exponents come beside each
support from one per-residue table, ``_wild_table``, cheapest first (no
caller depends on that order within a support); ``enumerate_cyclic`` walks
cyclic degree-n fields over the local characters of ``_local_characters``,
where order k needs k | p - 1, the Galois twist between Bmu_n and B(Z/nZ).
``count`` looks each ladder
target up in ``FAST_COUNTERS``; the M counter of a mu target whose T key is
there streams ``enumerate_mu``, and any other target raises.  Every fast
key goes through one local-type counter, ``_count_types``, which counts
what a walk reaches from the tame types at each residue of p and the wild
costs, on numpy arrays from ``arith.sieve``: the mu keys (T for n = 2..12
under every ordering ``enumerate_mu`` takes, and M for prime n) give it
the sectors at every residue, the wild costs of the same
``_wild_table`` and the |disc| caps of ``_disc_bound``; the cyclic
keys (M for n = 2..12) give it, for each d | n, the characters of order
dividing d, and invert by Mobius over d.  A ladder past the
counter's int64 range streams; one past physical memory raises ValueError.
"""

from __future__ import annotations

import bisect
import csv
import itertools
import math
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from functools import cache, partial
from typing import Iterable, Iterator

import numpy as np

from .arith import (FactoredInteger, factor, primes_up_to, sieve, smallest_prime_factor,
                    unit_group, valuation)
from .heights import darda_denominator, sectors
from .kummer import EXACT_WILD_DEGREES, KummerClass, is_irreducible, wild_exponent

__all__ = [
    "CountLadder",
    "FitResult",
    "LadderSpec",
    "enumerate_mu",
    "enumerate_cyclic",
    "count",
    "fit",
]

ORDERINGS = ("disc_exact", "disc_tame", "darda")
DEFAULT_B0 = 10**3
DEFAULT_DOUBLINGS = 18


@dataclass(frozen=True)
class CountLadder:
    target: str  # "mu:2", "cyclic:3", ...
    counter: str  # "T" or "M"
    ordering: str
    points: tuple[tuple[float, int], ...]  # (B, count), B strictly increasing

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["B", "count"])
            for b, c in self.points:
                w.writerow([repr(b), c])

    @classmethod
    def from_csv(cls, path: str, target: str = "?", counter: str = "?",
                 ordering: str = "?") -> "CountLadder":
        points = []
        with open(path, newline="") as fh:
            rd = csv.reader(fh)
            header = next(rd, [])  # [] for an empty file
            if header[:2] != ["B", "count"]:
                raise ValueError("expected CSV header B,count")
            for row in rd:
                if len(row) < 2 or points and float(row[0]) <= points[-1][0]:
                    raise ValueError(f"line {rd.line_num}: expected B,count, B rising, got {row}")
                points.append((float(row[0]), int(row[1])))
        return cls(target, counter, ordering, tuple(points))


@dataclass(frozen=True)
class FitResult:
    alpha: float
    beta: float
    gamma: float
    residual_rms: float
    window: tuple[int, int]

    def to_json(self) -> dict:
        return {**asdict(self), "window": list(self.window)}


@dataclass(frozen=True)
class LadderSpec:
    target: tuple[str, int]  # ("mu", n) or ("cyclic", n)
    counter: str = "T"
    ordering: str = "disc_exact"
    b0: float = DEFAULT_B0
    doublings: int = DEFAULT_DOUBLINGS
    jobs: int = 1

    def rungs(self) -> list[float]:
        return [self.b0 * 2**i for i in range(self.doublings + 1)]


# ---------------------------------------------------------------------------
# the support walk shared by both enumerators


def _walk(least: int, disc_bound: int, table, fold, root, part: tuple[int, int] | None = None):
    """Every support of increasing primes, one local type chosen per prime,
    with |disc| <= disc_bound, as (state, |disc|): each support before its
    extensions, the empty one (state ``root``, |disc| 1) first.

    ``table(p)`` lists the local types p admits as (type, e), p^e being
    the type's share of |disc|; primes with no type never enter a support.
    ``fold(state, p, type)`` extends a support's state by one prime.  A
    type costs at least p^least, which caps the primes and prunes each
    support.  ``part=(w, nparts)`` keeps the supports whose smallest prime
    has index w mod nparts in the prime list, the empty support going with
    index 0.
    """
    primes = [(p, p**least, [(t, p**e) for t, e in types])
              for p in primes_up_to(int(disc_bound ** (1.0 / least)) + 2)
              if (types := table(p))]

    def rec(idx: range, state, disc: int):
        for i in idx:
            p, least, types = primes[i]
            if disc * least > disc_bound:
                break
            # a support that cannot pay the next prime's least cost is a
            # leaf: no generator is started for its extensions
            nxt = primes[i + 1][1] if i + 1 < len(primes) else disc_bound + 1
            for t, pe in types:
                d = disc * pe
                if d <= disc_bound:
                    s = fold(state, p, t)
                    yield s, d
                    if d * nxt <= disc_bound:
                        yield from rec(range(i + 1, len(primes)), s, d)

    start, step = (part[0] % part[1], part[1]) if part else (0, 1)
    if start == 0:
        yield root, 1
    yield from rec(range(start, len(primes), step), root, 1)


# ---------------------------------------------------------------------------
# mu_n enumeration


def _disc_bound(Bmax: float, n: int, ordering: str) -> int:
    """Largest |disc| d with measure <= Bmax.  Under darda it is the largest
    integer d with d ** (1/N) <= Bmax, the float test ``enumerate_mu``
    applies, found by bisection; a cap past 2^1023, where the test leaves
    the float range, raises ValueError."""
    if ordering != "darda":
        return math.floor(Bmax)
    x = 1.0 / darda_denominator(n)
    if (2**1023) ** x <= Bmax:  # the doubling below would pass the float range
        raise ValueError(f"darda bound {Bmax:g}: |disc| cap {Bmax:g}^{round(1 / x)} passes 2^1023")
    lo, hi = 0, 1  # hi fails the test, lo passes or is 0
    while hi**x <= Bmax:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mid**x <= Bmax else (lo, mid)
    return lo


def _exact_wild(n: int, ordering: str) -> bool:
    """Whether ``ordering`` measures the wild primes: exact wild exponents
    exist for n in {2, 3}, whose one wild prime is n; disc_tame drops them."""
    return ordering != "disc_tame" and n in EXACT_WILD_DEGREES


def enumerate_mu(
    n: int,
    Bmax: float,
    ordering: str = "disc_exact",
    part: tuple[int, int] | None = None,
) -> Iterator[tuple[KummerClass, float]]:
    """Stream every canonical Kummer class with measure <= Bmax, once each.

    The tame part of a class is a support walked by ``_walk``: a tame
    prime p admits every exponent e in 1..n-1, the twisted sectors of
    ``heights.sectors``, at a cost of p^(n - gcd(e, n)).  Beside each
    support go the sign and the wild patterns (an exponent at each p | n)
    that ``_wild_table`` lists at the tame part's class, cheapest first, up
    to the first past the cap: within one support the stream runs cheapest
    wild pattern first.  No caller depends on that order.
    ``part=(w, nparts)`` restricts the stream to one deterministic
    partition, keyed by the smallest tame support prime.
    """
    if ordering not in ORDERINGS:
        raise ValueError(f"unknown ordering {ordering!r}")
    if ordering == "disc_exact" and n not in EXACT_WILD_DEGREES:
        raise ValueError("disc_exact ordering requires n in {2, 3}")
    if n > 12:
        raise ValueError("enumeration supports n <= 12")
    disc_bound = _disc_bound(Bmax, n, ordering)
    if disc_bound < 1:
        return
    darda_exp = 1.0 / darda_denominator(n)
    M, wild = _wild_table(n, ordering)

    # a support's state: its tame value and factors, one exponent per prime
    tame = sectors(n)
    walk = _walk(tame.min_value(), disc_bound, lambda p: () if n % p == 0 else tame.entries,
                 lambda s, p, e: (s[0] * p**e, s[1] + ((p, e),)), (1, ()), part)
    for (tame_a, tame_factors), tame_disc in walk:
        for cost, sign, pat in wild[tame_a % M]:  # cheapest first
            d = tame_disc * cost
            if d > disc_bound:
                break
            m = d ** darda_exp if ordering == "darda" else d
            if m <= Bmax:
                # the factors are in order unless a tame prime lies below a wild one
                factors = pat + tame_factors
                if pat and tame_factors and tame_factors[0][0] < pat[-1][0]:
                    factors = tuple(sorted(factors))
                yield KummerClass(n, FactoredInteger(sign, factors)), m


def _wild_patterns(n: int) -> list[tuple[int, int, int, tuple[tuple[int, int], ...]]]:
    """Every (sign, w, v, pattern) a Kummer class puts beside its tame part:
    a sign, and one exponent 0..n-1 at each prime p | n, as the product w
    of those prime powers, its valuation v at n when n is prime (else 0),
    and its factors (p, e) with e > 0."""
    wild = [(1, 0, ())]
    for p, _ in factor(n).factors:
        wild = [(w * p**e, e if p == n else v, pat + (((p, e),) if e else ()))
                for w, v, pat in wild for e in range(n)]
    return [(s, w, v, pat) for w, v, pat in wild for s in ((1,) if n % 2 else (1, -1))]


@cache
def _wild_table(n: int, ordering: str) -> tuple[int, tuple[tuple[tuple[int, int, tuple], ...], ...]]:
    """The wild costs beside a tame part, read by ``enumerate_mu`` and
    ``_count_mu``: M (n^2 where ``ordering`` measures the wild primes, else
    1) and, at each residue u mod M, every (cost, sign, pattern) of
    ``_wild_patterns`` beside a tame part of class u, cheapest first, in
    ``_wild_patterns`` order among equal costs; none where u is no unit.
    The cost is n^(wild exponent), or 1 where the wild primes are not
    measured.  Built once per (n, ordering), of tuples alone.
    """
    M = n * n if _exact_wild(n, ordering) else 1
    return M, tuple(tuple(sorted(((n ** wild_exponent(n, s * w * u, v) if M > 1 else 1, s, pat)
                                  for s, w, v, pat in _wild_patterns(n)), key=lambda t: t[0]))
                    if math.gcd(u, M) == 1 else () for u in range(M))


# ---------------------------------------------------------------------------
# cyclic extensions via characters


@dataclass(frozen=True)
class CyclicField:
    """A cyclic degree-n field over Q: conductor, character data, |disc|."""

    n: int
    conductor: int
    character: tuple[int, ...]  # images of the unit-group generators in Z/n
    disc: int


def _conductor_exp(p: int, values, n: int) -> int:
    """v_p of the conductor of the p-part of a character, given its values
    in Z/n on the generators of (Z/p^j)^x: 1 + v_p(order) for odd p once
    it moves; for p = 2, 2 + v_2(its order on 5) once 5 moves, else 2 once
    -1 moves."""
    orders = [n // math.gcd(n, c) for c in values] + [1, 1]
    if p != 2:
        return (orders[0] > 1) * (1 + valuation(orders[0], p))
    return 2 + valuation(orders[1], 2) if orders[1] > 1 else 2 * (orders[0] > 1)


def _local_characters(p: int, n: int) -> list[tuple[tuple[tuple[int, ...], int, int], int]]:
    """Every character of conductor exactly p^j (j >= 1) into Z/n, as
    ((component values, p^j, order), exponent of p in |disc|).

    (Z/p^j)^x has one cyclic component of order p^(j-1)(p-1) for odd p; for
    p = 2 it has components of orders 2 and 2^(j-2), the second from j = 3
    on.  The exponent of p in |disc| is sum_{i=1}^{n-1} v_p(cond(chi^i)).
    """
    out = []
    for j in range(1, valuation(n, p) + (3 if p == 2 else 2)):
        comps = [2, 2 ** (j - 2)][: j - 1] if p == 2 else [p ** (j - 1) * (p - 1)]
        for values in itertools.product(*(range(0, n, n // math.gcd(n, d)) for d in comps)):
            if _conductor_exp(p, values, n) == j:
                e = sum(_conductor_exp(p, [i * c % n for c in values], n) for i in range(1, n))
                order = math.lcm(*(n // math.gcd(n, c) for c in values))
                out.append(((values, p**j, order), e))
    return out


def enumerate_cyclic(n: int, Bmax: float) -> Iterator[tuple[CyclicField, int]]:
    """Stream cyclic degree-n extensions of Q with |disc| <= Bmax, once each.

    Characters chi into Z/nZ are supports walked by ``_walk`` over the
    local characters of ``_local_characters``: a tame prime p admits a
    character of order k only when k | p - 1, at a cost of p^(n - n/k).
    Those of order exactly n are kept up to Aut(Z/nZ); the discriminant
    is prod_{j=1}^{n-1} cond(chi^j).  The stream is in support order, not
    conductor order.
    """
    if n < 2 or n > 12:
        raise ValueError("cyclic enumeration supports 2 <= n <= 12")
    disc_bound = math.floor(Bmax)
    if disc_bound < 1:
        return
    # v is least in its Aut(Z/nZ) orbit only if its first nonzero value c is
    # gcd(c, n), the least value the units carry c to; then only the units
    # that fix c (u = 1 mod n/c) can carry v lower
    fixing = {c: [u for u in unit_group(n) if u % (n // c) == 1 and u != 1]
              for c in range(1, n) if n % c == 0}
    def table(p: int) -> list:
        # a tame prime p admits the values c = s, 2s, ... (s = n / gcd(n,
        # p - 1)) on the generator of (Z/p)^x: conductor p, order k and
        # cost p^(n - n/k)
        if n % p == 0:
            return _local_characters(p, n)
        s = n // math.gcd(n, p - 1)
        return [(((c,), p, k), n - n // k) for c in range(s, n, s) for k in [n // math.gcd(n, c)]]

    def fold(state, p, char):
        (values, order, cond), (v, q, k) = state, char
        return values + v, math.lcm(order, k), cond * q

    for (v, o, f), d in _walk(sectors(n).min_value(), disc_bound, table, fold, ((), 1, 1)):
        # order exactly n, one character per Aut(Z/nZ) orbit
        if o == n and n % (c := next(c for c in v if c)) == 0 \
                and all(tuple(u * x % n for x in v) >= v for u in fixing[c]):
            yield CyclicField(n, f, v, d), d


# ---------------------------------------------------------------------------
# fast counters: exact counts for every rung at once, from one sieve


# sieve entries past which a counter with one leading type of class shift
# 0 at every prime counts the squarefree d by Mobius sums instead of a
# prefix-sum table
_TABLE = 1 << 14


def _iroot(y: np.ndarray, m: int) -> np.ndarray:
    """floor(y^(1/m)) for an int64 array 0 <= y < 2^62 and m <= 10."""
    if m == 1:
        return y
    z = np.floor(y ** (1.0 / m)).astype(np.int64)
    z -= z**m > y
    return z + ((z + 1) ** m <= y)


def _ranges(lens: np.ndarray, starts) -> tuple[np.ndarray, np.ndarray]:
    """The ranges starts[j], ..., starts[j] + lens[j] - 1 end to end, as
    arrays of (j, value); ``starts`` may be one number for every range."""
    j = np.repeat(np.arange(len(lens)), lens)
    return j, np.arange(len(j)) - np.repeat(np.cumsum(lens) - lens - starts, lens)


def _count_types(n: int, caps: list[int], types: dict, costs: dict, M: int) -> list[int] | None:
    """How many supports ``_walk`` reaches within each |disc| cap (caps
    ascending), wild costs included, counted from the local types alone;
    None, before anything is allocated, when the top cap reaches 2^62, past
    the int64 range the counter works in.  Every product it forms stays
    within the top cap: the h sweep starts at each wild cost and prunes by
    top // k.

    A tame prime p = u mod L = lcm(n, M) admits the types ``types[u]``,
    (class exponent e, cost j) pairs, a type costing p^j and moving the
    tame part's class mod M by p^e.  ``costs[u]`` counts the wild costs
    beside a tame part of class u mod M; callers with M > 1 have h = 1.
    The tame supports have the Dirichlet series f = g * h.  g puts the
    leading types of each prime's residue (least cost p^m) on the squarefree
    d prime to n, read off a prefix-sum table over ``arith.sieve``.  When
    every prime has one leading type of shift 0 (the Mobius path) g is 1 on
    those d: the table is the int32 running count of |mu| to about the
    square root of the largest query (or ``_TABLE``), and the queries past
    it are answered from the int32 Mertens sums, once per distinct z, in
    one numpy batch.  Otherwise C int64 class rows to the largest query are
    built one prime of every d at a time.  h(p^j) = f(p^j) - (leading types
    at p) h(p^(j - m)) vanishes for j <= m, so its supports are few; they
    are swept one prime more at a time.  Past physical memory the counter
    raises ValueError instead of allocating.
    """
    top = max(caps)
    # the units mod M, the keys of costs, are the powers of g, and g^i
    # matters only through i mod C, g^C being the least power of g that
    # keeps every cost
    g = next(u for u in costs if len({pow(u, i, M) for i in range(len(costs))}) == len(costs))
    C = next(c for c in range(1, len(costs) + 1)
             if all(costs[pow(g, c, M) * u % M] == costs[u] for u in costs))
    # one term per class t and wild cost c within the top cap (a weight-0
    # term when there is none)
    wild = [(t, c, k) for t in range(C) for c, k in costs[pow(g, t, M)].items()
            if c <= top] or [(0, 1, 0)]
    if top >= 2**62:
        return None
    log = {pow(g, i, M): i % C for i in range(len(costs))}
    bound = top // min(c for _, c, _ in wild)
    m = min(j for ts in types.values() for _, j in ts)
    # P[u]: the leading types at residue u as a polynomial in the class
    # shift; H[u][j] = h(p^j) at p = u mod L
    L = math.lcm(n, M)
    P = [[0] * C for _ in range(L)]
    H = [[1] + [0] * bound.bit_length() for _ in range(L)]
    for u, ts in types.items():
        f = Counter(j for _, j in ts)  # f(p^j)
        for e, j in ts:
            P[u][e * log[u % M] % C] += j == m
        for j in range(m, len(H[u])):
            H[u][j] = f[j] - f[m] * H[u][j - m]

    zmax = int(_iroot(np.array([bound]), m)[0])
    mobius = all(P[u] == [1] + [0] * (C - 1) for u in types)
    Z = max(math.isqrt(zmax), min(zmax, _TABLE)) if mobius else zmax
    # peak memory per sieve entry, measured: 13-14 bytes on the Mobius path
    # (the sieve's own peak), 26-37 for one class row (the sieve, the live d,
    # V and a round's arrays) and 53 for C = 3; the guard keeps 32 a class
    # row, so that no ladder changes route
    if (Z + 1) * 32 * C > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
        raise ValueError(f"counting to |disc| {top} needs more than physical memory")

    # p^j for each j with h(p^j) != 0, over the same primes prime to n:
    # index i is one prime, weighted by h(p^j) at its residue
    js = [j for j in range(m + 1, len(H[0])) if any(h[j] for h in H)]
    ps = [p for p in primes_up_to(int(bound ** (1 / js[0])) + 1) if n % p] if js else []
    H = np.array(H)
    pw = [(H[np.array(ps[:len(pj)], dtype=np.int64) % L, j], np.array(pj, dtype=np.int64))
          for j in js for pj in [list(itertools.takewhile(bound.__ge__, (p**j for p in ps)))]]
    # the supports of h times each wild cost c, one prime more per sweep:
    # weight, k, the index of the largest prime and the class t beside the
    # wild cost; a support of weight 0 counts nothing
    W, K, I, R = (np.array(x) for x in zip(*((k, c, -1, t) for t, c, k in wild)))
    sup = []
    while len(K):
        sup.append((W, K, R))
        y, new = top // K, [(W[:0], K[:0], I[:0], R[:0])]
        for w, pj in pw:
            # no support can pay the next prime's p^j: skip the sweep
            if len(pj) > I.min() + 1 and pj[I.min() + 1] <= y.max():
                cnt = np.maximum(np.searchsorted(pj, y, side="right") - I - 1, 0)
                rep, i = _ranges(cnt, I + 1)
                new.append((W[rep] * w[i], K[rep] * pj[i], i, R[rep]))
        W, K, I, R = (np.concatenate(x) for x in zip(*new))
        W, K, I, R = (x[nz] for nz in [W != 0] for x in (W, K, I, R))
    # one term per support q = k c: its weight times the tame parts of class
    # t over the d with q d^m <= B
    Wt, Q, R = (np.concatenate(x) for x in zip(*sup))

    spf, mu = sieve(Z)
    for p, _ in factor(n).factors:
        mu[::p] = 0
    if mobius:
        # the squarefree d <= z prime to n (over spf, which this path does not
        # read), and the Mertens sums over them, straight off mu; both stay
        # within Z < 2^31
        tab = np.cumsum(np.abs(mu), dtype=np.int32, out=spf)[None]
        mertens = np.cumsum(mu, dtype=np.int32)
    else:
        # V[t, d]: the tame parts over the squarefree d prime to n, of class
        # t, built one prime of every live d per round; a leading type p^e
        # moves class t to t + e log(p) mod C.  A d leaves when its weight is
        # 0 or it has no prime left, and is then written to V.  int64: the
        # products of leading-type counts can pass 2^31.
        live = np.flatnonzero(mu)[1:]  # d = 1 has no prime
        V = np.zeros((C, Z + 1), dtype=np.int64)  # int: float dots would start BLAS threads
        V[0, 1] = 1
        P = np.array(P, dtype=np.int8).T
        rest, G = live, np.repeat(np.eye(C, 1, dtype=np.int64), len(live), axis=1)
        while len(live):
            x = np.take(P, spf[rest] % L, axis=1)
            rest = rest // spf[rest]
            G = sum((x[s] * np.roll(G, s, axis=0) for s in range(1, C)), x[0] * G)
            V[:, live[done]] = G[:, done := np.flatnonzero(G.any(axis=0) & (rest == 1))]
            k = np.flatnonzero(G.any(axis=0) & (rest > 1))
            live, rest, G = live[k], rest[k], np.take(G, k, axis=1)
        tab = V.cumsum(axis=1, out=V)

    # every (cap, term) pair with the term within the cap, as indices c, i:
    # term i is within the caps from its first one on
    first = np.searchsorted(caps, Q)
    i, c = _ranges(len(caps) - first, first)
    z = _iroot(np.array(caps)[c] // Q[i], m)
    g = tab[R[i], np.minimum(z, Z)].astype(np.int64)

    # past the table (only on the Mobius path), the squarefree d <= z prime
    # to n number sum_e mu(e) phi_n(z // e^2), split at s = floor(z^(1/3)):
    # the e up to x = isqrt(z // (s + 1)) one by one; the rest grouped by
    # k = z // e^2 <= s and summed by parts, the Mertens sums at isqrt(z // k)
    # over the k prime to n, less phi_n(s) M(x).  Each distinct z once, in
    # chunks of at most Z terms.
    unit = np.array([math.gcd(j, n) == 1 for j in range(n)], dtype=np.int64)  # n >= 2
    coprime = np.cumsum(unit)

    def phi_n(y):  # the j <= y prime to n
        return y // n * coprime[-1] + coprime[y % n]

    zs, inv = np.unique(z[z > Z], return_inverse=True)
    s = np.cbrt(zs).astype(np.int64)
    x = _iroot(zs // (s + 1), 2)
    past = -phi_n(s) * mertens[x] if mobius else zs  # no z passes the table off that path
    for lo in range(0, len(zs), step := max(1, Z // (x + s).max(initial=1))):
        j, e = _ranges(x[lo:lo + step], 1)
        np.add.at(past, lo + j, mu[e] * phi_n(zs[lo + j] // (e * e)))
        j, k = _ranges(s[lo:lo + step], 1)
        np.add.at(past, lo + j, unit[k % n] * mertens[_iroot(zs[lo + j] // k, 2)])
    g[z > Z] = past[inv]
    counts = np.zeros(len(caps), dtype=np.int64)
    np.add.at(counts, c, Wt[i] * g)
    return counts.tolist()


def _count_mu(n: int, ordering: str, rungs: list[float], counter: str = "T") -> list[int] | None:
    """T(B), or M(B) for prime n, for mu_n, every rung at once: what
    ``enumerate_mu`` walks, counted by ``_count_types`` from the same
    sectors (``heights.sectors``) at every prime, the same wild costs
    (``_wild_table``) and the same |disc| caps (``_disc_bound``).
    Where the wild primes are measured (n in {2, 3}) the wild cost reads
    the tame part mod M = n^2.  For prime n the one reducible class is
    a = 1, so M(B) is T(B) less a = 1 where its |disc| is within the cap.
    """
    caps = [_disc_bound(B, n, ordering) for B in rungs]
    M, wild = _wild_table(n, ordering)
    costs = {u: Counter(c for c, _, _ in ws) for u, ws in enumerate(wild) if ws}
    types = dict.fromkeys(unit_group(math.lcm(n, M)), sectors(n).entries)
    one = next(c for c, s, pat in wild[1 % M] if (s, pat) == (1, ()))  # the |disc| of a = 1
    counts = _count_types(n, caps, types, costs, M)
    return counts and [c - (counter == "M" and cap >= one) for c, cap in zip(counts, caps)]


def _count_cyclic(n: int, rungs: list[float]) -> list[int] | None:
    """M(B) for cyclic degree-n fields, every rung at once: the characters
    of order exactly n, over phi(n), are sum_{d | n} mu(n/d) C_d, C_d
    counting the characters of order dividing d.  ``_count_types`` counts
    C_d from the tame types of order k | gcd(d, p - 1), phi(k) of cost p^(n - n/k)
    each, and the wild costs of ``_local_characters`` of order dividing d.
    """
    caps = [math.floor(B) for B in rungs]
    mob = sieve(n)[1].tolist()  # mob[n // d] = mu(n/d)
    total = [mob[n] * (cap >= 1) for cap in caps]  # C_1 = 1
    for d in (d for d in range(2, n + 1) if n % d == 0 and mob[n // d]):
        types = {u: [(0, n - n // k) for k in range(2, d + 1) if d % k == 0 == (u - 1) % k
                     for _ in unit_group(k)] for u in unit_group(n)}
        wild = Counter(map(math.prod, itertools.product(*(
            [1] + [p**e for (_, _, k), e in _local_characters(p, n) if d % k == 0]
            for p, _ in factor(n).factors))))
        counts = _count_types(n, caps, types, {0: wild}, 1)
        if counts is None:
            return None
        total = [t + mob[n // d] * c for t, c in zip(total, counts)]
    return [t // len(types) for t in total]  # one key of types per unit mod n


# ---------------------------------------------------------------------------
# ladders and fitting

# measures sorted and counted at a time by _rung_counts
_RUNG_CHUNK = 1 << 16


def _rung_counts(measures: Iterable[float], rungs: list[float]) -> list[int]:
    """How many of ``measures`` are <= each rung, in bounded memory: each
    chunk of the stream is sorted and counted with one bisect per rung."""
    counts = [0] * len(rungs)
    it = iter(measures)
    while chunk := sorted(itertools.islice(it, _RUNG_CHUNK)):
        for i, B in enumerate(rungs):
            counts[i] += bisect.bisect_right(chunk, B)
    return counts


def _mu_partition_counts(args) -> list[int]:
    n, rungs, ordering, counter, w, nparts = args
    stream = enumerate_mu(n, rungs[-1], ordering, part=(w, nparts))
    return _rung_counts((m for cls, m in stream if counter != "M" or is_irreducible(cls)), rungs)


# (kind, n, counter, ordering) -> exact counter of every rung at once: mu_n
# T under every ordering enumerate_mu takes, M for prime n, and the cyclic
# fields of every degree enumerate_cyclic takes
FAST_COUNTERS = {
    **{("mu", n, c, o): partial(_count_mu, n, o, counter=c)
       for n in range(2, 13) for o in ORDERINGS if o != "disc_exact" or n in EXACT_WILD_DEGREES
       for c in "TM" if c == "T" or smallest_prime_factor(n) == n},
    **{("cyclic", n, "M", "disc_exact"): partial(_count_cyclic, n) for n in range(2, 13)},
}


def count(spec: LadderSpec) -> CountLadder:
    """Build the count ladder for a census target.

    ``FAST_COUNTERS`` decides the route.  A key in the table goes through
    the local-type counter ``_count_types``.  The M counter of a mu target
    whose T key is in the table streams ``enumerate_mu`` through the
    irreducibility test, optionally split over ``jobs`` deterministic
    partitions.  Every other key raises ValueError before anything is
    enumerated.  A fast ladder past the counter's int64 range streams its
    enumerator; one whose tables would not fit in physical memory raises
    ValueError.
    """
    kind, n = spec.target
    if spec.doublings < 0:
        raise ValueError(f"doublings must be >= 0, got {spec.doublings}")
    fast = FAST_COUNTERS.get((kind, n, spec.counter, spec.ordering))
    streamed = (kind == "mu" and spec.counter == "M"
                and ("mu", n, "T", spec.ordering) in FAST_COUNTERS)
    if fast is None and not streamed:
        raise ValueError(f"no census of {kind}:{n}, counter {spec.counter}, "
                         f"ordering {spec.ordering}")
    rungs = spec.rungs()
    # a fast counter answers None for rungs past its range, which stream
    if fast is None or (counts := fast(rungs)) is None:
        counts = (_count_mu_streaming(spec, rungs) if kind == "mu" else
                  _rung_counts((d for _, d in enumerate_cyclic(n, rungs[-1])), rungs))
    points = tuple((b, c) for b, c in zip(rungs, counts))
    return CountLadder(f"{kind}:{n}", spec.counter, spec.ordering, points)


def _count_mu_streaming(spec: LadderSpec, rungs: list[float]) -> list[int]:
    _, n = spec.target
    nparts = max(1, spec.jobs)
    tasks = [(n, rungs, spec.ordering, spec.counter, w, nparts) for w in range(nparts)]
    if nparts == 1:
        parts = [_mu_partition_counts(tasks[0])]
    else:
        # fork starts every worker at once: no more of them than cores
        with ProcessPoolExecutor(max_workers=min(nparts, os.cpu_count() or 1)) as pool:
            parts = list(pool.map(_mu_partition_counts, tasks))
    return [sum(c) for c in zip(*parts)]


def fit(ladder: CountLadder, window: tuple[int, int] | None = None) -> FitResult:
    """Least-squares fit log count = alpha log B + beta log log B + gamma
    over the top half of the ladder (or an explicit index window)."""
    pts = ladder.points
    if len(pts) < 8:
        raise ValueError("fit needs at least 8 ladder points")
    if window is None:
        window = (len(pts) // 2, len(pts))
    lo, hi = window
    sel = pts[lo:hi]
    if len(sel) < 4:
        raise ValueError("fitting window needs at least 4 points")
    if any(c <= 0 for _, c in sel):
        raise ValueError("fitting window contains zero counts")
    logB = np.array([math.log(b) for b, _ in sel])
    loglogB = np.log(logB)
    y = np.array([math.log(c) for _, c in sel])
    X = np.column_stack([logB, loglogB, np.ones_like(logB)])
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ coef
    rms = float(np.sqrt(np.mean(resid**2)))
    return FitResult(float(coef[0]), float(coef[1]), float(coef[2]), rms, window)
