"""Censuses: enumerate cyclic torsors of bounded discriminant, build count
ladders T(B)/M(B), and fit the exponents of B^alpha (log B)^beta.

Each stack's local data is one cached record, ``LocalTypes``: the tame
types a prime p admits at each residue u mod n, as (payload, class
exponent, cost), and the wild rows beside a tame part of each class mod M,
cheapest first.  ``_mu_types`` builds it for Bmu_n, whose tame primes admit
every twisted sector of ``heights.sectors`` (order k | n, cost
p^(n - n/k)) and whose wild rows are the sign and the wild exponents;
``_cyclic_types`` builds it for B(Z/nZ) from the local characters of order
dividing d, where order k needs k | p - 1, the Galois twist between the
two stacks.  Both enumerators, ``enumerate_mu`` and ``enumerate_cyclic``,
read their record through one walk, ``_walk``, over supports of
increasing primes pruned by the partial |disc|, each beside its wild rows
(no caller depends on the order within a support).  ``count`` looks each
ladder target up in ``FAST_COUNTERS``, and any target outside it raises.
Every key there goes through one local-type counter, ``_count_types``,
which counts what the walk reaches from the same record, on numpy arrays
from ``arith.sieve``: the mu keys (T and M for n = 2..12 under every
ordering ``enumerate_mu`` takes) with the |disc| caps of ``_disc_bound``,
M being T less the reducible classes of ``_reducible``, counted from
restricted records by inclusion-exclusion; the cyclic keys (M for n =
2..12) for each d | n, inverted by Mobius over d.  The counter works in
int64 below a top cap of 2^62 and in Python ints from there on; a ladder
past physical memory raises ValueError.
"""

from __future__ import annotations

import csv
import itertools
import math
import os
from collections import Counter
from dataclasses import asdict, dataclass
from functools import cache, partial
from typing import Iterator, NamedTuple

import numpy as np

from .arith import (FactoredInteger, _iroot as _int_root, _primes_of, primes_up_to, sieve,
                    unit_group, valuation)
from .heights import darda_denominator, sectors
from .kummer import EXACT_WILD_DEGREES, KummerClass, wild_exponent

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
        points = [(0.0, 0)]  # a floor: the first B must be positive
        with open(path, newline="") as fh:
            rd = csv.reader(fh)
            header = next(rd, [])  # [] for an empty file
            if header[:2] != ["B", "count"]:
                raise ValueError("expected CSV header B,count")
            for row in rd:
                # B positive, finite and rising, count >= 0; a NaN B fails every comparison
                try:
                    b, c = float(row[0]), int(row[1])
                except (IndexError, ValueError):
                    b = c = math.nan
                if not (points[-1][0] < b < math.inf and c >= 0):
                    raise ValueError(f"line {rd.line_num}: expected B,count, B rising, got {row}")
                points.append((b, c))
        return cls(target, counter, ordering, tuple(points[1:]))


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
    jobs: int = 1  # read by nothing: kept while perfbench/workloads.py passes jobs=1

    def rungs(self) -> list[float]:
        return [math.ldexp(self.b0, i) for i in range(self.doublings + 1)]


# ---------------------------------------------------------------------------
# the support walk shared by both enumerators


# The local data of one stack, read by its enumerator and its counter.
# types[u] lists the (payload, class exponent e, cost j) triples a tame prime
# p = u mod n admits, none where u is no unit: such a type puts (p, payload)
# in a support, p^j in its |disc| and p^e in its class mod M.  wild[c] lists
# the (cost, pairs, tag) rows that go beside a tame part of class c mod M,
# cheapest first, none where c is no unit: the wild primes' share of |disc|,
# their (p, payload) pairs in prime order and a tag for the caller.
LocalTypes = NamedTuple("LocalTypes", [("n", int), ("types", tuple), ("M", int), ("wild", tuple)])


def _walk(local: LocalTypes, disc_bound: int):
    """Every support of increasing tame primes, one type of ``local.types``
    chosen per prime, beside each wild row of its class, with |disc| <=
    disc_bound, as (pairs, tag, |disc|): the (p, payload) pairs of the tame
    and wild primes merged in prime order.  Each support comes before its
    extensions, the empty one first, and its wild rows cheapest first.

    The least type cost p^m caps the primes and prunes each support; a
    cap whose primes pass the sieve limit raises ValueError naming it
    before anything is sieved.  A record with no tame type walks the empty
    support alone.
    """
    n, types, M, wild = local
    least = min((j for ts in types for _, _, j in ts), default=math.inf)
    limit = int(disc_bound ** (1.0 / least)) + 2
    if limit >= 2**31:
        raise ValueError(f"|disc| cap {disc_bound} needs primes past the sieve limit 2^31")
    # per prime: its least cost, and per type the pair, p^e mod M and p^j
    primes = [(p**least, [((p, t), pow(p, e, M), p**j) for t, e, j in ts])
              for p in primes_up_to(limit) if (ts := types[p % n])]

    def rec(idx: range, pairs: tuple, c: int, disc: int):
        for i in idx:
            least, ts = primes[i]
            if disc * least > disc_bound:
                break
            # a support that cannot pay the next prime's least cost is a
            # leaf: no generator is started for its extensions
            nxt = primes[i + 1][0] if i + 1 < len(primes) else disc_bound + 1
            for pair, pe, pj in ts:
                d = disc * pj
                if d <= disc_bound:
                    s = pairs + (pair,), c * pe % M, d
                    yield s
                    if d * nxt <= disc_bound:
                        yield from rec(range(i + 1, len(primes)), *s)

    supports = rec(range(len(primes)), (), 1 % M, 1)
    # each wild row with its largest prime (0 for none; none passes n)
    wild = [[(cost, w, tag, w[-1][0] if w else 0) for cost, w, tag in row] for row in wild]
    for pairs, c, disc in itertools.chain([((), 1 % M, 1)], supports):
        low = pairs[0][0] if pairs else n + 1
        for cost, wpairs, tag, top in wild[c]:  # cheapest first
            d = disc * cost
            if d > disc_bound:
                break
            # the pairs are in prime order unless a tame prime lies below a wild one
            yield (wpairs + pairs if low > top else tuple(sorted(wpairs + pairs))), tag, d


# ---------------------------------------------------------------------------
# mu_n enumeration


def _disc_bound(Bmax: float, n: int, ordering: str) -> int:
    """Largest |disc| d with measure <= Bmax.  Under darda it is the largest
    integer d with d ** (1/N) <= Bmax, the float test ``enumerate_mu``
    applies, found by bisection; a cap past 2^1023, where the test leaves
    the float range, raises ValueError, as does a Bmax that is not finite."""
    if not math.isfinite(Bmax):
        raise ValueError(f"Bmax must be finite, got {Bmax}")
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


def enumerate_mu(n: int, Bmax: float,
                 ordering: str = "disc_exact") -> Iterator[tuple[KummerClass, float]]:
    """Stream every canonical Kummer class with measure <= Bmax, once each.

    The tame part of a class is a support walked by ``_walk``: a tame
    prime p admits every exponent e in 1..n-1, the twisted sectors of
    ``heights.sectors``, at a cost of p^(n - gcd(e, n)).  Beside each
    support go the sign and the wild patterns (an exponent at each p | n)
    that ``_mu_types`` lists at the tame part's class, cheapest first, up
    to the first past the cap: within one support the stream runs cheapest
    wild pattern first.  No caller depends on that order.
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
    for factors, sign, d in _walk(_mu_types(n, ordering), disc_bound):
        m = d ** darda_exp if ordering == "darda" else d
        if m <= Bmax:
            yield KummerClass(n, FactoredInteger(sign, factors)), m


def _wild_patterns(n: int) -> list[tuple[int, int, int, tuple[tuple[int, int], ...]]]:
    """Every (sign, w, v, pattern) a Kummer class puts beside its tame part:
    a sign, and one exponent 0..n-1 at each prime p | n, as the product w
    of those prime powers, its valuation v at n when n is prime (else 0),
    and its factors (p, e) with e > 0."""
    wild = [(1, 0, ())]
    for p in _primes_of(n):
        wild = [(w * p**e, e if p == n else v, pat + (((p, e),) if e else ()))
                for w, v, pat in wild for e in range(n)]
    return [(s, w, v, pat) for w, v, pat in wild for s in ((1,) if n % 2 else (1, -1))]


def _reducible(n: int) -> list[tuple[int, int, tuple[int, ...]]]:
    """The sets of classes a with t^n - a reducible (Capelli): A_p, the p-th
    powers, for each prime p | n, and A_-4 = -4 Q^4 when 4 | n.  Each is a
    restriction (q, r2, signs): the exponent at every prime but 2 is 0 mod
    q, v_2 is r2 mod q, and the sign lies in signs."""
    return ([(p, 0, (1,) if p == 2 else (1, -1)) for p in _primes_of(n)]
            + [(4, 2, (-1,))] * (n % 4 == 0))


@cache
def _mu_types(n: int, ordering: str, within: tuple = ()) -> LocalTypes:
    """The local types of Bmu_n under ``ordering``: at every tame residue
    the twisted sectors of ``heights.sectors``, an exponent e of payload e
    and cost n - gcd(e, n).  M is n^2 where ``ordering`` measures the wild
    primes (n in {2, 3}, not disc_tame), else 1.  At each unit c mod M the
    wild rows are every (cost, pattern, sign) of ``_wild_patterns`` beside a
    tame part of class c, cheapest first, in ``_wild_patterns`` order among
    equal costs: the cost is n^(wild exponent), or 1 where the wild primes
    are not measured.  ``within``, a tuple of restrictions of
    ``_reducible``, keeps the classes in all of them: each restriction is a
    condition on every exponent and on the sign alone, so the record keeps
    the tame types and the wild rows that meet it.
    """
    M = n * n if ordering != "disc_tame" and n in EXACT_WILD_DEGREES else 1
    tame = tuple((e, e, j) for e, j in sectors(n).entries if all(e % q == 0 for q, _, _ in within))
    wild = [(s, w, v, pat) for s, w, v, pat in _wild_patterns(n)
            if all(s in signs and all(dict(pat).get(p, 0) % q == r2 * (p == 2)
                                      for p in _primes_of(n)) for q, r2, signs in within)]
    return LocalTypes(n, tuple(tame if math.gcd(u, n) == 1 else () for u in range(n)), M,
                      tuple(tuple(sorted(((n ** wild_exponent(n, s * w * c, v) if M > 1 else 1,
                                           pat, s) for s, w, v, pat in wild),
                                         key=lambda row: row[0]))
                            if math.gcd(c, M) == 1 else () for c in range(M)))


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


@cache
def _cyclic_types(n: int, d: int) -> LocalTypes:
    """The local characters into Z/nZ of order dividing d, each with its
    values on the generators of the local unit group as payload.  A tame
    prime p = u mod n admits the values c on the generator of (Z/p)^x whose
    order k = n / gcd(n, c) divides both d and p - 1 (the Galois twist),
    at a cost of p^(n - n/k).  M is 1: the one class's wild rows are every
    choice of a character of ``_local_characters`` or none at each p | n,
    tagged by their share of the conductor.
    """
    types = tuple(tuple(((c,), 0, n - n // k) for c in range(1, n) for k in [n // math.gcd(n, c)]
                        if d % k == 0 == (u - 1) % k) if math.gcd(u, n) == 1 else ()
                  for u in range(n))
    rows = [(1, (), 1)]
    for p in _primes_of(n):
        rows += [(cost * p**e, pairs + ((p, values),), f * q) for cost, pairs, f in rows
                 for (values, q, k), e in _local_characters(p, n) if d % k == 0]
    return LocalTypes(n, types, 1, (tuple(sorted(rows, key=lambda row: row[0])),))


def enumerate_cyclic(n: int, Bmax: float) -> Iterator[tuple[CyclicField, int]]:
    """Stream cyclic degree-n extensions of Q with |disc| <= Bmax, once each.

    Characters chi into Z/nZ are supports walked by ``_walk`` over the
    local characters of ``_cyclic_types(n, n)``: a tame prime p admits a
    character of order k only when k | p - 1, at a cost of p^(n - n/k), and
    the wild primes p | n carry the characters of ``_local_characters``.
    A character's values are its pairs' payloads in prime order; it is
    kept when its order is exactly n, once per Aut(Z/nZ) orbit.  The
    discriminant is prod_{j=1}^{n-1} cond(chi^j).  The stream is in support
    order, not conductor order.
    """
    if n < 2 or n > 12:
        raise ValueError("cyclic enumeration supports 2 <= n <= 12")
    disc_bound = _disc_bound(Bmax, n, "disc_exact")
    if disc_bound < 1:
        return
    # v is least in its Aut(Z/nZ) orbit only if its first nonzero value c is
    # gcd(c, n), the least value the units carry c to; then only the units
    # that fix c (u = 1 mod n/c) can carry v lower
    fixing = {c: [u for u in unit_group(n) if u % (n // c) == 1 and u != 1]
              for c in range(1, n) if n % c == 0}
    for pairs, f, d in _walk(_cyclic_types(n, n), disc_bound):
        v = sum([values for _, values in pairs], ())
        # order n / gcd(n, v) exactly n, one character per Aut(Z/nZ) orbit
        if math.gcd(n, *v) == 1 and n % (c := next(filter(None, v))) == 0 \
                and all(tuple(u * x % n for x in v) >= v for u in fixing[c]):
            yield CyclicField(n, f * math.prod([p for p, _ in pairs if n % p]), v, d), d


# ---------------------------------------------------------------------------
# fast counters: exact counts for every rung at once, from one sieve


# sieve entries past which a counter with one leading type of class shift
# 0 at every prime counts the squarefree d by Mobius sums instead of a
# prefix-sum table
_TABLE = 1 << 14

# a counter whose top cap is below this works in int64; from it on the
# caps, the h sweep's products and their quotients are Python ints
_INT64_TOP = 1 << 62


def _iroot(y: np.ndarray, m: int) -> np.ndarray:
    """floor(y^(1/m)) as int64, for m <= 10 and an array 0 <= y, of int64
    below 2^62 or of Python ints (dtype object) whose roots fit int64: the
    float root, corrected by exact comparisons in the dtype of y."""
    if m == 1:
        return y.astype(np.int64, copy=False)
    z = np.floor(y.astype(float) ** (1.0 / m)).astype(np.int64)
    while (over := z.astype(y.dtype, copy=False) ** m > y).any():
        z -= over
    while (under := (z.astype(y.dtype, copy=False) + 1) ** m <= y).any():
        z += under
    return z


def _ranges(lens: np.ndarray, starts) -> tuple[np.ndarray, np.ndarray]:
    """The ranges starts[j], ..., starts[j] + lens[j] - 1 end to end, as
    arrays of (j, value); ``starts`` may be one number for every range."""
    j = np.repeat(np.arange(len(lens)), lens)
    return j, np.arange(len(j)) - np.repeat(np.cumsum(lens) - lens - starts, lens)


def _count_types(local: LocalTypes, caps: list[int]) -> list[int]:
    """How many supports ``_walk`` reaches within each |disc| cap (caps
    ascending), wild costs included, counted from the local types alone.
    Every product it forms stays within the top cap: the h sweep starts at
    each wild cost and prunes by top // k.  The caps, the sweep's products
    and their quotients are int64 while the top cap is below 2^62 and
    Python ints (dtype object) from there on; the queries into the table,
    bounded by the memory guard, are int64 in both cases.  A record with
    no tame type counts the wild costs beside the empty support alone.

    ``local`` is the record the walk reads: a tame prime p admits the types
    ``local.types[p % n]``, each costing p^j and moving the tame part's
    class mod M by p^e, so the counter keys the primes by their residue
    u mod L = lcm(n, M); beside a tame part of class c mod M go the wild
    costs of ``local.wild[c]``.  Callers with M > 1 have h = 1.
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
    raises ValueError naming the top cap instead of allocating.
    """
    n, types, M, rows = local
    top = max(caps)
    costs = {c: Counter(cost for cost, _, _ in row) for c, row in enumerate(rows) if row}
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
    if not any(types):  # the empty support, of class 1 (t = 0)
        return [sum(k for t, c, k in wild if t == 0 and c <= cap) for cap in caps]
    log = {pow(g, i, M): i % C for i in range(len(costs))}
    bound = top // min(c for _, c, _ in wild)
    m = min(j for ts in types for _, _, j in ts)
    # P[u]: the leading types at residue u as a polynomial in the class
    # shift; H[u][j] = h(p^j) at p = u mod L
    L = math.lcm(n, M)
    P = [[0] * C for _ in range(L)]
    H = [[1] + [0] * bound.bit_length() for _ in range(L)]
    for u in unit_group(L):
        f = Counter(j for _, _, j in types[u % n])  # f(p^j)
        for _, e, j in types[u % n]:
            P[u][e * log[u % M] % C] += j == m
        for j in range(m, len(H[u])):
            H[u][j] = f[j] - f[m] * H[u][j - m]

    zmax = _int_root(bound, m) if m > 1 and bound else bound  # exact, past int64 too
    mobius = all(P[u] == [1] + [0] * (C - 1) for u in unit_group(L))
    Z = max(math.isqrt(zmax), min(zmax, _TABLE)) if mobius else zmax
    # peak memory per sieve entry, measured: 13-14 bytes on the Mobius path
    # (the sieve's own peak), 26-37 for one class row (the sieve, the live d,
    # V and a round's arrays) and 53 for C = 3; the guard keeps 32 a class
    # row, so that no ladder changes route
    if (Z + 1) * 32 * C > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
        raise ValueError(f"|disc| cap {top} needs more than physical memory")
    dtype = np.int64 if top < _INT64_TOP else object

    # p^j for each j with h(p^j) != 0, over the same primes prime to n:
    # index i is one prime, weighted by h(p^j) at its residue
    js = [j for j in range(m + 1, len(H[0])) if any(h[j] for h in H)]
    ps = [p for p in primes_up_to(int(bound ** (1 / js[0])) + 1) if n % p] if js else []
    H = np.array(H)
    pw = [(H[np.array(ps[:len(pj)], dtype=np.int64) % L, j], np.array(pj, dtype=dtype))
          for j in js for pj in [list(itertools.takewhile(bound.__ge__, (p**j for p in ps)))]]
    # the supports of h times each wild cost c, one prime more per sweep:
    # weight, k, the index of the largest prime and the class t beside the
    # wild cost; a support of weight 0 counts nothing
    W, K, I, R = (np.array(x) for x in zip(*((k, c, -1, t) for t, c, k in wild)))
    K = K.astype(dtype)
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
    for p in _primes_of(n):
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
    caps = np.array(caps, dtype=dtype)
    first = np.searchsorted(caps, Q)
    i, c = _ranges(len(caps) - first, first)
    z = _iroot(caps[c] // Q[i], m)
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


def _count_mu(n: int, ordering: str, rungs: list[float], counter: str = "T") -> list[int]:
    """T(B), or M(B), for mu_n, every rung at once: what ``enumerate_mu``
    walks, counted by ``_count_types`` from the same record (``_mu_types``)
    and the same |disc| caps (``_disc_bound``).  M(B) is T(B) less the
    reducible classes, by inclusion-exclusion over the sets of
    ``_reducible``: each intersection is one restricted record, the empty
    ones (A_2 and A_-4 share no sign) counting nothing.
    """
    caps = [_disc_bound(B, n, ordering) for B in rungs]
    counts = _count_types(_mu_types(n, ordering), caps)
    sets = _reducible(n) if counter == "M" else []
    for k in range(1, len(sets) + 1):
        for within in itertools.combinations(sets, k):
            if any((local := _mu_types(n, ordering, within)).wild):
                counts = [c + (-1) ** k * r for c, r in zip(counts, _count_types(local, caps))]
    return counts


def _count_cyclic(n: int, rungs: list[float]) -> list[int]:
    """M(B) for cyclic degree-n fields, every rung at once: the characters
    of order exactly n, over phi(n), are sum_{d | n} mu(n/d) C_d, C_d
    counting the characters of order dividing d, which ``_count_types``
    counts from ``_cyclic_types(n, d)``.
    """
    caps = [_disc_bound(B, n, "disc_exact") for B in rungs]
    mob = sieve(n)[1].tolist()  # mob[n // d] = mu(n/d)
    total = [mob[n] * (cap >= 1) for cap in caps]  # C_1 = 1
    for d in (d for d in range(2, n + 1) if n % d == 0 and mob[n // d]):
        counts = _count_types(_cyclic_types(n, d), caps)
        total = [t + mob[n // d] * c for t, c in zip(total, counts)]
    return [t // len(unit_group(n)) for t in total]


# ---------------------------------------------------------------------------
# ladders and fitting


# (kind, n, counter, ordering) -> exact counter of every rung at once: mu_n
# T and M under every ordering enumerate_mu takes, and the cyclic fields of
# every degree enumerate_cyclic takes
FAST_COUNTERS = {
    **{("mu", n, c, o): partial(_count_mu, n, o, counter=c)
       for n in range(2, 13) for o in ORDERINGS if o != "disc_exact" or n in EXACT_WILD_DEGREES
       for c in "TM"},
    **{("cyclic", n, "M", "disc_exact"): partial(_count_cyclic, n) for n in range(2, 13)},
}


def count(spec: LadderSpec) -> CountLadder:
    """Build the count ladder for a census target.

    Every key of ``FAST_COUNTERS`` goes through the local-type counter
    ``_count_types``.  Every other key, a negative ``doublings``, a ``b0``
    that is not positive and finite and a top rung b0 * 2^doublings past
    the float range raise ValueError before anything is counted; so does a
    ladder whose tables would not fit in physical memory, before it
    allocates them.
    """
    kind, n = spec.target
    if spec.doublings < 0:
        raise ValueError(f"doublings must be >= 0, got {spec.doublings}")
    if not 0 < spec.b0 < math.inf:
        raise ValueError(f"b0 must be positive and finite, got {spec.b0}")
    if math.frexp(spec.b0)[1] + spec.doublings > 1024:  # b0 * 2^doublings >= 2^1024
        raise ValueError(f"top rung b0 * 2^{spec.doublings} is not finite, b0 = {spec.b0}")
    fast = FAST_COUNTERS.get((kind, n, spec.counter, spec.ordering))
    if fast is None:
        raise ValueError(f"no census of {kind}:{n}, counter {spec.counter}, "
                         f"ordering {spec.ordering}")
    rungs = spec.rungs()
    return CountLadder(f"{kind}:{n}", spec.counter, spec.ordering, tuple(zip(rungs, fast(rungs))))


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
