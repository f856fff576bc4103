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
(no caller depends on the order within a support), from the prime table
the record's plan keeps.  ``count`` looks each
ladder target up in ``FAST_COUNTERS``, and any target outside it raises.
Every key there goes through one local-type counter, ``_count_types``,
which counts what the walk reaches from the same record, on numpy arrays
from ``arith.sieve`` or ``arith.mobius``, the one mu table of a count,
sieved once its queries are made: the mu keys (T and M for n = 2..12
under every ordering ``enumerate_mu`` takes) with the |disc| caps of
``_disc_bound``, M being T less the reducible classes, counted from
restricted records by inclusion-exclusion over the sets of Capelli's
criterion that ``kummer._reducible`` owns and ``is_irreducible`` reads;
the cyclic keys (M for n = 2..12) for each d | n, inverted by Mobius over
d.  The counter works in int64 below a top cap of 2^62 and in Python ints
from there on; a ladder past physical memory raises ValueError.
"""

from __future__ import annotations

import bisect
import csv
import itertools
import math
import os
import sys
from collections import Counter
from dataclasses import asdict, dataclass
from functools import cache, partial
from typing import Iterator, NamedTuple

import numpy as np

from .arith import (FactoredInteger, _iroot as _int_root, _primes_of, mobius, primes_up_to,
                    sieve, unit_group, valuation)
from .heights import darda_denominator, sectors
from .kummer import EXACT_WILD_DEGREES, KummerClass, _reducible, wild_exponent

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
    and wild primes merged in prime order.  The empty support comes first,
    each support before its extensions, and its wild rows cheapest first.

    One loop over an explicit stack of the supports that can pay the next
    prime's least cost reads a prefix of the record's prime table,
    ``_Plan.prime_table``, and emits each support's wild rows as it makes
    the support.  A cap whose primes pass the sieve limit raises ValueError
    naming it before anything is sieved.  A record with no tame type walks
    the empty support alone.
    """
    plan, M = _plan(local), local.M
    (primes, hi), rows = plan.prime_table(disc_bound), plan.rows
    for cost, wpairs, tag, _ in rows[1 % M]:  # the empty support
        if cost > disc_bound:
            break
        yield wpairs, tag, cost
    # (index of the next prime, pairs, class mod M, |disc|) of each support
    # with an extension left to make
    stack = [(0, (), 1 % M, 1)]
    while stack:
        i, pairs, c, disc = stack.pop()
        for i in range(i, hi):
            least, ts = primes[i]
            if disc * least > disc_bound:
                break
            for pair, pe, pj in ts:
                if (d := disc * pj) > disc_bound:
                    continue
                # the support, its class and its least prime
                s, t, low = pairs + (pair,), c * pe % M, (pairs[0] if pairs else pair)[0]
                for cost, wpairs, tag, top in rows[t]:  # cheapest first
                    if (dw := d * cost) > disc_bound:
                        break
                    # the pairs are in prime order unless a tame prime lies below a wild one
                    yield (wpairs + s if low > top else tuple(sorted(wpairs + s))), tag, dw
                if i + 1 < hi and d * primes[i + 1][0] <= disc_bound:
                    stack.append((i + 1, s, t, d))


# ---------------------------------------------------------------------------
# mu_n enumeration


def _disc_bound(Bmax: float, n: int, ordering: str) -> int:
    """Largest |disc| d with measure <= Bmax.  Under darda it is the largest
    integer d with d ** (1/N) <= Bmax, the float test ``enumerate_mu``
    applies.  It is the float estimate est = Bmax^N or within est / 2^42
    of it (N ulps of the power and ln(d) ulps of the exponent 1/N): the
    bracket [est, est + 1] is widened at each end by 1 + est / 2^42, then by
    twice as much each time, until the test holds at its foot and fails at
    its head, and then bisected.  A cap past 2^1023, where the test leaves
    the float range, raises ValueError, as does a Bmax that is not finite."""
    if not math.isfinite(Bmax):
        raise ValueError(f"Bmax must be finite, got {Bmax}")
    if ordering != "darda":
        return math.floor(Bmax)
    x = 1.0 / (N := darda_denominator(n))
    if (2.0**1023) ** x <= Bmax:  # the cap passes the float range
        raise ValueError(f"darda bound {Bmax:g}: |disc| cap {Bmax:g}^{N} passes 2^1023")
    est = int(max(Bmax, 0.0) ** N)  # 0 where 1 ** x fails the test
    lo, hi, step = est, est + 1, 1 + (est >> 42)
    while (lo and lo**x > Bmax) or hi**x <= Bmax:  # until lo passes or is 0, and hi fails
        lo, hi, step = max(lo - step, 0), hi + step, 2 * step
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
    walk = _walk(_mu_types(n, ordering), disc_bound)
    if ordering == "darda":  # else the measure is |disc| <= disc_bound = floor(Bmax)
        x = 1.0 / darda_denominator(n)
        walk = ((factors, sign, m) for factors, sign, d in walk if (m := d**x) <= Bmax)
    for factors, sign, m in walk:
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
    ``kummer._reducible``, keeps the classes in all of them: each
    restriction is a condition on every exponent and on the sign alone, so
    the record keeps the tame types and the wild rows that meet it.
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


class _Plan:
    """What ``_walk`` and ``_count_types`` read of one record besides their
    caps, built once per record by ``_plan``: no count, sieve or stream is
    kept.

    The walk reads m, the least type cost p^m (0 with no tame type);
    ``rows``, each wild row of each class with its largest prime (0 for
    none); and ``prime_table``, which grows the table of the tame primes'
    types to the largest prime limit a walk asks for and keeps it, as
    ``h_table`` keeps H.

    The units mod M, the keys of the wild costs, are the powers of a
    generator g, and g^i matters only through i mod C, g^C being the least
    power of g that keeps every cost.  ``wild`` holds one term (t, c, k) per
    class t and wild cost c, k rows costing c; ``mobius_path`` whether the
    leading types (least cost p^m) at each residue are one type of shift 0,
    and if not, ``P[:, u]`` those at p = u mod L as a polynomial in the
    class shift; ``rolls`` the row indices that shift a class row by
    s = 1..C-1.  ``h_table`` grows the table of h(p^j) to the bit length a
    count asks for.
    """

    def __init__(self, local: LocalTypes):
        n, types, M, rows = local
        # prime_table's limit and entries, one tuple so that a walk reads them together
        self.local, self.table = local, (0, [])
        self.rows = [[(cost, w, tag, w[-1][0] if w else 0) for cost, w, tag in row] for row in rows]
        costs = {c: Counter(r[0] for r in row) for c, row in enumerate(rows) if math.gcd(c, M) == 1}
        g = next(u for u in costs if len({pow(u, i, M) for i in range(len(costs))}) == len(costs))
        self.C = C = next(c for c in range(1, len(costs) + 1)
                          if all(costs[pow(g, c, M) * u % M] == costs[u] for u in costs))
        self.wild = [(t, c, k) for t in range(C) for c, k in costs[pow(g, t, M)].items()]
        log = {pow(g, i, M): i % C for i in range(len(costs))}
        self.m = m = min((j for ts in types for _, _, j in ts), default=0)
        self.L = L = math.lcm(n, M)
        self.f = {u: Counter(j for _, _, j in types[u % n]) for u in unit_group(L)}  # f(p^j)
        P = [[0] * C for _ in range(L)]
        for u in unit_group(L):
            for _, e, j in types[u % n]:
                P[u][e * log[u % M] % C] += j == m
        self.mobius_path = all(P[u] == [1] + [0] * (C - 1) for u in unit_group(L))
        self.P = None if self.mobius_path else np.array(P, dtype=np.int8).T
        # G[rolls[s - 1]] is np.roll(G, s, axis=0)
        self.rolls = [np.array([i - s for i in range(C)]) for s in range(1, C)]
        self.bits = -1  # h_table's width

    def prime_table(self, disc_bound: int) -> tuple[list, int]:
        """The walk's entries for the primes p with a tame type, ascending:
        (p^m, [((p, payload), p^e mod M, p^j) per type]), grown to the primes
        the cap disc_bound can reach, and how many of them have p^m <=
        disc_bound.  A cap whose primes pass the sieve limit raises
        ValueError naming it before anything is sieved."""
        (n, types, M, _), m, (limit, primes) = self.local, self.m, self.table
        need = int(disc_bound ** (1.0 / m)) + 2 if m else 0  # m = 0: no tame type
        if need >= 2**31:
            raise ValueError(f"|disc| cap {disc_bound} needs primes past the sieve limit 2^31")
        if need > limit:
            # a new list: a walk already running keeps reading its own
            primes = primes + [(p**m, [((p, t), pow(p, e, M), p**j) for t, e, j in ts])
                               for p in primes_up_to(need) if p > limit and (ts := types[p % n])]
            self.table = need, primes
        return primes, bisect.bisect_right(primes, disc_bound, key=lambda entry: entry[0])

    def h_table(self, bits: int) -> tuple[np.ndarray, list[int]]:
        """H[u, j] = h(p^j) at p = u mod L for j <= bits, h(p^j) = f(p^j) -
        f(p^m) h(p^(j - m)), and the j in m+1..bits where some h(p^j) != 0.
        H is int64 when its entries fit, else Python ints (dtype object)."""
        if bits > self.bits:
            m, H = self.m, [[1] + [0] * bits for _ in range(self.L)]
            for u, f in self.f.items():
                h, lead = H[u], f[m]
                for j in range(m, bits + 1):
                    h[j] = f.get(j, 0) - lead * h[j - m]
            self.js = [j for j in range(m + 1, bits + 1) if any(h[j] for h in H)]
            self.H, self.bits = np.array(H), bits
            self.H.flags.writeable = False  # h_table hands out views of it
        H = self.H[:, :bits + 1]
        return np.array(H.tolist()) if H.dtype == object else H, [j for j in self.js if j <= bits]


_plan = cache(_Plan)


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
    d prime to n.  When every prime has one leading type of shift 0 (the
    Mobius path) g is 1 on those d, and ``_squarefree_counts`` counts them
    from ``arith.mobius`` alone, sieved to about the square root of the
    largest query (or ``_TABLE``): |mu| summed at the queried z within it,
    the Mertens sums past it.  Otherwise C int64 class rows to the largest
    query are built one prime of every d at a time over the spf of
    ``arith.sieve``, and read off their prefix sums.  h(p^j) = f(p^j) -
    (leading types at p) h(p^(j - m)) vanishes for j <= m, so its supports
    are few; they are swept one prime more at a time.

    All of this that depends on the record alone is its plan, ``_plan``,
    built once per record and cached like the record: the wild terms by
    class, m, L, the leading types and the Mobius path, the row shifts of
    the class rows and the table of h(p^j), which grows to the bit length of
    the largest bound asked for, so that a first call builds no more than
    it reads.  No count, sieve or query is cached.

    The memory guard counts the table first, then the sweep's supports with
    their (cap, term) pairs as each round builds them, a piece at a time:
    past physical memory the counter raises ValueError naming the top cap
    before it sieves the table, builds a round's next piece or joins its
    pieces, or forms the pairs.
    """
    plan, n, top = _plan(local), local.n, max(caps)
    # the wild terms within the top cap (a weight-0 term when there is none)
    wild = [w for w in plan.wild if w[1] <= top] or [(0, 1, 0)]
    if not any(local.types):  # the empty support, of class 1 (t = 0)
        return [sum(k for t, c, k in wild if t == 0 and c <= cap) for cap in caps]
    bound = top // min(c for _, c, _ in wild)
    m, L, C = plan.m, plan.L, plan.C
    zmax = _int_root(bound, m) if m > 1 and bound else bound  # exact, past int64 too
    Z = max(math.isqrt(zmax), min(zmax, _TABLE)) if plan.mobius_path else zmax
    # peak memory per sieve entry, measured: 6-11 bytes on the Mobius path
    # (mu, its int32 Mertens sums and the batch past the table; the sieve
    # itself holds 5), where the guard keeps 32 a class; with class rows 5
    # for the sieve and 8 a row for V, then per live d (up to 0.56 of the
    # entries, 6/pi^2 less the d that share a prime with n) its first
    # round's arrays: 28-43 bytes in all for one row (mu_11 and mu_7 the
    # most), 93 for C = 3, where the guard keeps 16 + 32 C
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")

    def guard(nbytes: int) -> None:  # before nbytes are allocated
        if nbytes > memory:
            raise ValueError(f"|disc| cap {top} needs more than physical memory")

    # the table, sieved last, is counted first
    guard(held := (Z + 1) * (32 * C if plan.mobius_path else 16 + 32 * C))
    dtype = np.int64 if top < _INT64_TOP else object
    # bytes per support the sweep keeps and per (cap, term) pair, from
    # tracemalloc peaks over mu:4 tame and mu:12 darda ladders: a support
    # holds W, K, R and its first cap, 8 bytes each, and past int64 the
    # Python int of K, no larger than top; a pair peaks at 42 bytes in int64
    # (c, i, the quotient, its root and the lookups) and at 89 past it plus
    # twice the quotient's Python int, no larger than top (the quotient and
    # the root's powers)
    big = sys.getsizeof(top) if dtype is object else 0
    support_bytes, pair_bytes = 32 + big, (96 + 2 * big) if big else 48

    # p^j for each j with h(p^j) != 0, over the primes p <= bound^(1/j)
    # prime to n, so that no p^j passes bound in the sweep's dtype: index i
    # is one prime, weighted by h(p^j) at its residue
    H, js = plan.h_table(bound.bit_length())
    ps = np.array(primes_up_to(_int_root(bound, js[0])) if js else [], dtype=np.int64)
    ps = ps[n % ps != 0]
    pw = [(H[pj % L, j], pj.astype(dtype) ** j)
          for j in js for pj in [ps[:np.searchsorted(ps, _int_root(bound, j), "right")]] if len(pj)]
    # the supports of h times each wild cost c, one prime more per sweep:
    # weight, k, the index of the largest prime and the class t beside the
    # wild cost.  Each support q = k c is one term: its weight times the
    # tame parts of class t over the d with q d^m <= cap, within the caps
    # from its first one on, so that its (cap, term) pairs are counted with
    # it, before the pairs are formed and anything is sieved
    caps = np.array(caps, dtype=dtype)
    W, K, I, R = (np.array(x) for x in zip(*((k, c, -1, t) for t, c, k in wild)))
    K = K.astype(dtype)
    sup = []
    while len(K):
        sup.append((W, K, R, np.searchsorted(caps, K)))
        held += len(K) * support_bytes + int((len(caps) - sup[-1][3]).sum()) * pair_bytes
        y, new, fresh = top // K, [(W[:0], K[:0], I[:0], R[:0])], 0
        nxt, ymax = I.min() + 1, y.max()
        for w, pj in pw:
            # no support can pay the next prime's p^j, nor a higher power
            if len(pj) <= nxt or pj[nxt] > ymax:
                break
            cnt = np.maximum(np.searchsorted(pj, y, side="right") - I - 1, 0)
            rep, i = _ranges(cnt, I + 1)
            if not w.all():  # a support of weight 0 counts nothing
                rep, i = rep[w[i] != 0], i[w[i] != 0]
            new.append((W[rep] * w[i], K[rep] * pj[i], i, R[rep]))
            # each new support brings at least the pair of the top cap, whose
            # bytes cover its share of the pieces and their concatenation
            fresh += len(i)
            guard(held + fresh * (support_bytes + pair_bytes))
        W, K, I, R = (np.concatenate(x) for x in zip(*new))
    guard(held)  # every support and its pairs, before the pairs are formed
    Wt, Q, R, first = (np.concatenate(x) for x in zip(*sup))
    del sup  # the rounds, copied into Wt, Q, R and first
    i, c = _ranges(len(caps) - first, first)
    z = _iroot(caps[c] // Q[i], m)
    # one mu table for both paths, sieved once the queries are made
    spf, mu = (None, mobius(Z)) if plan.mobius_path else sieve(Z)
    for p in _primes_of(n):
        mu[::p] = 0
    if plan.mobius_path:
        g = _squarefree_counts(z, mu, n)
    else:
        # V[t, d]: the tame parts over the squarefree d prime to n, of class
        # t, built one prime of every live d per round; a leading type p^e
        # moves class t to t + e log(p) mod C.  A d leaves when its weight is
        # 0 or it has no prime left, and is then written to V.  int64: the
        # products of leading-type counts can pass 2^31.
        live = np.flatnonzero(mu)[1:]  # d = 1 has no prime
        V = np.zeros((C, Z + 1), dtype=np.int64)  # int: float dots would start BLAS threads
        V[0, 1] = 1
        rest, G = live, np.repeat(np.eye(C, 1, dtype=np.int64), len(live), axis=1)
        while len(live):
            x = np.take(plan.P, spf[rest] % L, axis=1)
            rest = rest // spf[rest]
            G = sum((x[s] * G[r] for s, r in enumerate(plan.rolls, 1)), x[0] * G)
            V[:, live[done]] = G[:, done := np.flatnonzero(G.any(axis=0) & (rest == 1))]
            k = np.flatnonzero(G.any(axis=0) & (rest > 1))
            live, rest, G = live[k], rest[k], np.take(G, k, axis=1)
        g = V.cumsum(axis=1, out=V)[R[i], z]
    counts = np.zeros(len(caps), dtype=np.int64)
    np.add.at(counts, c, Wt[i] * g)
    return counts.tolist()


def _squarefree_counts(z: np.ndarray, mu: np.ndarray, n: int) -> np.ndarray:
    """How many squarefree d <= z are prime to n, for each z >= 1 of an
    int64 array, as int64, from ``mu``, the Mobius function over 0..Z with
    its multiples of each p | n struck out.

    The z <= Z are read off the int32 running count of |mu| when there are
    at least Z of them; fewer, |mu| is summed between their distinct values
    by one reduceat, and one np.unique serves them and the z past Z.  Past
    the table, the count is sum_e mu(e) phi_n(z // e^2), split at
    s = floor(z^(1/3)): the e up to x = isqrt(z // (s + 1)) one by one; the
    rest grouped by k = z // e^2 <= s and summed by parts, the int32
    Mertens sums at isqrt(z // k) over the k prime to n, less phi_n(s) M(x).
    Each distinct z once, in chunks of at most Z terms; with no z past the
    table the Mertens sums are not built.
    """
    Z = len(mu) - 1
    inside = z <= Z
    few = np.count_nonzero(inside) < Z
    if few:
        zs, inv = np.unique(z, return_inverse=True)
        inner = np.searchsorted(zs, Z, side="right")
    else:
        tab = np.abs(mu, dtype=np.int32)
        g = np.cumsum(tab, out=tab)[np.minimum(z, Z)].astype(np.int64)
        zs, inv = np.unique(z[~inside], return_inverse=True)
        inner = 0
    sums = np.zeros(len(zs), dtype=np.int64)
    if inner:
        sums[:inner] = np.add.reduceat(mu[:zs[inner - 1] + 1] != 0, np.r_[0, zs[:inner - 1] + 1],
                                       dtype=np.int64).cumsum()
    if inner == len(zs):  # no z past the table
        return sums[inv] if few else g
    # each running sum cast once and summed in place: a cumsum with a dtype
    # holds a cast copy of its input beside its output
    mertens = mu.astype(np.int32)
    np.cumsum(mertens, out=mertens)
    unit = np.array([math.gcd(j, n) == 1 for j in range(n)], dtype=np.int64)  # n >= 2
    coprime = np.cumsum(unit)

    def phi_n(y):  # the j <= y prime to n
        return y // n * coprime[-1] + coprime[y % n]

    zp = zs[inner:]
    s = np.cbrt(zp).astype(np.int64)
    x = _iroot(zp // (s + 1), 2)
    past = sums[inner:]
    past -= phi_n(s) * mertens[x]
    for lo in range(0, len(zp), step := max(1, Z // (x + s).max(initial=1))):
        j, e = _ranges(x[lo:lo + step], 1)
        np.add.at(past, lo + j, mu[e] * phi_n(zp[lo + j] // (e * e)))
        j, k = _ranges(s[lo:lo + step], 1)
        np.add.at(past, lo + j, unit[k % n] * mertens[_iroot(zp[lo + j] // k, 2)])
    if few:
        return sums[inv]
    g[~inside] = sums[inv]
    return g


def _count_mu(n: int, ordering: str, rungs: list[float], counter: str = "T") -> list[int]:
    """T(B), or M(B), for mu_n, every rung at once: what ``enumerate_mu``
    walks, counted by ``_count_types`` from the same record (``_mu_types``)
    and the same |disc| caps (``_disc_bound``).  M(B) is T(B) less the
    reducible classes, by inclusion-exclusion over the sets of
    ``kummer._reducible``: each intersection is one restricted record, the
    empty ones (A_2 and A_-4 share no sign) counting nothing.
    """
    caps = [_disc_bound(B, n, ordering) for B in rungs]
    counts = _count_types(_mu_types(n, ordering), caps)
    sets = _reducible(n) if counter == "M" else ()
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
    mob = mobius(n).tolist()  # mob[n // d] = mu(n/d)
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
