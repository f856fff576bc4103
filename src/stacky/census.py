"""Censuses: enumerate cyclic torsors of bounded discriminant, build count
ladders T(B)/M(B), and fit the exponents of B^alpha (log B)^beta.

Two enumerators share one walk, ``_walk``, over supports of increasing
primes pruned by the partial |disc|; each supplies only the local types a
tame prime p admits.  ``enumerate_mu`` walks canonical Kummer classes, whose
tame primes admit every twisted sector of ``heights.sectors`` (order k | n,
cost p^(n - n/k)); ``enumerate_cyclic`` walks cyclic degree-n fields over
the local characters of ``_local_characters``, where order k needs k | p - 1,
the Galois twist between Bmu_n and B(Z/nZ).  ``count`` looks each ladder
target up in ``FAST_COUNTERS``, closed-form counters on numpy arrays from
``arith.sieve``, and streams the enumerators for every other target.
"""

from __future__ import annotations

import bisect
import csv
import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .arith import (FactoredInteger, factor, primes_up_to, sieve, smallest_prime_factor,
                    unit_group, valuation)
from .heights import darda_denominator, sectors
from .kummer import KummerClass, is_irreducible, wild_exponent

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
            header = next(rd)
            if header[:2] != ["B", "count"]:
                raise ValueError("expected CSV header B,count")
            for row in rd:
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
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "gamma": self.gamma,
            "residual_rms": self.residual_rms,
            "window": list(self.window),
        }


@dataclass(frozen=True)
class LadderSpec:
    target: tuple[str, int]  # ("mu", n) or ("cyclic", n)
    counter: str = "T"
    ordering: str = "disc_exact"
    b0: float = DEFAULT_B0
    doublings: int = DEFAULT_DOUBLINGS
    jobs: int = 1

    @property
    def bmax(self) -> float:
        return self.b0 * 2**self.doublings

    def rungs(self) -> list[float]:
        return [self.b0 * 2**i for i in range(self.doublings + 1)]


# ---------------------------------------------------------------------------
# the support walk shared by both enumerators


def _walk(n: int, disc_bound: int, table, fold, root, part: tuple[int, int] | None = None):
    """Every support of increasing primes, one local type chosen per prime,
    with |disc| <= disc_bound, as (state, |disc|): each support before its
    extensions, the empty one (state ``root``, |disc| 1) first.

    ``table(p)`` lists the local types p admits as (type, e), p^e being
    the type's share of |disc|; primes with no type never enter a support.
    ``fold(state, p, type)`` extends a support's state by one prime.  A
    type costs at least p^(n - n/r), r the smallest prime factor of n,
    which caps the primes and prunes each support.  ``part=(w, nparts)``
    keeps the supports whose smallest prime has index w mod nparts in the
    prime list, the empty support going with index 0.
    """
    min_exp = n - n // smallest_prime_factor(n)
    primes = [(p, p**min_exp, [(t, p**e) for t, e in types])
              for p in primes_up_to(int(disc_bound ** (1.0 / min_exp)) + 2)
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
    """Largest |disc| compatible with measure <= Bmax."""
    if ordering in ("disc_exact", "disc_tame"):
        return math.floor(Bmax)
    return math.floor(Bmax ** darda_denominator(n) * (1 + 1e-12))


def enumerate_mu(
    n: int,
    Bmax: float,
    ordering: str = "disc_exact",
    part: tuple[int, int] | None = None,
) -> Iterator[tuple[KummerClass, float]]:
    """Stream every canonical Kummer class with measure <= Bmax, once each.

    The tame part of a class is a support walked by ``_walk``: a tame
    prime p admits every exponent e in 1..n-1, the twisted sectors of
    ``heights.sectors``, at a cost of p^(n - gcd(e, n)); wild primes
    (p | n) and the sign are enumerated exhaustively on each support.
    ``part=(w, nparts)`` restricts the stream to one deterministic
    partition, keyed by the smallest tame support prime.
    """
    if ordering not in ORDERINGS:
        raise ValueError(f"unknown ordering {ordering!r}")
    if ordering == "disc_exact" and n not in (2, 3):
        raise ValueError("disc_exact ordering requires n in {2, 3}")
    if n > 12:
        raise ValueError("enumeration supports n <= 12")
    disc_bound = _disc_bound(Bmax, n, ordering)
    if disc_bound < 1:
        return
    signs = (1,) if n % 2 else (1, -1)
    # exact wild exponents exist for n in {2, 3}, whose one wild prime is n
    exact = ordering == "disc_exact" or (ordering == "darda" and n in (2, 3))
    darda_exp = 1.0 / darda_denominator(n)

    # all wild exponent patterns (including absence, exponent 0), each with
    # its integer value and its valuation at the prime n
    wild: list[tuple[int, int, tuple[tuple[int, int], ...]]] = [(1, 0, ())]
    for p, _ in factor(n).factors:
        wild = [
            (w * p**e, e if p == n else v, pat + (((p, e),) if e else ()))
            for w, v, pat in wild
            for e in range(n)
        ]

    # a support's state: its tame value and factors, one exponent per prime
    tame = sectors(n).entries
    walk = _walk(n, disc_bound, lambda p: () if n % p == 0 else tame,
                 lambda s, p, e: (s[0] * p**e, s[1] + ((p, e),)), (1, ()), part)
    for (tame_a, tame_factors), tame_disc in walk:
        for w, v, pat in wild:
            for sign in signs:
                d = tame_disc
                if exact:
                    d *= n ** wild_exponent(n, sign * w * tame_a, v)
                m = d ** darda_exp if ordering == "darda" else d
                if m <= Bmax:
                    base = FactoredInteger(sign, tuple(sorted(pat + tame_factors)))
                    yield KummerClass(n, base), m


# ---------------------------------------------------------------------------
# cyclic extensions via characters


@dataclass(frozen=True)
class CyclicField:
    """A cyclic degree-n field over Q: conductor, character data, |disc|."""

    n: int
    conductor: int
    character: tuple[int, ...]  # images of the unit-group generators in Z/n
    disc: int


def _local_conductor(p: int, values: list[int], n: int) -> int:
    """Conductor of the p-part of a character given its component values."""
    orders = [n // math.gcd(n, c) for c in values]
    if all(o == 1 for o in orders):
        return 1
    if p != 2:
        o = orders[0]
        # smallest p^j with o | phi(p^j)
        j = 1
        phi = p - 1
        while phi % o:
            j += 1
            phi *= p
        return p**j
    if len(orders) == 1:
        # the (Z/4)^x component
        return 4
    o_five = orders[1]
    if o_five == 1:
        return 4
    return 2 ** (o_five.bit_length() - 1 + 2)


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
            if _local_conductor(p, values, n) != p**j:
                continue
            e = sum(valuation(_local_conductor(p, [i * c % n for c in values], n), p)
                    for i in range(1, n))
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
    aut = [u % n for u in unit_group(n)]
    # a tame prime's table (p does not divide n) depends on p only through
    # gcd(n, p - 1) and its conductor p: one template per gcd, stamped per p
    tame: dict[int, list] = {}

    def table(p: int) -> list:
        if n % p == 0:
            return _local_characters(p, n)
        g = math.gcd(n, p - 1)
        if g not in tame:
            tame[g] = _local_characters(p, n)
        return [((v, p, k), e) for (v, _, k), e in tame[g]]

    def fold(state, p, char):
        (values, order, cond), (v, q, k) = state, char
        return values + v, math.lcm(order, k), cond * q

    for (v, o, f), d in _walk(n, disc_bound, table, fold, ((), 1, 1)):
        # order exactly n, one character per Aut(Z/nZ) orbit
        if o == n and min(tuple(u * c % n for c in v) for u in aut) == v:
            yield CyclicField(n, f, v, d), d


# ---------------------------------------------------------------------------
# fast counters: exact counts for every rung at once, from one sieve


def _prime_rounds(values: np.ndarray, spf: np.ndarray) -> Iterator[np.ndarray]:
    """The prime factors of each value, one array per round: round j holds
    every value's j-th smallest prime (with multiplicity), or 1 once it has
    none left."""
    rest = values
    while (rest > 1).any():
        p = spf[rest]
        yield p
        rest = rest // p


def _squarefree_counts(x: int, d: np.ndarray, mu_d: np.ndarray) -> tuple[int, int]:
    """(odd squarefree <= x, all squarefree <= x) by Mobius inversion.

    ``d`` holds the d with mu(d) != 0 in increasing order, at least up to
    isqrt(x), and ``mu_d`` their mu(d) as int64.
    """
    k = int(np.searchsorted(d, math.isqrt(x), side="right"))
    d, mu_d = d[:k], mu_d[:k]
    q = x // (d * d)
    odd = d % 2 == 1
    return int(mu_d[odd] @ ((q[odd] + 1) // 2)), int(mu_d @ q)


def _squarefree_table(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """The d <= limit with mu(d) != 0 and their mu(d), for _squarefree_counts."""
    mu = sieve(limit)[1]
    d = np.flatnonzero(mu)
    return d, mu[d].astype(np.int64)


def _count_mu2_exact(rungs: list[float]) -> list[int]:
    """T(B) for mu_2: squarefree a with |disc| <= B, via Mobius counting.

    Odd squarefree m pairs (+-m) contribute disc m and 4m; even squarefree
    m contributes 4m twice.
    """
    table = _squarefree_table(math.isqrt(math.floor(rungs[-1])))
    out = []
    for B in rungs:
        x = math.floor(B)
        odd_full, _ = _squarefree_counts(x, *table)
        odd_q, total_q = _squarefree_counts(x // 4, *table)
        out.append(odd_full + odd_q + 2 * (total_q - odd_q))
    return out


# (outer, inner) pairs per chunk of _coprime_pair_sweep
_PAIR_CHUNK = 1 << 20


def _coprime_pair_sweep(outer, weight, inner, inner_caps, caps, value) -> np.ndarray:
    """Total weight of the coprime pairs (A, B) with value(A, B) <= each cap.

    B runs over ``outer`` with its ``weight``, A over the sorted ``inner`` up
    to B's entry of ``inner_caps``.  The pairs are swept in chunks and binned
    into the caps, so no value outlives its chunk; values past the top cap
    fall into one last bin, which is dropped.
    """
    binned = np.zeros(len(caps) + 1, dtype=np.int64)  # weight new at each cap
    k = np.searchsorted(inner, inner_caps, side="right")  # A candidates per B
    ends = np.cumsum(k)
    i = 0
    while i < len(outer):
        j = max(i + 1, int(np.searchsorted(ends, ends[i] - k[i] + _PAIR_CHUNK, side="right")))
        kk = k[i:j]
        first = np.cumsum(kk) - kk  # each B's first pair in the chunk
        A = inner[np.arange(int(kk.sum())) - np.repeat(first, kk)]
        B = np.repeat(outer[i:j], kk)
        w = np.repeat(weight[i:j], kk)
        keep = np.gcd(A, B) == 1
        A, B, w = A[keep], B[keep], w[keep]
        np.add.at(binned, np.searchsorted(caps, value(A, B)), w)
        i = j
    return np.cumsum(binned[:-1])


def _count_mu3_exact(rungs: list[float]) -> list[int]:
    """T(B) for mu_3: cube-free a = h k^2 with h, k squarefree and coprime,
    |disc| = 3 (hk)^2 if a^2 = 1 mod 9, else 27 (hk)^2, so hk <= sqrt(B/3)."""
    caps = np.array([math.floor(B) for B in rungs], dtype=np.int64)
    K = math.isqrt(int(caps[-1]) // 3)
    sqf = np.flatnonzero(sieve(K)[1])

    def disc(h, k):
        return np.where(np.isin(h * (k * k % 9) % 9, (1, 8)), 3, 27) * (h * k) ** 2

    return [int(c) for c in _coprime_pair_sweep(sqf, np.ones_like(sqf), sqf, K // sqf, caps, disc)]


def _count_mu4_tame(rungs: list[float]) -> list[int]:
    """T(B) for mu_4 under the tame ordering.

    An odd support prime contributes p^2 (exponent 2) or p^3 (exponents 1
    and 3), so a tame value is A^2 B^3 with A, B odd, squarefree and
    coprime, reached 2^omega(B) ways; the sign and the exponent of 2 give
    8 classes each.  B = 1 leaves the odd squarefree A <= isqrt(x), a
    Mobius sum; the pairs with B >= 3 go through the coprime-pair sweep.
    """
    caps = np.array([math.floor(B) for B in rungs], dtype=np.int64)
    top = int(caps[-1])
    b_cap = round(top ** (1 / 3))
    b_cap -= b_cap**3 > top
    limit = max(math.isqrt(top // 27), b_cap)
    spf, mu = sieve(limit)
    odd_sqf = np.flatnonzero(mu[1::2]) * 2 + 1
    table = _squarefree_table(math.isqrt(math.isqrt(top)))
    b1_counts = [_squarefree_counts(math.isqrt(int(x)), *table)[0] for x in caps]

    Bs = odd_sqf[(odd_sqf >= 3) & (odd_sqf <= b_cap)]
    weight = np.ones(len(Bs), dtype=np.int64)
    for p in _prime_rounds(Bs, spf):
        weight[p > 1] *= 2
    a_caps = [math.isqrt(top // b**3) for b in Bs.tolist()]
    pairs = _coprime_pair_sweep(Bs, weight, odd_sqf, a_caps, caps, lambda A, B: A * A * B**3)
    return [8 * (b1 + int(c)) for b1, c in zip(b1_counts, pairs)]


def _count_cyclic3(rungs: list[float]) -> list[int]:
    """M(B) for cyclic cubic fields from Cohn's conductors.

    A conductor is f = 9^e * m with m a product of distinct primes = 1 mod
    3, and carries 2^(omega(f) - 1) fields of discriminant f^2; so the
    count at B is a prefix sum of these weights up to isqrt(B).
    """
    F = math.isqrt(math.floor(rungs[-1]))
    spf, mu = sieve(F)
    m = np.flatnonzero(mu)  # squarefree, 1 first
    good = np.ones(len(m), dtype=bool)
    omega = np.zeros(len(m), dtype=np.int64)
    for p in _prime_rounds(m, spf):
        good &= p % 3 == 1  # 1 once a value has no prime left
        omega += p > 1
    m, omega = m[good], omega[good]
    fields = np.zeros(F + 1, dtype=np.int64)
    fields[m[1:]] = 1 << (omega[1:] - 1)
    nine = 9 * m <= F  # 3 does not divide m, so f = 9m meets no f = m
    fields[9 * m[nine]] = 1 << omega[nine]
    cum = np.cumsum(fields)
    return [int(cum[math.isqrt(math.floor(B))]) for B in rungs]


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


# (kind, n, counter, ordering) -> exact counter of every rung at once
FAST_COUNTERS = {
    ("mu", 2, "T", "disc_exact"): _count_mu2_exact,
    ("mu", 3, "T", "disc_exact"): _count_mu3_exact,
    ("mu", 4, "T", "disc_tame"): _count_mu4_tame,
    ("cyclic", 3, "M", "disc_exact"): _count_cyclic3,
}


def count(spec: LadderSpec) -> CountLadder:
    """Build the count ladder for a census target.

    Targets in ``FAST_COUNTERS`` go through their closed-form or sieve
    counter; every other target streams its enumerator, a mu_n one
    optionally split over ``jobs`` deterministic partitions.
    """
    kind, n = spec.target
    if spec.doublings < 0:
        raise ValueError(f"doublings must be >= 0, got {spec.doublings}")
    rungs = spec.rungs()
    fast = FAST_COUNTERS.get((kind, n, spec.counter, spec.ordering))
    if fast is not None:
        counts = fast(rungs)
    elif kind == "mu":
        counts = _count_mu_streaming(spec, rungs)
    elif kind == "cyclic":
        if spec.counter != "M":
            raise ValueError("cyclic censuses count fields (counter M)")
        counts = _rung_counts((d for _, d in enumerate_cyclic(n, rungs[-1])), rungs)
    else:
        raise ValueError(f"unknown target {kind!r}")
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
