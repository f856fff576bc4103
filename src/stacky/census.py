"""Censuses: enumerate cyclic torsors of bounded discriminant, build count
ladders T(B)/M(B), and fit the exponents of B^alpha (log B)^beta.

Two enumerators are provided: ``enumerate_mu`` walks canonical Kummer
classes by recursion over squarefree supports with tame-discriminant
pruning, and ``enumerate_cyclic`` walks cyclic degree-n fields via
characters of (Z/fZ)^x and the conductor-discriminant formula.  ``count``
routes ladder targets to closed-form or sieve-based counters where the
scale demands it and falls back to the streaming enumerators otherwise.
"""

from __future__ import annotations

import bisect
import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .arith import FactoredInteger, factor, primes_up_to, smallest_prime_factor, unit_group
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
# mu_n enumeration


def _disc_bound(Bmax: float, n: int, ordering: str) -> int:
    """Largest |disc| compatible with measure <= Bmax."""
    if ordering in ("disc_exact", "disc_tame"):
        return math.floor(Bmax)
    r = smallest_prime_factor(n)
    return math.floor(Bmax ** (n * n - n * n // r) * (1 + 1e-12))


def enumerate_mu(
    n: int,
    Bmax: float,
    ordering: str = "disc_exact",
    part: tuple[int, int] | None = None,
) -> Iterator[tuple[KummerClass, float]]:
    """Stream every canonical Kummer class with measure <= Bmax, once each.

    Recursion over squarefree supports: tame primes are chosen in
    increasing order and pruned by the partial tame discriminant (each
    support prime costs at least p^(n - n/r)); wild primes (p | n) and the
    sign are enumerated exhaustively.  ``part=(w, nparts)`` restricts the
    stream to one deterministic partition, keyed by the smallest tame
    support prime.
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
    r = smallest_prime_factor(n)
    min_exp = n - n // r
    wild_primes = [p for p, _ in factor(n).factors]
    signs = (1,) if n % 2 else (1, -1)
    prime_cap = int(disc_bound ** (1.0 / min_exp)) + 2
    tame_primes = [p for p in primes_up_to(prime_cap) if n % p]
    # exact wild exponents exist for n in {2, 3}, whose one wild prime is n
    exact = ordering == "disc_exact" or (ordering == "darda" and n in (2, 3))
    darda_exp = 1.0 / (n * n - n * n // r)

    # all wild exponent patterns (including absence, exponent 0), each with
    # its integer value and its valuation at the prime n
    wild: list[tuple[int, int, tuple[tuple[int, int], ...]]] = [(1, 0, ())]
    for p in wild_primes:
        wild = [
            (w * p**e, e if p == n else v, pat + (((p, e),) if e else ()))
            for w, v, pat in wild
            for e in range(n)
        ]

    def emit(tame_a: int, tame_disc: int, tame_factors: tuple[tuple[int, int], ...]):
        for w, v, pat in wild:
            for sign in signs:
                d = tame_disc
                if exact:
                    d *= n ** wild_exponent(n, sign * w * tame_a, v)
                m = d ** darda_exp if ordering == "darda" else d
                if m <= Bmax:
                    base = FactoredInteger(sign, tuple(sorted(pat + tame_factors)))
                    yield KummerClass(n, base), m

    def rec(start_idx: int, tame_a: int, tame_disc: int,
            factors: tuple[tuple[int, int], ...]):
        yield from emit(tame_a, tame_disc, factors)
        for i in range(start_idx, len(tame_primes)):
            p = tame_primes[i]
            if tame_disc * p**min_exp > disc_bound:
                break
            for e in range(1, n):
                contrib = p ** (n - math.gcd(e, n))
                if tame_disc * contrib > disc_bound:
                    continue
                yield from rec(i + 1, tame_a * p**e, tame_disc * contrib,
                               factors + ((p, e),))

    # partition key: index of the smallest tame support prime (empty -> 0)
    if part is None or part[0] % part[1] == 0:
        yield from emit(1, 1, ())
    for i, p in enumerate(tame_primes):
        if p**min_exp > disc_bound:
            break
        if part is not None and i % part[1] != part[0] % part[1]:
            continue
        for e in range(1, n):
            contrib = p ** (n - math.gcd(e, n))
            if contrib > disc_bound:
                continue
            yield from rec(i + 1, p**e, contrib, ((p, e),))


# ---------------------------------------------------------------------------
# cyclic extensions via characters


@dataclass(frozen=True)
class CyclicField:
    """A cyclic degree-n field over Q: conductor, character data, |disc|."""

    n: int
    conductor: int
    character: tuple[int, ...]  # images of the unit-group generators in Z/n
    disc: int


def _unit_components(f: int, spf: list[int] | None = None) -> list[tuple[int, int]]:
    """Cyclic decomposition of (Z/fZ)^x as (p, order) components.

    Odd p^k contributes one cyclic factor of order phi(p^k); 4 contributes
    (2, 2); 2^k with k >= 3 contributes (2, 2) and (2, 2^(k-2)).
    """
    comps = []
    m = f
    while m > 1:
        p = spf[m] if spf else smallest_prime_factor(m)
        k = 0
        while m % p == 0:
            m //= p
            k += 1
        if p == 2:
            if k == 2:
                comps.append((2, 2))
            elif k >= 3:
                comps.append((2, 2))
                comps.append((2, 2 ** (k - 2)))
        else:
            comps.append((p, p ** (k - 1) * (p - 1)))
    return comps


def _local_conductor(p: int, comp_orders: list[int], values: list[int], n: int) -> int:
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


def _character_conductor(
    comps: list[tuple[int, int]], values: tuple[int, ...], n: int
) -> int:
    cond = 1
    i = 0
    while i < len(comps):
        p = comps[i][0]
        j = i
        while j < len(comps) and comps[j][0] == p:
            j += 1
        cond *= _local_conductor(
            p, [comps[k][1] for k in range(i, j)], [values[k] for k in range(i, j)], n
        )
        i = j
    return cond


def enumerate_cyclic(n: int, Bmax: float) -> Iterator[tuple[CyclicField, int]]:
    """Stream cyclic degree-n extensions of Q with |disc| <= Bmax, once each.

    Characters chi: (Z/fZ)^x -> Z/nZ of order exactly n and conductor
    exactly f are enumerated up to Aut(Z/nZ); the discriminant is
    prod_{j=1}^{n-1} cond(chi^j).
    """
    if n < 2 or n > 12:
        raise ValueError("cyclic enumeration supports 2 <= n <= 12")
    phi_n = len(unit_group(n))
    fmax = int(Bmax ** (1.0 / phi_n) + 1e-9)
    if fmax < 3:
        return
    spf = _spf_sieve(fmax)
    aut = [u % n for u in unit_group(n)]
    for f in range(3, fmax + 1):
        comps = _unit_components(f, spf)
        if not comps:
            continue
        # candidate values per component: multiples of n/gcd(n, order)
        choices = []
        for _, d in comps:
            g = math.gcd(n, d)
            step = n // g
            choices.append([step * t for t in range(g)])
        for values in _product(choices):
            order = 1
            for c in values:
                order = math.lcm(order, n // math.gcd(n, c))
            if order != n:
                continue
            # dedupe by the automorphism orbit of the character
            orbit = [tuple(u * c % n for c in values) for u in aut]
            if min(orbit) != tuple(values):
                continue
            if _character_conductor(comps, tuple(values), n) != f:
                continue
            disc = 1
            for j in range(1, n):
                powered = tuple(j * c % n for c in values)
                disc *= _character_conductor(comps, powered, n)
                if disc > Bmax:
                    break
            if disc <= Bmax:
                yield CyclicField(n, f, tuple(values), disc), disc


def _product(choices: list[list[int]]):
    if not choices:
        yield ()
        return
    for head in choices[0]:
        for tail in _product(choices[1:]):
            yield (head,) + tail


def _spf_sieve(limit: int) -> list[int]:
    spf = list(range(limit + 1))
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == p:
            for m in range(p * p, limit + 1, p):
                if spf[m] == m:
                    spf[m] = p
    return spf


# ---------------------------------------------------------------------------
# fast counters


def _mobius_up_to(limit: int) -> np.ndarray:
    mu = np.ones(limit + 1, dtype=np.int8)
    primes = primes_up_to(limit)
    for p in primes:
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
    mu[0] = 0
    return mu


def _squarefree_counts(x: int, mu: np.ndarray) -> tuple[int, int]:
    """(odd squarefree <= x, all squarefree <= x) by Mobius inversion."""
    if x < 1:
        return 0, 0
    total = 0
    odd = 0
    for d in range(1, math.isqrt(x) + 1):
        m = int(mu[d])
        if not m:
            continue
        q = x // (d * d)
        total += m * q
        if d % 2:
            odd += m * ((q + 1) // 2)
    return odd, total


def _count_mu2_exact(rungs: list[float]) -> list[int]:
    """T(B) for mu_2: squarefree a with |disc| <= B, via Mobius counting.

    Odd squarefree m pairs (+-m) contribute disc m and 4m; even squarefree
    m contributes 4m twice.
    """
    top = math.floor(rungs[-1])
    mu = _mobius_up_to(math.isqrt(top) + 1)
    out = []
    for B in rungs:
        x = math.floor(B)
        odd_full, _ = _squarefree_counts(x, mu)
        odd_q, total_q = _squarefree_counts(x // 4, mu)
        out.append(odd_full + odd_q + 2 * (total_q - odd_q))
    return out


def _count_mu3_exact(rungs: list[float]) -> list[int]:
    """T(B) for mu_3 by walking cube-free a = h k^2 with h, k squarefree
    coprime: |disc| = 3 (hk)^2 if a^2 = 1 mod 9, else 27 (hk)^2."""
    top = math.floor(rungs[-1])
    K = math.isqrt(top // 3)
    mu = _mobius_up_to(K + 1)
    squarefree = [bool(mu[i]) for i in range(K + 1)]
    discs = []
    for k in range(1, K + 1):
        if not squarefree[k]:
            continue
        k2mod9 = k * k % 9
        for h in range(1, K // k + 1):
            if not squarefree[h] or math.gcd(h, k) != 1:
                continue
            m = h * k
            w = 3 if (h * k2mod9 % 9) in (1, 8) else 27
            d = w * m * m
            if d <= top:
                discs.append(d)
    discs.sort()
    return [bisect.bisect_right(discs, math.floor(B)) for B in rungs]


def _count_mu4_tame(rungs: list[float]) -> list[int]:
    """T(B) for mu_4 under the tame ordering.

    Odd support primes contribute p^2 (exponent 2) or p^3 (exponents 1 and
    3); the sign and the exponent of 2 give 8 classes per tame value.
    """
    top = math.floor(rungs[-1])
    primes = [p for p in primes_up_to(math.isqrt(top) + 1) if p != 2]
    values: list[int] = []

    def rec(i: int, acc: int, mult: int):
        values.extend([acc] * mult)
        for j in range(i, len(primes)):
            p = primes[j]
            p2 = p * p
            if acc * p2 > top:
                break
            rec(j + 1, acc * p2, mult)  # exponent 2
            if acc * p2 * p <= top:
                rec(j + 1, acc * p2 * p, 2 * mult)  # exponents 1 and 3

    rec(0, 1, 1)
    values.sort()
    return [8 * bisect.bisect_right(values, math.floor(B)) for B in rungs]


def _count_cyclic(n: int, rungs: list[float]) -> list[int]:
    discs = sorted(d for _, d in enumerate_cyclic(n, rungs[-1]))
    return [bisect.bisect_right(discs, math.floor(B)) for B in rungs]


# ---------------------------------------------------------------------------
# ladders and fitting


def _mu_partition_measures(args) -> list[float]:
    n, Bmax, ordering, counter, w, nparts = args
    out = []
    for cls, m in enumerate_mu(n, Bmax, ordering, part=(w, nparts)):
        if counter == "M" and not is_irreducible(cls):
            continue
        out.append(m)
    out.sort()
    return out


def count(spec: LadderSpec) -> CountLadder:
    """Build the count ladder for a census target.

    Large mu_2 / mu_3 / mu_4 / cyclic ladders go through exact closed-form
    or sieve counters; everything else streams the enumerators, optionally
    split over ``jobs`` deterministic partitions.
    """
    kind, n = spec.target
    rungs = spec.rungs()
    if kind == "cyclic":
        if spec.counter != "M":
            raise ValueError("cyclic censuses count fields (counter M)")
        counts = _count_cyclic(n, rungs)
    elif kind == "mu":
        fast = None
        if spec.counter == "T":
            if n == 2 and spec.ordering == "disc_exact":
                fast = _count_mu2_exact
            elif n == 3 and spec.ordering == "disc_exact":
                fast = _count_mu3_exact
            elif n == 4 and spec.ordering == "disc_tame":
                fast = _count_mu4_tame
        if fast is not None:
            counts = fast(rungs)
        else:
            counts = _count_mu_streaming(spec, rungs)
    else:
        raise ValueError(f"unknown target {kind!r}")
    points = tuple((b, c) for b, c in zip(rungs, counts))
    return CountLadder(f"{kind}:{n}", spec.counter, spec.ordering, points)


def _count_mu_streaming(spec: LadderSpec, rungs: list[float]) -> list[int]:
    _, n = spec.target
    nparts = max(1, spec.jobs)
    tasks = [(n, rungs[-1], spec.ordering, spec.counter, w, nparts) for w in range(nparts)]
    if nparts == 1:
        parts = [_mu_partition_measures(tasks[0])]
    else:
        with ProcessPoolExecutor(max_workers=nparts) as pool:
            parts = list(pool.map(_mu_partition_measures, tasks))
    measures = sorted(m for part in parts for m in part)
    return [bisect.bisect_right(measures, B) for B in rungs]


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
