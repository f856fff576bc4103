"""Exact integer arithmetic: factorization, valuations, power-free reduction,
unit groups, and cyclotomic signatures.

Everything here works on plain Python integers and :class:`FactoredInteger`
values; all functions are pure and safe to call concurrently.  The caches,
the primes below 2**16 (of which the trial-division and screen primes are
slices), the SQUFOF multiplier table and the primes of each exponent n,
are read-only and built on first use, never at import; two threads that
race to build one build the same value.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "FactoredInteger",
    "CyclotomicSignature",
    "factor",
    "is_prime",
    "valuation",
    "nth_power_free_reduce",
    "unit_group",
    "subgroup_generated",
    "cyclotomic_image",
    "parse_field",
    "smallest_prime_factor",
    "primes_up_to",
    "sieve",
    "mobius",
]

# Python trial division stops here, with an early exit once p^2 exceeds
# the cofactor; a cofactor of 2**20 or more is then screened in numpy by
# every prime up to _SCREEN_BOUND.  What is left has only primes above
# 2**16, so below 2**32 it is prime; the root check, SQUFOF and rho split
# a larger composite one.
TRIAL_DIVISION_BOUND = 2**10
_SCREEN_BOUND = 2**16

# The first 13 primes as Miller-Rabin witnesses, and psi_t, the least odd
# composite that passes the first t of them (OEIS A014233; Sorenson and
# Webster 2015 for t = 12, 13): an n below psi_t that passes t witnesses is
# prime, so the test is deterministic below psi_13, about 3.3e24.  Without
# 41 it would pass psi_12 = 399165290221 * 798330580441.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
           341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
           3825123056546413051, 318665857834031151167461, 3317044064679887385961981)

# Every SQUFOF quantity for kN is an integer below 2*sqrt(kN), and the
# floor of a float quotient a/Q is exact while a + Q <= 2**53.  So a lane
# runs in float64 when kN < 2**102, which holds for every multiplier
# k < 2**12 on a cofactor of at most 90 bits, and for the 1,245 below 2**11
# on one of 91.
_RACE_BITS = 91

# Brent rho's step budget over all its offsets c.  It needs a few sqrt(p)
# steps for its least prime p (about 2**15 for a 30-bit one), so 2**20
# split 10 of 10 seeded cofactors with a 36-bit prime and 7 of 10 with a
# 38-bit one, and gives up in well under a second.
_RHO_STEPS = 2**20


@dataclass(frozen=True, init=False)
class FactoredInteger:
    """A nonzero integer as sign times an ordered product of prime powers.

    Every construction, ``dataclasses.replace`` included, checks the sign,
    the prime order and the exponents.  Like the other frozen value types of
    ``kummer`` and ``heights``, its ``__init__`` writes the fields straight
    into the instance dict: the generated frozen ``__init__`` pays for one
    ``object.__setattr__`` call a field."""

    sign: int
    factors: tuple[tuple[int, int], ...]

    def __init__(self, sign: int, factors: tuple[tuple[int, int], ...]):
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        last = 1
        for p, e in factors:
            if p <= last:
                raise ValueError("primes must be strictly increasing")
            if e < 1:
                raise ValueError("exponents must be >= 1")
            last = p
        d = self.__dict__
        d["sign"] = sign
        d["factors"] = factors

    @property
    def value(self) -> int:
        v = self.sign
        for p, e in self.factors:
            v *= p**e
        return v

    @property
    def abs_value(self) -> int:
        return abs(self.value)

    def valuation(self, p: int) -> int:
        for q, e in self.factors:
            if q == p:
                return e
            if q > p:
                break
        return 0

    def __mul__(self, other: "FactoredInteger") -> "FactoredInteger":
        exps: dict[int, int] = dict(self.factors)
        for p, e in other.factors:
            exps[p] = exps.get(p, 0) + e
        return FactoredInteger(
            self.sign * other.sign,
            tuple(sorted((p, e) for p, e in exps.items() if e)),
        )

    def pow(self, k: int) -> "FactoredInteger":
        if k < 0:
            raise ValueError("negative powers leave the integers")
        sign = self.sign if k % 2 else 1
        return FactoredInteger(sign, tuple((p, e * k) for p, e in self.factors))

    def radical(self) -> int:
        r = 1
        for p, _ in self.factors:
            r *= p
        return r

    def to_json(self) -> dict:
        return {"sign": self.sign, "factors": [[p, e] for p, e in self.factors]}

    @classmethod
    def from_json(cls, obj: dict) -> "FactoredInteger":
        return cls(obj["sign"], tuple((int(p), int(e)) for p, e in obj["factors"]))

    @classmethod
    def one(cls) -> "FactoredInteger":
        return cls(1, ())

    def __str__(self) -> str:
        if not self.factors:
            return str(self.sign)
        body = "*".join(f"{p}^{e}" if e > 1 else str(p) for p, e in self.factors)
        return ("-" if self.sign < 0 else "") + body


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for n below
    psi_13 = 3317044064679887385961981 (about 3.3e24).  It stops after the
    first t witnesses once n < psi_t."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a, psi in zip(_MR_WITNESSES, _MR_PSI):
        x = pow(a, d, n)
        if x not in (1, n - 1):
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < psi:
            return True
    return True


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite n, Brent's variant (Brent 1980).

    y walks x -> x^2 + c mod n; x is parked at the start of each window,
    and windows double in length.  The products of (x - y) mod n are
    accumulated over batches of m = 128 steps with one gcd per batch.
    When a batch's gcd comes out as n, the batch is replayed from its start
    one step and one gcd at a time.  Deterministic: cycles through fixed
    offsets c until a factor splits off or the _RHO_STEPS budget, shared by
    all offsets, runs out; then it raises ValueError naming n's bit length.
    """
    if n % 2 == 0:
        return 2
    m, steps = 128, 0
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            steps += 2 * r  # the window's skip and its batches
            if steps > _RHO_STEPS:
                raise ValueError(f"cannot factor a {n.bit_length()}-bit cofactor: no prime "
                                 f"factor found within {_RHO_STEPS} rho steps")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            # the batch overshot: step back to its start, one gcd per step
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed on {n}")  # unreachable for composite n


@functools.cache
def _multipliers() -> np.ndarray:
    """The 2048 least squarefree k, all below 2**12 (the largest is 3363):
    one per SQUFOF lane."""
    k = np.flatnonzero(mobius(2**12))[:2048].astype(np.uint64)
    k.flags.writeable = False
    return k


def _squfof_race(n: int) -> int | None:
    """A proper divisor of a composite n < 2**_RACE_BITS that is no perfect
    power, by Shanks' square forms factorization (Gower and Wagstaff 2008)
    on kN for many squarefree multipliers k at once, or None.

    Lane k walks the continued fraction of sqrt(kN) and checks its Q at
    every even step for a square r^2; the reverse walk from that square
    splits n or, when the square was improper, retires the lane.  Its
    waiting time is close to memoryless, so K lanes need about 1/K of one
    lane's steps.  The lane count grows as 2**(bits/4 - 3), from 64 to
    2048, less the k with kN >= 2**102 (a 91-bit n keeps 1,245); the race
    gives up after 32 * 2**(bits/4) steps over all lanes, or once every
    lane is retired, as on prime cubes.
    """
    bits = n.bit_length()
    k = _multipliers()[:1 << min(11, max(6, bits // 4 - 3))]
    k = k[k * float(n) < 2**102]  # rounding keeps every kN past 2**102 out
    lanes = len(k)
    # P0 = isqrt(kN): the float root is within one of it, and kN - x^2,
    # below 2**53 in absolute value, is exact mod 2**64
    x = np.floor(np.sqrt(k * float(n))).astype(np.uint64)
    rem = (k * np.uint64(n % 2**64) - x * x).view(np.int64)
    x = x.view(np.int64)
    fix = (rem > 2 * x).astype(np.int64) - (rem < 0)
    rem -= fix * (2 * x + fix)
    x += fix
    if not rem.all():  # kN = x^2, so every prime of n divides x
        return math.gcd(n, int(x[np.argmin(rem)]))
    P0, Q = x.astype(np.float64), rem.astype(np.float64)
    P, Q_prev = P0.copy(), np.ones(lanes)
    b, P_next = np.empty(lanes), np.empty(lanes)
    live = np.ones(lanes, dtype=bool)
    ps, qs = np.empty((4, lanes)), np.empty((4, lanes))
    for _ in range((4 << bits // 4) // lanes):
        for i in range(8):
            # in place: b = floor((P0 + P) / Q), P_next = b Q - P, and the
            # next Q, Q_prev + b (P - P_next), written over Q_prev
            np.add(P0, P, out=b)
            b /= Q
            np.floor(b, out=b)
            np.multiply(b, Q, out=P_next)
            P_next -= P
            P -= P_next
            P *= b
            Q_prev += P
            P, P_next, Q_prev, Q = P_next, P, Q, Q_prev
            if i % 2 == 0:
                ps[i // 2], qs[i // 2] = P, Q
        r = np.rint(np.sqrt(qs))
        for h in np.flatnonzero((r * r == qs) & live):  # flat index into (step, lane)
            j = h % lanes
            d = live[j] and _squfof_reverse(n, int(k[j]) * n, int(ps.flat[h]), int(r.flat[h]))
            if d:
                return d
            live[j] = False
        if not live.any():
            break
    return None


def _squfof_reverse(n: int, kn: int, p: int, r: int) -> int | None:
    """From the square Q = r^2 reached with P = p, walk the square root form
    to its symmetry point P_i = P_(i+1); gcd(n, P) there is a proper divisor,
    or the square was improper and this returns None."""
    p0 = math.isqrt(kn)
    p += (p0 - p) // r * r
    q_prev, q = r, (kn - p * p) // r
    while True:
        b = (p0 + p) // q
        p_next = b * q - p
        if p_next == p:
            g = math.gcd(n, p)
            return g if 1 < g < n else None
        p, q_prev, q = p_next, q, q_prev + b * (p - p_next)


def _iroot(n: int, e: int) -> int:
    """floor(n^(1/e)) for n >= 1 and e >= 2.  The float estimate comes from
    math.log, which takes integers past the float range; scaled up by
    1 + 2**-30, it lies above the root, and integer Newton steps then fall to
    it exactly."""
    if e == 2:
        return math.isqrt(n)
    x = int(math.exp(math.log(n) / e) * (1 + 2**-30)) + 1
    while (y := ((e - 1) * x + n // x ** (e - 1)) // e) < x:
        x = y
    return x


def _split(n: int) -> int:
    """A proper divisor of a composite n whose primes all exceed
    TRIAL_DIVISION_BOUND, so that it is a perfect power only to exponents up
    to bits/10: an exact root when it is one, at every size; else a factor
    from the SQUFOF race, for n of at most _RACE_BITS bits; else from rho,
    which raises ValueError past its step budget."""
    bits = n.bit_length()
    for e in range(2, bits // 10 + 1):
        r = _iroot(n, e)
        if r**e == n:
            return r
    return (bits <= _RACE_BITS and _squfof_race(n)) or _pollard_rho(n)


def _factor_into(n: int, exps: dict[int, int]) -> None:
    """Add the primes of a cofactor n with no prime up to _SCREEN_BOUND to
    exps: below _SCREEN_BOUND**2 that makes n prime, and a larger prime is
    certified by Miller-Rabin."""
    if n == 1:
        return
    if n < _SCREEN_BOUND**2 or is_prime(n):
        exps[n] = exps.get(n, 0) + 1
        return
    d = _split(n)
    _factor_into(d, exps)
    _factor_into(n // d, exps)


def factor(m: int) -> FactoredInteger:
    """Exact factorization of a nonzero integer.

    Trial division by the primes up to TRIAL_DIVISION_BOUND (2**10), a
    slice of the cached primes below 2**16; it stops early once p^2
    exceeds the cofactor, which is then 1 or prime.  A cofactor of
    2**20 or more is screened by the 6,370 primes in (2**10, 2**16] at
    once, in numpy, at a fixed cost of about 30 us below 2**63, and each
    prime that divides it is divided out.  What is left has only primes
    above 2**16, so below 2**32 it is prime.  A composite one is split by
    an exact root when it is a perfect power; else, up to 91 bits, by
    SQUFOF racing up to 2048 multipliers in numpy, whose median is about
    2 N^(1/4) steps over all lanes; else by Brent-Pollard rho (one gcd per
    128 steps).
    Every factor above 2**32 is certified by deterministic Miller-Rabin.

    Size limit: rho gives up after 2**20 steps, under a second, which is
    enough for a prime up to about 2**36.  A cofactor past 91 bits that is
    no perfect power and whose least prime is well past that (such as the
    95-bit product of a 47- and a 48-bit prime) raises ValueError naming
    the cofactor's bit length.
    """
    if m == 0:
        raise ValueError("cannot factor zero")
    sign = 1 if m > 0 else -1
    n = abs(m)
    exps: dict[int, int] = {}
    for p in _trial_primes():
        if p * p > n:
            break
        while n % p == 0:
            n //= p
            exps[p] = exps.get(p, 0) + 1
    if n >= TRIAL_DIVISION_BOUND**2:
        n = _screen(n, exps)
    if n > 1:
        _factor_into(n, exps)
    return FactoredInteger(sign, tuple(sorted(exps.items())))


def _screen(n: int, exps: dict[int, int]) -> int:
    """Divide every prime in (TRIAL_DIVISION_BOUND, _SCREEN_BOUND] out of n,
    adding it to exps, and return the cofactor.  The residues of n mod all
    of them come from one numpy remainder below 2**63; from 2**63 up, from
    folding n's 32-bit limbs, most significant first, into them, where
    every value stays below 2**48."""
    mid = _primes()[len(_trial_primes()):]
    if n < 2**63:
        r = np.int64(n) % mid
    else:
        r = np.zeros_like(mid)
        for shift in range((n.bit_length() - 1) // 32 * 32, -1, -32):
            r = ((r << 32) | (n >> shift & 0xFFFFFFFF)) % mid
    for p in mid[r == 0].tolist():
        while n % p == 0:
            n //= p
            exps[p] = exps.get(p, 0) + 1
    return n


@functools.cache
def _primes() -> np.ndarray:
    """The primes below _SCREEN_BOUND as a read-only int64 array, built once
    per process: the primes below 2**8, found by trial division, sieve the
    rest.  ``sieve`` reads its primes up to isqrt(limit) from it, and trial
    division and the screen read slices of it."""
    small = [p for p in range(2, 2**8) if all(p % q for q in range(2, math.isqrt(p) + 1))]
    spf = _sieve(_SCREEN_BOUND - 1, True, small)[0]
    primes = np.flatnonzero(spf == np.arange(_SCREEN_BOUND))[2:].astype(np.int64, copy=False)
    primes.flags.writeable = False
    return primes


@functools.cache
def _trial_primes() -> tuple[int, ...]:
    """The primes up to TRIAL_DIVISION_BOUND, as Python ints."""
    return tuple(primes_up_to(TRIAL_DIVISION_BOUND))


@functools.cache
def _primes_of(n: int) -> tuple[int, ...]:
    """The primes dividing the exponent n, in increasing order, factored
    once per n.  ``kummer`` reads them for the least prime r of a class,
    the irreducibility test and the wild primes of every discriminant;
    ``census`` for the wild patterns and local characters at p | n and the
    primes struck from the counters' Mobius table."""
    return tuple(q for q, _ in factor(n).factors)


def valuation(m: FactoredInteger | int, p: int) -> int:
    """Exponent of the prime p in m (0 if absent)."""
    if isinstance(m, int):
        if m == 0:
            raise ValueError("valuation of zero is undefined")
        v = 0
        m = abs(m)
        while m % p == 0:
            m //= p
            v += 1
        return v
    return m.valuation(p)


def nth_power_free_reduce(
    num: FactoredInteger | int,
    n: int,
    den: FactoredInteger | int | None = None,
) -> FactoredInteger:
    """Canonical integer representative of num/den in Q^x / (Q^x)^n.

    Exponents are reduced into [0, n); a denominator prime p^e contributes
    p^(n-e).  When n is odd the sign is forced positive (-1 is an n-th
    power); when n is even the sign of the input is kept.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if isinstance(num, int):
        num = factor(num)
    if den is not None:
        # num/den = num * den^(n-1) in Q^x / (Q^x)^n, with the sign of num/den
        num = num * (factor(den) if isinstance(den, int) else den).pow(n - 1)
    return FactoredInteger(1 if n % 2 else num.sign,
                           tuple((p, e % n) for p, e in num.factors if e % n))


def unit_group(m: int) -> list[int]:
    """Units of Z/mZ as sorted residues in [1, m]; unit_group(1) == [1]."""
    if m < 1:
        raise ValueError("modulus must be >= 1")
    return [u for u in range(1, m + 1) if math.gcd(u, m) == 1]


def subgroup_generated(m: int, generators: Iterable[int]) -> list[int]:
    """Subgroup of (Z/mZ)^x generated by the given residues, sorted."""
    if m == 1:
        return [1]
    span = {1}
    for g in generators:
        g %= m
        if math.gcd(g, m) != 1:
            raise ValueError(f"generator {g} not coprime to {m}")
        _extend_span(span, g, m)
    return sorted(span)


def _extend_span(span: set[int], u: int, m: int) -> None:
    """Grow the subgroup ``span`` of (Z/mZ)^x to <span, u>, in place: the
    union of the cosets span * u^k for k below the least r with u^r in span."""
    base, x = list(span), u
    while x not in span:
        span.update([x * s % m for s in base])
        x = x * u % m


@dataclass(frozen=True)
class CyclotomicSignature:
    """A subgroup H of (Z/mZ)^x recording a cyclotomic character image.  Its
    residues are stored sorted, so that each subgroup has one name."""

    modulus: int
    units: tuple[int, ...]

    def __post_init__(self):
        m = self.modulus
        if m < 1:
            raise ValueError("modulus must be >= 1")
        top = max(m - 1, 1)  # mod 1 the one unit is written 1
        us = set()
        for u in self.units:
            if not 1 <= u <= top:
                raise ValueError(f"residue {u} outside 1..{top}")
            if u in us:
                raise ValueError(f"residue {u} repeated")
            if math.gcd(u, m) != 1:
                raise ValueError(f"residue {u} not coprime to {m}")
            us.add(u)
        if 1 not in us:
            raise ValueError("signature must contain 1")
        # H is a group iff g H is within H for each g of a generating set of
        # the group H spans, picked greedily: then H holds every product of
        # them, as it holds 1
        gens, span = [], {1}
        self.__dict__["units"] = tuple(sorted(us))
        for u in self.units:
            if u not in span:
                gens.append(u)
                _extend_span(span, u, m)
        if any(g * h % m not in us for g in gens for h in us):
            raise ValueError("units not closed under multiplication")


def parse_field(text: str) -> tuple[str, int]:
    """The cyclotomic field a string names, "Q(zeta_d)" or "Q" = Q(zeta_1),
    as the ("zeta", d) that ``cyclotomic_image`` takes.  Any other string
    raises ValueError."""
    if not (match := re.fullmatch(r"Q(?:\(zeta_(-?\d+)\))?", text.strip())):
        raise ValueError(f"cannot parse field {text.strip()!r} (want Q or Q(zeta_d))")
    return ("zeta", int(match[1] or 1))


def cyclotomic_image(m: int, field: str | tuple | Sequence[int] = "Q") -> CyclotomicSignature:
    """Image of the base field's cyclotomic character in (Z/mZ)^x.

    ``field`` is ("zeta", d) for the d-th cyclotomic field, a string
    ``parse_field`` reads as one ("Q" is Q(zeta_1)), or an explicit list of
    generating residues.
    """
    if m < 1:
        raise ValueError("modulus must be >= 1")
    field = parse_field(field) if isinstance(field, str) else field
    if isinstance(field, tuple) and len(field) == 2 and field[0] == "zeta":
        d = field[1]
        if d < 1:
            raise ValueError(f"cyclotomic field Q(zeta_{d}) needs d >= 1")
        big = math.lcm(d, m)
        image = sorted({u % m if m > 1 else 1 for u in unit_group(big) if u % d == 1 % d})
        return CyclotomicSignature(m, tuple(image))
    # explicit generators
    return CyclotomicSignature(m, tuple(subgroup_generated(m, field)))


def smallest_prime_factor(n: int) -> int:
    if n < 2:
        raise ValueError("n must be >= 2")
    return factor(n).factors[0][0]


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit: a slice of the cached primes below 2**16, and
    past them the m >= 2 that ``sieve`` gives spf(m) = m."""
    if limit < _SCREEN_BOUND:
        return _primes()[:np.searchsorted(_primes(), limit, "right")].tolist()
    return np.flatnonzero(sieve(limit)[0] == np.arange(limit + 1))[2:].tolist()


def sieve(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """Smallest prime factor and Mobius function of 0..limit, as numpy arrays.

    Only the primes p <= isqrt(limit), sliced from the cached primes below
    2**16, are sieved (isqrt(limit) < 46,341 for every legal limit), into a
    running product of the sieved primes of each m (at most m, so it stays
    in int32).  A squarefree m whose product falls short of m has a single
    larger prime left, which flips mu(m); an m no sieved prime divides is 1
    or a prime and keeps spf(m) = m.  spf[0] = 0, spf[1] = 1 and mu[0] = 0.
    A limit of 2^31 or more, past int32 and 18 GiB of arrays, raises
    ValueError before anything is allocated.  ``mobius`` is the same sieve
    without spf.
    """
    return _sieve(limit, True)


def mobius(limit: int) -> np.ndarray:
    """The Mobius function of 0..limit as int8: ``sieve(limit)[1]``, by the
    same loop with no spf array built or written."""
    return _sieve(limit, False)[1]


def _sieve(limit: int, spf: bool, primes: list[int] | None = None
           ) -> tuple[np.ndarray | None, np.ndarray]:
    """The loop of ``sieve`` and ``mobius``, with spf only when asked for, by
    the given primes: by default those up to isqrt(limit), a slice of the
    cached primes, which are themselves sieved by the primes below 2**8."""
    if limit >= 2**31:
        raise ValueError(f"sieve limit {limit} too large (must be < 2^31)")
    if primes is None:
        primes = primes_up_to(math.isqrt(limit))
    mu = np.ones(limit + 1, dtype=np.int8)
    prod = np.ones(limit + 1, dtype=np.int32)
    least = np.arange(limit + 1, dtype=np.int32) if spf else None
    # descending, so the smallest prime writes spf last
    for p in reversed(primes):
        if spf:
            least[p::p] = p
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
        prod[p::p] *= p
    # arithmetic, not a where= mask, which runs several times slower; 2**16
    # entries at a time, so that no arange as long as prod is held beside it
    for lo in range(0, limit + 1, 2**16):
        m = np.arange(lo, min(lo + 2**16, limit + 1), dtype=np.int32)
        mu[lo:lo + 2**16] *= 1 - 2 * (prod[lo:lo + 2**16] < m).view(np.int8)
    mu[0] = 0
    return least, mu
