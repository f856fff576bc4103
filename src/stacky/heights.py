"""Height functions on Bmu_n(Q).

Three heights are provided for a Kummer class a:

* the vector-bundle height (1/2) log |disc|,
* the quasi-discriminant height, a product of local factors whose
  (n^2 - n^2/r)-th power recovers |disc| exactly,
* raising-function heights prod_v q_v^{c_v}, which for the discriminant
  raising datum equal |disc| on the nose.

Also here: the sector table of Bmu_n with its (a, b) invariants, the
ramification sum edd, the linear test function D_{a'}, and the closed-form
height growth exponent 2/(n - n/r) with a divergence witness.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import FactoredInteger, is_prime, primes_up_to, smallest_prime_factor
from .kummer import KummerClass, discriminant

__all__ = [
    "HeightValue",
    "SectorTable",
    "RaisingFunction",
    "eszb_height",
    "darda_denominator",
    "darda_local",
    "darda_global",
    "sectors",
    "index_raising_function",
    "abc_invariants",
    "raising_height",
    "edd",
    "D_aprime",
    "a_eszb_closed",
    "a_eszb_witness",
]


@dataclass(frozen=True, init=False)
class HeightValue:
    """A logarithmic height, with an exact base^power form when available."""

    log_value: float
    exact_base: FactoredInteger | None = None
    exact_power: Fraction | None = None

    def __init__(self, log_value: float, exact_base: FactoredInteger | None = None,
                 exact_power: Fraction | None = None):
        d = self.__dict__
        d["log_value"] = log_value
        d["exact_base"] = exact_base
        d["exact_power"] = exact_power

    def to_json(self) -> dict:
        out: dict = {"log_value": self.log_value}
        if self.exact_base is not None:
            out["exact_form"] = {
                "base": self.exact_base.abs_value,
                "power": f"{self.exact_power.numerator}/{self.exact_power.denominator}",
            }
        return out


# each power as (Fraction, its float), the float taken once
_ESZB_POWER = (Fraction(1, 2), float(Fraction(1, 2)))
_RAISING_POWER = (Fraction(1), float(Fraction(1)))


def _disc_power(cls: KummerClass, mode: str, power: tuple[Fraction, float]):
    """|disc|^power, read off the class's one discriminant per mode, or a
    (lo, hi) pair when the wild exponents are only an interval."""
    fraction, scale = power
    res = discriminant(cls, mode)
    lo = HeightValue(scale * res.log_lo, res.lo, fraction)
    return lo if res.is_exact else (lo, HeightValue(scale * res.log_hi, res.hi, fraction))


def eszb_height(cls: KummerClass, mode: str = "exact"):
    """(1/2) log |disc|; interval mode returns a (lo, hi) pair."""
    return _disc_power(cls, mode, _ESZB_POWER)


def darda_denominator(n: int) -> int:
    """N = n^2 - n^2/r, r the smallest prime factor of n: n times the least
    index of a twisted sector.  The quasi-discriminant height is
    |disc|^(1/N)."""
    return n * sectors(n).min_value()


@functools.cache
def _darda_power(n: int) -> tuple[Fraction, float]:
    power = Fraction(1, darda_denominator(n))
    return power, float(power)


def darda_local(cls: KummerClass, place, mode: str = "exact") -> float:
    """Local quasi-discriminant factor at a finite prime or at "inf".

    Finite p: |a|_p^(1/n) * p^(e_p / (n^2 - n^2/r)) with e_p the local
    discriminant exponent; the single real place contributes |a|^(1/n).
    A place that is neither "inf" (or math.inf) nor a prime raises
    ValueError.
    """
    a = cls.a
    if place == "inf" or place == math.inf:
        return a.abs_value ** (1.0 / cls.n)
    if not (isinstance(place, int) and is_prime(place)):
        raise ValueError(f"place {place!r} is neither 'inf' nor a prime")
    p = place
    e_p = next((d.exponent for d in discriminant(cls, mode).locals if d.p == p), 0)
    v = a.valuation(p)
    N = darda_denominator(cls.n)
    return p ** (-v / cls.n) * p ** (e_p / N)


def darda_global(cls: KummerClass, mode: str = "exact"):
    """Product of the local factors over all places.

    The archimedean |a|^(1/n) cancels the finite |a|_v^(1/n) by the product
    formula, leaving |disc|^(1/(n^2 - n^2/r)) exactly.  Interval mode
    returns (lo, hi).
    """
    return _disc_power(cls, mode, _darda_power(cls.n))


@dataclass(frozen=True)
class SectorTable:
    """Twisted sectors j = 1..n-1 of Bmu_n with their index values."""

    n: int
    entries: tuple[tuple[int, int], ...]  # (j, n - gcd(j, n))

    def min_value(self) -> int:
        return min(c for _, c in self.entries)


@functools.cache
def sectors(n: int) -> SectorTable:
    if n < 2:
        raise ValueError("n must be >= 2")
    return SectorTable(n, tuple((j, n - math.gcd(j, n)) for j in range(1, n)))


@dataclass(frozen=True)
class RaisingFunction:
    """Nonnegative weights on the twisted sectors of Bmu_n (c(0) = 0)."""

    n: int
    values: tuple[float, ...]  # value at sector j = position j - 1

    def __post_init__(self):
        if len(self.values) != self.n - 1:
            raise ValueError("need one value per twisted sector")
        if not all(math.isfinite(v) and v >= 0 for v in self.values):
            raise ValueError(f"raising values must be finite and nonnegative, got {self.values}")


def index_raising_function(n: int) -> RaisingFunction:
    tab = sectors(n)
    return RaisingFunction(n, tuple(float(c) for _, c in tab.entries))


def abc_invariants(c: RaisingFunction) -> tuple[Fraction, int]:
    """a = 1/min twisted value, b = multiplicity of the minimum."""
    if any(v == 0 for v in c.values):
        raise ValueError("raising function vanishes on a twisted sector")
    vmin = min(c.values)
    b = sum(1 for v in c.values if v == vmin)
    a = (
        Fraction(1, int(vmin))
        if float(vmin).is_integer()
        else Fraction(1 / vmin).limit_denominator(10**9)
    )
    return a, b


def raising_height(cls: KummerClass, mode: str = "exact") -> HeightValue:
    """Height for the discriminant raising datum: exactly |disc|."""
    h = _disc_power(cls, mode, _RAISING_POWER)
    if isinstance(h, tuple):
        raise ValueError("raising height needs exact local exponents")
    return h


def edd(cls: KummerClass, mode: str = "exact") -> float:
    """Sum of log p over the primes ramified in the torsor (p | disc)."""
    return discriminant(cls, mode).log_ramified


def D_aprime(cls: KummerClass, a_prime: float, mode: str = "exact") -> float:
    """a' * (1/2) log |disc| - edd, the height-vs-ramification test function."""
    res = discriminant(cls, mode)
    if not res.is_exact:
        raise ValueError("D_aprime needs a point value; use exact or tame mode")
    return a_prime * (_ESZB_POWER[1] * res.log_lo) - res.log_ramified


def a_eszb_closed(n: int) -> Fraction:
    """Threshold exponent 2/(n - n/r), r the smallest prime factor of n:
    2 over the least index of a twisted sector."""
    return Fraction(2, sectors(n).min_value())


def a_eszb_witness(n: int, a_prime: float, k: int) -> float:
    """D_{a'} of the witness class built from the first k primes coprime to n.

    The witness is a = (p_1 ... p_k)^(n/r); below the threshold exponent
    the returned sequence in k decreases without bound.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    r = smallest_prime_factor(n)
    ps = []
    limit = 64
    while len(ps) < k:
        ps = [p for p in primes_up_to(limit) if n % p != 0][:k]
        limit *= 2
    exps = tuple((p, n // r) for p in ps)
    cls = KummerClass(n, FactoredInteger(1, exps))
    return D_aprime(cls, a_prime, mode="tame")
