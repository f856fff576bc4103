"""Points of Bmu_n(Q): canonical classes a in Q^x/(Q^x)^n, irreducibility of
t^n - a, and the discriminant of the etale algebra Q[t]/(t^n - a).

Tame primes (p not dividing n) contribute exactly p^(n - gcd(v_p(a), n)).
Wild primes (p | n) are exact for n in {2, 3} via the classical quadratic
and pure-cubic formulas; for other n the wild exponent is reported as an
interval [0, v_p(n^n a^(n-1))].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .arith import FactoredInteger, _primes_of, nth_power_free_reduce, valuation

__all__ = [
    "KummerClass",
    "LocalDiscData",
    "DiscriminantResult",
    "canonical",
    "is_irreducible",
    "tame_local",
    "wild_local",
    "wild_exponent",
    "discriminant",
]

MODES = ("exact", "tame", "interval")
EXACT_WILD_DEGREES = (2, 3)


@dataclass(frozen=True)
class KummerClass:
    """Canonical n-th-power-free representative of a class in Q^x/(Q^x)^n."""

    n: int
    a: FactoredInteger

    @property
    def r(self) -> int:
        return _primes_of(self.n)[0]

    @property
    def is_trivial(self) -> bool:
        return self.a.sign == 1 and not self.a.factors

    @cached_property
    def _discs(self) -> dict[str, "DiscriminantResult"]:
        """The discriminant of each mode ``discriminant`` has built for this
        class, made on first use; equality and the hash read n and a only.
        Two threads that race on one mode build equal results."""
        return {}


def canonical(
    a: FactoredInteger | int, n: int, den: FactoredInteger | int | None = None
) -> KummerClass:
    """The canonical Kummer class of a (or a/den) for exponent n >= 2; an
    int a or den is factored here."""
    return KummerClass(n, nth_power_free_reduce(a, n, den))


def is_irreducible(cls: KummerClass) -> bool:
    """Whether t^n - a is irreducible over Q.

    Fails exactly when a is a p-th power for some prime p | n, or when
    4 | n and a lies in -4 (Q^x)^4.
    """
    n, a = cls.n, cls.a
    for q in _primes_of(n):
        if _is_qth_power(a, q):
            return False
    if n % 4 == 0 and _in_minus_four_fourth_powers(a):
        return False
    return True


def _is_qth_power(a: FactoredInteger, q: int) -> bool:
    if a.sign < 0 and q == 2:
        return False
    return all(e % q == 0 for _, e in a.factors)


def _in_minus_four_fourth_powers(a: FactoredInteger) -> bool:
    if a.sign > 0:
        return False
    for p, e in a.factors:
        want = 2 if p == 2 else 0
        if e % 4 != want:
            return False
    return a.valuation(2) % 4 == 2


@dataclass(frozen=True)
class LocalDiscData:
    """Local discriminant exponent at p: exact when lo == hi."""

    p: int
    kind: str  # "tame" or "wild"
    lo: int
    hi: int
    tame_d: int | None = None

    @property
    def exact(self) -> bool:
        return self.lo == self.hi

    @property
    def exponent(self) -> int:
        if not self.exact:
            raise ValueError(f"wild exponent at {self.p} is only an interval")
        return self.lo


@dataclass(frozen=True)
class DiscriminantResult:
    exactness: str  # "exact" or "tame-exact-wild-interval"
    locals: tuple[LocalDiscData, ...]

    @cached_property
    def lo(self) -> FactoredInteger:
        return FactoredInteger(1, tuple((d.p, d.lo) for d in self.locals if d.lo))

    @cached_property
    def hi(self) -> FactoredInteger:
        return FactoredInteger(1, tuple((d.p, d.hi) for d in self.locals if d.hi))

    @cached_property
    def is_exact(self) -> bool:
        return all(d.exact for d in self.locals)

    @cached_property
    def log_lo(self) -> float:
        """log of the low end, summed in prime order, so every height that
        reads it gets the same float."""
        return sum(d.lo * math.log(d.p) for d in self.locals)

    @cached_property
    def log_hi(self) -> float:
        return sum(d.hi * math.log(d.p) for d in self.locals)

    @property
    def value(self) -> FactoredInteger:
        if not self.is_exact:
            raise ValueError("discriminant is only known as an interval")
        return self.lo

    def log_abs(self) -> float:
        if not self.is_exact:
            raise ValueError("discriminant is only known as an interval")
        return self.log_lo

    def log_abs_interval(self) -> tuple[float, float]:
        return self.log_lo, self.log_hi

    def to_json(self) -> dict:
        out = {
            "exactness": self.exactness,
            "locals": [
                {
                    "p": d.p,
                    "kind": d.kind,
                    "exponent": [d.lo, d.hi] if not d.exact else d.lo,
                    **({"tame_d": d.tame_d} if d.tame_d is not None else {}),
                }
                for d in self.locals
            ],
        }
        if self.is_exact:
            out["value"] = self.value.abs_value
        else:
            out["value_interval"] = [self.lo.abs_value, self.hi.abs_value]
        return out


def tame_local(cls: KummerClass, p: int) -> LocalDiscData:
    """Exact exponent n - gcd(v_p(a), n) at a prime p not dividing n."""
    if cls.n % p == 0:
        raise ValueError(f"{p} divides n={cls.n}; use wild_local")
    return _tame(cls.n, p, cls.a.valuation(p))


def _tame(n: int, p: int, v: int) -> LocalDiscData:
    d = math.gcd(v, n)
    return LocalDiscData(p, "tame", n - d, n - d, tame_d=d)


def wild_exponent(n: int, a: int, v: int) -> int:
    """Exact exponent of the wild prime p = n in |disc| for n in {2, 3}.

    ``a`` is the signed canonical integer and ``v = v_p(a)``.  Any other n
    raises ValueError.
    """
    if n == 2:
        # quadratic field/etale algebra: disc = a if a = 1 mod 4, else 4a;
        # for even a the factor v_2(a) = 1 of a is folded in here as well.
        return 0 if a % 4 == 1 else 2 + v
    if n == 3:
        # cube-free a = h k^2: |disc| = 3 h^2 k^2 if a^2 = 1 mod 9, else
        # 27 h^2 k^2; the 3-part of h^2 k^2 (3 divides hk at most once) is
        # folded in when 3 | a.
        return 1 if a * a % 9 == 1 else 3 + (2 if v else 0)
    raise ValueError(f"exact wild exponents supported only for n in {EXACT_WILD_DEGREES}")


def wild_local(cls: KummerClass, p: int, mode: str = "exact") -> LocalDiscData:
    """Exponent at a prime p | n: exact for n in {2,3}, else an interval."""
    if cls.n % p != 0:
        raise ValueError(f"{p} does not divide n={cls.n}; use tame_local")
    if mode == "exact":
        e = wild_exponent(cls.n, cls.a.value, cls.a.valuation(p))
        return LocalDiscData(p, "wild", e, e)
    if mode == "interval":
        bound = cls.n * valuation(cls.n, p) + (cls.n - 1) * cls.a.valuation(p)
        return LocalDiscData(p, "wild", 0, bound)
    raise ValueError(f"unknown wild mode {mode!r}")


def discriminant(cls: KummerClass, mode: str = "exact") -> DiscriminantResult:
    """Assembled |disc| of Q[t]/(t^n - a) as a product of local exponents.

    mode "exact" requires n in {2,3}; "tame" sets wild exponents to zero;
    "interval" brackets the wild part by [0, v_p(n^n a^(n-1))].

    A class computes its discriminant once per mode and keeps it, so a
    second call returns the same object; every height in ``heights`` reads
    it.  A call that raises keeps nothing.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if (res := cls._discs.get(mode)) is not None:
        return res
    n = cls.n
    locals_ = [] if mode == "tame" else [wild_local(cls, p, mode) for p in _primes_of(n)]
    locals_ += [_tame(n, p, e) for p, e in cls.a.factors if n % p]
    locals_.sort(key=lambda d: d.p)
    exactness = "exact" if mode == "exact" else "tame-exact-wild-interval"
    res = cls._discs[mode] = DiscriminantResult(
        exactness, tuple(d for d in locals_ if d.hi > 0))
    return res
