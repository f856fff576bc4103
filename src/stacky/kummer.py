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
from functools import cache, cached_property

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


@dataclass(frozen=True, init=False)
class KummerClass:
    """Canonical n-th-power-free representative of a class in Q^x/(Q^x)^n."""

    n: int
    a: FactoredInteger

    def __init__(self, n: int, a: FactoredInteger):
        d = self.__dict__
        d["n"] = n
        d["a"] = a

    @property
    def r(self) -> int:
        return _primes_of(self.n)[0]

    @property
    def is_trivial(self) -> bool:
        return self.a.sign == 1 and not self.a.factors

    @cached_property
    def _discs(self) -> dict[str, "DiscriminantResult"]:
        """The discriminant of each mode ``discriminant`` has built for this
        class, made on first use, so that an enumerated class that is never
        measured builds no dict; equality and the hash read n and a only.
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

    By Capelli it fails exactly when a is a p-th power for some prime p | n,
    or when 4 | n and a lies in -4 (Q^x)^4: the sets of ``_reducible(n)``,
    the one owner of the criterion, which ``census`` also counts the M
    ladders by.  Each set's sign test, the cheapest, comes first.
    """
    a = cls.a
    for q, r2, signs in _reducible(cls.n):
        if a.sign in signs and all(e % q == r2 * (p == 2) for p, e in a.factors) \
                and a.valuation(2) % q == r2:
            return False
    return True


@cache
def _reducible(n: int) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """The sets of classes a with t^n - a reducible (Capelli): A_p, the p-th
    powers, for each prime p | n, and A_-4 = -4 Q^4 when 4 | n.  Each is a
    restriction (q, r2, signs): the exponent at every prime but 2 is 0 mod
    q, v_2 is r2 mod q, and the sign lies in signs."""
    return tuple([(p, 0, (1,) if p == 2 else (1, -1)) for p in _primes_of(n)]
                 + [(4, 2, (-1,))] * (n % 4 == 0))


@dataclass(frozen=True, init=False)
class LocalDiscData:
    """Local discriminant exponent at p: exact when lo == hi."""

    p: int
    kind: str  # "tame" or "wild"
    lo: int
    hi: int
    tame_d: int | None = None

    def __init__(self, p: int, kind: str, lo: int, hi: int, tame_d: int | None = None):
        d = self.__dict__
        d["p"] = p
        d["kind"] = kind
        d["lo"] = lo
        d["hi"] = hi
        d["tame_d"] = tame_d

    @property
    def exact(self) -> bool:
        return self.lo == self.hi

    @property
    def exponent(self) -> int:
        if not self.exact:
            raise ValueError(f"wild exponent at {self.p} is only an interval")
        return self.lo


@dataclass(frozen=True, init=False)
class DiscriminantResult:
    """|disc| as a product of local exponents, in prime order.

    The pass that builds it also sets what every height reads, none of
    them fields: ``lo`` and ``hi``, the two ends as ``FactoredInteger``
    values (one object when the result is exact); ``is_exact``; ``log_lo``
    and ``log_hi``, their logs; and ``log_ramified``, the sum of log p over
    the primes with a positive low exponent.  Each log is ``sum`` over the
    primes in order, so every height that reads it gets the same float."""

    exactness: str  # "exact" or "tame-exact-wild-interval"
    locals: tuple[LocalDiscData, ...]

    def __init__(self, exactness: str, locals: tuple[LocalDiscData, ...]):
        lo, hi, log_lo, log_hi, ramified = [], [], [], [], []
        exact = True
        for loc in locals:
            p, e, f = loc.p, loc.lo, loc.hi
            log_p = math.log(p)
            if e:
                lo.append((p, e))
                ramified.append(log_p)
            if f:
                hi.append((p, f))
            if e != f:
                exact = False
            log_lo.append(e * log_p)
            log_hi.append(f * log_p)
        d = self.__dict__
        d["exactness"] = exactness
        d["locals"] = locals
        d["is_exact"] = exact
        d["lo"] = FactoredInteger(1, tuple(lo))
        d["hi"] = d["lo"] if exact else FactoredInteger(1, tuple(hi))
        d["log_lo"] = sum(log_lo)
        d["log_hi"] = sum(log_hi)
        d["log_ramified"] = sum(ramified)

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
    it.  The tame result keeps the tame locals of a kept exact or interval
    one, which are those a tame build makes.  A call that raises keeps
    nothing.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    discs = cls._discs
    if (res := discs.get(mode)) is not None:
        return res
    if mode == "tame" and (kept := discs.get("exact") or discs.get("interval")):
        locals_ = tuple(d for d in kept.locals if d.kind == "tame")
    else:
        n = cls.n
        locals_ = [] if mode == "tame" else [wild_local(cls, p, mode) for p in _primes_of(n)]
        locals_ += [_tame(n, p, e) for p, e in cls.a.factors if n % p]
        locals_.sort(key=lambda d: d.p)
        locals_ = tuple(d for d in locals_ if d.hi > 0)
    exactness = "exact" if mode == "exact" else "tame-exact-wild-interval"
    res = discs[mode] = DiscriminantResult(exactness, locals_)
    return res
