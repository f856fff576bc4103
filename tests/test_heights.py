import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stacky.heights import (
    D_aprime,
    HeightValue,
    RaisingFunction,
    a_eszb_closed,
    a_eszb_witness,
    abc_invariants,
    darda_denominator,
    darda_global,
    darda_local,
    edd,
    eszb_height,
    index_raising_function,
    raising_height,
    sectors,
)
from stacky.kummer import EXACT_WILD_DEGREES, canonical, discriminant


def test_eszb_height():
    h = eszb_height(canonical(3, 2))
    assert math.isclose(h.log_value, math.log(12) / 2)
    assert h.exact_power == Fraction(1, 2)
    assert h.exact_base.abs_value == 12


def test_eszb_height_interval():
    lo, hi = eszb_height(canonical(6, 4), mode="interval")
    assert lo.log_value <= hi.log_value
    assert math.isclose(lo.log_value, math.log(27) / 2)


def test_darda_exact_identity_spot():
    for n, a in [(2, 3), (2, -7), (3, 10), (3, 12)]:
        cls = canonical(a, n)
        h = darda_global(cls)
        N = n * n - n * n // cls.r
        assert h.exact_power == Fraction(1, N)
        assert h.exact_base == discriminant(cls).value
        assert math.isclose(h.log_value, discriminant(cls).log_abs() / N)


def test_darda_local_product_matches_global():
    # the product formula is what reduces darda_global to |disc|^(1/N)
    import random

    rng = random.Random(20260824)
    for n in range(2, 13):
        wild = [p for p in (2, 3, 5, 7, 11) if n % p == 0]
        values = [12, -7, 1, -1, n, -(n**3) * 35] + [
            rng.choice([1, -1]) * rng.choice(wild) ** rng.randint(0, 2 * n) * rng.randint(1, 10**6)
            for _ in range(34)
        ]
        for mode in ("exact", "tame") if n in (2, 3) else ("tame",):
            for a in values:
                cls = canonical(a, n)
                support = {p for p, _ in cls.a.factors} | set(wild)
                prod = darda_local(cls, "inf", mode)
                for p in sorted(support):
                    prod *= darda_local(cls, p, mode)
                want = darda_global(cls, mode).log_value
                assert math.isclose(math.log(prod), want, abs_tol=1e-9), (n, a, mode)


@pytest.mark.parametrize("place", [4, 1, -3, 0, 2.0, "2"])
def test_darda_local_rejects_places_that_are_not_primes(place):
    with pytest.raises(ValueError, match="neither 'inf' nor a prime"):
        darda_local(canonical(12, 2), place)


def test_darda_local_at_inf_and_primes():
    cls = canonical(12, 2)  # a = 3, |disc| = 12, N = 2
    assert darda_local(cls, "inf") == darda_local(cls, math.inf) == 3 ** 0.5
    assert darda_local(cls, 2) == 2 ** (2 / 2)
    assert darda_local(cls, 3) == 3 ** (-1 / 2) * 3 ** (1 / 2)
    assert darda_local(cls, 5) == 1.0


# primes of a: every prime dividing some n <= 12, and primes prime to all n
HEIGHT_PRIMES = (2, 3, 5, 7, 11, 13, 101, 65537)


def _want(res, power):
    """|disc|^power from the discriminant's own prime powers, summed in
    prime order: the value every height must reproduce bit for bit."""
    def height(base):
        return HeightValue(float(power) * sum(e * math.log(p) for p, e in base.factors),
                           base, power)
    return height(res.lo) if res.is_exact else (height(res.lo), height(res.hi))


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 12), st.sampled_from((1, -1)),
       st.dictionaries(st.sampled_from(HEIGHT_PRIMES), st.integers(1, 30), max_size=5),
       st.none() | st.integers(2, 10**6))
def test_heights_read_one_discriminant(n, sign, powers, den):
    a = sign * math.prod(p**e for p, e in powers.items())
    cls = canonical(a, n, den)
    modes = ("exact", "tame", "interval") if n in EXACT_WILD_DEGREES else ("tame", "interval")
    N = darda_denominator(n)
    ap = float(a_eszb_closed(n))
    # twice over every mode on one instance, against a fresh class per mode,
    # so that a kept discriminant read under the wrong mode would show
    for mode in modes * 2:
        res = discriminant(canonical(a, n, den), mode)
        assert eszb_height(cls, mode) == _want(res, Fraction(1, 2))
        assert darda_global(cls, mode) == _want(res, Fraction(1, N))
        edd_want = sum(math.log(p) for p, _ in res.lo.factors)
        assert edd(cls, mode) == edd_want
        if res.is_exact:
            assert raising_height(cls, mode) == _want(res, Fraction(1))  # |disc| itself
            assert D_aprime(cls, ap, mode) == ap * _want(res, Fraction(1, 2)).log_value - edd_want
        else:
            with pytest.raises(ValueError):
                raising_height(cls, mode)
            with pytest.raises(ValueError):
                D_aprime(cls, ap, mode)


def test_darda_interval_mode():
    lo, hi = darda_global(canonical(6, 4), mode="interval")
    assert lo.log_value < hi.log_value
    assert lo.exact_base.abs_value == 27


def test_sectors():
    tab = sectors(6)
    assert tab.entries == ((1, 5), (2, 4), (3, 3), (4, 4), (5, 5))
    assert tab.min_value() == 3
    assert sectors(9).min_value() == 6
    with pytest.raises(ValueError):
        sectors(1)


def test_abc_invariants():
    a, b = abc_invariants(index_raising_function(6))
    assert (a, b) == (Fraction(1, 3), 1)
    a, b = abc_invariants(index_raising_function(9))
    assert (a, b) == (Fraction(1, 6), 2)
    with pytest.raises(ValueError):
        abc_invariants(RaisingFunction(3, (0.0, 1.0)))


def test_raising_function_validation():
    with pytest.raises(ValueError):
        RaisingFunction(4, (1.0, 2.0))  # wrong arity
    with pytest.raises(ValueError):
        RaisingFunction(3, (-1.0, 1.0))
    # (2.0, nan) once built and gave abc_invariants (1/2, 1); (nan, 2.0)
    # failed inside Fraction
    for bad in (math.nan, math.inf, -math.inf):
        for values in ((2.0, bad), (bad, 2.0)):
            with pytest.raises(ValueError, match="finite"):
                RaisingFunction(3, values)


def test_raising_height_is_disc():
    cls = canonical(10, 3)
    h = raising_height(cls)
    assert h.exact_base.abs_value == 300
    assert h.exact_power == 1
    with pytest.raises(ValueError):
        raising_height(canonical(6, 4), mode="interval")


def test_edd():
    assert math.isclose(edd(canonical(6, 2)), math.log(2) + math.log(3))
    assert math.isclose(edd(canonical(5, 2)), math.log(5))
    assert edd(canonical(1, 2)) == 0.0


def test_D_aprime():
    cls = canonical(6, 2)
    for ap in (0.5, 1.0, 2.0):
        want = ap * math.log(24) / 2 - (math.log(2) + math.log(3))
        assert math.isclose(D_aprime(cls, ap), want)
    with pytest.raises(ValueError):
        D_aprime(canonical(6, 4), 1.0, mode="interval")


def test_a_eszb_closed():
    assert a_eszb_closed(2) == Fraction(2, 1)
    assert a_eszb_closed(3) == Fraction(1, 1)
    assert a_eszb_closed(4) == Fraction(1, 1)
    assert a_eszb_closed(6) == Fraction(2, 3)
    assert a_eszb_closed(9) == Fraction(1, 3)
    with pytest.raises(ValueError):
        a_eszb_closed(1)


def test_least_sector_index_formulas():
    # both read the least sector index n - n/r, r the smallest prime factor
    # of n, found here by trial division
    for n in range(2, 31):
        r = next(r for r in range(2, n + 1) if n % r == 0)
        assert darda_denominator(n) == n * n - n * n // r, n
        assert a_eszb_closed(n) == Fraction(2, n - n // r), n
    with pytest.raises(ValueError, match="n must be >= 2"):
        darda_denominator(1)


def test_a_eszb_witness_threshold_is_flat():
    # at the closed-form exponent every witness value vanishes
    for n in (2, 3, 4, 6):
        ap = float(a_eszb_closed(n))
        for k in (1, 5, 20):
            assert abs(a_eszb_witness(n, ap, k)) < 1e-9


def test_product_formula_exact():
    # prod over all places of |a|_v = 1, in exact arithmetic
    import random
    from fractions import Fraction as F

    from stacky.arith import factor

    rng = random.Random(20260824)
    print("[test_heights] product formula seed=20260824")
    for _ in range(10**4):
        num = rng.randint(1, 10**6) * rng.choice([1, -1])
        den = rng.randint(1, 10**6)
        a = F(num, den)
        finite = F(1)
        for p, _e in (factor(num) * factor(den)).factors:
            v = 0
            q = a
            while q.numerator % p == 0:
                q /= p
                v += 1
            while q.denominator % p == 0:
                q *= p
                v -= 1
            finite *= F(1, p) ** v
        assert abs(a) * finite == 1


def test_a_eszb_witness_decreases_below_threshold():
    for n in (2, 3, 4):
        ap = 0.9 * float(a_eszb_closed(n))
        vals = [a_eszb_witness(n, ap, k) for k in (1, 5, 20, 40)]
        assert all(x > y for x, y in zip(vals, vals[1:]))
        assert vals[-1] < 0
