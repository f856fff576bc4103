import dataclasses
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import numeric_irreducible
from stacky.arith import FactoredInteger, factor
from stacky.heights import HeightValue, edd
from stacky.kummer import (
    EXACT_WILD_DEGREES,
    DiscriminantResult,
    KummerClass,
    LocalDiscData,
    canonical,
    discriminant,
    is_irreducible,
    tame_local,
    wild_exponent,
    wild_local,
)


def test_canonical_reduction():
    assert canonical(8, 3).is_trivial
    assert canonical(12, 2).a.value == 3
    assert canonical(-8, 2).a.value == -2
    assert canonical(-8, 3).a.value == 1
    assert canonical(5, 3, den=40).a.value == 1  # 5/40 = 1/8 ~ 1
    assert canonical(2, 4).r == 2
    assert canonical(15, 9).r == 3
    with pytest.raises(ValueError):
        canonical(2, 1)


def test_irreducibility_small_cases():
    assert is_irreducible(canonical(2, 2))
    assert not is_irreducible(KummerClass(2, factor(4)))
    assert not is_irreducible(KummerClass(4, factor(-4)))  # t^4 + 4 splits
    assert not is_irreducible(KummerClass(4, factor(4)))
    assert is_irreducible(KummerClass(4, factor(-1)))
    assert not is_irreducible(KummerClass(8, factor(16)))
    assert is_irreducible(KummerClass(6, factor(72)))
    assert not is_irreducible(KummerClass(6, factor(8)))  # 8 is a cube
    assert not is_irreducible(KummerClass(12, factor(-64)))  # -64 in -4 (Q^x)^4


# n = 12 has all three reducible sets: 9 in A_2, -8 in A_3, -4 in A_-4,
# and -64 = (-4)^3 = -4 * 2^4 in A_3 and A_-4; -81 = -3^4 is in none, its
# exponent 0 mod 4 but v_2 = 0, not 2 mod 4
@settings(max_examples=200)
@given(n=st.sampled_from((9, 10, 11, 12)), sign=st.sampled_from((1, -1)), b=st.integers(1, 5),
       k=st.integers(1, 12), c=st.integers(1, 6), minus_four=st.booleans())
@example(n=12, sign=1, b=3, k=2, c=1, minus_four=False)
@example(n=12, sign=-1, b=2, k=3, c=1, minus_four=False)
@example(n=12, sign=1, b=1, k=1, c=1, minus_four=True)
@example(n=12, sign=1, b=2, k=1, c=1, minus_four=True)
@example(n=12, sign=-1, b=3, k=4, c=1, minus_four=False)
def test_irreducibility_matches_the_numeric_oracle_past_degree_8(n, sign, b, k, c, minus_four):
    # a = +-b^k c with k | n, or -4 b^4 when 4 | n: the sets of n = 9..12
    # (A_3; A_2 and A_5; A_11; A_2, A_3 and A_-4), which the acceptance
    # check of n <= 8 does not reach
    k = math.gcd(k, n)
    a = -4 * b**4 if minus_four and n % 4 == 0 else sign * b**k * c
    assert is_irreducible(canonical(a, n)) == numeric_irreducible(n, a), (n, a)

def test_tame_local():
    cls = canonical(factor(2**1 * 3**2), 4)
    assert tame_local(cls, 3).exponent == 4 - 2
    assert tame_local(cls, 5).exponent == 0
    assert tame_local(cls, 7).tame_d == 4
    with pytest.raises(ValueError):
        tame_local(cls, 2)


def test_wild_local_quadratic():
    assert wild_local(canonical(5, 2), 2).exponent == 0
    assert wild_local(canonical(-3, 2), 2).exponent == 0
    assert wild_local(canonical(3, 2), 2).exponent == 2
    assert wild_local(canonical(2, 2), 2).exponent == 3
    assert wild_local(canonical(-2, 2), 2).exponent == 3
    with pytest.raises(ValueError):
        wild_local(canonical(3, 2), 3)


def test_wild_local_cubic():
    assert wild_local(canonical(10, 3), 3).exponent == 1
    assert wild_local(canonical(17, 3), 3).exponent == 1
    assert wild_local(canonical(2, 3), 3).exponent == 3
    assert wild_local(canonical(3, 3), 3).exponent == 5
    assert wild_local(canonical(9, 3), 3).exponent == 5


def test_wild_local_interval_bound():
    d = wild_local(canonical(2, 4), 2, mode="interval")
    assert (d.lo, d.hi) == (0, 4 * 2 + 3 * 1)
    with pytest.raises(ValueError):
        wild_local(canonical(2, 4), 2, mode="exact")


@pytest.mark.parametrize("n", range(4, 13))
def test_wild_exponent_rejects_n_without_exact_exponents(n):
    # the kernel knows exact wild exponents for n in {2, 3} only
    with pytest.raises(ValueError, match="exact wild exponents"):
        wild_exponent(n, 3, 0)


def test_discriminant_known_quadratic_fields():
    for a, d in [(2, 8), (3, 12), (5, 5), (-1, 4), (-3, 3), (6, 24), (-7, 7)]:
        assert discriminant(canonical(a, 2)).value.abs_value == d


def test_discriminant_known_cubic_fields():
    for a, d in [(2, 108), (3, 243), (5, 675), (10, 300), (17, 867), (9, 243)]:
        assert discriminant(canonical(a, 3)).value.abs_value == d


def test_discriminant_trivial_classes():
    assert discriminant(canonical(1, 2)).value.abs_value == 1
    # Q[t]/(t^3 - 1) = Q x Q(zeta_3) ramifies at 3
    assert discriminant(canonical(1, 3)).value.abs_value == 3


def test_discriminant_modes():
    cls = canonical(6, 4)
    with pytest.raises(ValueError):
        discriminant(cls, "exact")
    tame = discriminant(cls, "tame")
    assert tame.is_exact
    assert tame.value.abs_value == 3**3  # only the tame prime 3 counts
    inter = discriminant(cls, "interval")
    assert not inter.is_exact
    assert inter.lo.abs_value == 27
    assert inter.hi.abs_value == 27 * 2 ** (8 + 3)
    lo, hi = inter.log_abs_interval()
    assert lo <= hi
    with pytest.raises(ValueError):
        inter.value
    with pytest.raises(ValueError):
        discriminant(cls, "fuzzy")


def test_discriminant_exact_log():
    res = discriminant(canonical(10, 3))
    assert math.isclose(res.log_abs(), math.log(300))


def test_discriminant_json():
    obj = discriminant(canonical(3, 2)).to_json()
    assert obj["exactness"] == "exact"
    assert obj["value"] == 12
    assert {(d["p"], d["kind"]) for d in obj["locals"]} == {(2, "wild"), (3, "tame")}
    obj = discriminant(canonical(2, 4), "interval").to_json()
    assert "value_interval" in obj


def test_discriminant_is_built_once_per_mode():
    for n, modes in ((2, ("exact", "tame", "interval")), (6, ("tame", "interval"))):
        cls = canonical(-2 * 3 * 5**2, n)
        results = {mode: discriminant(cls, mode) for mode in modes}
        for mode in modes:
            assert discriminant(cls, mode) is results[mode]
        assert len({id(res) for res in results.values()}) == len(modes)


def test_discriminant_that_raises_keeps_nothing():
    cls = canonical(7, 5)
    for _ in range(2):  # the second call raises too: nothing was kept
        with pytest.raises(ValueError, match="exact wild exponents"):
            discriminant(cls, "exact")
        with pytest.raises(ValueError, match="unknown mode"):
            discriminant(cls, "fuzzy")
    assert discriminant(cls, "interval") == discriminant(canonical(7, 5), "interval")


def test_kept_discriminants_leave_equality_and_hash():
    cls = canonical(12, 3)
    discriminant(cls, "exact")
    discriminant(cls, "tame")
    fresh = KummerClass(3, factor(12))
    assert cls == fresh and hash(cls) == hash(fresh)
    assert len({cls, fresh}) == 1


# primes of a: every prime dividing some n <= 12, and primes prime to all n
KUMMER_PRIMES = (2, 3, 5, 7, 11, 13, 101, 65537)


@settings(max_examples=120, deadline=None)
@given(st.integers(2, 12), st.sampled_from((1, -1)),
       st.dictionaries(st.sampled_from(KUMMER_PRIMES), st.integers(1, 30), max_size=5),
       st.none() | st.integers(2, 10**6))
def test_discriminant_in_every_mode_order_matches_a_fresh_build(n, sign, powers, den):
    a = sign * math.prod(p**e for p, e in powers.items())
    modes = ("exact", "tame", "interval") if n in EXACT_WILD_DEGREES else ("tame", "interval")
    for order in itertools.permutations(modes):
        cls = canonical(a, n, den)
        results = [discriminant(cls, mode) for mode in order]
        assert len({id(res) for res in results}) == len(order)
        for mode, res in zip(order, results):
            # a tame result read off a kept one equals one built first
            assert res == discriminant(canonical(a, n, den), mode), (order, mode)
            assert discriminant(cls, mode) is res
            # what the build sets, against the formulas it replaced
            assert res.lo == FactoredInteger(1, tuple((d.p, d.lo) for d in res.locals if d.lo))
            assert res.hi == FactoredInteger(1, tuple((d.p, d.hi) for d in res.locals if d.hi))
            assert res.is_exact == all(d.exact for d in res.locals)
            assert res.log_lo == sum(d.lo * math.log(d.p) for d in res.locals)
            assert res.log_hi == sum(d.hi * math.log(d.p) for d in res.locals)
            assert edd(cls, mode) == sum(math.log(d.p) for d in res.locals if d.lo > 0)


def test_value_types_keep_the_dataclass_contract():
    fi = FactoredInteger(-1, ((2, 3), (5, 1)))
    cls = KummerClass(4, fi)
    tame = LocalDiscData(5, "tame", 3, 3, tame_d=1)
    res = DiscriminantResult("tame-exact-wild-interval",
                             (LocalDiscData(2, "wild", 0, 17), tame))
    height = HeightValue(1.5, fi, Fraction(1, 2))
    reprs = {
        fi: "FactoredInteger(sign=-1, factors=((2, 3), (5, 1)))",
        cls: "KummerClass(n=4, a=FactoredInteger(sign=-1, factors=((2, 3), (5, 1))))",
        tame: "LocalDiscData(p=5, kind='tame', lo=3, hi=3, tame_d=1)",
        res: "DiscriminantResult(exactness='tame-exact-wild-interval', locals=("
             "LocalDiscData(p=2, kind='wild', lo=0, hi=17, tame_d=None), "
             "LocalDiscData(p=5, kind='tame', lo=3, hi=3, tame_d=1)))",
        height: "HeightValue(log_value=1.5, exact_base=FactoredInteger(sign=-1, "
                "factors=((2, 3), (5, 1))), exact_power=Fraction(1, 2))",
    }
    fields = {fi: ("sign", "factors"), cls: ("n", "a"),
              tame: ("p", "kind", "lo", "hi", "tame_d"), res: ("exactness", "locals"),
              height: ("log_value", "exact_base", "exact_power")}
    for value, want in reprs.items():
        assert repr(value) == want
        names = tuple(f.name for f in dataclasses.fields(value))
        assert names == fields[value]
        for name in names:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, None)
        # a rebuilt copy is equal and hashes equal; the defaults still apply
        copy = dataclasses.replace(value)
        assert copy == value and hash(copy) == hash(value) and copy is not value
    assert LocalDiscData(2, "wild", 1, 1).tame_d is None
    assert HeightValue(0.5) == HeightValue(0.5, None, None)
    # replace runs the build again: the checks, and the ends and log sums
    assert dataclasses.replace(fi, sign=1).value == 40
    with pytest.raises(ValueError, match="sign must be"):
        dataclasses.replace(fi, sign=0)
    with pytest.raises(ValueError, match="strictly increasing"):
        dataclasses.replace(fi, factors=((5, 1), (2, 3)))
    with pytest.raises(ValueError, match="exponents must be"):
        dataclasses.replace(fi, factors=((2, 0),))
    narrowed = dataclasses.replace(res, locals=(tame,))
    assert (narrowed.lo, narrowed.hi, narrowed.is_exact) == (factor(125), factor(125), True)
    assert narrowed.log_lo == 3 * math.log(5) and narrowed.log_ramified == math.log(5)
    assert (res.lo.value, res.hi.value, res.is_exact) == (125, 2**17 * 125, False)
