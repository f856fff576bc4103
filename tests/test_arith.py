import math
import random
import re
import time
from unittest import mock

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from stacky.arith import (
    CyclotomicSignature,
    FactoredInteger,
    cyclotomic_image,
    factor,
    is_prime,
    mobius,
    nth_power_free_reduce,
    primes_up_to,
    sieve,
    smallest_prime_factor,
    subgroup_generated,
    unit_group,
    valuation,
)
from oracles import _spf_table, closed_under_products, power_free_reduce
from stacky import arith
from stacky.arith import _pollard_rho, _split, _squfof_race

SEED = 20260824
print(f"[test_arith] seed={SEED}")

# psi_t (OEIS A014233): the least strong pseudoprime to the first t prime
# bases, for the t at which it changes; PSI[-1] is psi_12, to the bases 2..37
PSI = [2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
       341550071728321, 3825123056546413051, 318665857834031151167461]
PSI_12 = PSI[-1]


def test_factor_roundtrip_random():
    rng = random.Random(SEED)
    for _ in range(300):
        m = rng.randint(1, 10**9) * rng.choice([1, -1])
        f = factor(m)
        assert f.value == m
        assert all(is_prime(p) for p, _ in f.factors)


def test_factor_large_semiprime():
    p, q = 1000003, 1000033
    f = factor(p * q)
    assert f.factors == ((p, 1), (q, 1))


# primes in three bands: below the trial bound 2**10, from there to 10**6
# (small for rho), and up to 2**32
_PRIMES = st.one_of(
    st.sampled_from(list(sympy.primerange(2, 2**10))),
    st.integers(2**10, 10**6 - 1).map(sympy.nextprime),
    st.integers(10**6, 2**32 - 6).map(sympy.nextprime),
)


@settings(max_examples=80)
@given(st.lists(st.tuples(_PRIMES, st.integers(1, 3)), min_size=0, max_size=5),
       st.sampled_from([1, -1]))
def test_factor_property(prime_powers, sign):
    # keep |m| below 2**64, the range factor() is specified for
    exps: dict[int, int] = {}
    m = 1
    for p, e in prime_powers:
        assert sympy.isprime(p)
        if p not in exps and m * p**e < 2**64:
            exps[p] = e
            m *= p**e
    f = factor(sign * m)
    assert f.factors == tuple(sorted(exps.items()))
    assert f.sign == sign


@pytest.mark.parametrize("m", [
    1031**2, 1031**3, 1033**2 * 1039,            # just above the trial bound
    2147483629**2, 2147483629**3,                 # near 2**31
    1021 * 1031, 1021**2 * 1031**3, 1019 * 1031 * 1033,  # straddling it
    3215031751, 3825123056546413051,              # strong pseudoprimes
    561 * 1105 * 1729,                            # Carmichael numbers
    2**61 - 1, 2**64 - 1, (2**31 - 1) ** 2,
    1, -1, -(2**64 - 1),
    PSI_12,                                       # 399165290221 * 798330580441
    65537**3, sympy.nextprime(2**21) ** 3,        # prime powers past the trial bound
    sympy.nextprime(2**21) ** 2 * 1000003, 1031**2 * (2**31 - 1), 65537**2 * 65539**2,
    1031 * 1033,                                  # just past the screen's 2**20 threshold
    65521**2, 65521**3, 65521 * 1031 * (2**61 - 1),  # the largest prime the screen takes
    65521 * sympy.nextprime(2**70),               # screened primes past 2**63: the limb fold
    1031**2 * sympy.nextprime(2**100),
    sympy.prevprime(2**45) * sympy.prevprime(2**46),  # 91 bits: 1,245 capped lanes
    (2**61 - 1) ** 2, (2**61 - 1) ** 3 * 65537,  # perfect powers past the race's range:
    (2**89 - 1) ** 2,                             # the root check takes them, not rho
])
def test_factor_edge_cases(m):
    f = factor(m)
    assert f.factors == tuple(sorted(sympy.factorint(abs(m)).items()))
    assert f.sign == (1 if m > 0 else -1)


def test_pollard_rho_proper_divisor():
    odd_composites = [n for n in range(9, 10**5, 2) if not is_prime(n)]
    # about a third of these prime powers reach gcd n at the end of a batch,
    # so they take the step back from the batch start
    prime_powers = [p**e for p in primes_up_to(2000)[1:] + [65537, 2**31 - 1]
                    for e in (2, 3, 4)]
    for n in odd_composites + prime_powers:
        d = _pollard_rho(n)
        assert 1 < d < n and n % d == 0, n


def _random_prime(rng, bits):
    return sympy.nextprime(rng.getrandbits(bits) | 1 << (bits - 1))


@pytest.mark.parametrize("bits", [31, 32])
def test_factor_semiprimes(bits, monkeypatch):
    def refuse(n):
        raise AssertionError(f"{n} reached rho")

    # the race itself splits them: rho is never reached
    monkeypatch.setattr(arith, "_pollard_rho", refuse)
    rng = random.Random(SEED + bits)
    for _ in range(6):
        # sympy.nextprime certifies p and q, so p * q factors as built
        p, q = _random_prime(rng, bits), _random_prime(rng, bits)
        assert factor(p * q).factors == tuple(sorted({p: 1, q: 1}.items()))
        assert _squfof_race(p * q) in (p, q)


def test_split_takes_perfect_powers_by_root(monkeypatch):
    def refuse(n, *args):
        raise AssertionError(f"a perfect power {n} reached rho or the race")

    monkeypatch.setattr(arith, "_pollard_rho", refuse)
    monkeypatch.setattr(arith, "_squfof_race", refuse)
    for p in (1031, 65537, sympy.nextprime(2**21)):
        for e in (2, 3, 4, 5):
            if (p**e).bit_length() <= 91:
                d = _split(p**e)
                assert 1 < d < p**e and p**e % d == 0


def test_squfof_race_on_prime_cubes():
    # every square a lane meets on a prime cube may be improper: the race
    # returns a proper divisor or gives up, and does not hang
    for p in (1031, 1543, 65537, sympy.nextprime(2**21)):
        d = _squfof_race(p**3)
        assert d is None or d in (p, p * p), p


def test_squfof_race_when_kn_is_a_square():
    # 1031 is one of the multipliers, so k * n is a square for n = 1031 q^2
    q = sympy.nextprime(2**24)
    assert _squfof_race(1031 * q * q) == 1031 * q


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(2**20, 2**32).map(sympy.prevprime), min_size=2, max_size=3))
def test_factor_products_of_large_primes(primes):
    m = math.prod(primes)
    assert factor(m).factors == tuple(sorted(sympy.factorint(m).items()))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1032, 2**16).map(sympy.prevprime), min_size=1, max_size=4),
       st.integers(0, 2**200))
def test_screen_divides_out_every_mid_prime(mid_primes, rest):
    # below and past 2**63, where the residues come from the limb fold:
    # factor calls a cofactor below 2**32 prime because none of these is left
    m = math.prod(mid_primes) * (rest | 1)
    exps = {}
    cofactor = arith._screen(m, exps)
    mid = {p: e for p, e in sympy.factorint(m, limit=2**16).items() if 2**10 < p <= 2**16}
    assert exps == mid
    assert cofactor * math.prod(p**e for p, e in mid.items()) == m


# a 95-bit product of a 47- and a 48-bit prime: past the race, no perfect
# power, and both primes far past what rho's 2**20 steps find
RHO_BUDGET_SEMIPRIME = sympy.nextprime(3 * 2**45) * sympy.nextprime(3 * 2**46)


def test_factor_past_the_rho_budget_raises():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="cannot factor a 95-bit cofactor"):
        factor(RHO_BUDGET_SEMIPRIME)
    assert time.perf_counter() - start < 2.0


def test_factor_rejects_zero():
    with pytest.raises(ValueError):
        factor(0)


def test_is_prime_vs_trial_division():
    def naive(n):
        return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))

    for n in range(0, 2000):
        assert is_prime(n) == naive(n)


def test_is_prime_strong_pseudoprimes():
    # each psi_t passes the first t witnesses; a later one must catch it
    for psi in PSI:
        assert is_prime(psi) is False, psi
    rng = random.Random(SEED + 2)
    for _ in range(2000):
        n = rng.getrandbits(rng.randint(2, 84)) | 1
        assert is_prime(n) == sympy.isprime(n), n


def test_factored_integer_algebra():
    a = factor(12)
    b = factor(-45)
    assert (a * b).value == -540
    assert a.pow(3).value == 12**3
    assert b.pow(2).value == 45**2
    assert a.radical() == 6
    assert str(factor(-18)) == "-2*3^2"
    assert FactoredInteger.one().value == 1


def test_factored_integer_json_roundtrip():
    f = factor(-720)
    assert FactoredInteger.from_json(f.to_json()) == f
    assert f.to_json() == {"sign": -1, "factors": [[2, 4], [3, 2], [5, 1]]}


def test_factored_integer_validation():
    with pytest.raises(ValueError, match=r"sign must be \+1 or -1"):
        FactoredInteger(0, ())
    with pytest.raises(ValueError, match="primes must be strictly increasing"):
        FactoredInteger(1, ((3, 1), (2, 1)))
    with pytest.raises(ValueError, match="exponents must be >= 1"):
        FactoredInteger(1, ((2, 0),))


def test_valuation():
    assert valuation(48, 2) == 4
    assert valuation(48, 5) == 0
    assert valuation(factor(-27), 3) == 3
    with pytest.raises(ValueError):
        valuation(0, 2)


def test_nth_power_free_reduce_exponent_range():
    rng = random.Random(SEED + 1)
    for _ in range(200):
        n = rng.randint(2, 8)
        num = rng.randint(1, 10**6) * rng.choice([1, -1])
        den = rng.randint(1, 10**4)
        rep = nth_power_free_reduce(num, n, den)
        assert all(0 < e < n for _, e in rep.factors)
        if n % 2:
            assert rep.sign == 1
        # num/den divided by rep must be an n-th power in Q
        quot = factor(num) * rep.pow(n - 1)  # = num * rep^(n-1) ~ num / rep
        exps = {p: e for p, e in quot.factors}
        for p, e in factor(den).factors:
            exps[p] = exps.get(p, 0) - e
        assert all(e % n == 0 for e in exps.values())


# small primes, primes past the trial bound, and 2**31 - 1, with exponents
# well past every n, so reductions wrap
_REDUCE_POWERS = st.lists(st.tuples(st.sampled_from([2, 3, 5, 7, 13, 1031, 65537, 2**31 - 1]),
                                    st.integers(1, 25)), max_size=4)


def _bounded_product(prime_powers, bound=2**64):
    """The product of the (p, e) taken in order while it stays below bound."""
    m = 1
    for p, e in prime_powers:
        if m * p**e < bound:
            m *= p**e
    return m


@settings(max_examples=300, deadline=None)
@given(_REDUCE_POWERS, _REDUCE_POWERS, st.integers(0, 25), st.sampled_from([1, -1]),
       st.sampled_from([1, -1]), st.integers(2, 12))
def test_nth_power_free_reduce_matches_factorint(num_powers, den_powers, shared, sign, den_sign,
                                                 n):
    # den shares the least prime of num to its own exponent; den = 1 is
    # passed as None
    num = sign * _bounded_product(num_powers)
    least = min((p for p, _ in num_powers), default=2)
    den = den_sign * _bounded_product([(least, shared)] * (shared > 0) + den_powers)
    rep = nth_power_free_reduce(num, n, None if den == 1 else den)
    assert (rep.sign, rep.factors) == power_free_reduce(num, n, den)


def test_nth_power_free_reduce_examples():
    assert nth_power_free_reduce(8, 3).value == 1
    assert nth_power_free_reduce(12, 2).value == 3
    assert nth_power_free_reduce(-8, 2).value == -2
    assert nth_power_free_reduce(-8, 3).value == 1
    assert nth_power_free_reduce(1, 4, 8).value == 2  # 1/8 = 2 * (1/2)^4


def test_unit_group_sizes():
    def phi(m):
        return sum(1 for u in range(1, m + 1) if math.gcd(u, m) == 1)

    for m in range(1, 60):
        assert len(unit_group(m)) == phi(m)
    assert unit_group(1) == [1]


def test_subgroup_generated():
    assert subgroup_generated(8, [3]) == [1, 3]
    assert subgroup_generated(8, [3, 5]) == [1, 3, 5, 7]
    assert subgroup_generated(7, [3]) == [1, 2, 3, 4, 5, 6]
    with pytest.raises(ValueError):
        subgroup_generated(8, [2])


def test_cyclotomic_image_q_is_full():
    for m in (1, 2, 5, 12, 30):
        sig = cyclotomic_image(m, "Q")
        assert list(sig.units) == unit_group(m)


def test_cyclotomic_image_zeta():
    # adjoining zeta_m kills the action entirely
    assert cyclotomic_image(12, ("zeta", 12)).units == (1,)
    # the image over Q(zeta_d) has size phi(lcm(d, m)) / phi(d)
    def phi(m):
        return len(unit_group(m)) if m > 1 else 1

    for m in (6, 8, 12, 15):
        for d in (2, 3, 4, 5):
            sig = cyclotomic_image(m, ("zeta", d))
            big = math.lcm(d, m)
            assert len(sig.units) == phi(big) // phi(d)


def test_cyclotomic_image_generators():
    sig = cyclotomic_image(8, [3])
    assert sig.units == (1, 3)
    assert sig.modulus == 8


def test_signature_validation():
    with pytest.raises(ValueError):
        CyclotomicSignature(8, (3,))  # missing identity
    with pytest.raises(ValueError):
        CyclotomicSignature(8, (1, 2))  # 2 not a unit
    with pytest.raises(ValueError):
        CyclotomicSignature(8, (1, 3, 5))  # 3 * 5 = 7 missing
    with pytest.raises(ValueError):
        # <3> + 11 <3> mod 13: 3 maps it into itself, yet 7 * 7 = 10 is missing
        CyclotomicSignature(13, (1, 3, 7, 8, 9, 11))


@pytest.mark.parametrize("m, units, message", [
    (5, (1, 6), "residue 6 outside 1..4"),
    (5, (1, 4, 9), "residue 9 outside 1..4"),
    (5, (1, -1), "residue -1 outside 1..4"),
    (5, (1, 0), "residue 0 outside 1..4"),
    (5, (1, 1), "residue 1 repeated"),
    (5, (1, 4, 4), "residue 4 repeated"),
    (1, (1, 2), "residue 2 outside 1..1"),
    (1, (1, 1), "residue 1 repeated"),
    (1, (0,), "residue 0 outside 1..1"),
    (0, (1,), "modulus must be >= 1"),
])
def test_signature_rejects_residues_outside_the_range_or_repeated(m, units, message):
    # a residue outside 1..m-1 aliases one inside (6 is 1 and -1 is 4 mod 5)
    with pytest.raises(ValueError, match=re.escape(message)):
        CyclotomicSignature(m, units)


def test_signature_accepts_residues_in_range():
    assert CyclotomicSignature(1, (1,)).units == (1,)
    assert CyclotomicSignature(2, (1,)).units == (1,)
    assert CyclotomicSignature(5, (1, 4)) == cyclotomic_image(5, [4]) == cyclotomic_image(5, [-1])
    assert CyclotomicSignature(420, tuple(unit_group(420))) == cyclotomic_image(420, "Q")


@given(st.integers(1, 120), st.lists(st.integers(-200, 200), max_size=3), st.randoms())
def test_signature_stores_its_residues_sorted(m, gens, rng):
    # each subgroup has one name: the residues in any order give the same
    # signature, equal and of equal hash, with its residues sorted
    image = cyclotomic_image(m, [g for g in gens if math.gcd(g, m) == 1])
    units = list(image.units)
    rng.shuffle(units)
    shuffled = CyclotomicSignature(m, tuple(units))
    assert shuffled == image and hash(shuffled) == hash(image)
    assert shuffled.units == tuple(sorted(units))
    assert CyclotomicSignature(5, (4, 1)) == CyclotomicSignature(5, (1, 4))


@settings(max_examples=300)
@given(st.integers(1, 60), st.data())
def test_signature_closure_matches_double_loop(m, data):
    # the check by greedy generators accepts exactly the unit subsets that
    # the double loop over every product finds closed.  Besides random sets
    # it meets a group less some residues and a union K + bK of two cosets of
    # a group K, which each generator of K maps into itself: every
    # generator must be checked, not only the first
    units = unit_group(m)
    residues = st.sets(st.sampled_from(units))
    picked = data.draw(residues)
    shape = data.draw(st.sampled_from(["set", "group less some", "two cosets"]))
    if shape == "group less some":
        picked = set(subgroup_generated(m, picked)) - data.draw(residues)
    elif shape == "two cosets":
        b = data.draw(st.sampled_from(units))
        picked = {x * y % m for x in subgroup_generated(m, picked) for y in (1, b)} - {0}
    picked |= {1}
    try:
        CyclotomicSignature(m, tuple(sorted(picked)))
        closed = True
    except ValueError:
        closed = False
    assert closed == closed_under_products(m, picked), (m, sorted(picked))


@pytest.mark.parametrize("d", [0, -1, -3])
def test_cyclotomic_image_rejects_zeta_below_one(d):
    # Q(zeta_-3) is not Q(zeta_3), and Q(zeta_0) is not a modulus error
    with pytest.raises(ValueError, match=rf"Q\(zeta_{d}\)"):
        cyclotomic_image(6, ("zeta", d))


def test_primes_up_to():
    assert primes_up_to(1) == []
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(primes_up_to(10**4)) == 1229
    # every limit below 200, negative ones too, against trial division
    for limit in range(-2, 200):
        want = [m for m in range(2, limit + 1) if all(m % d for d in range(2, m))]
        got = primes_up_to(limit)
        assert got == want and all(type(p) is int for p in got), limit
    # below 2^16 a slice of the cached primes, from 2^16 on sieved
    ref_spf = _spf_table(2**16 + 1)
    for limit in (2**16 - 1, 2**16, 2**16 + 1):
        got = primes_up_to(limit)
        assert got == [m for m in range(2, limit + 1) if ref_spf[m] == m], limit
        assert all(type(p) is int for p in got)
    assert got[-1] == 65537


def _spf_and_mu_by_trial_division(m):
    spf, k, rest, d = None, 0, m, 2
    while d * d <= rest:
        if rest % d == 0:
            spf = spf or d
            rest //= d
            if rest % d == 0:
                return spf, 0
            k += 1
        d += 1
    if rest > 1:
        spf = spf or rest
        k += 1
    return spf, (-1) ** k


def test_sieve_matches_definitions():
    spf, mu = sieve(10**4)
    assert (spf[0], spf[1], mu[0], mu[1]) == (0, 1, 0, 1)
    for m in range(2, 10**4 + 1):
        assert (spf[m], mu[m]) == _spf_and_mu_by_trial_division(m), m
    # a smaller limit sieves fewer primes, and must agree on its range; mobius
    # is the same loop without spf, so it agrees at every limit checked here
    for limit in range(0, 200):
        small_spf, small_mu = sieve(limit)
        assert small_spf.tolist() == spf[: limit + 1].tolist()
        assert small_mu.tolist() == mu[: limit + 1].tolist() == mobius(limit).tolist()
    # at p^2 - 1, p^2 and p^2 + 1 for a prime p, where p starts to be one of
    # the sieved primes; checked against the oracles' plain spf table, with
    # mu read off it
    ref_spf = _spf_table(200**2 + 1)
    ref_mu = [0, 1]
    for m in range(2, len(ref_spf)):
        p, rest = ref_spf[m], m // ref_spf[m]
        ref_mu.append(0 if rest % p == 0 else -ref_mu[rest])
    for p in (p for p in range(2, 201) if ref_spf[p] == p):
        for limit in (p * p - 1, p * p, p * p + 1):
            small_spf, small_mu = sieve(limit)
            assert small_spf.tolist() == ref_spf[: limit + 1], limit
            assert small_mu.tolist() == ref_mu[: limit + 1] == mobius(limit).tolist(), limit
    assert mobius(10**4).dtype == mu.dtype == np.int8


def test_warm_sieve_does_not_nest():
    # the sieving primes up to isqrt(limit) are sliced from the cached
    # primes below 2^16, not sieved by a nested call
    sieve(10**6)
    with mock.patch.object(arith, "sieve", wraps=arith.sieve) as spy:
        arith.sieve(10**6)
    assert spy.call_count == 1


def test_sieve_rejects_infeasible_limits(no_numpy_alloc):
    for limit in (2**31, 5 * 10**11, 2**64):
        with pytest.raises(ValueError, match="sieve limit"):
            sieve(limit)
    # the largest feasible limit gets as far as its first allocation
    with pytest.raises(AssertionError, match="allocated"):
        sieve(2**31 - 1)


def test_smallest_prime_factor():
    assert smallest_prime_factor(2) == 2
    assert smallest_prime_factor(91) == 7
    assert smallest_prime_factor(97) == 97
    # both factors lie past the trial-division bound
    assert smallest_prime_factor((2**31 - 1) * (2**61 - 1)) == 2**31 - 1
    with pytest.raises(ValueError):
        smallest_prime_factor(1)
