import bisect
import itertools
import math
import os
import random
import tracemalloc
from collections import Counter
from functools import cache
from unittest import mock

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import numpy as np
from oracles import (census_measure, cyclic_fields_by_conductor, darda_cap_bisection,
                     in_minus_four_fourth_powers, is_qth_power, reference_walk, squarefree_prime_to)
from stacky import census
from stacky.arith import FactoredInteger, factor, mobius, primes_up_to
from stacky.arith import _iroot as int_root
from stacky.census import (
    FAST_COUNTERS,
    ORDERINGS,
    CountLadder,
    LadderSpec,
    count,
    enumerate_cyclic,
    enumerate_mu,
    fit,
)
from stacky.heights import darda_denominator, sectors
from stacky.kummer import KummerClass, canonical, discriminant, is_irreducible, wild_exponent

SEED = 20260824
print(f"[test_census] seed={SEED}")


def _brute_mu(n, Bmax, ordering="disc_exact"):
    """Classes with measure <= Bmax by scanning raw integers up to a bound."""
    mode = {"disc_exact": "exact", "disc_tame": "tame"}[ordering]
    seen = {}
    # canonical values are bounded by the wild factor (up to 2^3 for n = 4)
    # times the tame discriminant, so 8 * Bmax covers every class
    limit = int(Bmax) * 8 + 16
    for raw in range(1, limit):
        for s in (1, -1):
            cls = canonical(factor(s * raw), n)
            m = discriminant(cls, mode).value.abs_value
            if m <= Bmax:
                seen[cls.a.value] = m
    return seen


def test_enumerate_mu2_matches_brute_scan():
    got = {cls.a.value: m for cls, m in enumerate_mu(2, 60)}
    assert got == _brute_mu(2, 60)


def test_enumerate_mu3_matches_brute_scan():
    got = {cls.a.value: m for cls, m in enumerate_mu(3, 300)}
    assert got == _brute_mu(3, 300)


def test_enumerate_mu4_tame_matches_brute_scan():
    got = {cls.a.value: m for cls, m in enumerate_mu(4, 200, "disc_tame")}
    assert got == _brute_mu(4, 200, "disc_tame")


def test_enumerate_mu_no_duplicates():
    vals = [cls.a.value for cls, _ in enumerate_mu(2, 10**4)]
    assert len(vals) == len(set(vals))


def test_enumerate_mu_small_example():
    vals = sorted(cls.a.value for cls, _ in enumerate_mu(2, 10))
    assert vals == [-7, -3, -2, -1, 1, 2, 5]
    irred = sorted(
        cls.a.value for cls, _ in enumerate_mu(2, 10) if is_irreducible(cls)
    )
    assert irred == [-7, -3, -2, -1, 2, 5]


# (n, ordering) -> Bmax holding a few thousand classes or fewer, wild
# patterns and both signs included
MU_BOUNDS = {
    (2, "disc_exact"): 2e4, (3, "disc_exact"): 3e6,
    (2, "disc_tame"): 1e4, (3, "disc_tame"): 3e5, (4, "disc_tame"): 1e6,
    (5, "disc_tame"): 1e8, (6, "disc_tame"): 3e6, (7, "disc_tame"): 1e10,
    (8, "disc_tame"): 1e9, (9, "disc_tame"): 1e10, (10, "disc_tame"): 3e9,
    (11, "disc_tame"): 1e12, (12, "disc_tame"): 1e9,
    (2, "darda"): 100, (3, "darda"): 8, (4, "darda"): 4, (5, "darda"): 2,
    (6, "darda"): 2.5, (7, "darda"): 1.7, (8, "darda"): 2, (9, "darda"): 1.7,
    (10, "darda"): 1.5, (11, "darda"): 1.3, (12, "darda"): 1.4,
}


@pytest.mark.parametrize("n,ordering", sorted(MU_BOUNDS))
def test_enumerate_mu_measures_match_discriminant_oracle(n, ordering):
    bmax = MU_BOUNDS[n, ordering]
    emitted = 0
    for cls, m in enumerate_mu(n, bmax, ordering):
        want = census_measure(cls, ordering)
        assert (m, type(m)) == (want, type(want)), (cls, m, want)
        assert want <= bmax
        emitted += 1
    assert emitted


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("ordering", ["disc_exact", "disc_tame"])
def test_wild_table_matches_discriminant(n, ordering):
    # every residue u mod n^2 and every wild pattern: the cost is the n-part
    # of |disc| of a class whose tame part is a prime q = u mod n^2
    _, _, M, table = census._mu_types(n, ordering)
    assert M == (n * n if ordering == "disc_exact" else 1) == len(table)
    assert [u for u in range(M) if table[u]] == [u for u in range(M) if math.gcd(u, M) == 1]
    mode = {"disc_exact": "exact", "disc_tame": "tame"}[ordering]
    patterns = sorted((s, pat) for s, _, _, pat in census._wild_patterns(n))
    for u in (u for u in range(1, n * n) if u % n):
        q = next(q for q in primes_up_to(1000) if q % (n * n) == u)
        row = table[u % M]
        assert [c for c, _, _ in row] == sorted(c for c, _, _ in row)  # cheapest first
        assert sorted((s, pat) for _, pat, s in row) == patterns
        for cost, pat, s in row:
            cls = KummerClass(n, FactoredInteger(s, tuple(sorted(pat + ((q, 1),)))))
            assert cost == n ** discriminant(cls, mode).value.valuation(n), (u, s, pat)


@pytest.mark.parametrize("n", range(4, 13))
def test_wild_table_unmeasured_costs_one(n):
    # disc_tame (and darda for n > 3) measures no wild prime: one class,
    # every pattern at cost 1 in _wild_patterns order
    for ordering in ("disc_tame", "darda"):
        _, _, M, table = census._mu_types(n, ordering)
        assert (M, len(table)) == (1, 1)
        assert table[0] == tuple((1, pat, s) for s, _, _, pat in census._wild_patterns(n))


@cache
def _mu_stream(n, ordering):
    """Every class enumerate_mu emits to MU_BOUNDS, with its measure."""
    return list(enumerate_mu(n, MU_BOUNDS[n, ordering], ordering))


def _reducible_tests(n):
    """The sets of census._reducible(n), each beside the oracles' test of
    its members: the p-th powers for each prime p | n, then -4 Q^4 when
    4 | n."""
    sets = census._reducible(n)
    assert [q for q, _, _ in sets] == [p for p, _ in factor(n).factors] + [4] * (n % 4 == 0)
    tests = [lambda a, p=p: is_qth_power(a, p) for p, _ in factor(n).factors]
    return list(zip(sets, tests + [in_minus_four_fourth_powers] * (n % 4 == 0)))


def _intersections(n):
    """Every nonempty subset of the reducible sets of n, as (restrictions, tests)."""
    pairs = _reducible_tests(n)
    return [tuple(zip(*sub)) for k in range(1, len(pairs) + 1)
            for sub in itertools.combinations(pairs, k)]


@pytest.mark.parametrize("n,ordering", sorted(MU_BOUNDS))
def test_restricted_records_walk_the_reducible_classes(n, ordering):
    # the walk of each restricted record is the stream's classes in every
    # set of the intersection, by the oracles' tests; an empty intersection
    # (the p = 2 squares and -4 Q^4 share no sign) has no wild row
    cap = census._disc_bound(MU_BOUNDS[n, ordering], n, ordering)
    for within, tests in _intersections(n):
        local = census._mu_types(n, ordering, within)
        walked = Counter((s, pairs) for pairs, s, _ in census._walk(local, cap))
        want = Counter((cls.a.sign, cls.a.factors) for cls, _ in _mu_stream(n, ordering)
                       if all(test(cls.a) for test in tests))
        assert walked == want, within
        assert any(local.wild) == bool(want), within
    if n == 12:  # A_3 and -4 Q^4 meet in -64: no tame type, one wild row
        local = census._mu_types(n, ordering, ((3, 0, (1, -1)), (4, 2, (-1,))))
        assert not any(local.types) and local.wild == (((1, ((2, 6),), -1),),)


@st.composite
def _walk_records(draw):
    """A census record, ``_mu_types(n, ordering, within)`` or
    ``_cyclic_types(n, d)``, with the |disc| cap of its test bound."""
    n = draw(st.integers(2, 12))
    if draw(st.booleans()):
        ordering = draw(st.sampled_from([o for o in ORDERINGS if (n, o) in MU_BOUNDS]))
        within = draw(st.sampled_from([()] + [w for w, _ in _intersections(n)]))
        return census._mu_types(n, ordering, within), census._disc_bound(MU_BOUNDS[n, ordering],
                                                                          n, ordering)
    d = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    return census._cyclic_types(n, d), math.floor(CYCLIC_BOUNDS[n])


@given(_walk_records(), st.floats(0.0, 1.0), st.booleans(), st.integers(0, 2**32))
# 15 = 3 * 5: the support {3} is extended though the next prime meets the cap
@example(record=(census._mu_types(2, "disc_tame"), 15), frac=1.0, exact=False, pick=0)
def test_walk_matches_the_reference_walk(record, frac, exact, pick):
    # the one-loop walk emits the recursive walk's multiset; each support's
    # rows run together cheapest first, the empty support first and each
    # support after its parent (less its largest tame prime) where that is
    # emitted; a plan whose table grew past the cap walks as a fresh one.
    # The cap is drawn, or an emitted |disc|, so that it is met exactly
    local, top = record
    cap = math.floor(top**frac)
    want = Counter(reference_walk(local, cap))
    if want and exact:
        discs = sorted({d for _, _, d in want})
        cap = discs[pick % len(discs)]
        want = Counter(reference_walk(local, cap))
    fresh, grown = census._Plan(local), census._Plan(local)
    grown.prime_table(4 * top)
    with mock.patch.object(census, "_plan", lambda _: fresh):
        walked = list(census._walk(local, cap))
    with mock.patch.object(census, "_plan", lambda _: grown):
        assert list(census._walk(local, cap)) == walked
    assert Counter(walked) == want
    first, last = {}, {}
    for k, (pairs, _, _) in enumerate(walked):
        support = tuple(pair for pair in pairs if local.n % pair[0])  # the tame primes
        first.setdefault(support, k)
        assert last.get(support, k - 1) == k - 1  # a support's rows run together
        last[support] = k
        parent = support[:-1]
        assert not support or parent not in first or first[parent] < first[support]
    assert first.get((), 0) == 0
    for support, k in first.items():
        discs = [d for _, _, d in walked[k:last[support] + 1]]
        assert discs == sorted(discs)


@given(st.data())
def test_restricted_records_count_the_reducible_classes(data):
    # _count_types on each restricted record against the stream filtered by
    # the oracles' tests of the reducible classes, at every rung
    n = data.draw(st.integers(2, 12))
    ordering = data.draw(st.sampled_from([o for o in ORDERINGS if (n, o) in MU_BOUNDS]))
    within, tests = data.draw(st.sampled_from(_intersections(n)))
    local = census._mu_types(n, ordering, within)
    assume(any(local.wild))
    doublings = data.draw(st.integers(0, 4))
    b0 = MU_BOUNDS[n, ordering] ** data.draw(st.floats(0.0, 1.0)) / 2**doublings
    rungs = [b0 * 2**i for i in range(doublings + 1)]
    measures = sorted(m for cls, m in _mu_stream(n, ordering) if all(test(cls.a) for test in tests))
    want = [bisect.bisect_right(measures, B) for B in rungs]
    assert census._count_types(local, [census._disc_bound(B, n, ordering) for B in rungs]) == want


@given(st.data())
def test_enumerate_mu_is_nested_in_the_bound(data):
    # the stream to B is the stream to B' >= B cut at measure <= B, as
    # multisets; B is an emitted measure or the float just below one, so the
    # early break at |disc| == disc_bound is met from both sides
    n = data.draw(st.integers(2, 12))
    ordering = data.draw(st.sampled_from([o for o in ORDERINGS if (n, o) in MU_BOUNDS]))
    top = MU_BOUNDS[n, ordering] ** data.draw(st.floats(0.0, 1.0))

    def stream(bmax):
        return Counter((cls.a.sign, cls.a.factors, m) for cls, m in enumerate_mu(n, bmax, ordering))

    whole = stream(top)
    measures = sorted({m for _, _, m in whole})
    assume(measures)
    B = data.draw(st.sampled_from(measures))
    if data.draw(st.booleans()):
        B = math.nextafter(B, 0)
    assert stream(B) == Counter({k: c for k, c in whole.items() if k[2] <= B})


def test_enumerate_mu_validation():
    with pytest.raises(ValueError):
        list(enumerate_mu(4, 100, "disc_exact"))
    with pytest.raises(ValueError):
        list(enumerate_mu(13, 100, "disc_tame"))
    with pytest.raises(ValueError):
        list(enumerate_mu(2, 100, "by_height"))


def test_enumerate_cyclic_quadratic_is_fundamental_discs():
    got = sorted(d for _, d in enumerate_cyclic(2, 200))

    def squarefree(m):
        return all(m % (q * q) for q in range(2, math.isqrt(m) + 1))

    want = []
    for a in range(-200, 201):
        if a in (0, 1) or not squarefree(abs(a)):
            continue
        d = abs(a) if a % 4 == 1 else 4 * abs(a)
        if d <= 200:
            want.append(d)
    assert got == sorted(want)


def test_enumerate_cyclic_cubic_conductors():
    # cyclic cubics have disc f^2 with f = 9 or a product of distinct
    # primes = 1 mod 3 (9 allowed as one factor), 2^(t-1) fields each
    got = sorted(d for _, d in enumerate_cyclic(3, 10**4))
    want = []
    good = [9] + [p for p in primes_up_to(100) if p % 3 == 1]
    for mask in range(1, 1 << len(good)):
        fac = [good[i] for i in range(len(good)) if mask >> i & 1]
        f = math.prod(fac)
        if f <= 100:
            want.extend([f * f] * 2 ** (len(fac) - 1))
    assert got == sorted(want)


def test_enumerate_cyclic_fields_are_degree_n():
    for fld, d in enumerate_cyclic(4, 5000):
        assert fld.n == 4
        assert fld.disc == d
        assert d <= 5000


def test_enumerate_cyclic_validation():
    with pytest.raises(ValueError):
        list(enumerate_cyclic(1, 100))
    with pytest.raises(ValueError):
        list(enumerate_cyclic(13, 100))
    for bmax in (0.99, 0, -5):
        assert list(enumerate_cyclic(2, bmax)) == []


# n -> Bmax with at least one field, whose conductor scan takes under a second
CYCLIC_BOUNDS = {
    2: 5e3, 3: 1e7, 4: 1e7, 5: 1e14, 6: 1e7, 7: 1e15, 8: 1e12, 9: 1e15,
    10: 1e13, 11: 1e18, 12: 2e13,
}


@pytest.mark.parametrize("n", sorted(CYCLIC_BOUNDS))
def test_enumerate_cyclic_matches_conductor_scan(n):
    bmax = CYCLIC_BOUNDS[n]
    want = cyclic_fields_by_conductor(n, bmax)
    assert want
    # the largest |disc| found is a boundary: reached at D, missed at D - 1
    top = max(disc for _, _, disc in want)
    for b in (bmax, top, top - 1):
        got = sorted((fld.conductor, fld.character, fld.disc) for fld, _ in enumerate_cyclic(n, b))
        assert got == [w for w in want if w[2] <= b], b


def test_enumerate_cyclic_puts_tame_primes_below_wild_ones_in_order():
    # conductor 75 = 3 * 5^2: the tame prime 3 lies below the wild prime 5,
    # so the character's values must be merged in prime order, (5, 2)
    want = cyclic_fields_by_conductor(10, 4e13)
    assert (75, (5, 2), 37_078_857_421_875) in want
    assert sorted((fld.conductor, fld.character, fld.disc)
                  for fld, _ in enumerate_cyclic(10, 4e13)) == want


def _phi(k):
    return sum(1 for i in range(1, k + 1) if math.gcd(i, k) == 1)


@pytest.mark.parametrize("n", range(2, 13))
def test_tame_local_types_differ_by_the_galois_twist(n):
    # at a tame prime p, Bmu_n admits phi(k) local types of order k, each of
    # exponent n - n/k, for every k | n (its twisted sectors); B(Z/nZ)
    # admits them, of conductor p, only for k | p - 1
    orders = [k for k in range(2, n + 1) if n % k == 0]
    assert Counter(c for _, c in sectors(n).entries) == {n - n // k: _phi(k) for k in orders}
    for p in primes_up_to(200):
        if n % p:
            chars = Counter((k, q, e) for (_, q, k), e in census._local_characters(p, n))
            assert chars == {(k, p, n - n // k): _phi(k) for k in orders if (p - 1) % k == 0}, p


@pytest.mark.parametrize("n", range(2, 13))
def test_cyclic_records_are_the_mu_records_untwisted(n):
    # at each unit u mod n, B(Z/nZ) admits the costs of the Bmu_n types
    # whose order k = n / gcd(e, n) divides gcd(n, u - 1): the twist drops
    # the rest; at u = 1 it drops none
    mu, cyc = census._mu_types(n, "disc_tame").types, census._cyclic_types(n, n).types
    for u in (u for u in range(n) if math.gcd(u, n) == 1):
        want = [j for e, _, j in mu[u] if math.gcd(n, u - 1) % (n // math.gcd(e, n)) == 0]
        assert [j for _, _, j in cyc[u]] == want, u
    assert [j for _, _, j in cyc[1]] == [j for _, _, j in mu[1]]


@pytest.mark.parametrize("n", range(2, 13))
def test_count_cyclic_reads_the_local_characters(monkeypatch, n):
    # _count_cyclic counts C_d, the characters of order dividing d, for
    # every d | n with mu(n/d) != 0 (C_1 = 1 needs no count): its tame types
    # at p = u mod n and its wild costs are those of _local_characters
    calls = []
    monkeypatch.setattr(census, "_count_types", lambda *args: calls.append(args) or [0])
    census._count_cyclic(n, [1e6])
    want = {d for d in range(2, n + 1)
            if n % d == 0 and all(e == 1 for _, e in factor(n // d).factors)}
    units = {u for u in range(1, n + 1) if math.gcd(u, n) == 1}
    assert len(calls) == len(want)
    for (m, types, M, rows), caps in calls:
        d = math.lcm(*(n // (n - j) for _, _, j in types[1]))  # p = 1 mod n admits every k | d
        want.discard(d)
        assert (caps, M, m, len(types)) == ([10**6], 1, n, n)
        assert {u for u in range(n) if types[u]} <= units
        for p in primes_up_to(300):
            if n % p:
                chars = Counter(e for (_, q, k), e in census._local_characters(p, n) if d % k == 0)
                assert Counter(j for _, _, j in types[p % n]) == chars, (d, p)
        wild = Counter({1: 1})
        for p, _ in factor(n).factors:
            local = [1] + [p**e for (_, _, k), e in census._local_characters(p, n) if d % k == 0]
            wild = Counter(w * c for w in wild.elements() for c in local)
        assert len(rows) == 1 and Counter(c for c, _, _ in rows[0]) == wild, d
        assert [c for c, _, _ in rows[0]] == sorted(c for c, _, _ in rows[0])  # cheapest first
    assert not want


@pytest.fixture
def small_memory(monkeypatch):
    """Report 64 KiB of physical memory."""
    monkeypatch.setattr(os, "sysconf", lambda name: 16 if name == "SC_PHYS_PAGES" else 4096)


def test_count_refuses_tables_past_physical_memory(small_memory, no_numpy_alloc):
    # a table the machine cannot hold raises ValueError before anything is
    # allocated: mu_2 on Mobius sums, mu_3 on C = 3 class rows
    for n in (2, 3):
        with pytest.raises(ValueError, match="physical memory"):
            count(LadderSpec(("mu", n), "T", "disc_exact", b0=1e12, doublings=0))


def test_count_cyclic_refuses_tables_past_physical_memory(small_memory):
    # the cyclic route reads the same guard (it allocates mu(n/d) first)
    with pytest.raises(ValueError, match="physical memory"):
        count(LadderSpec(("cyclic", 3), "M", "disc_exact", b0=1e12, doublings=0))


@pytest.mark.parametrize("b0", [1e18, 1e19])  # int64, then Python-int supports
def test_count_refuses_sweeps_past_physical_memory(monkeypatch, b0):
    # with 4 MiB the mu_4 table (about 3e4 entries of 32 bytes) fits, so the
    # h sweep starts, but its supports (about cap^(1/3) of them) do not:
    # the counter raises while sweeping, before it concatenates them
    monkeypatch.setattr(os, "sysconf", lambda name: 1024 if name == "SC_PHYS_PAGES" else 4096)
    with mock.patch.object(census, "_ranges", wraps=census._ranges) as sweep:
        with pytest.raises(ValueError, match="physical memory"):
            count(LadderSpec(("mu", 4), "T", "disc_tame", b0=b0, doublings=0))
    assert sweep.called


def test_count_refuses_pairs_past_physical_memory(monkeypatch):
    # mu_4 to 1e14 with 4 MiB: the table, the h sweep's supports and the
    # (cap, term) pairs of one rung (about 29,000) fit, but not the pairs of
    # 21 rungs to the same top (about 139,000), which the guard counts after
    # the sweep and before anything is sieved
    many = LadderSpec(("mu", 4), "T", "disc_tame", b0=1e14 / 2**20, doublings=20)
    want = count(many).points[-1]
    monkeypatch.setattr(os, "sysconf", lambda name: 1024 if name == "SC_PHYS_PAGES" else 4096)
    assert count(LadderSpec(("mu", 4), "T", "disc_tame", b0=1e14, doublings=0)).points == (want,)
    with mock.patch.object(census, "_ranges", wraps=census._ranges) as sweep, \
            mock.patch.object(census, "mobius", wraps=census.mobius) as sieved:
        with pytest.raises(ValueError, match="physical memory") as err:
            count(many)
    assert "|disc| cap 100000000000000 " in str(err.value)
    assert sweep.called and not sieved.called


@pytest.mark.parametrize("target,counter,ordering", [
    (("mu", 2), "T", "disc_exact"),
    (("mu", 4), "T", "disc_tame"),
    (("cyclic", 3), "M", "disc_exact"),
    (("mu", 3), "T", "darda"),
    (("mu", 6), "M", "disc_tame"),
])
@pytest.mark.parametrize("b0", [0.0, -5.0, math.nan, math.inf])
def test_count_rejects_b0_not_positive_and_finite(target, counter, ordering, b0):
    # a bad b0 is named here, not failed deep inside a counter or counted as falling rungs
    with pytest.raises(ValueError, match="b0"):
        count(LadderSpec(target, counter, ordering, b0=b0, doublings=2))


def test_enumerators_reject_infeasible_bounds(no_numpy_alloc):
    # prime caps past the sieve's 2^31: 7.5e11 for mu_3 darda at 8192
    # (|disc| <= 8192^6), and 1e10 for quadratic fields to 1e10
    with pytest.raises(ValueError, match="sieve limit"):
        list(enumerate_mu(3, 8192, "darda"))
    with pytest.raises(ValueError, match="sieve limit"):
        list(enumerate_cyclic(2, 1e10))


def test_count_past_the_sieve_names_the_disc_cap(no_numpy_alloc):
    # mu_2 darda to 1e3 * 2^30: the top |disc| cap, about 1.2e24, is past
    # int64, and its table of about 1e12 entries past physical memory
    spec = LadderSpec(("mu", 2), "T", "darda", b0=1e3, doublings=30)
    cap = census._disc_bound(spec.rungs()[-1], 2, "darda")
    assert cap >= 2**62
    with pytest.raises(ValueError, match="physical memory") as err:
        count(spec)
    assert f"|disc| cap {cap}" in str(err.value)


def test_bounds_past_the_float_range_are_value_errors():
    # a top rung b0 * 2^doublings that overflows to inf is named, not failed
    # deep in a counter; the largest finite one passes this check
    with pytest.raises(ValueError, match="top rung"):
        count(LadderSpec(("mu", 2), "T", "disc_exact", b0=1e300, doublings=30))
    with pytest.raises(ValueError, match="top rung"):
        count(LadderSpec(("mu", 2), "T", "disc_exact", b0=2.0**1023, doublings=1))
    with pytest.raises(ValueError, match="physical memory"):
        count(LadderSpec(("mu", 2), "T", "disc_exact", b0=math.nextafter(2.0**1023, 0),
                         doublings=1))
    # more than 1023 doublings of a tiny b0 stay finite: the rungs are exact
    ladder = count(LadderSpec(("mu", 2), "T", "disc_exact", b0=2.0**-1060, doublings=1064))
    assert len(ladder.points) == 1065 and ladder.points[-1] == (16.0, len(_brute_mu(2, 16)))
    for stream in (lambda B: enumerate_mu(2, B), lambda B: enumerate_mu(4, B, "darda"),
                   lambda B: enumerate_cyclic(3, B)):
        for B in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="Bmax"):
                list(stream(B))


def _streamed_count(key, B):
    """What the streaming enumerator of a routed target counts up to B."""
    kind, n, counter, ordering = key
    if kind == "cyclic":
        return sum(1 for _ in enumerate_cyclic(n, B))
    return sum(1 for cls, _ in enumerate_mu(n, B, ordering) if counter == "T" or is_irreducible(cls))


# Ladders whose b0 is itself a measure the counter reaches, so that the
# first rung sits exactly on a boundary: 8 (a = 2), 108 = 27 * 2^2 (a = 2),
# the tame 27 = 3^3 and 49 = 7^2 (a = 3 and a = 7^2), the cyclic cubic
# conductors 7 and 9, the two cyclic quartic fields of conductor 16 (|disc|
# 2^11, all wild) and the cyclic sextic field of conductor 9 (3^9).
BOUNDARY_LADDERS = [
    (("mu", 2, "T", "disc_exact"), 8),
    (("mu", 3, "T", "disc_exact"), 108),
    (("mu", 4, "T", "disc_tame"), 27),
    (("mu", 4, "T", "disc_tame"), 49),
    (("cyclic", 3, "M", "disc_exact"), 49),
    (("cyclic", 3, "M", "disc_exact"), 81),
    (("cyclic", 4, "M", "disc_exact"), 2048),
    (("cyclic", 6, "M", "disc_exact"), 19683),
]


# the fast keys routed before every mu_n ladder was, with their own sizes
FIRST_KEYS = {("mu", 2, "T", "disc_exact"): 10**4, ("mu", 3, "T", "disc_exact"): 10**5,
              ("mu", 4, "T", "disc_tame"): 10**5, ("cyclic", 3, "M", "disc_exact"): 10**5}


def _top(key):
    """The top rung of a fast key's test ladders."""
    kind, n, _, ordering = key
    if key in FIRST_KEYS:
        return FIRST_KEYS[key]
    return CYCLIC_BOUNDS[n] if kind == "cyclic" else MU_BOUNDS[n, ordering]


def test_fast_counters_match_streaming():
    ladders = [(key, _top(key) / 2**8) for key in FAST_COUNTERS]
    assert {key for key, _ in ladders} == set(FAST_COUNTERS)
    for key, b0 in ladders + BOUNDARY_LADDERS:
        kind, n, counter, ordering = key
        ladder = count(LadderSpec((kind, n), counter, ordering, b0=b0, doublings=8))
        for B, c in ladder.points:
            brute = _streamed_count(key, B)
            assert c == brute, (key, B, c, brute)
    for key, b0 in BOUNDARY_LADDERS:
        assert _streamed_count(key, b0) > _streamed_count(key, b0 - 1), (key, b0)


@st.composite
def _fast_ladders(draw):
    key = draw(st.sampled_from(sorted(FAST_COUNTERS)))
    doublings = draw(st.integers(0, 5))
    if key in FIRST_KEYS:
        b0 = draw(st.one_of(st.integers(1, 600).map(float), st.floats(0.5, 600.0)))
    else:  # the top rung at most MU_BOUNDS, which the stream reaches quickly
        b0 = _top(key) ** draw(st.floats(0.0, 1.0)) / 2**doublings
    return key, b0, doublings


@given(_fast_ladders())
def test_fast_counters_match_streaming_property(case):
    key, b0, doublings = case
    kind, n, counter, ordering = key
    ladder = count(LadderSpec((kind, n), counter, ordering, b0=b0, doublings=doublings))
    assert [c for _, c in ladder.points] == [_streamed_count(key, B) for B, _ in ladder.points]


@given(st.sampled_from(sorted(FAST_COUNTERS)), st.floats(0.0, 0.5), st.integers(0, 4))
def test_plans_count_the_same_cold_and_warm(key, frac, doublings):
    # each record's plan is built for a small top (cold), grown to the key's
    # test top and read again at the small one (warm): the counts stay those
    # of the walk, and those of a plan built for the test top alone
    kind, n, counter, ordering = key

    def ladder(top):
        spec = LadderSpec((kind, n), counter, ordering, b0=top / 2**doublings, doublings=doublings)
        return count(spec).points

    small = _top(key) ** frac
    census._plan.cache_clear()
    cold = ladder(small)
    assert [c for _, c in cold] == [_streamed_count(key, B) for B, _ in cold]
    grown = ladder(_top(key))
    assert ladder(small) == cold
    census._plan.cache_clear()
    assert ladder(_top(key)) == grown


@pytest.mark.parametrize("key", [
    ("mu", 6, "M", "darda"),  # the T record and the restricted ones
    ("cyclic", 6, "M", "disc_exact"),  # one record per d | 6
    ("mu", 3, "T", "disc_exact"),
])
def test_count_builds_each_plan_once(key):
    kind, n, counter, ordering = key
    spec = LadderSpec((kind, n), counter, ordering, b0=_top(key) / 2**8, doublings=8)
    census._plan.cache_clear()
    want = count(spec)
    built = census._plan.cache_info()
    assert built.misses == built.currsize >= 1 and built.hits == 0
    for k in range(1, 4):
        assert count(spec) == want
        info = census._plan.cache_info()
        assert (info.misses, info.hits) == (built.misses, k * built.misses)


# 4 table entries send every even n past the table, into the Mobius sums,
# 6, 10 and 12 with an odd prime beside 2 among them
@pytest.mark.parametrize("table", [census._TABLE, 4])
@pytest.mark.parametrize("n,ordering", sorted(MU_BOUNDS))
def test_count_mu_matches_enumerate_mu(monkeypatch, n, ordering, table):
    # the local-type counter for every n under disc_tame and darda, and n
    # in {2, 3} under disc_exact, at every rung
    monkeypatch.setattr(census, "_TABLE", table)
    bmax = MU_BOUNDS[n, ordering]
    rungs = [bmax / 2**i for i in range(10, -1, -1)]
    measures = sorted(m for _, m in enumerate_mu(n, bmax, ordering))
    want = [bisect.bisect_right(measures, B) for B in rungs]
    assert census._count_mu(n, ordering, rungs) == want


# the |disc| of a quadratic field over its odd squarefree part d: of the
# two signs of d one gives d and the other 4d, and both signs of 2d give 8d;
# the tame |disc| is d for all four
QUADRATIC_COSTS = {"disc_exact": {1: 1, 4: 1, 8: 2}, "disc_tame": {1: 4}}


# 4 table entries send nearly every z past the table; at the default, the z
# past 2^14 go past it
@pytest.mark.parametrize("table", [census._TABLE, 4])
@given(ordering=st.sampled_from(sorted(QUADRATIC_COSTS)), b0=st.floats(1.0, 2.0**10),
       doublings=st.integers(0, 10))
@example(ordering="disc_exact", b0=1000.0, doublings=10)
def test_count_mu2_matches_squarefree_oracle(table, ordering, b0, doublings):
    # rungs b0 2^i with wild costs 4 and 8 repeat their z = cap // cost
    # across rungs: the counter answers each distinct z once, and every
    # (cap, cost) pair must still count it
    rungs = [b0 * 2**i for i in range(doublings + 1)]
    squarefree = squarefree_prime_to(2, 2**20)
    want = [sum(k * squarefree[math.floor(B) // c] for c, k in QUADRATIC_COSTS[ordering].items())
            for B in rungs]
    with mock.patch.object(census, "_TABLE", table):
        assert census._count_mu(2, ordering, rungs) == want


# the two sides of the |mu| lookup rule, each with z within and past the
# table: mu_2 to 2e4 with 64 table entries (14 of its 33 pairs within
# Z = 141) sums |mu| between its distinct z; mu_4 to 1e6 with 4 (239 of its
# 263 pairs within Z = 31) reads the running count
@pytest.mark.parametrize("n,ordering,bmax,table,few", [
    (2, "disc_exact", 2e4, 64, True),
    (4, "disc_tame", 1e6, 4, False),
])
def test_squarefree_counts_match_oracles_on_both_sides(monkeypatch, n, ordering, bmax, table,
                                                       few):
    monkeypatch.setattr(census, "_TABLE", table)
    seen, real = [], census._squarefree_counts

    def spy(z, mu, n):
        Z = len(mu) - 1
        seen.append((np.count_nonzero(z <= Z) < Z, (z <= Z).any(), (z > Z).any()))
        return real(z, mu, n)

    monkeypatch.setattr(census, "_squarefree_counts", spy)
    rungs = [bmax / 2**i for i in range(10, -1, -1)]
    got = census._count_mu(n, ordering, rungs)
    assert seen == [(few, True, True)]
    measures = sorted(m for _, m in enumerate_mu(n, bmax, ordering))
    assert got == [bisect.bisect_right(measures, B) for B in rungs]
    if n == 2:
        squarefree = squarefree_prime_to(2, math.floor(bmax))
        assert got == [sum(k * squarefree[math.floor(B) // c]
                           for c, k in QUADRATIC_COSTS[ordering].items()) for B in rungs]


@pytest.mark.parametrize("n", [2, 4, 6])
@given(Z=st.integers(1, 600), data=st.data())
def test_squarefree_counts_within_the_table(n, Z, data):
    # every z within the table: the counts come from |mu| alone, at z = 1,
    # at z = Z and at drawn z, fewer than Z of them (summed between their
    # distinct values) or at least Z (read off the running count)
    mu = mobius(Z)
    for p, _ in factor(n).factors:
        mu[::p] = 0
    drawn = data.draw(st.lists(st.integers(1, Z), max_size=2 * Z))
    oracle = squarefree_prime_to(n, Z)
    for z in ([1], [Z], [1, Z] + drawn):
        got = census._squarefree_counts(np.array(z, dtype=np.int64), mu, n)
        assert got.dtype == np.int64
        assert got.tolist() == [oracle[x] for x in z]


def test_darda_cap_past_the_float_range_is_a_value_error():
    # N = 42 for n = 7: the float test d^(1/42) <= B runs on d up to 2^1023,
    # so a bound past (2^1023)^(1/42), about 2.1e7, has no cap to find
    cap = census._disc_bound(2e7, 7, "darda")
    assert cap ** (1 / 42) <= 2e7 < (cap + 1) ** (1 / 42)
    for call in (lambda: census._disc_bound(3e7, 7, "darda"),
                 lambda: list(enumerate_mu(7, 3e7, "darda")),
                 lambda: count(LadderSpec(("mu", 7), "T", "darda", b0=1e3, doublings=15))):
        with pytest.raises(ValueError, match=r"\^42 passes 2\^1023"):
            call()


@given(st.data())
def test_disc_bound_matches_the_bisection(data):
    # the darda cap bracketed about Bmax^N is the one bisected from 1, at
    # random bounds and at the measures d^(1/N) enumerate_mu emits and the
    # floats on either side of them
    n = data.draw(st.integers(2, 12))
    N = darda_denominator(n)
    ceiling = (2.0**1023) ** (1 / N)  # the caps stay below 2^1023
    if data.draw(st.booleans()):
        B = data.draw(st.one_of(st.floats(-2.0, 2.0), st.floats(0.0, ceiling, exclude_max=True)))
    else:
        d = data.draw(st.integers(1, 2 ** data.draw(st.integers(0, 1022))))
        m = d ** (1 / N)
        B = data.draw(st.sampled_from([math.nextafter(m, 0), m, math.nextafter(m, math.inf)]))
        assume(B < ceiling)
    assert census._disc_bound(B, n, "darda") == darda_cap_bisection(B, N)


@pytest.mark.parametrize("n", range(2, 13))
def test_count_mu_darda_boundaries(n):
    # a darda rung at a measure d^(1/N) the stream attains counts d, and the
    # float just below it does not: the |disc| cap is exact, not slack
    measures = sorted(m for _, m in enumerate_mu(n, MU_BOUNDS[n, "darda"], "darda"))
    tops = sorted(set(measures))[-3:]
    rungs = sorted(r for m in tops for r in (m, math.nextafter(m, 0)))
    want = [bisect.bisect_right(measures, B) for B in rungs]
    assert census._count_mu(n, "darda", rungs) == want
    assert want[1] > want[0]


@pytest.mark.parametrize("n", [7, 9, 11, 12])
def test_count_past_the_int64_range_matches_enumerate_mu(n):
    # a ladder whose top |disc| cap reaches 2^62 counts in Python ints, T
    # and M alike, and its lower rungs agree with the stream too; the
    # stream is kept as (measure, irreducible) pairs, not as classes
    stream = [(m, is_irreducible(cls)) for cls, m in enumerate_mu(n, 2.0**62, "disc_tame")]
    for counter, keep in (("T", lambda irreducible: True), ("M", bool)):
        ladder = count(LadderSpec(("mu", n), counter, "disc_tame", b0=2.0**56, doublings=6))
        measures = sorted(m for m, irreducible in stream if keep(irreducible))
        want = tuple((B, bisect.bisect_right(measures, B)) for B, _ in ladder.points)
        assert ladder.points == want
    assert census._disc_bound(ladder.points[-1][0], n, "disc_tame") >= census._INT64_TOP


def test_count_cyclic_past_the_int64_range_matches_enumerate_cyclic():
    # cyclic quintics to 1e19, past 2^62, in Python ints
    discs = sorted(d for _, d in enumerate_cyclic(5, 1e19))
    ladder = count(LadderSpec(("cyclic", 5), "M", "disc_exact", b0=1e19 / 2**8, doublings=8))
    assert ladder.points == tuple((B, bisect.bisect_right(discs, B)) for B, _ in ladder.points)
    assert ladder.points[-1][1] == len(discs) > 0


def test_count_in_python_ints_matches_int64(monkeypatch):
    # every key's test ladder, counted once in int64 and once with every
    # cap in Python ints (dtype object): the same lines give the same counts
    ladders = [(key, _top(key) / 2**8) for key in FAST_COUNTERS] + BOUNDARY_LADDERS
    specs = [LadderSpec((kind, n), c, o, b0=b0, doublings=8) for (kind, n, c, o), b0 in ladders]
    want = [count(spec).points for spec in specs]
    monkeypatch.setattr(census, "_INT64_TOP", 0)
    assert [count(spec).points for spec in specs] == want


@given(m=st.integers(1, 10), roots=st.lists(st.tuples(st.integers(0, 2**55), st.integers(-1, 1)),
                                           min_size=1, max_size=20),
       small=st.lists(st.integers(0, 2**62 - 1), max_size=20))
def test_iroot_is_exact_in_int64_and_python_ints(m, roots, small):
    # perfect powers r^m and their neighbours, where a float root is most
    # often off, in Python ints up to 2^550; and any y below 2^62 in both
    # dtypes.  The roots fit int64.
    def exact(y):
        return y if m == 1 else int_root(y, m) if y else 0

    ys = [max(r**m + d, 0) for r, d in roots] + small
    for ys, dtypes in ((ys, (object,)), ([y for y in ys if y < 2**62], (object, np.int64))):
        for dtype in dtypes:
            got = census._iroot(np.array(ys, dtype=dtype), m)
            assert got.dtype == np.int64 and got.tolist() == [exact(y) for y in ys], dtype


@pytest.mark.parametrize("n", [2, 3])
@given(t=st.integers(1, 10**15))
def test_wild_exponent_reads_the_tame_part_mod_n_squared(n, t):
    # _count_mu tallies the tame parts t by their residue mod n^2 and reads
    # each wild cost at that residue; a wild kernel that reads more of a
    # fails here rather than in a count
    t += t % n == 0  # prime to n
    for s, w, v, _ in census._wild_patterns(n):
        assert wild_exponent(n, s * w * t, v) == wild_exponent(n, s * w * (t % (n * n)), v)


def test_cyclic3_count_matches_cohn_constant():
    # Cohn (1954): #{cyclic cubic fields, disc <= B} ~ c sqrt(B), with
    # c = 11 sqrt(3) / (36 pi) prod_{p = 1 mod 3} (1 - 2 / (p (p + 1)));
    # the primes past 10^6 move c by less than 1e-7
    euler = math.prod(1 - 2 / (p * (p + 1)) for p in primes_up_to(10**6) if p % 3 == 1)
    c = 11 * math.sqrt(3) / (36 * math.pi) * euler
    assert abs(c - 0.158528) < 1e-6
    B = 1e3 * 2**26
    (_, got), = count(LadderSpec(("cyclic", 3), "M", "disc_exact", b0=B, doublings=0)).points
    assert abs(got / (c * math.sqrt(B)) - 1) < 0.01


def test_count_cyclic_matches_enumeration():
    spec = LadderSpec(("cyclic", 3), "M", "disc_exact", b0=100, doublings=10)
    ladder = count(spec)
    for B, c in ladder.points:
        assert c == sum(1 for _ in enumerate_cyclic(3, B))


def test_count_m_counter_drops_reducible():
    t = count(LadderSpec(("mu", 2), "T", "disc_exact", b0=10, doublings=8))
    m = count(LadderSpec(("mu", 2), "M", "disc_exact", b0=10, doublings=8))
    assert all(cm < ct for (_, ct), (_, cm) in zip(t.points, m.points))


def test_count_validation():
    with pytest.raises(ValueError):
        count(LadderSpec(("cyclic", 3), "T", "disc_exact"))
    with pytest.raises(ValueError):
        count(LadderSpec(("weird", 3), "T", "disc_exact"))
    # keys outside the table raise before anything is counted: cyclic fields
    # are measured by |disc| alone, and mu_4 has no exact wild exponents
    for target, counter, ordering in ((("cyclic", 3), "M", "darda"),
                                      (("cyclic", 3), "M", "disc_tame"),
                                      (("mu", 4), "T", "disc_exact"),
                                      (("mu", 13), "T", "disc_tame")):
        with pytest.raises(ValueError, match=f"{target[0]}:{target[1]}, counter {counter}"):
            count(LadderSpec(target, counter, ordering))
    # every mu key has its M twin in the table, composite n included
    assert {(k, n, "M", o) for k, n, _, o in FAST_COUNTERS if k == "mu"} <= set(FAST_COUNTERS)
    assert {("mu", n, "M", o) for n in (4, 6, 8, 9, 10, 12)
            for o in ("disc_tame", "darda")} <= set(FAST_COUNTERS)
    # no rungs
    for target, counter, ordering in ((("mu", 2), "T", "disc_exact"), (("mu", 6), "M", "disc_tame")):
        with pytest.raises(ValueError, match="doublings"):
            count(LadderSpec(target, counter, ordering, doublings=-1))


def test_ladder_csv_roundtrip(tmp_path):
    ladder = count(LadderSpec(("mu", 2), "T", "disc_exact", b0=10, doublings=8))
    path = tmp_path / "ladder.csv"
    ladder.to_csv(str(path))
    back = CountLadder.from_csv(str(path))
    assert back.points == ladder.points
    assert (back.target, back.counter, back.ordering) == ("?", "?", "?")  # the CSV holds no labels


def test_ladder_csv_rejects_b_not_rising(tmp_path):
    # fit reads the top half of the rows: a B column out of order would fit
    # the wrong ones
    path = tmp_path / "bad.csv"
    for text, line in (("B,count\n2000.0,9\n1000.0,5\n", 3), ("B,count\n1.0,1\n1.0,1\n", 3),
                       # a B or a count that does not parse names its line too
                       ("B,count\n1.0,1\nabc,5\n", 3), ("B,count\n1.0,1\n2.0,1.5\n", 3)):
        path.write_text(text)
        with pytest.raises(ValueError, match=f"line {line}"):
            CountLadder.from_csv(str(path))


def test_ladder_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    for text in ("x,y\n1,2\n", ""):
        path.write_text(text)
        with pytest.raises(ValueError):
            CountLadder.from_csv(str(path))


def _planted_ladder(alpha, beta, c0, rungs):
    pts = tuple(
        (B, max(1, round(c0 * B**alpha * math.log(B) ** beta))) for B in rungs
    )
    return CountLadder("mu:0", "T", "disc_exact", pts)


def test_fit_recovers_planted_exponents():
    rungs = [10**3 * 2**i for i in range(19)]
    rng = random.Random(SEED)
    for alpha, beta in [(1.0, 0.0), (0.5, 1.0), (0.5, 2.0)]:
        c0 = rng.uniform(0.5, 2.0)
        res = fit(_planted_ladder(alpha, beta, c0, rungs))
        assert abs(res.alpha - alpha) < 0.01
        assert abs(res.beta - beta) < 0.1
        assert res.residual_rms < 0.01


def test_fit_window_and_validation():
    rungs = [10**3 * 2**i for i in range(19)]
    ladder = _planted_ladder(1.0, 0.0, 1.0, rungs)
    res = fit(ladder, window=(4, 19))
    assert res.window == (4, 19)
    with pytest.raises(ValueError):
        fit(CountLadder("mu:2", "T", "disc_exact", tuple(ladder.points[:5])))
    with pytest.raises(ValueError):
        fit(ladder, window=(0, 3))
    zeros = CountLadder(
        "mu:2", "T", "disc_exact", tuple((b, 0) for b, _ in ladder.points)
    )
    with pytest.raises(ValueError):
        fit(zeros)


def test_fit_json():
    rungs = [10**3 * 2**i for i in range(19)]
    res = fit(_planted_ladder(1.0, 0.0, 1.0, rungs))
    obj = res.to_json()
    assert set(obj) == {"alpha", "beta", "gamma", "residual_rms", "window"}


# ladders whose memory is the h sweep's supports and their (cap, term)
# pairs: mu_4 in int64, mu_12 darda and mu_6 M darda (restricted records)
# past 2^62 in Python ints; one whose memory is a class row, mu_7 darda;
# and one whose memory is the Mobius table (Z = 10^6), mu_2
@pytest.mark.parametrize("target,counter,ordering,top,doublings", [
    (("mu", 4), "T", "disc_tame", 1e16, 20),
    (("mu", 12), "T", "darda", 2.95, 10),
    (("mu", 6), "M", "darda", 11.0, 10),
    (("mu", 7), "T", "darda", 6.0, 8),
    (("mu", 2), "T", "disc_exact", 1e12, 20),
])
def test_memory_guard_covers_the_traced_peak(monkeypatch, target, counter, ordering, top,
                                             doublings):
    # with physical memory reported just below the peak tracemalloc traces
    # over the ladder, the guard raises before the counter could pass it;
    # with three times the peak it counts
    spec = LadderSpec(target, counter, ordering, b0=top / 2**doublings, doublings=doublings)
    want = count(spec)  # the plans and the cached primes built outside the trace
    tracemalloc.start()
    try:
        assert count(spec) == want
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak > 2**22  # the sweep, the pairs or the table, not the fixed costs, set the peak
    for pages, fits in ((peak // 4096, False), (3 * peak // 4096, True)):
        monkeypatch.setattr(os, "sysconf",
                            lambda name, pages=pages: pages if name == "SC_PHYS_PAGES" else 4096)
        if fits:
            assert count(spec) == want
        else:
            with pytest.raises(ValueError, match="physical memory"):
                count(spec)
